import json
import os
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from cross_effect_oracle import cross_effect_ranks, signed_sum_table

from cubefunc import functors
from cubefunc.domains import ZZ, GF2, Z_HALF, Zloc
from cubefunc.functors import (
    FUNCTOR_IDS,
    Product,
    Sym,
    Tensor,
    builtin,
    cross_effect_idempotents,
    extract_diagram,
    first_nonvanishing_above,
    split_idempotent,
    structure_maps,
)
from cubefunc.matrix import Mat, rank
from cubefunc.rings import verify_relations


# frozen cross-effect ranks (r1, r2, r3); each was derived by the idempotent
# calculus and cross-checked against the binomial bookkeeping below
EXPECTED_RANKS = {
    "group_ring_trunc": (3, 3, 1),
    "tensor_cube": (1, 6, 6),
    "sym3": (1, 2, 1),
    "ext3": (0, 0, 1),
    "ext2_tensor_id": (0, 2, 3),
    "sym2": (1, 1, 0),
    "ext2": (0, 1, 0),
}

# functors composed from the classes beyond the seven built-ins
COMPOSED = {
    "Tensor(1)": Tensor(1),
    "Tensor(2)": Tensor(2),
    "Product(Sym(2),Tensor(1))": Product(Sym(2), Tensor(1)),
}

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "fixtures", "z_diagrams.json")


def test_evaluate_ranks():
    assert builtin("group_ring_trunc").rank(1) == 3
    assert builtin("group_ring_trunc").rank(3) == 3 + 6 + 10
    assert builtin("ext3").rank(2) == 0
    assert builtin("tensor_cube").rank(2) == 8
    assert builtin("sym3").rank(3) == 10


@pytest.mark.parametrize("fid", FUNCTOR_IDS + tuple(COMPOSED))
def test_functoriality(fid):
    rng = random.Random(hash(fid) % 10000)
    f = COMPOSED.get(fid) or builtin(fid)
    for _ in range(20):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        m = rng.randint(1, 3)
        a = Mat(ZZ, [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m)])
        b = Mat(ZZ, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)])
        assert f.act(a * b) == f.act(a) * f.act(b)
    for n in range(4):
        assert f.act(Mat.identity(ZZ, n)) == Mat.identity(ZZ, f.rank(n))


def test_act_refuses_entries_that_are_not_integers():
    f = builtin("sym2")
    for a in (Mat(Z_HALF, [[Fraction(1, 2)]]), [[2.9]]):
        with pytest.raises(ValueError, match="integer"):
            f.act(a)
    assert f.act([[2.0]]) == Mat(ZZ, [[4]])
    assert f.act(Mat(GF2, [[1]])) == Mat(ZZ, [[1]])


@pytest.mark.parametrize("fid, dims", [
    ("Tensor(1)", (1, 0, 0)),
    ("Tensor(2)", (1, 2, 0)),
    ("Product(Sym(2),Tensor(1))", (1, 4, 3)),
])
def test_composed_diagrams(fid, dims):
    d = extract_diagram(COMPOSED[fid])
    assert tuple(m.gens for m in d.modules()) == dims
    ok, report = verify_relations(d)
    assert ok, [n for n, z in report if not z]


def test_unknown_functor_id():
    with pytest.raises(ValueError, match="unknown functor id"):
        builtin("sym4")


@pytest.mark.parametrize("fid", FUNCTOR_IDS)
def test_diagram_matches_the_benchmark_fixture(fid):
    with open(FIXTURE) as fh:
        want = json.load(fh)
    assert extract_diagram(builtin(fid, ZZ)).to_json() == want["diagrams"][fid]


@pytest.mark.parametrize("fid", FUNCTOR_IDS)
def test_cross_effect_ranks(fid):
    assert cross_effect_ranks(builtin(fid)) == EXPECTED_RANKS[fid]


@pytest.mark.parametrize("base", [ZZ, Z_HALF], ids=["Z", "Z_half"])
@pytest.mark.parametrize("fid", FUNCTOR_IDS)
def test_streamed_top_cross_effect_agrees_with_the_table_oracle(fid, base):
    f = builtin(fid, base)
    for m in range(1, 6):
        got = functors._top_cross_effect(f, m)
        assert got.dom == base
        assert got == signed_sum_table(f, m, tuple(range(m))), m


@pytest.mark.parametrize("base, bound_mb", [(ZZ, 0.6), (Z_HALF, 1.5)], ids=["Z", "Z_half"])
def test_degree_check_memory_is_bounded(base, bound_mb):
    """The F_4 and F_5 checks of tensor_cube (r = 64 and 125) stream their
    Moebius sums; with a table of all 2^5 images the peak was 4.41 MiB."""
    f = builtin("tensor_cube", base)
    tracemalloc.start()
    try:
        assert first_nonvanishing_above(f, 3) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2**20, peak / 2**20


@pytest.mark.parametrize("fid", FUNCTOR_IDS)
def test_idempotent_family(fid):
    f = builtin(fid)
    for n in (1, 2, 3):
        fam = cross_effect_idempotents(f, n)
        r = f.rank(n)
        total = Mat.zeros(ZZ, r, r)
        for S, e in fam.items():
            assert e == signed_sum_table(f, n, S)
            assert e * e == e
            total = total + e
        assert total == Mat.identity(ZZ, r)
        for S, e in fam.items():
            for T, e2 in fam.items():
                if S != T:
                    assert (e * e2).is_zero()


@pytest.mark.parametrize("fid", FUNCTOR_IDS)
def test_binomial_bookkeeping(fid):
    f = builtin(fid)
    r = EXPECTED_RANKS[fid]
    for n in range(5):
        assert f.rank(n) == sum(comb(n, m) * r[m - 1] for m in (1, 2, 3))


def test_split_idempotent():
    e = Mat(ZZ, [[1, 1], [0, 0]])
    assert e * e == e
    s, t = split_idempotent(e)
    assert s * t == e
    assert t * s == Mat.identity(ZZ, 1)


@pytest.mark.parametrize("fid", FUNCTOR_IDS)
def test_diagram_relations(fid):
    d = extract_diagram(builtin(fid))
    ok, report = verify_relations(d)
    assert ok, [n for n, z in report if not z]


def test_diagram_relations_char2():
    d = extract_diagram(builtin("ext2_tensor_id", GF2))
    ok, report = verify_relations(d)
    assert ok, [n for n, z in report if not z]


def test_ext3_diagram_shape():
    d = extract_diagram(builtin("ext3"))
    assert d.F1.gens == 0 and d.F2.gens == 0 and d.F3.gens == 1
    assert d.h.matrix.rows == 0 and d.p1.matrix.cols == 1


def test_sym2_diagram_quadratic():
    d = extract_diagram(builtin("sym2"))
    assert d.F3.gens == 0
    assert d.F1.gens == 1 and d.F2.gens == 1


def test_tensor_cube_hp_trace():
    # frozen from a pre-build oracle run; consistent with F(2 id) = 8 = 2 + 6
    # on the linear cross-effect
    d = extract_diagram(builtin("tensor_cube"))
    assert (d.h.matrix * d.p.matrix).trace() == 6
    assert (d.p.matrix * d.h.matrix).trace() == 6


def test_group_ring_ph_matrix():
    # p∘h on the rank-3 linear part; frozen from the oracle run and
    # cross-checked: trace(ph) + 2 = F(2·id) acting on degree pieces
    d = extract_diagram(builtin("group_ring_trunc"))
    ph = d.p.matrix * d.h.matrix
    assert ph == Mat(ZZ, [[0, 0, 0], [1, 2, 0], [0, 4, 6]])


def test_degree_guard():
    # every builtin is cubic: 4th cross-effect vanishes
    for fid in FUNCTOR_IDS:
        assert first_nonvanishing_above(builtin(fid), 3) is None


def test_diagram_json_round_trip():
    from cubefunc.functors import CubicDiagram

    d = extract_diagram(builtin("sym3"))
    d2 = CubicDiagram.from_json(d.to_json())
    for name, mor in d.maps().items():
        assert d2.maps()[name].matrix == mor.matrix


def test_diagram_direct_sum():
    a = extract_diagram(builtin("sym3"))
    b = extract_diagram(builtin("ext3"))
    s = a.direct_sum(b)
    assert s.F3.gens == a.F3.gens + b.F3.gens
    assert verify_relations(s)[0]


@pytest.mark.parametrize("dom", [Z_HALF, GF2, Zloc(3)], ids=["Z[1/2]", "GF(2)", "Z_(3)"])
def test_diagram_base_change(dom):
    # the diagram over dom is the Z diagram with its entries mapped into dom
    for fid in FUNCTOR_IDS:
        dz = extract_diagram(builtin(fid))
        d = extract_diagram(builtin(fid, dom))
        for k in ("F1", "F2", "F3"):
            mz, m = getattr(dz, k), getattr(d, k)
            assert m.dom == dom and m.gens == mz.gens, (fid, k)
            assert m.relations == mz.relations.to_domain(dom), (fid, k)
        for name, mor in dz.maps().items():
            got = d.maps()[name].matrix
            assert (got.rows, got.cols) == (mor.matrix.rows, mor.matrix.cols), (fid, name)
            assert got == mor.matrix.to_domain(dom), (fid, name)


@pytest.mark.parametrize("dom", [ZZ, Z_HALF], ids=str)
def test_degree_guard_fires(dom):
    f = Tensor(4, dom)
    assert first_nonvanishing_above(f, 3) == 4
    with pytest.raises(ValueError, match="nonvanishing cross-effect in degree 4"):
        extract_diagram(f)
