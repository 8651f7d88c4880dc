from functools import lru_cache

import gf2_oracle
import numpy as np
import probe_oracle
import pytest
from hypothesis import given, settings, strategies as st

from cubefunc import gf2
from cubefunc.domains import GF3, ZZ, Z_HALF, Zloc
from cubefunc.matrix import Mat, det, smith_normal_form, solve
from cubefunc.presentation import FpPresentation
from cubefunc.strings_bands import (
    BandData3,
    BModuleDiagram,
    StringDiagram3,
    WDiagram,
    WordDatum4,
    build_band_module,
    build_named,
    build_string_module,
    build_W,
    indecomposability_probe,
    irreducible_torsion_free,
    projective_diagram,
)
from cubefunc.strings_bands import _coordinates, _free, _levels, _probe_algebra, _snf_mod


def inv(m):
    """Per-level invariant factors as plain ints plus the free rank."""
    return tuple(
        (tuple(int(p) for p, e in tors for _ in range(e)), free)
        for tors, free in m.invariant_factors()
    )


def diagram_inv(d):
    return tuple(
        (tuple(int(p) for p, e in tors for _ in range(e)), free)
        for tors, free in (lvl.invariant_factors() for lvl in (d.F1, d.F2, d.F3))
    )


# ---------------------------------------------------------------------------
# projectives and irreducible torsion-free diagrams
# ---------------------------------------------------------------------------


FREE_RANKS = {
    1: (2, 1, 0),
    2: (1, 2, 1),
    3: (0, 1, 2),
}

L_RANKS = {
    1: (1, 0, 0),
    2: (1, 1, 0),
    3: (1, 1, 0),
    4: (0, 1, 1),
    5: (0, 1, 1),
    6: (0, 0, 1),
}


@pytest.mark.parametrize("c", [1, 2, 3])
def test_projective_diagrams(c):
    d = projective_diagram(c)
    ok, checks = d.verify(BModuleDiagram.RELATIONS)
    assert ok, checks
    assert inv(d) == tuple(((), r) for r in FREE_RANKS[c])


@pytest.mark.parametrize("i", range(1, 7))
def test_irreducible_torsion_free(i):
    d = irreducible_torsion_free(i)
    ok, checks = d.verify(BModuleDiagram.RELATIONS)
    assert ok, checks
    assert inv(d) == tuple(((), r) for r in L_RANKS[i])


def test_relation_check_rejects_bad_diagram():
    p = projective_diagram(2)
    bad = p.a1.matrix.scale(2)
    with pytest.raises(ValueError):
        BModuleDiagram(*p.modules(), bad, p.b1, p.a2, p.b2)


# ---------------------------------------------------------------------------
# string diagram data
# ---------------------------------------------------------------------------


def test_string_data_validation():
    with pytest.raises(ValueError):
        StringDiagram3("iv", [1, 2], [1, None], [1, None])
    with pytest.raises(ValueError):
        StringDiagram3("i", [1, 2, 3], [1, 1, 1], [1, 1, 1])
    # partner condition i_2 ~ i_3 fails: 2's partner is 1, not 4
    with pytest.raises(ValueError):
        StringDiagram3("i", [1, 2, 4, 3], [1, 4, 4, None], [1, 0, 1, None])
    # merge-class condition: j_1 must share a class with i_1 = 1
    with pytest.raises(ValueError):
        StringDiagram3("i", [1, 2], [2, None], [1, None])
    with pytest.raises(ValueError):
        StringDiagram3("i", [1, 2], [1, None], [-1, None])


def test_phantom_indices_are_filled_and_flagged():
    d = StringDiagram3("i", [1, 2], [1, None], [1, None])
    assert d.i == [1, 2]
    assert d.synthetic == [2]
    # shape ii with n = 1 has no non-synthetic position to infer from
    with pytest.raises(ValueError):
        StringDiagram3("ii", [None, None], [None, None], [None, None])


def test_reverse_defined_only_for_symmetric_shapes():
    d = StringDiagram3("i", [1, 2], [1, None], [1, None])
    with pytest.raises(ValueError):
        d.reverse()
    s = StringDiagram3("iii", [1, 2, 4, 3], [1, 3, 4, 2], [1, 0, 1, 2])
    assert s.reverse().reverse() == s


# ---------------------------------------------------------------------------
# string modules: frozen invariant factors
# ---------------------------------------------------------------------------


STRING_CASES = [
    # a single generator with no relations gives a projective cover
    (
        StringDiagram3("ii", [1, 2], [None, None], [None, None]),
        (((), 2), ((), 1), ((), 0)),
    ),
    (
        StringDiagram3("i", [1, 2], [1, None], [1, None]),
        (((3,), 1), ((), 1), ((), 0)),
    ),
    (
        StringDiagram3("i", [1, 2, 4, 3], [1, 3, 4, None], [1, 0, 1, None]),
        (((9,), 1), ((9,), 1), ((9,), 0)),
    ),
    (
        StringDiagram3("ii", [None, 2, 4, None], [None, 3, 4, None], [None, 1, 1, None]),
        (((3,), 2), ((3, 9), 1), ((9,), 0)),
    ),
    (
        StringDiagram3("iii", [1, 2, 4, 3], [1, 3, 4, 2], [1, 0, 1, 2]),
        (((9, 9), 0), ((9, 27), 0), ((9,), 0)),
    ),
]


@pytest.mark.parametrize("d,expected", STRING_CASES)
def test_string_module_invariants(d, expected):
    m = build_string_module(d)
    ok, checks = m.verify(BModuleDiagram.RELATIONS)
    assert ok, checks
    assert inv(m) == expected


def test_string_free_rank_shapes():
    """The free part of a string module only depends on the shape and the
    outer indices: one irreducible summand per open end, none for shape iii."""
    for i1, i2 in [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (6, 5)]:
        d = StringDiagram3("i", [i1, i2], [i1, None], [1, None])
        free = tuple(f for _, f in inv(build_string_module(d)))
        assert free == L_RANKS[i2]


# ---------------------------------------------------------------------------
# band data and band modules
# ---------------------------------------------------------------------------


def test_band_data_validation():
    base = StringDiagram3("iii", [3, 4], [3, 4], [1, 1])
    with pytest.raises(ValueError):
        BandData3(StringDiagram3("ii", [None, None], [2, 3], [0, 0]), [1, 1])
    with pytest.raises(ValueError):
        BandData3(base, [1])  # constant polynomial
    with pytest.raises(ValueError):
        BandData3(base, [0, 1])  # lam_1 = 0
    with pytest.raises(ValueError):
        BandData3(base, [2, 0, 1])  # t^2 + 2 = (t+1)(t+2) is not primary
    # doubling the diagram makes it periodic
    doubled = StringDiagram3("iii", [3, 4, 3, 4], [3, 4, 3, 4], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        BandData3(doubled, [1, 1])


BAND_CASES = [
    (
        BandData3(StringDiagram3("iii", [3, 4], [3, 4], [1, 1]), [1, 1]),
        (((9,), 0), ((9, 9), 0), ((9,), 0)),
    ),
    (
        BandData3(StringDiagram3("iii", [3, 4], [3, 4], [1, 1]), [1, 0, 1]),
        (((9, 9), 0), ((3, 3, 27, 27), 0), ((9, 9), 0)),
    ),
    (
        BandData3(
            StringDiagram3("iii", [3, 4, 2, 1], [2, 4, 3, 1], [1, 0, 1, 1]), [2, 1]
        ),
        (((3, 3, 27), 0), ((9, 9), 0), ((3,), 0)),
    ),
]


@pytest.mark.parametrize("b,expected", BAND_CASES)
def test_band_module_invariants(b, expected):
    m = build_band_module(b)
    ok, checks = m.verify(BModuleDiagram.RELATIONS)
    assert ok, checks
    assert inv(m) == expected


def test_band_shift_invariance():
    b = BandData3(
        StringDiagram3("iii", [3, 4, 2, 1], [2, 4, 3, 1], [1, 0, 1, 1]), [2, 1]
    )
    base = inv(build_band_module(b))
    assert inv(build_band_module(b.shift(1))) == base


def test_band_star_matches_some_shift():
    b = BandData3(
        BAND_CASES[2][0].diagram, BAND_CASES[2][0].poly
    )
    base = inv(build_band_module(b))
    star = b.star()
    shifts = [inv(build_band_module(star.shift(s))) for s in range(b.diagram.n)]
    assert base in shifts


# ---------------------------------------------------------------------------
# named torsion modules
# ---------------------------------------------------------------------------


def test_build_named_values():
    assert inv(build_named(1, 5, 1)) == (((5,), 0), ((), 0), ((), 0))
    assert inv(build_named(4, 7, 2)) == (((), 0), ((49,), 0), ((49,), 0))
    assert diagram_inv(build_named("ext2", 3, 1)) == (((), 0), ((3,), 0), ((), 0))
    assert diagram_inv(build_named("sym2", 3, 2)) == (((9,), 0), ((9,), 0), ((), 0))


def test_build_named_zero_truncation():
    z = build_named(2, 5, 0)
    assert inv(z) == (((), 0), ((), 0), ((), 0))


def test_build_named_rejections():
    with pytest.raises(ValueError):
        build_named(1, 4, 1)  # 4 is not prime
    with pytest.raises(ValueError):
        build_named(1, 3, 1)  # these quotients live away from 3
    with pytest.raises(ValueError):
        build_named(3, 5, 1)  # index must be 1, 2, 4 or 6
    with pytest.raises(ValueError):
        build_named("ext2", 2, 1)
    with pytest.raises(ValueError):
        build_named(1, 5, -1)


# ---------------------------------------------------------------------------
# indecomposability probe
# ---------------------------------------------------------------------------


def test_probe_single_generator_string():
    m = build_string_module(STRING_CASES[0][0])
    for level in (2, 3):
        res = indecomposability_probe(m, level=level)
        assert res.verdict == "indecomposable-at-level"
    assert indecomposability_probe(m, level=3).endo_rank == 2


def test_probe_detects_splitting():
    m = build_string_module(STRING_CASES[0][0])
    res = indecomposability_probe(m.direct_sum(m), level=3)
    assert res.verdict == "splits"
    assert res.endo_rank == 8
    assert res.witness is not None


IRR_BAND = BandData3(StringDiagram3("iii", [3, 4], [3, 4], [0, 0]), [1, 0, 1])
SQ_BAND = BandData3(StringDiagram3("iii", [3, 4], [3, 4], [0, 0]), [1, 2, 1])


def test_probe_band_degree_two():
    assert indecomposability_probe(build_band_module(IRR_BAND), level=3).verdict == (
        "indecomposable-at-level"
    )
    assert indecomposability_probe(build_band_module(SQ_BAND), level=3).verdict == (
        "indecomposable-at-level"
    )


def test_probe_level_matters():
    # this band splits when truncated at 3 but not at 27
    b = BandData3(StringDiagram3("iii", [3, 4], [3, 4], [1, 1]), [1, 0, 1])
    m = build_band_module(b)
    assert indecomposability_probe(m, level=1).verdict == "splits"
    deep = indecomposability_probe(m, level=3)
    assert deep.verdict == "indecomposable-at-level"
    assert deep.endo_rank == 8


def test_probe_rejects_bad_level_and_prime():
    m = build_string_module(STRING_CASES[0][0])
    for kw in (
        dict(level=0), dict(level=-1), dict(level=1.5), dict(level=40),
        dict(prime=1), dict(prime=4), dict(prime=2),  # 2 is a unit of Z[1/2]
    ):
        with pytest.raises(ValueError):
            indecomposability_probe(m, **kw)
    local = build_string_module(STRING_CASES[0][0], Zloc(3))
    with pytest.raises(ValueError):
        indecomposability_probe(local, prime=5)  # 5 is a unit of Z_(3)
    z = lambda r, c: Mat.zeros(GF3, r, c)
    over_field = _free(GF3, (1, 0, 0), z(0, 1), z(1, 0), z(0, 0), z(0, 0))
    with pytest.raises(ValueError):
        indecomposability_probe(over_field)


def test_probe_at_another_prime():
    # away from 3, b1 a1 / 3 is an idempotent of the projective at level 1
    m = build_string_module(STRING_CASES[0][0])
    res = _checked_probe(m, 2, prime=5)
    assert (res.verdict, res.endo_rank) == ("splits", 2)


@pytest.mark.parametrize("level", [1, 3])
def test_probe_refuses_the_zero_module(level):
    z = lambda r, c: Mat.zeros(Z_HALF, r, c)
    empty = _free(Z_HALF, (0, 0, 0), z(0, 0), z(0, 0), z(0, 0), z(0, 0))
    killed = BModuleDiagram(
        FpPresentation(Z_HALF, 1, Mat(Z_HALF, [[1]])), FpPresentation.zero(Z_HALF),
        FpPresentation.zero(Z_HALF), z(0, 1), z(1, 0), z(0, 0), z(0, 0),
    )
    for m in (empty, killed):
        with pytest.raises(ValueError, match="the zero module has no summands"):
            indecomposability_probe(m, level=level)
    # L(2, 5, 0) is zero, and so is its truncation at 5
    with pytest.raises(ValueError, match="the zero module has no summands"):
        indecomposability_probe(build_named(2, 5, 0), level=level, prime=5)


# (verdict, endo_rank) at levels 1, 2, 3 of the string and band modules
# above, as an independent implementation computed them: exact Smith and
# Hermite forms over Z[1/2] in place of the Smith form mod 3^k
I, S = "indecomposable-at-level", "splits"
PROBE_PINS = {
    "string0": ((I, 2), (I, 2), (I, 2)),
    "string1": ((I, 2), (I, 2), (I, 2)),
    "string2": ((S, 3), (S, 3), (I, 4)),
    "string3": ((S, 6), (S, 6), (I, 6)),
    "string4": ((S, 3), (S, 3), (I, 3)),
    "band0": ((I, 2), (I, 2), (I, 2)),
    "band1": ((S, 8), (S, 8), (I, 8)),
    "band2": ((S, 5), (I, 5), (I, 5)),
    "band3": ((S, 4), (I, 4), (I, 4)),
    "band4": ((S, 5), (I, 5), (I, 5)),
    "string0+string0": ((S, 8), (S, 8), (S, 8)),
}


@lru_cache(maxsize=None)
def _probe_modules(dom):
    mods = {f"string{i}": build_string_module(d, dom) for i, (d, _) in enumerate(STRING_CASES)}
    bands = [b for b, _ in BAND_CASES] + [IRR_BAND, SQ_BAND]
    mods.update({f"band{i}": build_band_module(b, dom) for i, b in enumerate(bands)})
    mods["string0+string0"] = mods["string0"].direct_sum(mods["string0"])
    return mods


def _assert_split_certificate(m, witness, q):
    """The witness is an idempotent endomorphism of M/q other than 0 and 1:
    E_t F = F E_s modulo relations + q for every arrow F: M_s -> M_t, each
    E maps relations into relations + q, E^2 = E entrywise mod q, and
    neither E nor 1 - E kills M/q."""
    dom, mods = m.dom, m.modules()
    E = []
    for pres, rows in zip(mods, witness):
        e = Mat.zeros(dom, pres.gens, pres.gens)
        for i, row in enumerate(rows):
            e.a[i] = [dom.canon(x) for x in row]
        E.append(e)

    def null(lvl, x):
        """Every column of x lies in relations + q at level lvl."""
        pres = mods[lvl]
        if x.rows == 0 or x.cols == 0:
            return True
        lat = Mat.diag(dom, [q] * pres.gens)
        if pres.relations.cols:
            lat = pres.relations.hstack(lat)
        return solve(lat, x) is not None

    for s, t, f in ((0, 1, m.a1), (1, 0, m.b1), (1, 2, m.a2), (2, 1, m.b2)):
        assert null(t, E[t] * f.matrix - f.matrix * E[s])
    for lvl, pres in enumerate(mods):
        assert null(lvl, E[lvl] * pres.relations)
    for e in E:
        assert all(x % q == 0 for row in (e * e - e).a for x in row)
    one = [Mat.identity(dom, pres.gens) for pres in mods]
    assert not all(null(lvl, E[lvl]) for lvl in range(3))
    assert not all(null(lvl, one[lvl] - E[lvl]) for lvl in range(3))


def _assert_locality_certificate(alg, certificate, p, q):
    """gf2_oracle.check_locality on A = End(M/q) / (N + p End), with the
    probe's basis triples multiplied mod q and compared by their
    coordinates modulo N + p End."""
    triple = lambda f: tuple(np.array(m, dtype=np.int64).reshape(n, n)
                             for m, n in zip(f, alg.sizes))
    vec = lambda f: _coordinates(
        np.concatenate([np.asarray(m).reshape(-1) for m in f]) % q, alg.span, p)
    basis = [tuple(_levels(b, alg.sizes, alg.offs)) for b in alg.basis]
    certificate = gf2.Locality([triple(x) for x in certificate.ideal], certificate.index,
                               [triple(x) for x in certificate.fixed])
    gf2_oracle.check_locality(basis, alg.sizes, certificate, p=p, modulus=q, vec=vec)


def _checked_probe(m, level, prime=3):
    """The probe's verdict, with its witness re-checked by
    _assert_split_certificate or its certificate by check_locality."""
    q = prime ** level
    res = indecomposability_probe(m, level=level, prime=prime)
    if res.verdict == "splits":
        assert res.certificate is None
        _assert_split_certificate(m, res.witness, q)
    else:
        assert res.verdict == "indecomposable-at-level" and res.witness is None
        _assert_locality_certificate(_probe_algebra(m, prime, level), res.certificate,
                                     prime, q)
    return res


@pytest.mark.parametrize("dom", [Z_HALF, Zloc(3), ZZ], ids=str)
@pytest.mark.parametrize("name", list(PROBE_PINS))
def test_probe_pinned_verdicts_and_certificates(name, dom):
    """The verdicts do not depend on the base ring: M/3^k is the same
    module over Z[1/2], Z_(3) and Z."""
    m = _probe_modules(dom)[name]
    for level, pin in zip((1, 2, 3), PROBE_PINS[name]):
        res = _checked_probe(m, level)
        assert (res.verdict, res.endo_rank) == pin, level


# the probe's locality kernel against the enumeration oracle -----------------

ORACLE = settings(max_examples=40, deadline=None, derandomize=True, database=None)
ORACLE_SIZE = 3 ** 8          # the most combinations the oracle enumerates


def _random_probe_module(kind, seed, dom=Z_HALF):
    """A seeded string or band module, a direct sum of two, or one of the
    probe modules above."""
    rng = np.random.default_rng(seed)
    string = lambda n: build_string_module(probe_oracle.random_string_datum(rng, n), dom)
    band = lambda n: build_band_module(probe_oracle.random_band_datum(rng, n), dom)
    if kind == "string":
        return string(2)
    if kind == "band":
        return band(2)
    if kind == "sum":
        return string(1).direct_sum(band(1) if rng.integers(0, 2) else string(1))
    mods = _probe_modules(dom)
    return mods[sorted(mods)[seed % len(mods)]]


def _assert_probe_matches_the_oracle(m, level, prime=3):
    """Whether the probe was compared with the oracle: not when M/q = 0
    or A is too large to enumerate."""
    q = prime ** level
    try:
        alg = _probe_algebra(m, prime, level)
    except ValueError:                   # M/q = 0
        return False
    r = len(alg.basis)
    if prime ** r > ORACLE_SIZE:
        return False
    res = _checked_probe(m, level, prime)
    assert gf2_oracle._rank(_coordinates(alg.basis, alg.span, prime), prime) == r
    found = probe_oracle.enumerate_idempotent(alg, prime, q)
    want = "indecomposable-at-level" if found is None else "splits"
    assert (res.verdict, res.endo_rank) == (want, r)
    return True


@ORACLE
@given(st.sampled_from(("string", "band", "sum", "named")), st.integers(0, 10 ** 6),
       st.integers(1, 3))
def test_probe_agrees_with_the_enumeration_oracle(kind, seed, level):
    _assert_probe_matches_the_oracle(_random_probe_module(kind, seed), level)


@pytest.mark.parametrize("name", list(PROBE_PINS))
def test_probe_modules_agree_with_the_enumeration_oracle(name):
    for level in (1, 2, 3):
        _assert_probe_matches_the_oracle(_probe_modules(Z_HALF)[name], level)


@pytest.mark.parametrize("prime", [2, 5])
def test_probe_agrees_with_the_enumeration_oracle_at_other_primes(prime):
    # over Z, where 2 is no unit; the GF(p) kernel _eliminate(a, p) takes
    # both primes alike.  Only the free part of a module survives mod 2 or 5
    compared = 0
    for seed in range(24):
        m = _random_probe_module(("string", "sum")[seed % 2], seed, ZZ)
        compared += sum(_assert_probe_matches_the_oracle(m, level, prime) for level in (1, 2))
    assert compared >= 10


def test_probe_decides_past_the_old_enumeration_cap():
    # the probe used to enumerate at most 2,000,000 combinations and
    # answer "unknown" past them; 3^18 and 3^20 are far beyond
    assert 3 ** 18 > 2_000_000
    string0 = _probe_modules(Z_HALF)["string0"]
    cube = string0.direct_sum(string0).direct_sum(string0)
    for level in (1, 2, 3):
        res = _checked_probe(cube, level)
        assert (res.verdict, res.endo_rank) == ("splits", 18)
    # pi = t^2 + t + 1 = (t - 1)^2 over Z/3
    band = build_band_module(BandData3(
        StringDiagram3("iii", [5, 6, 5, 6], [5, 6, 5, 6], [1, 1, 0, 1]), [1, 1, 1]))
    res = _checked_probe(band, 3)
    assert (res.verdict, res.endo_rank) == ("indecomposable-at-level", 20)
    assert res.certificate.index > 1


# Smith form over Z/p^k -----------------------------------------------------

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _int_mat(a):
    out = Mat.zeros(ZZ, *a.shape)
    for i, row in enumerate(a.tolist()):
        out.a[i] = row
    return out


@st.composite
def _chain_ring_case(draw):
    """(p, k, a): a mod p^k of shape up to 5 x 5, with entries of every
    valuation, sometimes a product through an inner dimension 0..2."""
    p = draw(st.sampled_from((2, 3, 5)))
    k = draw(st.integers(1, 3))
    q = p ** k
    entry = st.builds(lambda v, u: p ** v * u % q, st.integers(0, k), st.integers(0, q - 1))

    def mat(r, c):
        rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
        return np.array(rows, dtype=np.int64).reshape(r, c)

    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        inner = draw(st.integers(0, 2))
        return p, k, mat(m, inner) @ mat(inner, n) % q
    return p, k, mat(m, n)


def _assert_smith_mod(p, k, a):
    q = p ** k
    m, n = a.shape
    U, exps, V = _snf_mod(a, p, k)
    assert U.shape == (m, m) and V.shape == (n, n)
    assert len(exps) == min(m, n) and exps == sorted(exps)
    D = np.zeros((m, n), dtype=np.int64)
    for i, e in enumerate(exps):
        D[i, i] = p ** e % q
    assert ((U @ a @ V - D) % q == 0).all()
    assert det(_int_mat(U)) % p and det(_int_mat(V)) % p
    _, s, _ = smith_normal_form(_int_mat(a))
    diag = [s.a[i][i] for i in range(min(m, n)) if s.a[i][i]]
    assert exps == [min(_valuation(x, p), k) for x in diag] + [k] * (min(m, n) - len(diag))


@PROPERTY
@given(_chain_ring_case())
def test_snf_mod_is_the_smith_form_over_z_mod_pk(case):
    _assert_smith_mod(*case)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 3), (5, 2)])
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3), (3, 2)])
def test_snf_mod_empty_and_zero(p, k, shape):
    _assert_smith_mod(p, k, np.zeros(shape, dtype=np.int64))
    _assert_smith_mod(p, k, np.full(shape, p ** k, dtype=np.int64))


# ---------------------------------------------------------------------------
# words over Z_(2)
# ---------------------------------------------------------------------------


def test_word_validation():
    with pytest.raises(ValueError):
        WordDatum4([])
    with pytest.raises(ValueError):
        WordDatum4([("xi", 2), ("xi", 1)])
    with pytest.raises(ValueError):
        WordDatum4([("xi", 0)])
    with pytest.raises(ValueError):
        WordDatum4([("eta", None), ("xi", 1)])  # eta_inf xi
    with pytest.raises(ValueError):
        WordDatum4([("xi", None), ("eta", 2)])  # xi^inf eta
    with pytest.raises(ValueError):
        WordDatum4([("eta", 1), ("xi", 1)])  # eta_1 xi
    # cyclic words: must run xi ... eta, polynomial primary and not t^n
    with pytest.raises(ValueError):
        WordDatum4([("xi", 2), ("eta", 3), ("xi", 1)], poly=[1, 1])
    with pytest.raises(ValueError):
        WordDatum4([("xi", 2), ("eta", 3)], poly=[0, 1])
    with pytest.raises(ValueError):
        WordDatum4([("xi", 2), ("eta", 3)], poly=[1, 0, 0, 1])  # (t+1)(t^2+t+1)
    with pytest.raises(ValueError):
        WordDatum4([("xi", None), ("eta", None)], poly=[1, 1])


def test_word_modules():
    w = build_W(WordDatum4([("xi", None)]))
    assert w.verify(WDiagram.RELATIONS) == (
        True, [("2 xi = 0", True), ("2 eta = 0", True), ("eta xi = 0", True)])
    assert w.torsion_free_rank() == 1

    w = build_W(WordDatum4([("xi", 2), ("eta", 3), ("xi", 1)]))
    assert w.verify(WDiagram.RELATIONS)[0]
    assert w.torsion_free_rank() == 0
    t1, f1 = w.W1.invariant_factors()
    t2, f2 = w.W2.invariant_factors()
    assert (f1, f2) == (0, 0)
    assert [int(p) for p, e in t1 for _ in range(e)] == [2, 4]
    assert [int(p) for p, e in t2 for _ in range(e)] == [8]


def test_cyclic_word_is_torsion():
    w = build_W(
        WordDatum4([("xi", 2), ("eta", 3), ("xi", 1), ("eta", 2)], poly=[1, 1, 1])
    )
    assert w.verify(WDiagram.RELATIONS)[0]
    assert w.torsion_free_rank() == 0
