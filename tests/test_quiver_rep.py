"""One presented quiver-representation type for every diagram kind.

CubicDiagram, BModuleDiagram, WDiagram and A11Module are
presentation.QuiverReps on their own quivers.  Direct sums and truncations
agree with the summands (ROADMAP aim 3): the relation report of X + Y is
the report of X and of Y, relation by relation, and truncating a sum gives
the sum of the truncations.
"""

import random
from functools import lru_cache

import pytest

from cubefunc.domains import ZZ
from cubefunc.functors import FUNCTOR_IDS, CubicDiagram, builtin, extract_diagram
from cubefunc.matrix import Mat
from cubefunc.rings import cubic_relations, verify_relations
from cubefunc.strings_bands import (
    BandData3,
    BModuleDiagram,
    StringDiagram3,
    WDiagram,
    WordDatum4,
    build_band_module,
    build_string_module,
    build_W,
)
from cubefunc.wildness import A11Module, SigmaModule, phi_restrict

def test_arrows_are_checked_module_maps():
    d = extract_diagram(builtin("sym2"))
    with pytest.raises(ValueError, match="morphism matrix must be"):
        CubicDiagram(d.F1, d.F2, d.F3, **dict(d.maps(), h=Mat.zeros(ZZ, 2, 2)))
    with pytest.raises(TypeError):
        CubicDiagram(d.F1, d.F2, d.F3, d.h, d.p)
    with pytest.raises(ValueError, match="one quiver"):
        d.direct_sum(build_W(WordDatum4([("xi", 1)])))


# ---------------------------------------------------------------------------
# seeded inputs on the four quivers
# ---------------------------------------------------------------------------

S = StringDiagram3
STRINGS = [
    S("ii", [1, 2], [None, None], [None, None]),
    S("i", [1, 2], [1, None], [1, None]),
    S("i", [1, 2, 4, 3], [1, 3, 4, None], [1, 0, 1, None]),
]
BANDS = [
    BandData3(S("iii", [3, 4], [3, 4], [1, 1]), [1, 1]),
    BandData3(S("iii", [3, 4], [3, 4], [0, 0]), [1, 0, 1]),
]
WORDS = [
    WordDatum4([("xi", None)]),
    WordDatum4([("xi", 2), ("eta", 3), ("xi", 1)]),
    WordDatum4([("xi", 2), ("eta", 3), ("xi", 1), ("eta", 2)], poly=[1, 1, 1]),
]


def _sigma(rng, rank):
    return SigmaModule(2, rank, [[[rng.randrange(4) for _ in range(rank)]
                                  for _ in range(rank)] for _ in range(2)])


@lru_cache(maxsize=None)
def _inputs(kind):
    """(diagrams, truncation modulus) of one quiver, built from seeded data."""
    rng = random.Random(11)
    if kind == "cubic":
        return [extract_diagram(builtin(fid)) for fid in FUNCTOR_IDS], 6
    if kind == "bmodule":
        return ([build_string_module(d) for d in STRINGS]
                + [build_band_module(b) for b in BANDS]), 9
    if kind == "w":
        return [build_W(w) for w in WORDS], 4
    return [phi_restrict(_sigma(rng, rank)) for rank in (1, 2, 2, 3)], 8


def _identities(x):
    if isinstance(x, CubicDiagram):
        return [(name, lhs - rhs) for name, lhs, rhs in cubic_relations()]
    return type(x).RELATIONS


def _report(x):
    if isinstance(x, CubicDiagram):
        return verify_relations(x)
    return x.verify(_identities(x))


def _tampered(x, rng):
    """x with 1 added to one entry of one nonempty arrow matrix, unchecked;
    x itself when every arrow matrix is empty."""
    maps = x.maps()
    names = [n for n, f in maps.items() if f.matrix.rows and f.matrix.cols]
    if not names:
        return x
    name = rng.choice(names)
    m = maps[name].matrix.copy()
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    m.a[i][j] = x.dom.add(m.a[i][j], x.dom.one())
    return type(x)(*x.modules(), **dict(maps, **{name: m}), check=False)


def _pairs(kind, seed):
    """Seeded pairs of inputs: x and y drawn from the inputs, and each
    paired with the other both as drawn and tampered."""
    rng = random.Random(seed)
    xs, _ = _inputs(kind)
    for _ in range(2):
        x, y = rng.choice(xs), rng.choice(xs)
        tx, ty = _tampered(x, rng), _tampered(y, rng)
        yield from ((x, y), (tx, y), (x, ty), (tx, ty))


KINDS = ("cubic", "bmodule", "w", "a11")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relation_report_of_a_sum_is_the_report_of_its_summands(kind, seed):
    seen = set()
    for x, y in _pairs(kind, seed):
        s = x.direct_sum(y)
        assert isinstance(s, type(x))
        assert [m.gens for m in s.modules()] == [
            m.gens + n.gens for m, n in zip(x.modules(), y.modules())]
        (okx, rx), (oky, ry), (oks, rs) = _report(x), _report(y), _report(s)
        assert rs == [(n, a and b) for (n, a), (_, b) in zip(rx, ry)]
        assert oks == (okx and oky)
        seen.add(oks)
    assert seen == {True, False}


def _same_rep(x, y):
    """Equal as representations: one quiver, equal arrow matrices and, at
    every vertex, relations that span the same lattice."""
    assert type(x) is type(y)
    for m, n in zip(x.modules(), y.modules()):
        assert m.gens == n.gens
        assert m.element_is_zero(n.relations) and n.element_is_zero(m.relations)
    for (s, t, f), (u, v, g) in zip(x.arrows, y.arrows):
        assert (s, t) == (u, v) and f.matrix == g.matrix


@pytest.mark.parametrize("kind", KINDS)
def test_truncation_of_a_sum_is_the_sum_of_the_truncations(kind):
    _, q = _inputs(kind)
    for x, y in _pairs(kind, 2):
        _same_rep(x.direct_sum(y).truncate(q), x.truncate(q).direct_sum(y.truncate(q)))
        # a truncation is a quotient: q kills every generator
        for m in x.truncate(q).modules():
            assert m.element_is_zero(m.identity().matrix.scale(q))


@pytest.mark.parametrize("kind", KINDS)
def test_truncations_keep_the_identities(kind):
    xs, q = _inputs(kind)
    for x in xs:
        if _report(x)[0]:
            assert _report(x.truncate(q))[0]


def test_truncating_an_a11_module_quotients_its_group():
    # Z/4 truncated at 2 is Z/2; the domain and the operators stay
    m = phi_restrict(SigmaModule(2, 1, [[[1]], [[0]]]))
    t = m.truncate(2)
    assert t.dom == ZZ and t.a.matrix == m.a.matrix
    assert t.M.invariant_factors() == ([(2, 1)], 0)
