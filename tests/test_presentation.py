import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from lattice_oracle import in_column_lattice

import cubefunc.matrix
import cubefunc.presentation
from cubefunc.domains import GF, GF2, ZZ, Z_HALF, Zloc
from cubefunc.matrix import LatticeSpan, Mat
from cubefunc.presentation import (
    FpPresentation,
    ModuleMorphism,
    direct_sum,
    image,
    kernel,
)


def compose(g, f):
    """g after f."""
    return ModuleMorphism(f.source, g.target, g.matrix * f.matrix, check=False)


def test_invariant_factors_diagonal():
    p = FpPresentation(ZZ, 2, Mat.diag(ZZ, [2, 6]))
    torsion, free = p.invariant_factors()
    assert torsion == [(2, 1), (6, 1)]
    assert free == 0


def test_free_module():
    p = FpPresentation.free(ZZ, 3)
    assert p.invariant_factors() == ([], 3)


def test_l1_mod_9_localized():
    # rank-2 lattice with basis u=(1,1), v=(0,3) inside Z_(3)^2, modulo 9
    d = Zloc(3)
    rels = Mat(d, [[9, 0], [0, 9]])
    p = FpPresentation(d, 2, rels)
    torsion, free = p.invariant_factors()
    assert free == 0
    assert torsion == [(9, 2)]


def test_kernel_of_identity_is_zero():
    p = FpPresentation(ZZ, 2, Mat.diag(ZZ, [4]) .vstack(Mat.zeros(ZZ, 1, 1)))
    k, incl = kernel(p.identity())
    assert k.is_zero_module()


def test_image_gf2():
    v = FpPresentation.free(GF2, 2)
    f = ModuleMorphism(v, v, Mat(GF2, [[1, 1], [0, 0]]))
    im, incl = image(f)
    assert im.invariant_factors() == ([], 1)
    assert not compose(incl, im.identity()).is_zero()


def test_kernel_universal_property():
    # Z --2--> Z/4: kernel is 2Z
    z = FpPresentation.free(ZZ, 1)
    z4 = FpPresentation(ZZ, 1, Mat(ZZ, [[4]]))
    f = ModuleMorphism(z, z4, Mat(ZZ, [[2]]))
    k, incl = kernel(f)
    assert compose(f, incl).is_zero()
    assert k.invariant_factors() == ([], 1)
    # the kernel generator is 2 in Z
    assert incl.matrix.a[0][0] in (2, -2)


def test_direct_sum_splittings():
    a = FpPresentation(ZZ, 1, Mat(ZZ, [[2]]))
    b = FpPresentation(ZZ, 2, Mat(ZZ, [[3], [0]]))
    s = direct_sum([a, b])
    assert s.invariant_factors()[1] == 1
    # the coordinate injections and projections are module maps
    eye = Mat.identity(ZZ, 3)
    parts = [(a, range(0, 1)), (b, range(1, 3))]
    injs = [ModuleMorphism(p, s, eye.submatrix(range(3), r)) for p, r in parts]
    projs = [ModuleMorphism(s, p, eye.submatrix(r, range(3))) for p, r in parts]
    for i, (inj, prj) in enumerate(zip(injs, projs)):
        assert compose(prj, inj) == (a if i == 0 else b).identity()
    assert compose(projs[1], injs[0]).is_zero()
    # projection-then-inclusion idempotents reconstruct summands
    e0 = compose(injs[0], projs[0])
    im0, _ = image(e0)
    assert im0.invariant_factors() == a.invariant_factors()


def test_morphism_well_definedness_check():
    z4 = FpPresentation(ZZ, 1, Mat(ZZ, [[4]]))
    z2 = FpPresentation(ZZ, 1, Mat(ZZ, [[2]]))
    # Z/4 -> Z/2 by 1 is fine; Z/2 -> Z/4 by 1 is not
    ModuleMorphism(z4, z2, Mat(ZZ, [[1]]))
    try:
        ModuleMorphism(z2, z4, Mat(ZZ, [[1]]))
        assert False, "ill-defined morphism accepted"
    except ValueError:
        pass
    # but Z/2 -> Z/4 by 2 works
    ModuleMorphism(z2, z4, Mat(ZZ, [[2]]))


def test_random_kernel_image_exactness():
    rng = random.Random(5)
    for _ in range(15):
        g = rng.randint(1, 3)
        rels = Mat(ZZ, [[rng.randint(0, 4) for _ in range(2)] for _ in range(g)])
        m = FpPresentation(ZZ, g, rels)
        n = FpPresentation(ZZ, 2, Mat(ZZ, [[rng.randint(0, 6)], [0]]))
        fm = Mat(ZZ, [[rng.randint(-3, 3) for _ in range(g)] for _ in range(2)])
        f = ModuleMorphism(m, n, fm, check=False)
        if not f.is_well_defined():
            continue
        k, incl = kernel(f)
        assert compose(f, incl).is_zero()
        im, iincl = image(f)


# ---------------------------------------------------------------------------
# membership through the one Smith form of a presented module
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# the denominators an entry may carry in each domain
_DENOMINATORS = {ZZ: (1,), Z_HALF: (1, 2, 4), Zloc(3): (1, 2, 5), GF(3): (1,)}


def _mat(dom, rows, r, c):
    """The r x c matrix with the given rows; also when r or c is 0."""
    return Mat(dom, rows) if r else Mat.zeros(dom, 0, c)


@st.composite
def membership_cases(draw):
    """(relations, b, x, mask): b = relations * x + e with e zero in the
    columns where mask is False, so those columns are members."""
    dom = draw(st.sampled_from(sorted(_DENOMINATORS, key=str)))
    gens, nrel, k = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(1, 3))
    # a common factor 3 on the relations leaves torsion in every domain but GF(3)
    scale = draw(st.sampled_from((1, 3)))
    entry = st.builds(Fraction, st.integers(-6, 6).map(lambda n: scale * n),
                      st.sampled_from(_DENOMINATORS[dom]))
    small = st.integers(-3, 3)

    def matrix(r, c, elems):
        return _mat(dom, [[draw(elems) for _ in range(c)] for _ in range(r)], r, c)

    relations = matrix(gens, nrel, entry)
    x = matrix(nrel, k, small)
    mask = [draw(st.booleans()) for _ in range(k)]
    e = matrix(gens, k, small)
    e = _mat(dom, [[y if mask[j] else 0 for j, y in enumerate(row)] for row in e.a], gens, k)
    return relations, relations * x + e, x, mask


@PROPERTY
@given(membership_cases())
def test_presentation_membership_matches_the_column_lattice(case):
    relations, b, x, mask = case
    dom, gens = relations.dom, relations.rows
    pres = FpPresentation(dom, gens, relations)
    # an oracle on another kernel: greedy reduction against a Hermite basis
    span = LatticeSpan(dom, gens)
    for j in range(relations.cols):
        span.insert([row[j] for row in relations.a])
    members = [span.contains([row[j] for row in b.a]) for j in range(b.cols)]
    want = all(members)
    assert in_column_lattice(relations, b) == want
    assert pres.element_is_zero(b) == want
    assert [pres.element_is_zero(b.col(j)) for j in range(b.cols)] == members
    assert all(m for m, perturbed in zip(members, mask) if not perturbed)
    assert pres.element_is_zero(relations * x)
    f = ModuleMorphism(FpPresentation.free(dom, b.cols), pres, b, check=False)
    assert f.is_zero() == want
    assert (f == ModuleMorphism(f.source, pres, relations * x, check=False)) == want


def test_membership_runs_one_smith_form_per_presentation(monkeypatch):
    calls = []

    def counted(real):
        return lambda m: calls.append(m) or real(m)

    for mod in (cubefunc.matrix, cubefunc.presentation):
        monkeypatch.setattr(mod, "smith_normal_form", counted(mod.smith_normal_form))
    rels = Mat(ZZ, [[2, 0], [0, 6], [0, 0]])
    pres = FpPresentation(ZZ, 3, rels)
    free = FpPresentation.free(ZZ, 1)
    rng = random.Random(11)
    for _ in range(25):
        col = Mat(ZZ, [[rng.randint(-12, 12)] for _ in range(3)])
        assert pres.element_is_zero(col) == (
            col.a[0][0] % 2 == 0 and col.a[1][0] % 6 == 0 and col.a[2][0] == 0)
        f = ModuleMorphism(free, pres, col, check=False)
        assert f.is_zero() == pres.element_is_zero(col)
        assert f == ModuleMorphism(free, pres, col + rels.col(1), check=True)
    assert pres.invariant_factors() == ([(2, 1), (6, 1)], 1)
    assert len(calls) == 1 and calls[0] is rels
