"""Formal word calculus, the verification suites, and the quadruple ring."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from lattice_oracle import in_column_lattice, lattice_equal

from cubefunc import faithful, rings, wildness
from cubefunc.domains import Z_HALF, ZZ
from cubefunc.faithful import (
    GradedLattice, algebra_dimension, faithful_diagram, hom_lattice, ideal_lattice,
    shared_representation, word_lattice,
)
from cubefunc.functors import CubicDiagram, builtin, extract_diagram
from cubefunc.matrix import LatticeSpan, Mat
from cubefunc.presentation import ModuleMorphism
from cubefunc.rings import (
    GEN_TYPES,
    BRingElement,
    Expr,
    H,
    H1,
    H2,
    ID1,
    ID2,
    ID3,
    P,
    P1,
    P2,
    a11_subring,
    a_alt_algebra_dimension,
    cubic_relations,
    halved_elements,
    verify_A_alt_structure,
    verify_prop31_identities,
    verify_relations,
    word_type,
)


@pytest.fixture(scope="module")
def rep():
    return shared_representation(ZZ)


def test_word_typing():
    assert word_type(("h",)) == (1, 2)
    assert word_type(("h1", "h")) == (1, 3)
    assert word_type(("p", "p1")) == (3, 1)
    with pytest.raises(ValueError):
        word_type(("h", "h"))


def test_expr_algebra():
    x = H1 * H - H2 * H
    assert (x + x).terms == x.scale(2).terms
    assert (x - x).terms == {}
    assert (2 * x).terms == (x * 2).terms
    assert (x * Fraction(1, 2)).terms == x.scale(Fraction(1, 2)).terms


@pytest.mark.parametrize("operand", [1, "x", None], ids=repr)
def test_bad_operands_raise_type_error(operand):
    for combine in (lambda: H + operand, lambda: H - operand):
        with pytest.raises(TypeError):
            combine()
    if not isinstance(operand, int):
        with pytest.raises(TypeError):
            H * operand


def test_evaluate_is_multiplicative(rep):
    rng = random.Random(7)
    gens_by_type = {}
    for g in ("h", "p", "h1", "h2", "p1", "p2", "id1", "id2", "id3"):
        gens_by_type.setdefault(word_type((g,)), []).append(Expr.gen(g))
    atoms = [e for lst in gens_by_type.values() for e in lst]
    for _ in range(25):
        f = rng.choice(atoms)
        src, mid = word_type(next(iter(f.terms)))
        comps = [g for g in atoms if word_type(next(iter(g.terms)))[0] == mid]
        g = rng.choice(comps)
        lhs = rep.eval(g * f)
        rhs = rep.eval(g) * rep.eval(f)
        assert lhs == rhs


def test_relations_hold_on_builtin():
    d = extract_diagram(builtin("sym3"))
    ok, report = verify_relations(d)
    assert ok, report


def test_relations_detect_perturbation():
    d = extract_diagram(builtin("sym3"))
    m = d.maps()["h1"].matrix
    m2 = Mat(ZZ, [row[:] for row in m.a])
    m2.a[0][0] = ZZ.add(m2.a[0][0], 1)
    tampered = CubicDiagram(d.F1, d.F2, d.F3, **dict(d.maps(), h1=m2))
    ok, report = verify_relations(tampered)
    assert not ok


def _relations_column_by_column(diagram):
    """verify_relations by its definition: each column of each defect
    matrix, one at a time, in the column lattice of the target relations."""
    levels = {1: diagram.F1, 2: diagram.F2, 3: diagram.F3}
    report = []
    for name, lhs, rhs in cubic_relations(diagram.dom.characteristic == 2):
        defect = lhs - rhs
        zero = True
        if defect.terms:
            m = diagram.evaluate(defect)
            rels = levels[defect.dst].relations
            zero = all(in_column_lattice(rels, m.col(j)) for j in range(m.cols))
        report.append((name, zero))
    return all(z for _, z in report), report


def _induced_diagrams(seed, ranks):
    from cubefunc.wildness import SigmaModule, induce_cubic, phi_restrict

    rng = random.Random(seed)
    for rank in ranks:
        action = [[[rng.randrange(4) for _ in range(rank)] for _ in range(rank)]
                  for _ in range(2)]
        yield induce_cubic(phi_restrict(SigmaModule(2, rank, action)))


def _single_entry_mutations(d):
    """Every diagram that adds 1 to one entry of one structure map of d,
    on the same modules and unchecked."""
    maps = d.maps()
    for name, mor in maps.items():
        for i in range(mor.matrix.rows):
            for j in range(mor.matrix.cols):
                m = mor.matrix.copy()
                m.a[i][j] = d.dom.add(m.a[i][j], d.dom.one())
                changed = dict(maps)
                changed[name] = ModuleMorphism(mor.source, mor.target, m, check=False)
                yield CubicDiagram(d.F1, d.F2, d.F3, **changed, check=False)


@pytest.mark.parametrize("dom", [ZZ, Z_HALF], ids=str)
def test_relations_report_matches_columnwise_on_faithful_diagram(dom):
    d = faithful_diagram(dom)
    assert verify_relations(d) == _relations_column_by_column(d)
    assert verify_relations(d)[0]


def test_relations_report_matches_columnwise_on_induced_diagrams():
    for d in _induced_diagrams(2024, (1, 1, 2, 2, 3)):
        assert verify_relations(d) == _relations_column_by_column(d)


def test_relations_report_matches_columnwise_on_mutations():
    (d,) = _induced_diagrams(5, (2,))
    verdicts = []
    for m in _single_entry_mutations(d):
        got = verify_relations(m)
        assert got == _relations_column_by_column(m)
        verdicts.append(got[0])
    assert False in verdicts and len(verdicts) > 50


def test_relation_list_char2_drops_doubles():
    plain = {n: (l, r) for n, l, r in cubic_relations(char2=False)}
    char2 = {n: (l, r) for n, l, r in cubic_relations(char2=True)}
    assert set(plain) == set(char2)
    # the doubled right-hand sides collapse to zero in characteristic 2
    l, r = char2["h1*p1*h1 = 2h1"]
    assert r.terms == {}
    assert plain["h1*p1*h1 = 2h1"][1].terms != {}


@pytest.fixture(scope="module")
def suite_runs():
    """The three suite reports, each computed once, and the (domain, xs,
    ys) of every call the suites make to the span helper."""
    calls = []
    same = rings._same_lattice

    def recording(dom, xs, ys):
        calls.append((dom, xs, ys))
        return same(dom, xs, ys)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_same_lattice", recording)
        reports = a11_subring(), verify_prop31_identities(), verify_A_alt_structure()
    return reports, calls


@pytest.fixture(scope="module")
def level1_report(suite_runs):
    return suite_runs[0][0]


@pytest.fixture(scope="module")
def halved_report(suite_runs):
    return suite_runs[0][1]


@pytest.fixture(scope="module")
def alt_report(suite_runs):
    return suite_runs[0][2]


A11_KEYS = [
    "resolution", "a^2 = 2a", "b^2 = 6b", "ab = 0", "ba = 0", "(ph)^2 = 6(ph) fails",
    "corner rank 3", "{1,a,b} spans the corner", "multiplication table matches Z^3 span",
    "ok",
]
PROP31_KEYS = [
    "e1^2 = e1", "f1^2 = f1", "e1*f1 = 0", "f1*e1 = 0",
    "e2^2 = e2", "f2^2 = f2", "g1^2 = g1", "g2^2 = g2",
    "e2*f2 = 0", "e2*g1 = 0", "e2*g2 = 0", "f2*e2 = 0", "f2*g1 = 0", "f2*g2 = 0",
    "g1*e2 = 0", "g1*f2 = 0", "g1*g2 = 0", "g2*e2 = 0", "g2*f2 = 0", "g2*g1 = 0",
    "e3^2 = e3", "f3^2 = f3", "e3*f3 = 0", "f3*e3 = 0",
    "e1+f1 = id1", "e2+f2+g1+g2 = id2", "e3+f3 = id3",
    "a1 = e1*a1*e1", "a1^2 = 3a1", "a2 = e2*a2*e2", "b2 = f2*b2*f2", "a2^2 = 3a2",
    "b2^2 = 3b2", "v1'*(v2/2) = e2", "(v2/2)*v1' = f2", "p'*(h/2) = f1", "(h/2)*p' = g1",
    "a3 = f3*a3*e3", "b3 = e3*b3*f3", "a3*b3*a3 = 3a3", "b3*a3*b3 = 3b3",
    "(p1/2)*h1 = e2", "h1*(p1/2) = e3",
    "g*p1 = 0", "h1*g = 0", "h1*f2 = 0", "f2*p1 = 0",
    "g*p2 = 0", "h2*g = 0", "h2*e2 = 0", "e2*p2 = 0", "g2*h = 0", "p*g2 = 0",
    "level 1 basis is independent", "level 1 basis spans the corner",
    "level 2 basis is independent", "level 2 basis spans the corner",
    "level 3 basis is independent", "level 3 basis spans the corner",
    "g*A2 = <g1,g2>", "A2*g = <g1,g2>", "ok",
]
A_ALT_KEYS = [
    "h1*p1*h1 = 2h1", "h2*p2*h2 = 2h2", "p1*h1*p1 = 2p1", "p2*h2*p2 = 2p2",
    "h1*p2 = 0", "h2*p1 = 0",
    "h1+h2 = h1p1h2p2h1 + h2p2h1p1h2", "p1+p2 = p1h2p2h1p1 + p2h1p1h2p2",
    "h1p1 = h1p1h2p2h1p1", "2p1 = 2p1h2p2h1p1", "2h1 = 2h1p1h2p2h1",
    "h2p2 = h2p2h1p1h2p2", "2p2 = 2p2h1p1h2p2", "2h2 = 2h2p2h1p1h2",
    "e1^2 = e1", "e2^2 = e2", "e1*e2 = 0", "e2*e1 = 0",
    "e1*p1h2 = p1h2*e2", "e2*p2h1 = p2h1*e1", "e3*p1h2 = p1h2*e3", "e3*p1h2 = e3*p2h1",
    "e3*p2h1 = p2h1*e3",
    "theta != 0", "2*theta = 0", "p1h1 = theta + 2e1", "p2h2 = theta + 2e2",
    "f1^2 = f1", "f1*a1 = a1", "f2*a2 = a2", "a1*f2 = a1", "a2*f1 = a2", "a1*a2 = 3f1",
    "a2*a1 = beta", "beta^2 = 3beta", "a1*beta = 3a1", "beta*a2 = 3a2",
    "e1*u = u*f1", "f1*v = v*e1", "u*v = e1", "v*u = f1",
    "xi != 0", "eta != 0", "2*xi = 0", "2*eta = 0", "eta*xi = 0", "xi*eta = theta",
    "xi*f2 = xi", "f2*eta = eta", "e3*A(3,2) = <xi>", "A(2,3)*e3 = <eta>",
    "corner spanned by f1,f2,a1,a2,beta", "corner table matches congruence order", "ok",
]


class TestCornerSuites:
    """The three heavyweight identity suites, run once each."""

    def test_level1_corner(self, level1_report):
        report = level1_report
        assert report["ok"], {k: v for k, v in report.items() if v is False}
        assert report["a^2 = 2a"]
        assert report["b^2 = 6b"]
        assert report["ab = 0"] and report["ba = 0"]
        assert report["corner rank 3"]
        assert report["{1,a,b} spans the corner"]
        assert report["multiplication table matches Z^3 span"]
        # the unshifted product ph does not satisfy the quadratic of b
        assert report["(ph)^2 = 6(ph) fails"]

    def test_halved_identities(self, halved_report):
        report = halved_report
        assert report["ok"], {k: v for k, v in report.items() if v is False}
        for lvl in (1, 2, 3):
            assert report[f"level {lvl} basis is independent"]
            assert report[f"level {lvl} basis spans the corner"]

    def test_annihilated_level1_quotient(self, alt_report):
        report = alt_report
        assert report["ok"], {k: v for k, v in report.items() if v is False}
        assert report["theta != 0"] and report["2*theta = 0"]
        assert report["xi*eta = theta"] and report["eta*xi = 0"]
        assert report["corner table matches congruence order"]

    def test_quotient_dimension(self):
        assert a_alt_algebra_dimension() == 18

    def test_every_report_entry_holds(self, level1_report, halved_report, alt_report):
        # regression guard for the exact kernel: not just the "ok" summary,
        # every entry of every report (the level-1 report also carries a
        # text note on how a and b are read)
        for report in (level1_report, halved_report, alt_report):
            assert [k for k, v in report.items() if not v] == []
            assert all(v is True for k, v in report.items() if k != "resolution")
        assert isinstance(level1_report["resolution"], str)

    def test_report_keys_are_pinned(self, level1_report, halved_report, alt_report):
        # a renamed or dropped verdict shows here
        assert list(level1_report) == A11_KEYS and len(A11_KEYS) == 10
        assert list(halved_report) == PROP31_KEYS and len(PROP31_KEYS) == 62
        assert list(alt_report) == A_ALT_KEYS and len(A_ALT_KEYS) == 54

    def test_composable_replacements_hold_and_are_not_vacuous(self, halved_report):
        for key in ("h1*f2 = 0", "f2*p1 = 0", "h2*e2 = 0", "e2*p2 = 0"):
            assert halved_report[key] is True
        rep = shared_representation(Z_HALF)
        g = rep.gen_blocks
        e2, f2 = (rep.diagram.evaluate(halved_elements()[x]) for x in ("e2", "f2"))
        # h_i and p_i keep the idempotent of their own index
        assert g["h2"] * f2 == g["h2"] and f2 * g["p2"] == g["p2"]
        assert g["h1"] * e2 == g["h1"] and e2 * g["p1"] == g["p1"]
        # the entries they replace, f2*h_i and p_i*f2, do not compose
        for x, y in ((f2, g["h1"]), (f2, g["h2"]), (g["p1"], f2), (g["p2"], f2)):
            with pytest.raises(ValueError, match="shape mismatch"):
                x * y

    def test_span_helper_agrees_with_lattice_equal(self, suite_runs):
        _, calls = suite_runs
        assert len(calls) == 7

        def columns(dom, vecs):
            return Mat(dom, [list(row) for row in zip(*vecs)])

        for dom, xs, ys in calls:
            assert rings._same_lattice(dom, xs, ys)
            assert lattice_equal(columns(dom, xs), columns(dom, ys))
        # the level-2 basis of the 2-divisible suite, without its last
        # element b2*v2, spans less than the corner
        dom, xs, ys = next(
            (dom, xs, ys) for dom, xs, ys in calls if dom == Z_HALF and len(ys) == 10
        )
        assert len(xs) == 10 and len(xs[0]) == 15 * 15
        assert not rings._same_lattice(dom, xs[:-1], ys)
        assert not lattice_equal(columns(dom, xs[:-1]), columns(dom, ys))

    @pytest.mark.parametrize("src, dst", [(s, t) for s in (1, 2, 3) for t in (1, 2, 3)])
    def test_hom_lattice_basis_is_hermite(self, rep, src, dst, assert_column_hermite):
        # the incrementally built basis is the Hermite form of all corners
        # of the word lattice, checked here by its defining properties
        basis = hom_lattice(rep, src, dst)
        rows, cols = rep.dims[dst - 1], rep.dims[src - 1]
        as_columns = lambda vecs: Mat(ZZ, [[v[i] for v in vecs] for i in range(rows * cols)])
        got = as_columns([[x for row in m.a for x in row] for m in basis])
        ids = rep.gen_mats[f"id{src}"], rep.gen_mats[f"id{dst}"]
        corners = []
        for col in _padded_basis(rep, word_lattice(rep)):
            m = Mat(ZZ, [col[i * rep.total:(i + 1) * rep.total] for i in range(rep.total)])
            c = rep.corner(ids[1] * m * ids[0], src, dst)
            corners.append([x for row in c.a for x in row])
        assert_column_hermite(got, as_columns(corners))


class TestQuadrupleRing:
    def test_congruence_rejection(self):
        with pytest.raises(ValueError):
            BRingElement(1, 0, 0, 0)
        with pytest.raises(ValueError):
            BRingElement(0, [[0, 1], [0, 0]], 0, 0)
        # 3-divisible off-diagonal and matching diagonals are fine
        BRingElement(1, [[1, 3], [5, 2]], [[2, 0], [0, 1]], 4)

    def test_idempotents(self):
        e1, e2, e3 = BRingElement.idempotents()
        one = BRingElement.one()
        assert e1 * e1 == e1 and e2 * e2 == e2 and e3 * e3 == e3
        assert (e1 + e2 + e3) == one
        for x, y in ((e1, e2), (e1, e3), (e2, e3)):
            assert (x * y).is_zero() and (y * x).is_zero()

    def test_nilpotent_offdiagonal(self):
        n = BRingElement(0, [[0, 3], [0, 0]], 0, 0)
        assert (n * n).is_zero()

    def test_ring_axioms_random(self):
        rng = random.Random(11)

        def rand():
            a = rng.randrange(-6, 7)
            b11 = a + 3 * rng.randrange(-2, 3)
            b22 = rng.randrange(-6, 7)
            c11 = b22 + 3 * rng.randrange(-2, 3)
            c22 = rng.randrange(-6, 7)
            d = c22 + 3 * rng.randrange(-2, 3)
            B = [[b11, 3 * rng.randrange(-2, 3)], [rng.randrange(-6, 7), b22]]
            C = [[c11, 3 * rng.randrange(-2, 3)], [rng.randrange(-6, 7), c22]]
            return BRingElement(a, B, C, d)

        for _ in range(50):
            x, y, z = rand(), rand(), rand()
            assert (x + y) * z == x * z + y * z
            assert x * (y * z) == (x * y) * z
            assert x * BRingElement.one() == x


def test_level_blocks_are_read_in_place(rep):
    # a level block read off a word-lattice basis vector and padded back is
    # id_dst * m * id_src, and every basis vector lives in one block
    t = rep.total
    for col in _padded_basis(rep, word_lattice(rep)):
        m = Mat(ZZ, [col[i * t:(i + 1) * t] for i in range(t)])
        nonzero = 0
        for src in (1, 2, 3):
            for dst in (1, 2, 3):
                want = rep.gen_mats[f"id{dst}"] * m * rep.gen_mats[f"id{src}"]
                assert rep.pad(src, dst, rep.corner(m, src, dst)) == want
                nonzero += not want.is_zero()
        assert nonzero == 1


@pytest.mark.parametrize("src", [1, 2, 3])
@pytest.mark.parametrize("dst", [1, 2, 3])
def test_hom_lattice_is_the_span_of_the_level_products(rep, src, dst):
    # the basis is the one the span of the corners of id_dst * m * id_src gives
    t = rep.total
    ids = rep.gen_mats[f"id{src}"], rep.gen_mats[f"id{dst}"]
    span = LatticeSpan(ZZ, rep.dims[dst - 1] * rep.dims[src - 1])
    for col in _padded_basis(rep, word_lattice(rep)):
        m = Mat(ZZ, [col[i * t:(i + 1) * t] for i in range(t)])
        span.insert([x for row in rep.corner(ids[1] * m * ids[0], src, dst).a for x in row])
    got = [[x for row in b.a for x in row] for b in hom_lattice(rep, src, dst)]
    assert got == span.basis


@pytest.mark.parametrize("dom", [ZZ, Z_HALF], ids=str)
def test_non_composable_block_products_are_refused(dom):
    # the level ranks 6, 15 and 12 differ, so a product of two level blocks
    # fails on its shapes exactly when the words do not compose
    rep = shared_representation(dom)
    blocks = rep.gen_blocks
    for g, (gs, gt) in GEN_TYPES.items():
        for b, (bs, bt) in GEN_TYPES.items():
            if gs == bt:
                prod = blocks[g] * blocks[b]
                assert (prod.rows, prod.cols) == (rep.dims[gt - 1], rep.dims[bs - 1])
            else:
                with pytest.raises(ValueError, match="shape mismatch"):
                    blocks[g] * blocks[b]


@pytest.mark.parametrize("dom", [ZZ, Z_HALF], ids=str)
def test_algebra_dimension_is_the_word_lattice_rank(dom):
    # the word-lattice basis spans the generated algebra over Q
    rep = shared_representation(dom)
    assert algebra_dimension(rep) == word_lattice(rep).rank == 39


# The graded lattices against one flat LatticeSpan of vectorized 33x33
# matrices, built from the grown matrices as the closure of the whole
# algebra would build it.  The graded lattices keep level blocks only, so
# these tests pad the block bases themselves.


def _flat(m):
    return [x for row in m.a for x in row]


def _unflat(dom, vec, cols):
    return Mat(dom, [vec[i:i + cols] for i in range(0, len(vec), cols)])


def _padded_basis(rep, graded):
    """The block bases of a GradedLattice in place in vectorized 33x33
    matrices, sorted by pivot."""
    cols = [
        _flat(rep.pad(s, t, _unflat(rep.dom, v, rep.dims[s - 1])))
        for (s, t), lat in graded.blocks.items() for v in lat.basis
    ]
    return sorted(cols, key=lambda v: next(i for i, x in enumerate(v) if x))


def _padded_contains(rep, graded, vec):
    """Whether a GradedLattice holds the vectorized 33x33 matrix vec: each
    of its level blocks lies in the lattice of that block."""
    m = _unflat(rep.dom, vec, rep.total)
    return all(graded.has(s, t, rep.corner(m, s, t)) for s, t in graded.blocks)


def _padded_grown(rep):
    return [rep.pad(*x) for x in word_lattice(rep).grown]


@lru_cache(maxsize=None)
def _flat_lattices(dom):
    rep = shared_representation(dom)
    mats = _padded_grown(rep)
    words = LatticeSpan(rep.dom, rep.total ** 2)
    for m in mats:
        assert words.insert(_flat(m))
    ideal = LatticeSpan(rep.dom, rep.total ** 2)
    for b1 in mats:
        left = b1 * rep.gen_mats["id1"]
        for b2 in mats:
            ideal.insert(_flat(left * b2))
    return rep, words, ideal


@pytest.fixture(params=[ZZ, Z_HALF], ids=str)
def flat_oracle(request):
    return _flat_lattices(request.param)


def _assert_same_lattice(rep, graded, flat):
    # over Z both are column Hermite forms, which are unique; over Z[1/2]
    # column_hermite is no normal form (the flat span re-folds every block
    # on each insert), so there the lattices are compared
    assert graded.rank == flat.rank
    basis = _padded_basis(rep, graded)
    if rep.dom == ZZ:
        assert basis == flat.basis
    assert all(flat.contains(v) for v in basis)
    assert all(_padded_contains(rep, graded, v) for v in flat.basis)


def test_word_and_ideal_lattices_match_the_flat_oracle(flat_oracle):
    rep, words, ideal = flat_oracle
    _assert_same_lattice(rep, word_lattice(rep), words)
    _assert_same_lattice(rep, ideal_lattice(rep, "id1"), ideal)


def test_membership_matches_the_flat_oracle(flat_oracle):
    rep, words, ideal = flat_oracle
    rng = random.Random(5)
    for graded, flat in ((word_lattice(rep), words), (ideal_lattice(rep, "id1"), ideal)):
        basis = _padded_basis(rep, graded)
        probes = [[sum(xs) for xs in zip(*basis[k::3])] for k in range(3)]
        for v in basis:
            for i in (next(i for i, x in enumerate(v) if x), rng.randrange(len(v))):
                w = list(v)
                w[i] += 1
                probes.append(w)
        for v in probes:
            assert _padded_contains(rep, graded, v) == flat.contains(v)


def test_alt_structure_membership_matches_the_flat_oracle(monkeypatch):
    # every block membership that verify_A_alt_structure decides (all of
    # them in the ideal, over ZZ), padded and decided again in the flat ideal
    rep, _, ideal = _flat_lattices(ZZ)
    seen = []
    has = GradedLattice.has

    def recording(self, src, dst, block):
        got = has(self, src, dst, block)
        seen.append((got, rep.pad(src, dst, block)))
        return got

    monkeypatch.setattr(GradedLattice, "has", recording)
    assert verify_A_alt_structure()["ok"]
    assert len(seen) > 60 and any(not got for got, _ in seen)
    for got, m in seen:
        assert got == ideal.contains(_flat(m))


def test_eval_matches_the_padded_product_chain(flat_oracle):
    rep = flat_oracle[0]
    exprs = [Expr.zero(), ID1, H1 * P1 * H1 - H1 * 2, P1 * H2 * P2 * H1 * P1 - P1]
    if rep.dom == Z_HALF:
        exprs += list(halved_elements().values())
    for expr in exprs:
        want = Mat.zeros(rep.dom, rep.total, rep.total)
        for w, c in expr.terms.items():
            m = rep.gen_mats[w[-1]]
            for g in reversed(w[:-1]):
                m = rep.gen_mats[g] * m
            want = want + m.scale(rep.dom.canon(c))
        assert rep.eval(expr) == want


def test_non_composable_products_vanish(flat_oracle):
    # the closure skips g * b where b does not end where g starts
    rep = flat_oracle[0]
    for (_, t, _), m in zip(word_lattice(rep).grown, _padded_grown(rep)):
        for name, (gs, _) in GEN_TYPES.items():
            if gs != t:
                assert (rep.gen_mats[name] * m).is_zero()


def test_one_zz_representation_per_process():
    # every caller names the domain, so the suites, the induction and the
    # benchmark set-up share one cache entry; this clears the caches, so it
    # runs last in this module
    faithful.shared_representation.cache_clear()
    wildness._induction_data.cache_clear()
    a11_subring()
    verify_A_alt_structure()
    a_alt_algebra_dimension()
    next(_induced_diagrams(1, (1,)))
    shared_representation(ZZ)
    assert faithful.shared_representation.cache_info().currsize == 1
