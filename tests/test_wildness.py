"""Restriction along a -> 2x1, b -> 2x2 and the induced cubic diagrams."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubefunc import gf2
from cubefunc.gf2 import inverse, rank
from cubefunc.rings import verify_relations
from cubefunc.wildness import (
    A11Module,
    IsoVerdict,
    SigmaModule,
    bimodule_N,
    brute_force_a11_iso,
    indecomposable_mod2,
    induce_cubic,
    iso_test_mod2,
    phi_restrict,
    regular_a11_module,
)


def rand_sigma(rng, rank, n=2):
    action = [
        [[rng.randrange(4) for _ in range(rank)] for _ in range(rank)]
        for _ in range(n)
    ]
    return SigmaModule(n, rank, action)


def test_restrict_trivial():
    l = SigmaModule(2, 1, [[[0]], [[0]]])
    m = phi_restrict(l)
    assert m.a.is_zero() and m.b.is_zero()


def test_restrict_identity_scalar():
    l = SigmaModule(2, 1, [[[1]], [[0]]])
    m = phi_restrict(l)
    assert m.a.a == [[2]]
    # 2a = 4 = 0 on Z/4, matching a^2 = 4
    ok, bad = m.verify()
    assert ok, bad


def test_restrict_jordan():
    l = SigmaModule(2, 2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    m = phi_restrict(l)
    assert m.a.a == [[0, 2], [0, 0]]


def test_restrict_rejects_wrong_generator_count():
    with pytest.raises(ValueError):
        phi_restrict(SigmaModule(1, 1, [[[0]]]))


def test_operator_identities_enforced():
    from cubefunc.domains import ZZ
    from cubefunc.matrix import Mat
    from cubefunc.presentation import FpPresentation

    pres = FpPresentation.free(ZZ, 1)
    with pytest.raises(ValueError):
        A11Module(pres, Mat(ZZ, [[1]]), Mat(ZZ, [[0]]))


class TestInduction:
    def test_regular_module(self):
        d = induce_cubic(regular_a11_module())
        assert d.F1.invariant_factors() == ([], 3)
        assert d.F2.invariant_factors() == ([], 3)
        assert d.F3.invariant_factors() == ([], 1)
        ok, report = verify_relations(d)
        assert ok, report

    def test_trivial_restriction(self):
        l = SigmaModule(2, 1, [[[0]], [[0]]])
        d = induce_cubic(phi_restrict(l))
        assert d.F1.invariant_factors() == ([(4, 1)], 0)
        assert d.F2.invariant_factors() == ([(2, 2)], 0)
        assert d.F3.invariant_factors() == ([(2, 1)], 0)
        assert verify_relations(d)[0]

    def test_random_restrictions_satisfy_relations(self):
        rng = random.Random(3)
        for _ in range(5):
            l = rand_sigma(rng, rng.randrange(1, 3))
            d = induce_cubic(phi_restrict(l))
            assert verify_relations(d)[0]

    def test_zero_module(self):
        from cubefunc.domains import ZZ
        from cubefunc.matrix import Mat
        from cubefunc.presentation import FpPresentation

        zero = A11Module(
            FpPresentation.zero(ZZ), Mat.zeros(ZZ, 0, 0), Mat.zeros(ZZ, 0, 0)
        )
        d = induce_cubic(zero)
        assert d.F1.is_zero_module() and d.F2.is_zero_module() and d.F3.is_zero_module()


class TestBimodule:
    def test_small_patterns(self):
        n1 = bimodule_N(1)
        assert str(n1.x2[1][0]) == "x1"
        assert n1.x2[0][0].is_zero() and n1.x2[0][1].is_zero()
        n2 = bimodule_N(2)
        assert n2.rank == 3
        assert str(n2.x2[1][0]) == "x1" and str(n2.x2[2][1]) == "x2"

    def test_x1_is_jordan(self):
        n = bimodule_N(3)
        for i in range(n.rank):
            for j in range(n.rank):
                expect_one = j == i + 1
                entry = n.x1[i][j]
                assert entry.terms == ({(): 1} if expect_one else {})


class TestIsoTest:
    def test_self_iso(self):
        rng = random.Random(5)
        l = rand_sigma(rng, 2)
        v = iso_test_mod2(l, l)
        assert v.isomorphic is True
        assert v.witness is not None

    def test_scalar_distinction(self):
        l0 = SigmaModule(2, 1, [[[0]], [[0]]])
        l1 = SigmaModule(2, 1, [[[1]], [[0]]])
        assert iso_test_mod2(l0, l1).isomorphic is False

    def test_jordan_vs_zero(self):
        lj = SigmaModule(2, 2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
        lz = SigmaModule(2, 2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
        assert iso_test_mod2(lj, lz).isomorphic is False

    def test_witness_conjugates(self):
        import numpy as np

        rng = random.Random(9)
        l = rand_sigma(rng, 3)
        u = np.array([[1, 1, 0], [0, 1, 0], [1, 0, 1]], dtype=np.uint8)
        conj = []
        uinv = np.array([[1, 1, 0], [0, 1, 0], [1, 1, 1]], dtype=np.uint8)
        # build an explicit conjugate pair over GF(2) lifted back to Z/4
        mats2 = l.mod2_action()
        assert np.array_equal((u @ uinv) % 2, np.eye(3, dtype=np.uint8))
        for m in mats2:
            conj.append(((u @ m @ uinv) % 2).tolist())
        lc = SigmaModule(2, 3, conj)
        v = iso_test_mod2(l, lc)
        assert v.isomorphic is True

    def test_matches_brute_force(self):
        rng = random.Random(17)
        pool = [rand_sigma(rng, rng.choice((1, 2))) for _ in range(10)]
        for i in range(len(pool)):
            for j in range(i, len(pool)):
                quick = iso_test_mod2(pool[i], pool[j])
                if pool[i].rank != pool[j].rank:
                    continue
                brute = brute_force_a11_iso(
                    phi_restrict(pool[i]), phi_restrict(pool[j])
                )
                assert quick.isomorphic == brute.isomorphic, (i, j)


def test_indecomposability_matches_mod2():
    lj = SigmaModule(2, 2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    assert indecomposable_mod2(lj)
    ld = SigmaModule(2, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    assert not indecomposable_mod2(ld)


def test_zero_module():
    zero = SigmaModule(2, 0, [[], []])
    assert iso_test_mod2(zero, zero) == IsoVerdict(True, [], "hom space")
    with pytest.raises(ValueError, match="the zero module has no summands"):
        indecomposable_mod2(zero)


def test_hom_dimension_proves_non_isomorphism():
    # A = (0, 0) against B = (J, 0): End(A) is all of M_2, of dimension 4,
    # while Hom(A, B) = {U : J U = 0} has dimension 2
    lz = SigmaModule(2, 2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    lj = SigmaModule(2, 2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    assert iso_test_mod2(lz, lj) == IsoVerdict(False, None, "hom dimension")


# ---------------------------------------------------------------------------
# properties against exhaustive oracles
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_seeds = st.integers(0, 2**32 - 1)


def _mats(rng, d, n=2):
    return [[[rng.randrange(4) for _ in range(d)] for _ in range(d)] for _ in range(n)]


def _mod2(mats):
    return [np.array(m, dtype=np.int64) % 2 for m in mats]


def _unit_mod2(rng, d):
    while True:
        u = np.array([[rng.randrange(2) for _ in range(d)] for _ in range(d)])
        if rank(u.astype(np.uint8)) == d:
            return u


def _assert_witness(v, a, b):
    u = np.array(v.witness, dtype=np.int64) % 2
    assert rank(u.astype(np.uint8)) == len(u)
    for x, y in zip(_mod2(a), _mod2(b)):
        assert ((u @ x - y @ u) % 2 == 0).all()


def _check_against_brute_force(a, b, d):
    la, lb = SigmaModule(2, d, a), SigmaModule(2, d, b)
    v = iso_test_mod2(la, lb)
    brute = brute_force_a11_iso(phi_restrict(la), phi_restrict(lb))
    assert v.isomorphic == brute.isomorphic
    assert v.method in ("hom space", "hom dimension")
    if v.isomorphic:
        _assert_witness(v, a, b)
    return v


@PROPERTY
@given(st.integers(1, 3), _seeds)
def test_iso_matches_brute_force_on_random_pairs(d, seed):
    rng = random.Random(seed)
    _check_against_brute_force(_mats(rng, d), _mats(rng, d), d)


@PROPERTY
@given(st.integers(1, 3), _seeds)
def test_iso_finds_explicit_conjugates(d, seed):
    rng = random.Random(seed)
    a = _mats(rng, d)
    u = _unit_mod2(rng, d)
    ui = inverse(u.astype(np.uint8)).astype(np.int64)
    # b_i = u a_i u^-1 mod 2, lifted back to Z/4 at random
    b = [((u @ x @ ui) % 2 + 2 * np.array(_mats(rng, d, 1)[0])) % 4 for x in _mod2(a)]
    v = _check_against_brute_force(a, [m.tolist() for m in b], d)
    assert v.isomorphic is True


def _has_nontrivial_idempotent(mats, d):
    """Exhaustive oracle: some e = e^2, e != 0, 1, commutes with all mats."""
    bits = (np.arange(1 << d * d)[:, None] >> np.arange(d * d)) & 1
    es = bits.reshape(-1, d, d).astype(np.int64)
    ok = (np.einsum("uij,ujk->uik", es, es) % 2 == es).all(axis=(1, 2))
    ok &= es.any(axis=(1, 2)) & ~(es == np.eye(d, dtype=np.int64)).all(axis=(1, 2))
    for m in _mod2(mats):
        ok &= ((np.einsum("uij,jk->uik", es, m) - np.einsum("ij,ujk->uik", m, es))
               % 2 == 0).all(axis=(1, 2))
    return bool(ok.any())


@PROPERTY
@given(st.integers(1, 3), _seeds, st.booleans())
def test_indecomposable_matches_idempotent_search(d, seed, split):
    rng = random.Random(seed)
    mats = _mats(rng, d)
    if split and d > 1:
        # a block sum, conjugated mod 2, splits by construction
        k = rng.randrange(1, d)
        for m in mats:
            for i in range(d):
                for j in range(d):
                    if (i < k) != (j < k):
                        m[i][j] = 0
        u = _unit_mod2(rng, d)
        ui = inverse(u.astype(np.uint8)).astype(np.int64)
        mats = [((u @ np.array(m) @ ui) % 2).tolist() for m in mats]
    got = indecomposable_mod2(SigmaModule(2, d, mats))
    assert got is (not _has_nontrivial_idempotent(mats, d))
    if split and d > 1:
        assert got is False


def test_rank5_deciders():
    j = np.eye(5, k=1, dtype=np.int64)
    jordan = [j.tolist(), (j @ j + 2 * j).tolist()]
    assert indecomposable_mod2(SigmaModule(2, 5, jordan)) is True
    blocks = np.zeros((5, 5), dtype=np.int64)
    blocks[:2, :2] = np.eye(2, k=1)
    blocks[2:, 2:] = np.eye(3, k=1)
    assert indecomposable_mod2(SigmaModule(2, 5, [blocks.tolist(), [[0] * 5] * 5])) is False
    u = np.array([[1, 1, 0, 0, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 0],
                  [1, 0, 0, 1, 0], [0, 0, 1, 1, 1]])
    ui = inverse(u.astype(np.uint8)).astype(np.int64)
    conj = [((u @ np.array(m) @ ui) % 4).tolist() for m in jordan]
    v = iso_test_mod2(SigmaModule(2, 5, jordan), SigmaModule(2, 5, conj))
    assert v.isomorphic is True and v.method == "hom space"
    _assert_witness(v, jordan, conj)


@pytest.mark.parametrize("pair", ["zero", "identity and zero"])
def test_rank5_decider_on_the_full_matrix_algebra(pair):
    # End = M_5(GF(2)), of dimension 25: past 2^16 combinations, and the
    # basis screen finds the idempotent E_11, so the answer is a proof
    first = np.eye(5, dtype=np.int64) if pair != "zero" else np.zeros((5, 5), dtype=np.int64)
    lm = SigmaModule(2, 5, [first.tolist(), [[0] * 5] * 5])
    assert len(gf2.module_hom_basis(*[lm.mod2_action()] * 2, 5)) == 25
    assert indecomposable_mod2(lm) is False


def test_one_locality_search(monkeypatch):
    # indecomposable_mod2 and gf2.split_indecomposable share _mixed_element
    seen = []
    search = gf2._mixed_element
    monkeypatch.setattr(gf2, "_mixed_element", lambda b, d: seen.append(d) or search(b, d))
    j = np.eye(3, k=1, dtype=np.int64).tolist()
    assert indecomposable_mod2(SigmaModule(2, 3, [j, j])) is True
    space = gf2.realize(gf2.StringDatum5(gf2.XWord.parse("S7-R1~R15-S10")))
    assert gf2.split_indecomposable(space)[0] is None
    assert seen == [(3,), space.dims]


def _units(n, cells):
    """Matrix units E_ij of size n, one 1-tuple per cell (i, j)."""
    out = []
    for i, j in cells:
        e = np.zeros((n, n), dtype=np.uint8)
        e[i, j] = 1
        out.append((e,))
    return out


def test_mixed_element_tries_pairwise_sums_past_the_enumeration_limit():
    # 17 nilpotent basis elements: the strictly upper E_ij of size 6, E_21
    # and E_31; no basis element is mixed, but E_12 + E_21 is, and it is
    # the first mixed pair in the order of np.triu_indices
    upper = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    basis = _units(6, upper + [(1, 0), (2, 0)])
    assert len(basis) > gf2.ENUM_BITS
    (f,) = gf2._mixed_element(basis, (6,))
    want = np.zeros((6, 6), dtype=np.uint8)
    want[0, 1] = want[1, 0] = 1
    assert np.array_equal(f, want)
    # 17 strictly upper E_ij of size 7: every pairwise sum is nilpotent too
    with pytest.raises(ValueError, match=gf2.TOO_LARGE):
        gf2._mixed_element(_units(7, [(i, j) for i in range(7)
                                      for j in range(i + 1, 7)][:17]), (7,))
