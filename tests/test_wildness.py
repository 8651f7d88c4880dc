"""Restriction along a -> 2x1, b -> 2x2 and the induced cubic diagrams."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gf2_oracle
from cubefunc import gf2
from cubefunc.gf2 import inverse, rank
from cubefunc.rings import verify_relations
from cubefunc.wildness import (
    A11Module,
    IsoVerdict,
    SigmaModule,
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
        mats2 = [m for _, _, m in l.mod2_rep().arrows]
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


def _block_sum(a, b):
    out = []
    for x, y in zip(a, b):
        m = np.zeros((len(x) + len(y),) * 2, dtype=np.int64)
        m[:len(x), :len(x)] = x
        m[len(x):, len(x):] = y
        out.append(m.tolist())
    return out


def _conjugate_mod4(rng, mats):
    d = len(mats[0])
    u = _unit_mod2(rng, d)
    ui = inverse(u.astype(np.uint8)).astype(np.int64)
    return [((u @ np.array(m) @ ui) % 2 + 2 * np.array(_mats(rng, d, 1)[0])) % 4
            for m in mats]


@PROPERTY
@given(st.integers(2, 3), _seeds, st.booleans())
def test_iso_of_block_sums_matches_brute_force(d, seed, same):
    # decomposable tuples, so that the summand matching decides when no
    # Hom basis element is invertible
    rng = random.Random(seed)
    k = rng.randrange(1, d)
    x, y = _mats(rng, k), _mats(rng, d - k)
    a = _block_sum(x, y)
    b = _block_sum(y, x) if same else _block_sum(x, _mats(rng, d - k))
    v = _check_against_brute_force(a, [m.tolist() for m in _conjugate_mod4(rng, b)], d)
    assert v.isomorphic is True or not same


@pytest.mark.parametrize("first", [
    np.zeros((5, 5), dtype=np.int64),
    np.pad(np.eye(2, k=1, dtype=np.int64), ((0, 3), (0, 3))),
], ids=["zero", "J2 + 0 + 0 + 0"])
def test_iso_past_the_old_enumeration_limit(first):
    # Hom spaces of dimension 25 and 17: more than 2^16 homomorphisms,
    # which were not searched ("inconclusive"); each is now decided with
    # a witness, against a conjugate of the tuple
    a = [first.tolist(), [[0] * 5] * 5]
    b = [m.tolist() for m in _conjugate_mod4(random.Random(7), a)]
    la, lb = SigmaModule(2, 5, a), SigmaModule(2, 5, b)
    assert len(gf2.hom_basis(la.mod2_rep(), lb.mod2_rep())) > 16
    v = iso_test_mod2(la, lb)
    assert v.isomorphic is True and v.method == "hom space"
    _assert_witness(v, a, b)


@pytest.mark.parametrize("pair", ["zero", "identity and zero"])
def test_rank5_decider_on_the_full_matrix_algebra(pair):
    # End = M_5(GF(2)), of dimension 25: the basis screen finds the
    # idempotent E_11, so the answer is a proof
    first = np.eye(5, dtype=np.int64) if pair != "zero" else np.zeros((5, 5), dtype=np.int64)
    lm = SigmaModule(2, 5, [first.tolist(), [[0] * 5] * 5])
    assert len(gf2.hom_basis(*[lm.mod2_rep()] * 2)) == 25
    assert indecomposable_mod2(lm) is False


def test_one_locality_search(monkeypatch):
    # indecomposable_mod2, iso_test_mod2 and gf2.split_indecomposable share
    # gf2._locality
    seen = []
    kernel = gf2._locality
    monkeypatch.setattr(gf2, "_locality", lambda b, d: seen.append(d) or kernel(b, d))
    j = np.eye(3, k=1, dtype=np.int64).tolist()
    assert indecomposable_mod2(SigmaModule(2, 3, [j, j])) is True
    space = gf2.realize(gf2.StringDatum5(gf2_oracle.word("S7-R1~R15-S10")))
    assert gf2.split_indecomposable(space)[0] is None
    zero = SigmaModule(2, 2, [[[0, 0], [0, 0]]] * 2)
    assert iso_test_mod2(zero, zero).isomorphic is True
    # the zero module of rank 2 splits once, into two local summands
    assert seen == [(3,), space.dims, (2,), (1,), (1,), (2,), (1,), (1,)]


def _units(n, cells):
    """Matrix units E_ij of size n, one 1-tuple per cell (i, j)."""
    out = []
    for i, j in cells:
        e = np.zeros((n, n), dtype=np.uint8)
        e[i, j] = 1
        out.append((e,))
    return out


def test_matrix_algebra_with_no_mixed_basis_element():
    # M_2(GF(2)) on the basis {1, E12, E21, E12 + E21 + E22}: each basis
    # element is invertible or nilpotent, and [E12, E21] = 1, so the
    # commutator ideal is all of A and not nilpotent: A is not local, and
    # the seeded search on the structure constants finds an idempotent
    one = (np.eye(2, dtype=np.uint8),)
    (e12,), (e21,), (e22,) = _units(2, [(0, 1), (1, 0), (1, 1)])
    basis = [one, (e12,), (e21,), (e12 ^ e21 ^ e22,)]
    assert not gf2._mixed(gf2._pack_basis(basis, (2,))).any()
    local, (f,) = gf2._locality(basis, (2,))
    assert local is False
    assert gf2._mixed(gf2._pack_basis([(f,)], (2,)))[0]
    assert np.array_equal(gf2._mul(f, f), f)
    assert gf2_oracle.first_combination(basis, (2,), gf2._mixed) is not None


def test_unipotent_upper_triangular_algebra_is_certified_local():
    # 1 + the strictly upper triangular 7 x 7 matrices: E = 22 > 16, which
    # the enumeration refused; its commutator ideal is nilpotent
    basis = [(np.eye(7, dtype=np.uint8),)] + _units(
        7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
    assert len(basis) == 22
    local, certificate = gf2._locality(basis, (7,))
    assert local is True
    gf2_oracle.check_locality(basis, (7,), certificate)
