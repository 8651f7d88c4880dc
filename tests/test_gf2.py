"""The bit-packed GF(2) batch kernel and the Hom/End deciders built on it."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubefunc import gf2
from cubefunc.gf2 import (
    GF2_FIELD,
    BandDatum5,
    StringDatum5,
    XWord,
    find_isomorphism,
    hom_basis,
    random_invertible,
    rank,
    realize,
    split_indecomposable,
    zero_space,
)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
# sizes on both sides of the 64-bit word boundary
SIZES = (0, 1, 2, 5, 14, 63, 64, 65, 70)
_seeds = st.integers(0, 2**32 - 1)


def _unpack(words, cols):
    """Packed rows [..., r, W] back to 0/1 matrices [..., r, cols]."""
    words = np.ascontiguousarray(words, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=-1, count=cols, bitorder="little")


def _random_square(rng, n, count):
    """Random 0/1 matrices: some invertible, some of lower rank."""
    out = []
    for i in range(count):
        if i % 3 == 0:
            out.append(random_invertible(rng, n))
        elif i % 3 == 1 and n > 1:
            m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
            m[rng.integers(0, n)] = m[rng.integers(0, n)] ^ m[rng.integers(0, n)]
            out.append(m)
        else:
            out.append(rng.integers(0, 2, size=(n, n), dtype=np.uint8))
    return np.array(out, dtype=np.uint8).reshape(count, n, n)


def _nilpotent_like(rng, n, count):
    """Matrices that are nilpotent, invertible or neither: conjugates of
    block matrices with a strictly upper triangular part."""
    out = []
    for _ in range(count):
        k = int(rng.integers(0, n + 1))
        m = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
        m[:k, :k] = random_invertible(rng, k)
        m[:k, k:] = 0
        u = random_invertible(rng, n)
        out.append(gf2.mats(GF2_FIELD, u, m, gf2.inverse(GF2_FIELD, u)) if n else m)
    return np.array(out, dtype=np.uint8).reshape(count, n, n)


def _power(m):
    for _ in range(gf2._stable_exponent(len(m))):
        m = GF2_FIELD.matmul(m, m)
    return m


@PROPERTY
@given(st.sampled_from(SIZES), st.sampled_from(SIZES), _seeds)
def test_pack_round_trip(r, c, seed):
    m = np.random.default_rng(seed).integers(0, 2, size=(3, r, c), dtype=np.uint8)
    words = gf2._pack(m)
    assert words.dtype == np.uint64 and words.shape == (3, r, -(-c // 64))
    assert np.array_equal(_unpack(words, c), m)


@PROPERTY
@given(st.sampled_from(SIZES), _seeds)
def test_full_rank_matches_rank(n, seed):
    mats = _random_square(np.random.default_rng(seed), n, 6)
    want = [rank(GF2_FIELD, m) == n for m in mats]
    assert gf2._full_rank(gf2._pack(mats)).tolist() == want


@PROPERTY
@given(st.sampled_from(SIZES), _seeds)
def test_stable_power_matches_field_matmul(n, seed):
    mats = _nilpotent_like(np.random.default_rng(seed), n, 4)
    got = _unpack(gf2._stable_power(gf2._pack(mats)), n)
    for m, g in zip(mats, got):
        assert np.array_equal(g, _power(m))


@PROPERTY
@given(st.sampled_from(SIZES), st.integers(0, 6), _seeds)
def test_combination_order_matches_bit_matrix(n, E, seed):
    basis = np.random.default_rng(seed).integers(0, 2, size=(E, n, n), dtype=np.uint8)
    coeffs = gf2._bit_matrix(1 << E, E).astype(np.int64)
    want = (coeffs @ basis.reshape(E, n * n).astype(np.int64) % 2).reshape(1 << E, n, n)
    packed = gf2._pack(basis)
    for size in {1 << k for k in range(E + 1)}:
        got = np.concatenate([gf2._combinations(packed, lo, size)
                              for lo in range(0, 1 << E, size)])
        assert np.array_equal(_unpack(got, n), want)
    for i in (0, (1 << E) - 1, (1 << E) // 3):
        (one,) = gf2._combination([(b,) for b in basis], i, (n,))
        assert np.array_equal(one, want[i])


def _reference_masks(batch):
    """(invertible, mixed) of a batch of morphisms, one uint8 [C, n, n]
    array per component, by rank and repeated field.matmul."""
    inv, nilp = [], []
    for f in zip(*batch):
        inv.append(all(rank(GF2_FIELD, m) == len(m) for m in f))
        nilp.append(not any(_power(m).any() for m in f if len(m)))
    inv, nilp = np.array(inv), np.array(nilp)
    return inv, ~(inv | nilp)


@PROPERTY
@given(st.lists(st.sampled_from((0, 1, 2, 5, 65)), min_size=1, max_size=3), _seeds)
def test_batch_predicates_match_reference(dims, seed):
    rng = np.random.default_rng(seed)
    batch = [_nilpotent_like(rng, n, 8) for n in dims]
    inv, mixed = _reference_masks(batch)
    packed = [gf2._pack(g) for g in batch]
    assert np.array_equal(gf2._invertible(packed), inv)
    assert np.array_equal(gf2._mixed(packed), mixed)


@PROPERTY
@given(st.lists(st.sampled_from((1, 2, 3, 5)), min_size=1, max_size=3),
       st.integers(0, 7), st.sampled_from((1, 8, 1 << 18)), _seeds)
def test_first_combination_in_any_chunking(dims, E, chunk_words, seed):
    rng = np.random.default_rng(seed)
    basis = list(zip(*[_nilpotent_like(rng, n, E) for n in dims])) if E else []
    allc = [gf2._combination(basis, i, dims) for i in range(1 << E)]
    inv, mixed = _reference_masks([np.array([f[c] for f in allc]) for c in range(len(dims))])
    first = lambda mask: allc[np.flatnonzero(mask)[0]] if mask.any() else None
    old = gf2._CHUNK_WORDS
    gf2._CHUNK_WORDS = chunk_words
    try:
        for test, mask in ((gf2._invertible, inv), (gf2._mixed, mixed)):
            got, want = gf2._first_combination(basis, dims, test), first(mask)
            assert (got is None) == (want is None)
            if got is not None:
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
    finally:
        gf2._CHUNK_WORDS = old


# ---------------------------------------------------------------------------
# the deciders on realized string and band data
# ---------------------------------------------------------------------------

W = XWord.parse
DATA = [
    StringDatum5(W("S7-R1~R15-S10")),
    StringDatum5(W("S5~S5-R5")),
    StringDatum5(W("S8~R2-S9~S2-R13")),
    StringDatum5(W("R2~S8")),
    StringDatum5(W("S5"), 1),
    StringDatum5(W("S5~S5-R7"), 1),
    BandDatum5(W("R2-S8", cyclic=True), (1, 1)),
    BandDatum5(W("R2-S8", cyclic=True), (1, 1, 1)),
    BandDatum5(W("S5-R1~R15-S5", cyclic=True), (1, 1)),
    BandDatum5(W("R1-S5~S5-R2~S8-R15", cyclic=True), (1, 1)),
]
ARROWS = (("h", 0, 1), ("p", 1, 0), ("h1", 1, 2), ("h2", 1, 2), ("p1", 2, 1), ("p2", 2, 1))


def _assert_isomorphism(f, x, y):
    for m, n in zip(f, x.dims):
        assert m.shape == (n, n) and rank(GF2_FIELD, m) == n
    for name, s, t in ARROWS:
        lhs = GF2_FIELD.matmul(getattr(y, name), f[s])
        rhs = GF2_FIELD.matmul(f[t], getattr(x, name))
        assert np.array_equal(lhs, rhs), name


@pytest.mark.parametrize("datum", DATA, ids=repr)
def test_find_isomorphism_of_conjugates(datum):
    x = realize(datum)
    rng = np.random.default_rng(len(repr(datum)))
    y = x.conjugate(*(random_invertible(rng, n) for n in x.dims))
    f = find_isomorphism(x, y)
    assert f is not None
    _assert_isomorphism(f, x, y)


@pytest.mark.parametrize("datum", DATA, ids=repr)
def test_realized_data_are_indecomposable(datum):
    x = realize(datum)
    assert split_indecomposable(x) == (None, len(hom_basis(x, x)))


@pytest.mark.parametrize("a, b", list(itertools.combinations(DATA[::2], 2)), ids=repr)
def test_split_of_direct_sums(a, b):
    x = realize(a).direct_sum(realize(b))
    first, second = split_indecomposable(x)
    for part in (first, second):
        assert sum(part.dims) > 0
        assert all(part.verify().values())
    assert tuple(i + j for i, j in zip(first.dims, second.dims)) == x.dims


def test_non_isomorphic_data_have_no_isomorphism():
    # the same band word with the polynomials t^2 + t + 1 and (t + 1)^2
    x = realize(DATA[7])
    y = realize(BandDatum5(W("R2-S8", cyclic=True), (1, 0, 1)))
    assert x.dims == y.dims
    assert find_isomorphism(x, y) is None


def test_zero_space_has_no_summands():
    with pytest.raises(ValueError, match="the zero space has no summands"):
        split_indecomposable(zero_space())
