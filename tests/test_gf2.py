"""The dense GF(2) layer, the batch kernel on uint8 stacks, the Hom/End
deciders built on it and the decompose pipeline."""

import itertools

import gf2_oracle
import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st

from cubefunc import gf2
from cubefunc.domains import GF2
from cubefunc.functors import (
    FUNCTOR_IDS, CubicDiagram, Product, Sym, Tensor, builtin, extract_diagram,
)
from cubefunc.gf2 import (
    BandDatum5,
    CubicSpace2,
    StringDatum5,
    XWord,
    decompose,
    find_isomorphism,
    hom_basis,
    inverse,
    nullspace,
    random_invertible,
    rank,
    realize,
    solve,
    split_indecomposable,
    zero_space,
)
from cubefunc.matrix import Mat
from cubefunc.presentation import FpPresentation
from cubefunc.rings import verify_relations

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
# matrix sizes from empty to past 64
SIZES = (0, 1, 2, 5, 14, 63, 64, 65, 70)
_seeds = st.integers(0, 2**32 - 1)
_mul = gf2._mul


# ---------------------------------------------------------------------------
# the dense layer: elimination, nullspace, solve, inverse, products
# ---------------------------------------------------------------------------

DENSE = settings(max_examples=100, deadline=None, derandomize=True, database=None)
_dims = st.integers(0, 12)


# every example of the dense tests runs at each prime, so GF(2) keeps the
# full DENSE budget of examples
PRIMES = (2, 3, 5)


def _mul_mod(a, b, p):
    """The matrix product over GF(p), on int64."""
    return a.astype(np.int64) @ b.astype(np.int64) % p


def _dense(r, c, seed, p=2):
    """A random r x c matrix over GF(p): dense, sparse or of low rank."""
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 2 and min(r, c):
        k = int(rng.integers(0, min(r, c) + 1))
        # seeds = 0 mod 3: the two factors are dense
        return _mul_mod(_dense(r, k, seed + 1, p), _dense(k, c, seed + 4, p), p).astype(np.uint8)
    m = rng.integers(0, p, size=(r, c), dtype=np.uint8)
    if kind == 1:
        m[rng.random((r, c)) < 0.7] = 0
    return m


def _rref_reference(a, p=2):
    """Reduced row echelon form over GF(p) and pivot columns, row by row in
    Python."""
    rows, cols = a.shape
    m = [[int(x) % p for x in row] for row in a]
    piv, lead = [], 0
    for c in range(cols):
        sel = next((i for i in range(lead, rows) if m[i][c]), None)
        if sel is None:
            continue
        m[lead], m[sel] = m[sel], m[lead]
        unit = pow(m[lead][c], -1, p)
        m[lead] = [x * unit % p for x in m[lead]]
        for i in range(rows):
            if i != lead and m[i][c]:
                m[i] = [(x - m[i][c] * y) % p for x, y in zip(m[i], m[lead])]
        piv.append(c)
        lead += 1
    return np.array(m, dtype=np.int64).reshape(rows, cols), piv


@DENSE
@given(_dims, _dims, _seeds)
def test_eliminate_matches_reference_rref(r, c, seed):
    for p in PRIMES:
        note(f"p = {p}")
        a = _dense(r, c, seed, p)
        got, piv = gf2._eliminate(a, p)
        want, want_piv = _rref_reference(a, p)
        assert got.dtype == (np.uint8 if p == 2 else np.int64)
        assert piv == want_piv
        assert np.array_equal(got, want)
        assert len(gf2.pivot_columns(a, p)) == len(want_piv)


@DENSE
@given(_dims, _dims, _seeds)
def test_nullspace_is_a_basis_of_the_kernel(r, c, seed):
    for p in PRIMES:
        note(f"p = {p}")
        a = _dense(r, c, seed, p)
        n = nullspace(a, p)
        k = c - len(_rref_reference(a, p)[1])
        assert n.shape == (c, k)
        assert len(_rref_reference(n.T, p)[1]) == k
        assert not _mul_mod(a, n, p).any()


@DENSE
@given(_dims, _dims, st.integers(0, 3), st.booleans(), _seeds)
def test_solve_finds_a_solution_exactly_when_one_exists(r, c, k, consistent, seed):
    for p in PRIMES:
        note(f"p = {p}")
        a = _dense(r, c, seed, p)
        b = _mul_mod(a, _dense(c, k, seed + 1, p), p) if consistent else _dense(r, k, seed + 1, p)
        rank_a = len(_rref_reference(a, p)[1])
        solvable = len(_rref_reference(np.concatenate([a, b], axis=1), p)[1]) == rank_a
        x = solve(a, b, p)
        assert (x is not None) == solvable
        if x is not None:
            assert x.shape == (c, k)
            assert np.array_equal(_mul_mod(a, x, p), b)


@DENSE
@given(_dims, _dims, _seeds, st.sampled_from((2, 3)))
def test_quotient_has_kernel_the_row_span_and_a_section(r, dim, seed, p):
    rows = _dense(r, dim, seed, p)
    quot, section = gf2._quotient(rows, dim, p)
    assert quot.shape == (dim - len(_rref_reference(rows, p)[1]), dim)
    assert not _mul_mod(quot, rows.T, p).any()
    assert np.array_equal(_mul_mod(quot, section, p), np.eye(len(quot), dtype=np.int64))


@DENSE
@given(_dims, st.booleans(), _seeds)
def test_inverse_inverts_or_raises_on_singular(n, invertible, seed):
    rng = np.random.default_rng(seed)
    a = random_invertible(rng, n) if invertible else _dense(n, n, seed)
    if len(_rref_reference(a)[1]) < n:
        with pytest.raises(ValueError, match="singular"):
            inverse(a)
        return
    x = inverse(a)
    assert np.array_equal(_mul(x, a), np.eye(n, dtype=np.uint8))
    assert np.array_equal(_mul(a, x), np.eye(n, dtype=np.uint8))


@pytest.mark.parametrize("a", [
    [[1, 0]],
    [[1], [0]],
    [[1, 0, 0], [0, 1, 0]],
    np.zeros((0, 2), dtype=np.uint8),
], ids=["1x2", "2x1", "2x3 of full row rank", "0x2"])
def test_inverse_of_a_non_square_matrix_raises(a):
    with pytest.raises(ValueError, match="not square"):
        inverse(np.array(a, dtype=np.uint8))


@DENSE
@given(_dims, st.sampled_from((0, 1, 2, 5, 12, 255, 256, 257)), _dims, _seeds)
def test_gf2_matmul_matches_int64_reference(r, k, c, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(r, k), dtype=np.uint8)
    b = rng.integers(0, 2, size=(k, c), dtype=np.uint8)
    want = a.astype(np.int64) @ b.astype(np.int64) % 2
    got = _mul(a, b)
    assert got.dtype == np.uint8 and np.array_equal(got, want)


@pytest.mark.parametrize("k", (255, 256, 257, 511, 512))
def test_gf2_matmul_parity_survives_uint8_wraparound(k):
    ones = np.ones((2, k), dtype=np.uint8)
    assert np.array_equal(_mul(ones, ones.T), np.full((2, 2), k % 2))


# ---------------------------------------------------------------------------
# the batch kernel on uint8 stacks [C, n, n]
# ---------------------------------------------------------------------------


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
        out.append(gf2.mats(u, m, gf2.inverse(u)) if n else m)
    return np.array(out, dtype=np.uint8).reshape(count, n, n)


def _power(m):
    for _ in range(gf2._stable_exponent(len(m))):
        m = _mul(m, m)
    return m


@PROPERTY
@given(st.sampled_from(SIZES), _seeds)
def test_full_rank_matches_rank(n, seed):
    mats = _random_square(np.random.default_rng(seed), n, 6)
    want = [rank(m) == n for m in mats]
    assert gf2._full_rank(mats).tolist() == want


@PROPERTY
@given(st.sampled_from(SIZES), _seeds)
def test_stable_power_matches_field_matmul(n, seed):
    mats = _nilpotent_like(np.random.default_rng(seed), n, 4)
    got = gf2._stable_power(mats)
    assert got.dtype == np.uint8 and got.shape == mats.shape
    for m, g in zip(mats, got):
        assert np.array_equal(g, _power(m))


@PROPERTY
@given(st.sampled_from(SIZES), st.integers(0, 6), _seeds)
def test_combination_order_matches_bit_matrix(n, E, seed):
    basis = np.random.default_rng(seed).integers(0, 2, size=(E, n, n), dtype=np.uint8)
    coeffs = gf2_oracle.bit_matrix(1 << E, E).astype(np.int64)
    want = (coeffs @ basis.reshape(E, n * n).astype(np.int64) % 2).reshape(1 << E, n, n)
    for size in {1 << k for k in range(E + 1)}:
        got = np.concatenate([gf2_oracle.combinations(basis, lo, size)
                              for lo in range(0, 1 << E, size)])
        assert got.dtype == np.uint8 and np.array_equal(got, want)
    for i in (0, (1 << E) - 1, (1 << E) // 3):
        (one,) = gf2_oracle.combination([(b,) for b in basis], i, (n,))
        assert np.array_equal(one, want[i])


def _reference_masks(batch):
    """(invertible, mixed) of a batch of morphisms, one uint8 [C, n, n]
    array per component, by rank and repeated dense products."""
    inv, nilp = [], []
    for f in zip(*batch):
        inv.append(all(rank(m) == len(m) for m in f))
        nilp.append(not any(_power(m).any() for m in f if len(m)))
    inv, nilp = np.array(inv), np.array(nilp)
    return inv, ~(inv | nilp)


@PROPERTY
@given(st.lists(st.sampled_from((0, 1, 2, 5, 65)), min_size=1, max_size=3), _seeds)
def test_batch_predicates_match_reference(dims, seed):
    rng = np.random.default_rng(seed)
    batch = [_nilpotent_like(rng, n, 8) for n in dims]
    inv, mixed = _reference_masks(batch)
    assert np.array_equal(gf2._invertible(batch), inv)
    assert np.array_equal(gf2._mixed(batch), mixed)


@PROPERTY
@given(st.lists(st.sampled_from((1, 2, 3, 5)), min_size=1, max_size=3),
       st.integers(0, 7), st.sampled_from((1, 8, 64, gf2_oracle.CHUNK_BYTES)), _seeds)
def test_first_combination_in_any_chunking(dims, E, chunk_bytes, seed):
    rng = np.random.default_rng(seed)
    basis = list(zip(*[_nilpotent_like(rng, n, E) for n in dims])) if E else []
    allc = [gf2_oracle.combination(basis, i, dims) for i in range(1 << E)]
    inv, mixed = _reference_masks([np.array([f[c] for f in allc]) for c in range(len(dims))])
    first = lambda mask: allc[np.flatnonzero(mask)[0]] if mask.any() else None
    for test, mask in ((gf2._invertible, inv), (gf2._mixed, mixed)):
        got = gf2_oracle.first_combination(basis, dims, test, chunk_bytes)
        want = first(mask)
        assert (got is None) == (want is None)
        if got is not None:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# the deciders on realized string and band data
# ---------------------------------------------------------------------------

W = gf2_oracle.word
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
        assert m.shape == (n, n) and rank(m) == n
    for name, s, t in ARROWS:
        lhs = _mul(getattr(y, name), f[s])
        rhs = _mul(f[t], getattr(x, name))
        assert np.array_equal(lhs, rhs), name


def _conjugate_pair(datum):
    x = realize(datum)
    rng = np.random.default_rng(len(repr(datum)))
    return x, x.conjugate(*(random_invertible(rng, n) for n in x.dims))


@pytest.mark.parametrize("datum", DATA, ids=repr)
def test_find_isomorphism_of_conjugates(datum):
    x, y = _conjugate_pair(datum)
    # identify's pre-filter compares these ranks: isomorphism invariants
    assert [rank(m) for m in gf2._composites(x)] == [rank(m) for m in gf2._composites(y)]
    f = find_isomorphism(x, y)
    assert f is not None
    _assert_isomorphism(f, x, y)


@pytest.mark.parametrize("datum", DATA, ids=repr)
def test_realized_data_are_indecomposable(datum):
    x = realize(datum)
    got, certificate = split_indecomposable(x)
    assert got is None
    gf2_oracle.check_locality(hom_basis(x, x), x.dims, certificate)


@pytest.mark.parametrize("a, b", list(itertools.combinations(DATA[::2], 2)), ids=repr)
def test_split_of_direct_sums(a, b):
    x = realize(a).direct_sum(realize(b))
    (_, first), (_, second) = split_indecomposable(x)
    for part in (first, second):
        assert sum(part.dims) > 0
        assert part.verify(CubicSpace2.RELATIONS)[0]
    assert tuple(i + j for i, j in zip(first.dims, second.dims)) == x.dims


def _non_isomorphic_pair():
    # the same band word with the polynomials t^2 + t + 1 and (t + 1)^2
    x = realize(DATA[7])
    y = realize(BandDatum5(W("R2-S8", cyclic=True), (1, 0, 1)))
    assert x.dims == y.dims
    return x, y


def test_non_isomorphic_data_have_no_isomorphism():
    assert find_isomorphism(*_non_isomorphic_pair()) is None


def _certified(data):
    """The data whose realization split_indecomposable proves
    indecomposable (End local); the others are dropped."""
    return [d for d in data if split_indecomposable(realize(d))[0] is None]


def _random_data(seed, n=24):
    rng = np.random.default_rng(seed)
    return [gf2.random_band_datum(rng, max_pairs=2) if i % 3 == 0
            else gf2.random_string_datum(rng, max_units=2) for i in range(n)]


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_find_isomorphism_agrees_with_the_exhaustive_oracle(seed):
    # an indecomposable y has a local End, so the maps x -> y that are not
    # isomorphisms form a proper subspace of Hom(x, y) and every basis has
    # an isomorphism: testing the basis decides what testing all 2^E
    # combinations decides
    pool = [realize(d) for d in DATA + _certified(_random_data(seed))]
    pool = [x for x in pool if len(hom_basis(x, x)) <= 16]
    rng = np.random.default_rng(seed)
    pairs = [(x, x.conjugate(*(random_invertible(rng, n) for n in x.dims)))
             for x in pool for _ in range(4)]
    pairs += [(x, y) for x in pool for y in pool if x is not y and x.dims == y.dims]
    hits = 0
    for x, y in pairs:
        basis = hom_basis(x, y)
        assert len(basis) <= 16            # the oracle enumerates 2^E maps
        oracle = gf2_oracle.first_combination(basis, x.dims, gf2._invertible)
        f = find_isomorphism(x, y)
        assert (f is None) == (oracle is None)
        if f is not None:
            _assert_isomorphism(f, x, y)
            hits += 1
    assert hits >= 4 * len(pool)


def test_zero_space_has_no_summands():
    with pytest.raises(ValueError, match="the zero space has no summands"):
        split_indecomposable(zero_space())


_NIL = [[0, 1], [0, 0]]
_LOOP = gf2.Rep2((2,), [(0, 0, _NIL)])


@pytest.mark.parametrize("x, y", [
    (_LOOP, gf2.Rep2((2,), [])),
    (_LOOP, gf2.Rep2((2,), [(0, 0, _NIL)] * 2)),
    (_LOOP, gf2.Rep2((2, 2), [(0, 0, _NIL)])),
    (gf2.Rep2((1, 1), [(0, 1, [[1]])]), gf2.Rep2((1, 1), [(1, 0, [[1]])])),
], ids=["a loop against none", "one loop against two", "one vertex against two",
        "an arrow against its reverse"])
def test_hom_basis_refuses_representations_of_different_quivers(x, y):
    for a, b in ((x, y), (y, x)):
        with pytest.raises(ValueError, match="different quivers"):
            hom_basis(a, b)


# ---------------------------------------------------------------------------
# the staircase: the strata budget is an isomorphism invariant and additive
# ---------------------------------------------------------------------------

# the realized DATA and the seeds of random_space draws
STAIRCASE_SOURCES = DATA + list(range(20))


def _staircase_space(source):
    if isinstance(source, int):
        return gf2.random_space(np.random.default_rng(source))
    return realize(source)


@pytest.mark.parametrize("k, source", list(enumerate(STAIRCASE_SOURCES)),
                         ids=[f"random_space({s})" if isinstance(s, int) else repr(s)
                              for s in STAIRCASE_SOURCES])
def test_strata_budget_is_invariant_under_a_change_of_basis(k, source):
    x = _staircase_space(source)
    rng = np.random.default_rng(1000 + k)
    y = x.conjugate(*(random_invertible(rng, n) for n in x.dims))
    assert gf2._strata_budget(y) == gf2._strata_budget(x)


@pytest.mark.parametrize("a, b", list(itertools.combinations_with_replacement(DATA, 2)),
                         ids=repr)
def test_strata_budget_is_additive_over_direct_sums(a, b):
    (budget_a, points_a), (budget_b, points_b) = (gf2._strata_budget(realize(d))
                                                  for d in (a, b))
    budget, points = gf2._strata_budget(realize(a).direct_sum(realize(b)))
    assert budget == {s: budget_a[s] + budget_b[s] for s in budget_a}
    assert points == points_a + points_b


# ---------------------------------------------------------------------------
# the representation kernel on both quivers: summands and their matching,
# checked with int64 products and the oracle's rank
# ---------------------------------------------------------------------------


def _prod(a, b):
    return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64) % 2


def _assert_summands(x, summands):
    """Each (inc, part) is a nonzero subrepresentation of x with
    x_a inc[s] = inc[t] part_a on every arrow a from s to t, and the
    inclusions side by side are invertible at every vertex, so x is the
    direct sum of the parts."""
    for inc, part in summands:
        assert sum(part.dims) > 0
        for (s, t, xa), (u, v, pa) in zip(x.arrows, part.arrows, strict=True):
            assert (s, t) == (u, v)
            assert np.array_equal(_prod(xa, inc[s]), _prod(inc[t], pa))
    for v, n in enumerate(x.dims):
        side = np.hstack([np.zeros((n, 0), dtype=np.uint8)] + [inc[v] for inc, _ in summands])
        assert side.shape == (n, n) and gf2_oracle.rank(side) == n


def _assert_iso(f, x, y):
    """f is invertible at every vertex and y_a f_s = f_t x_a on every arrow."""
    for m, n in zip(f, x.dims, strict=True):
        assert m.shape == (n, n) and gf2_oracle.rank(m) == n
    for (s, t, xa), (_, _, ya) in zip(x.arrows, y.arrows, strict=True):
        assert np.array_equal(_prod(ya, f[s]), _prod(f[t], xa))


@PROPERTY
@given(st.sampled_from(("space", "tuple")), _seeds)
def test_summands_are_included_subrepresentations(kind, seed):
    rng = np.random.default_rng(seed)
    x = gf2.random_space(rng, max_dim=8) if kind == "space" else _random_tuple(rng)
    summands = gf2.indecomposable_summands(x)
    _assert_summands(x, summands)
    for _, part in summands:
        basis = hom_basis(part, part)
        if len(basis) <= 12:
            assert gf2_oracle.is_local(basis, part.dims)
    split = split_indecomposable(x)
    if split[0] is not None:
        _assert_summands(x, split)
    assert (split[0] is None) == (len(summands) == 1)


@pytest.mark.parametrize("a, b", list(itertools.combinations(DATA[::2], 2)), ids=repr)
def test_match_summands_of_swapped_sums(a, b):
    x = realize(a).direct_sum(realize(b))
    rng = np.random.default_rng(len(repr((a, b))))
    y = realize(b).direct_sum(realize(a))
    y = y.conjugate(*(random_invertible(rng, n) for n in y.dims))
    assert isinstance(y, CubicSpace2) and y.verify(CubicSpace2.RELATIONS)[0]
    f = gf2.match_summands(x, y)
    assert f is not None
    _assert_iso(f, x, y)


@PROPERTY
@given(_seeds)
def test_match_summands_of_swapped_tuple_sums(seed):
    rng = np.random.default_rng(seed)
    a = _random_tuple(rng)
    b = _random_tuple(rng)
    while len(b.arrows) != len(a.arrows):
        b = _random_tuple(rng)
    x = a.direct_sum(b)
    y = b.direct_sum(a).conjugate(random_invertible(rng, x.dims[0]))
    f = gf2.match_summands(x, y)
    assert f is not None
    _assert_iso(f, x, y)


def test_match_summands_finds_no_partner():
    x, y = _non_isomorphic_pair()
    z = realize(DATA[0])
    assert gf2.match_summands(x.direct_sum(z), z.direct_sum(y)) is None


# ---------------------------------------------------------------------------
# the locality kernel against the exhaustive oracle
# ---------------------------------------------------------------------------

LOCALITY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _random_tuple(rng):
    """A tuple of one or two matrices of rank at most 4, as a one-vertex
    gf2.Rep2 with a loop per matrix; half of them are block sums."""
    d = int(rng.integers(1, 5))
    mats = _nilpotent_like(rng, d, int(rng.integers(1, 3)))
    k = int(rng.integers(0, d + 1))
    if rng.integers(0, 2):               # a block sum, X + X when k = d - k
        mats[:, :k, k:] = 0
        mats[:, k:, :k] = 0
        if 2 * k == d:
            mats[:, k:, k:] = mats[:, :k, :k]
    return gf2.Rep2((d,), [(0, 0, m) for m in mats])


def _end_algebra(kind, seed):
    """(basis, dims) of an endomorphism algebra: of a realized string or
    band datum, of a direct sum of two, of a random_space output or of a
    random module tuple of rank at most 4 (_random_tuple)."""
    rng = np.random.default_rng(seed)
    datum = lambda: (gf2.random_band_datum(rng, max_pairs=1) if rng.integers(0, 2)
                     else gf2.random_string_datum(rng, max_units=2, max_m=2))
    if kind == "module":
        x = _random_tuple(rng)
    elif kind == "space":
        x = gf2.random_space(rng, max_dim=6)
    elif kind == "sum":
        x = realize(datum()).direct_sum(realize(datum()))
    else:
        x = realize(datum())
    return hom_basis(x, x), x.dims


def _flat(f):
    return np.concatenate([m.reshape(-1) for m in f])


def _in_span(basis, f):
    rows = np.array([_flat(b) for b in basis])
    return rank(np.vstack([rows, _flat(f)])) == len(basis)


def _unscreened(basis, dims, rng):
    """Another basis of the same algebra: of elements that are nilpotent
    or invertible where random sampling finds enough of them, so that the
    kernel's basis screen finds nothing, else of random elements."""
    combine = lambda c: tuple(sum(int(x) * f[i] for x, f in zip(c, basis)) % 2
                              for i in range(len(dims)))
    out = []
    for _ in range(40 * len(basis)):
        f = tuple(m.astype(np.uint8) for m in combine(rng.integers(0, 2, len(basis))))
        if not gf2._mixed(gf2._pack_basis([f], dims))[0] and \
                rank(np.array([_flat(g) for g in out + [f]])) > len(out):
            out.append(f)
            if len(out) == len(basis):
                return out
    t = random_invertible(rng, len(basis))
    return [tuple(m.astype(np.uint8) for m in combine(row)) for row in t]


@LOCALITY
@given(st.sampled_from(("data", "sum", "space", "module")), st.booleans(), _seeds)
def test_locality_kernel_agrees_with_the_exhaustive_oracle(kind, other_basis, seed):
    basis, dims = _end_algebra(kind, seed)
    if len(basis) > 12:
        return                       # past what the oracle enumerates quickly
    if other_basis:
        basis = _unscreened(basis, dims, np.random.default_rng(seed + 1))
    local, got = gf2._locality(basis, dims)
    assert local == gf2_oracle.is_local(basis, dims)
    if local:
        gf2_oracle.check_locality(basis, dims, got)
        return
    assert _in_span(basis, got)
    assert gf2._mixed(gf2._pack_basis([got], dims))[0]


def test_locality_lifts_a_fixed_vector_outside_span_one():
    # x1 = C + 0 with C the companion matrix of t^2 + t + 1: End is
    # GF(4) x GF(2), here on a basis of units, so the screen finds nothing;
    # A is commutative (J = 0) and squaring fixes the idempotents (1, 0)
    # and (0, 1) besides 1
    c = np.zeros((3, 3), dtype=np.uint8)
    c[:2, :2] = [[0, 1], [1, 1]]
    one = np.eye(3, dtype=np.uint8)
    basis = [(one,), (c ^ np.diag([0, 0, 1]).astype(np.uint8),),
             (_mul(c, c) ^ np.diag([0, 0, 1]).astype(np.uint8),)]
    assert len(hom_basis(*[gf2.Rep2((3,), [(0, 0, c)])] * 2)) == len(basis)   # all of End
    assert not gf2._mixed(gf2._pack_basis(basis, (3,))).any()
    local, f = gf2._locality(basis, (3,))
    assert local is False and _in_span(basis, f)
    assert gf2._mixed(gf2._pack_basis([f], (3,)))[0]
    assert np.array_equal(_mul(f[0], f[0]), f[0])        # an idempotent


def _algebra(p, products, one):
    """Structure constants over GF(p) from {(i, j): coordinates of b_i b_j}."""
    E = len(one)
    mult = np.zeros((E, E, E), dtype=np.int64)
    for (i, j), v in products.items():
        mult[i, j] = v
    return mult, np.array(one, dtype=np.int64)


def _matrix_units(p):
    """M_2(GF(p)) on E11, E12, E21, E22: E_ab E_cd = [b = c] E_ad."""
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    products = {(i, j): [int(b == c and (a, d) == u) for u in units]
                for i, (a, b) in enumerate(units) for j, (c, d) in enumerate(units)}
    return _algebra(p, products, [1, 0, 0, 1])


# (name, p, (mult, one), local): GF(9) = GF(3)[i] and GF(3)[t]/t^2 are
# local; GF(3) x GF(3) on the basis 1, x = (1, 2) is commutative with the
# unit x fixed by x -> x^3, so x - 1 splits it; M_2(GF(p)) has a commutator
# ideal that is not nilpotent
GFP_ALGEBRAS = [
    ("GF(9)", 3, _algebra(3, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1],
                              (1, 1): [2, 0]}, [1, 0]), True),
    ("GF(3)[t]/t^2", 3, _algebra(3, {(0, 0): [1, 0], (0, 1): [0, 1],
                                     (1, 0): [0, 1]}, [1, 0]), True),
    ("GF(3)^2", 3, _algebra(3, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1],
                                (1, 1): [1, 0]}, [1, 0]), False),
    ("M_2(GF(3))", 3, _matrix_units(3), False),
    ("M_2(GF(5))", 5, _matrix_units(5), False),
    ("M_2(GF(2))", 2, _matrix_units(2), False),
]


@pytest.mark.parametrize("name, p, algebra, local", GFP_ALGEBRAS,
                         ids=[a[0] for a in GFP_ALGEBRAS])
def test_local_algebra_over_gf_p(name, p, algebra, local):
    mult, one = algebra
    got_local, got = gf2.local_algebra(mult, one, p)
    assert got_local is local
    times = lambda x, y: np.einsum("i,j,ijk->k", x, y, mult) % p
    if not local:                            # a nontrivial idempotent
        assert np.array_equal(times(got, got), got)
        assert got.any() and not np.array_equal(got, one)
        return
    # the certificate, re-checked on the right regular representation
    # y -> y b_i, whose matrix is mult[:, i]
    E = len(one)
    rep = lambda x: (np.einsum("i,jik->jk", np.asarray(x, dtype=np.int64), mult) % p,)
    ideal, index, fixed = got
    gf2_oracle.check_locality([rep(np.eye(E, dtype=np.int64)[i]) for i in range(E)], (E,),
                              gf2.Locality([rep(x) for x in ideal], index,
                                           [rep(x) for x in fixed]), p=p)


# ---------------------------------------------------------------------------
# the relation check and the decompose pipeline
# ---------------------------------------------------------------------------

NAMES = ("h", "p", "h1", "h2", "p1", "p2")


def _verify_reference(x):
    """The twelve identities of rings.cubic_relations(char2=True), under
    its names and in its order, each from its own chain of int64 products
    reduced mod 2."""
    m = {k: getattr(x, k).astype(np.int64) for k in NAMES}

    def prod(*names):
        out = m[names[0]]
        for n in names[1:]:
            out = out @ m[n] % 2
        return out

    zero = lambda a: not (a % 2).any()
    h1, h2, p1, p2 = m["h1"], m["h2"], m["p1"], m["p2"]
    return {
        "h1*p2 = 0": zero(prod("h1", "p2")),
        "h2*p1 = 0": zero(prod("h2", "p1")),
        "h1*h = h2*h": zero(prod("h1", "h") + prod("h2", "h")),
        "p*p1 = p*p2": zero(prod("p", "p1") + prod("p", "p2")),
        "h1*p1*h1 = 2h1": zero(prod("h1", "p1", "h1")),
        "h2*p2*h2 = 2h2": zero(prod("h2", "p2", "h2")),
        "p1*h1*p1 = 2p1": zero(prod("p1", "h1", "p1")),
        "p2*h2*p2 = 2p2": zero(prod("p2", "h2", "p2")),
        "h*p*h = 2(h + (p1+p2)*hbar)": zero(prod("h", "p", "h")),
        "p*h*p = 2(p + pbar*(h1+h2))": zero(prod("p", "h", "p")),
        "hbar*p + h1 + h2 = h1p1h2p2h1 + h2p2h1p1h2": zero(
            prod("h1", "h", "p") + h1 + h2
            + prod("h1", "p1", "h2", "p2", "h1") + prod("h2", "p2", "h1", "p1", "h2")),
        "h*pbar + p1 + p2 = p1h2p2h1p1 + p2h1p1h2p2": zero(
            prod("h", "p", "p1") + p1 + p2
            + prod("p1", "h2", "p2", "h1", "p1") + prod("p2", "h1", "p1", "h2", "p2")),
    }


def _verify_spaces():
    rng = np.random.default_rng(2024)
    spaces = [realize(d) for d in DATA]
    spaces += [gf2.random_space(rng, max_dim=8) for _ in range(12)]
    return spaces


def test_verify_matches_relation_by_relation_reference():
    rng = np.random.default_rng(5)
    spaces = _verify_spaces()
    for _ in range(40):
        d1, d2, d3 = (int(n) for n in rng.integers(0, 5, size=3))
        shapes = ((d2, d1), (d1, d2), (d3, d2), (d3, d2), (d2, d3), (d2, d3))
        spaces.append(CubicSpace2(*(rng.integers(0, 2, size=s) for s in shapes),
                                  check=False))
    for x in spaces:
        assert x.verify(CubicSpace2.RELATIONS)[1] == list(_verify_reference(x).items())
    assert all(x.verify(CubicSpace2.RELATIONS)[0] for x in spaces[:len(DATA)])


def test_breaking_one_relation_alone_fails_exactly_its_key():
    broken_alone = set()
    for x in _verify_spaces():
        for name in NAMES:
            for idx in np.ndindex(getattr(x, name).shape):
                mats = {k: getattr(x, k).copy() for k in NAMES}
                mats[name][idx] ^= 1
                y = CubicSpace2(*(mats[k] for k in NAMES), check=False)
                _, got = y.verify(CubicSpace2.RELATIONS)
                assert got == list(_verify_reference(y).items())
                bad = [k for k, ok in got if not ok]
                if len(bad) == 1:
                    broken_alone.add(bad[0])
    # single entry flips break each of these relations without any other;
    # the four cubic ones ("h1*p1*h1 = 2h1", ...) never fail alone here
    assert broken_alone == set(_verify_reference(zero_space())) - {
        "h1*p1*h1 = 2h1", "h2*p2*h2 = 2h2", "p1*h1*p1 = 2p1", "p2*h2*p2 = 2p2"}


def test_rep2_refuses_entries_other_than_0_and_1():
    # mod 2 this is the zero space; an entry 2 used to fail the cubic
    # relations with a false message instead
    with pytest.raises(ValueError, match="arrow 2 has an entry other than 0 and 1"):
        CubicSpace2([[0]], [[0]], [[2]], [[0]], [[0]], [[0]])
    for entry in (2, -1, 256, 0.5):
        with pytest.raises(ValueError, match="arrow 0 has an entry other than 0 and 1"):
            gf2.Rep2((1,), [(0, 0, [[entry]])])
    assert CubicSpace2([[0]], [[0]], [[0]], [[0]], [[0]], [[0]]).dims == (1, 1, 1)


# ---------------------------------------------------------------------------
# the built-in functors mod 2 (ROADMAP item 2)
# ---------------------------------------------------------------------------


def _mod2_space(f):
    """The cubic diagram of a functor f over Z, each arrow reduced mod 2;
    its vertex modules are free, so this is its reduction."""
    d = extract_diagram(f)
    return CubicSpace2(*(np.array(f.matrix.a, dtype=np.int64).reshape(f.matrix.rows, f.matrix.cols) % 2
                         for f in d.maps().values()), check=False)


def _gf2_diagram(x):
    """The CubicDiagram over GF(2) on the matrices of a cubic space."""
    mat = lambda m: Mat(GF2, m.tolist()) if m.shape[0] else Mat.zeros(GF2, *m.shape)
    return CubicDiagram(*(FpPresentation.free(GF2, n) for n in x.dims),
                        *(mat(m) for _, _, m in x.arrows))


def _single_flips(x, seed, count=8):
    """count cubic spaces, each x with one entry of one arrow flipped."""
    rng = np.random.default_rng(seed)
    mats = [m for _, _, m in x.arrows]
    arrows = [k for k, m in enumerate(mats) if m.size]
    out = []
    for _ in range(count if arrows else 0):
        k = arrows[int(rng.integers(len(arrows)))]
        flipped = [m.copy() for m in mats]
        flipped[k][tuple(int(rng.integers(n)) for n in flipped[k].shape)] ^= 1
        out.append(CubicSpace2(*flipped, check=False))
    return out


@pytest.mark.parametrize("fid", FUNCTOR_IDS)
def test_one_record_two_evaluators(fid):
    x = _mod2_space(builtin(fid))
    assert verify_relations(x)[0]
    flips = _single_flips(x, FUNCTOR_IDS.index(fid))
    for y in [x] + flips:
        want = verify_relations(_gf2_diagram(y))
        assert y.verify(CubicSpace2.RELATIONS) == want
        assert verify_relations(y) == want
    # the flips reach spaces on which some identity fails
    assert not flips or not all(verify_relations(y)[0] for y in flips)


@pytest.mark.parametrize("fid, trivial, data", [
    ("group_ring_trunc", 0, ("D[S5-R15~R1, 0]",)),
    ("sym3", 0, ("D[S10-R15~R1]",)),
    ("ext3", 0, ("D[S10]",)),
    ("ext2_tensor_id", 1, ("D[S10]",)),
    ("sym2", 0, ("D[R13]",)),
    ("ext2", 0, ("D[R7, 1]",)),
    pytest.param("tensor_cube", None, None, marks=pytest.mark.xfail(
        strict=True, raises=ValueError,
        reason="ROADMAP item 2: no string or band datum matches the tensor cube mod 2")),
])
def test_functor_decompositions_mod2(fid, trivial, data):
    x = _mod2_space(builtin(fid))
    report = decompose(x)
    assert (report.trivial, report.points, tuple(map(repr, report.data))) == (trivial, 0, data)
    rebuilt = realize(report.data[0])
    for part in [realize(d) for d in report.data[1:]] + [gf2.trivial_space()] * trivial:
        rebuilt = rebuilt.direct_sum(part)
    f = gf2.match_summands(rebuilt, x)
    assert f is not None
    _assert_iso(f, rebuilt, x)


@pytest.mark.parametrize("f, trivial, points, data", [
    (Tensor(1), 0, 1, ()),
    (Tensor(2), 0, 0, ("D[R1~R15]",)),
    (Product(Sym(2), Tensor(1)), 1, 0, ("D[S10-R15~R1]",)),
], ids=["Tensor(1)", "Tensor(2)", "Product(Sym(2),Tensor(1))"])
def test_composed_functor_decompositions_mod2(f, trivial, points, data):
    x = _mod2_space(f)
    report = decompose(x)
    assert (report.trivial, report.points, tuple(map(repr, report.data))) == (trivial, points, data)
    assert tuple(map(sum, zip(*report.summand_dims()))) == x.dims


SUMS = [(d,) for d in DATA] + list(itertools.combinations(DATA, 2))


@pytest.mark.parametrize("data", SUMS, ids=repr)
def test_decompose_summand_dims_add_up(data):
    x = realize(data[0])
    for d in data[1:]:
        x = x.direct_sum(realize(d))
    report = decompose(x)
    assert tuple(map(sum, zip(*report.summand_dims()))) == x.dims
    assert report.keys() == tuple(sorted(d.canonical_key() for d in data))


def test_decompose_guard_catches_a_lost_summand(monkeypatch):
    x = realize(DATA[0]).direct_sum(realize(DATA[6])).direct_sum(gf2.trivial_space())
    whole = gf2.indecomposable_summands
    monkeypatch.setattr(gf2, "indecomposable_summands", lambda space: whole(space)[1:])
    with pytest.raises(ValueError, match="decomposition lost dimensions"):
        decompose(x)


# round trips of the benchmark's decide workload that the enumeration
# refused ("endomorphism algebra too large to certify locality"), with the
# seed that draws them
FORMERLY_REFUSED = [
    (0, [BandDatum5(W("R1-S9~S2-R11~S4-R15", cyclic=True), (1, 0, 1))]),
    (0, [StringDatum5(W("S7")), BandDatum5(W("R1-S2~S9-R2~S8-R15", cyclic=True), (1, 1, 1))]),
    (0, [BandDatum5(W("S9-R1~R15-S4~R11-S2", cyclic=True), (1, 0, 1))]),
    (0, [BandDatum5(W("S8-R11~S4-R2", cyclic=True), (1, 1, 1))]),
    (1009, [BandDatum5(W("S4-R15~R1-S2~S9-R11", cyclic=True), (1, 1, 1))]),
    (1009, [BandDatum5(W("S5-R11~S4-R7~R7-S5", cyclic=True), (1, 0, 1))]),
    (1009, [StringDatum5(W("R7-S5"), 0, 0, 3)]),
    (1009, [BandDatum5(W("S5-R7~R7-S4~R11-S5", cyclic=True), (1, 0, 1))]),
]


def _round_trip(data):
    x = realize(data[0])
    for d in data[1:]:
        x = x.direct_sum(realize(d))
    return decompose(x)


@pytest.mark.parametrize("seed, data", FORMERLY_REFUSED, ids=repr)
def test_formerly_refused_round_trips_pass(seed, data):
    report = _round_trip(data)
    assert (report.trivial, report.points) == (0, 0)
    assert report.keys() == tuple(sorted(d.canonical_key() for d in data))


def test_formerly_refused_band_decomposes_as_a_string():
    # drawn twice at seed 0: the band closes with the special ~ step
    # S5 ~ S5 and comes back as an ordinary string of the same dims, a
    # round-trip mismatch of the special steps, which the classification
    # does not get right yet; the deciders prove each step
    band = BandDatum5(W("S5-R2~S8-R15~R1-S5", cyclic=True), (1, 0, 1))
    report = _round_trip([band])
    string = StringDatum5(W("R1~R15-S8~R2-S5~S5-R1~R15-S8~R2-S5~S5"))
    assert (report.trivial, report.points, report.keys()) == (0, 0, (string.canonical_key(),))
    assert report.summand_dims() == [realize(band).dims]


# ---------------------------------------------------------------------------
# word rotations against their definition through the XWord constructor
# ---------------------------------------------------------------------------


def _shift_by_constructor(word, s):
    """The s-th shift of a cyclic word, built and validated as an XWord:
    it moves 2s letters, and the closing ~ becomes an interior relation."""
    s = (2 * s) % word.n
    allrels = list(word.rels) + ["~"]
    rels = [allrels[(s + i) % word.n] for i in range(word.n - 1)]
    return XWord(word.letters[s:] + word.letters[:s], rels, cyclic=True)


def _shifts(word):
    return [_shift_by_constructor(word, s) for s in range(word.n // 2)]


def _band_key_by_constructor(d):
    pairs = [(d.word, d.poly)]
    if d.poly[0] != 0:
        pairs.append((d.word.star(), gf2.reciprocal(2, d.poly)))
    return min(("band", w.key(), poly) for word, poly in pairs for w in _shifts(word))


def _assert_cyclic_word_rules(word):
    assert word.is_symmetric() == (word == word.star())
    assert word.is_aperiodic() == all(w != word for w in _shifts(word)[1:])
    assert word.is_shift_symmetric() == any(w == w.star() for w in _shifts(word))


def _small_cyclic_words():
    """Every cyclic word _cyclic_words yields for budgets of 1-3 pair units."""
    words = set()
    for k in (1, 2, 3):
        for units in itertools.combinations_with_replacement(gf2._PAIR_UNITS, k):
            budget = {}
            for s in itertools.chain.from_iterable(units):
                budget[s] = budget.get(s, 0) + 1
            for letters, rels in gf2._cyclic_words(budget):
                try:
                    words.add(XWord(letters, rels, cyclic=True))
                except ValueError:
                    continue
    return sorted(words, key=XWord.key)


def test_rotations_match_the_shifts_on_small_cyclic_words():
    words = _small_cyclic_words()
    assert len(words) > 100
    bands = 0
    for word in words:
        _assert_cyclic_word_rules(word)
        if not word.is_aperiodic():
            continue
        for d in (1, 2):
            for pi in gf2.primary_polys(2, d):
                try:
                    datum = BandDatum5(word, pi)
                except ValueError:
                    continue
                assert datum.canonical_key() == _band_key_by_constructor(datum)
                bands += 1
    assert bands > 100


def test_rotations_match_the_shifts_on_random_bands():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = gf2.random_band_datum(rng)
        _assert_cyclic_word_rules(d.word)
        assert d.canonical_key() == _band_key_by_constructor(d)


def test_string_canonical_key_matches_the_star_datum():
    rng = np.random.default_rng(12)
    for _ in range(300):
        d = gf2.random_string_datum(rng)
        assert d.word.is_symmetric() == (d.word == d.word.star())
        assert d.canonical_key() == min(d.key(), d.star().key())


# Data with special ~ pairs whose canonical_key identifies them, though
# realize gives non-isomorphic spaces (ROADMAP item 1): the string pair
# realizes the bispecial strings D[R7-S5, 1, 0, 2] and D[R7-S5, 0, 1, 2],
# so identify's candidate list holds the same class twice.
SAME_KEY_PAIRS = [
    (StringDatum5(W("S5~S5-R7~R7")), StringDatum5(W("R7~R7-S5~S5"))),
    (BandDatum5(W("S5-R7~R7-S5", cyclic=True), (0, 1)),
     BandDatum5(W("R7-S5~S5-R7", cyclic=True), (0, 1))),
]


@pytest.mark.parametrize("a, b", SAME_KEY_PAIRS, ids=repr)
def test_same_key_pairs_share_the_key_and_the_dimensions(a, b):
    assert a.canonical_key() == b.canonical_key()
    assert realize(a).dims == realize(b).dims
    if isinstance(a, StringDatum5):
        assert all(split_indecomposable(realize(d))[0] is None for d in (a, b))


@pytest.mark.xfail(strict=True, reason="realize is not invariant under the "
                   "symmetries canonical_key identifies on special ~ pairs")
@pytest.mark.parametrize("a, b", SAME_KEY_PAIRS, ids=repr)
def test_realize_is_invariant_under_the_canonical_key(a, b):
    # the band spaces differ in dim Hom(x, y) against dim End(x); the
    # string spaces are certified indecomposable, so find_isomorphism's
    # None proves them non-isomorphic
    x, y = realize(a), realize(b)
    assert len(hom_basis(x, y)) == len(hom_basis(x, x))
    assert find_isomorphism(x, y) is not None
