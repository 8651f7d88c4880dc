import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cubefunc.domains import ZZ, GF2, GF3, GF, Zloc, Zmod, Z_HALF, Domain
from cubefunc.matrix import (
    LatticeSpan,
    Mat,
    RationalSpan,
    smith_normal_form,
    invariant_factors,
    rank,
    kernel,
    solve,
    inverse,
    column_hermite,
    in_column_lattice,
    lattice_equal,
    det,
)


def check_snf(m):
    u, s, v = smith_normal_form(m)
    d = m.dom
    assert u * m * v == s
    assert inverse(u) is not None
    assert inverse(v) is not None
    diag = [s.a[i][i] for i in range(min(s.rows, s.cols))]
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert d.is_zero(s.a[i][j])
    # divisibility chain and canonical associates
    for i in range(len(diag) - 1):
        if not d.is_zero(diag[i]):
            assert d.divides(diag[i], diag[i + 1])
        else:
            assert d.is_zero(diag[i + 1])
    for x in diag:
        assert x == d.canonical_associate(x)
    return diag


def test_snf_basic_integer():
    m = Mat(ZZ, [[2, 4], [6, 8]])
    diag = check_snf(m)
    # oracle: d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert diag == [2, 4]


def test_snf_already_diagonal():
    m = Mat(ZZ, [[2, 0], [0, 6]])
    assert check_snf(m) == [2, 6]


def test_snf_needs_divisibility_fix():
    m = Mat(ZZ, [[2, 0], [0, 3]])
    assert check_snf(m) == [1, 6]


def test_snf_zero_and_empty():
    assert check_snf(Mat.zeros(ZZ, 3, 2)) == [0, 0]
    u, s, v = smith_normal_form(Mat.zeros(ZZ, 0, 3))
    assert s.rows == 0 and s.cols == 3


def test_snf_random_integer():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = Mat(ZZ, [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        check_snf(m)


def test_invariant_factors_basis_invariant():
    rng = random.Random(11)
    for _ in range(20):
        m = Mat(ZZ, [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        # unimodular transforms must not change the invariant factors
        p = Mat(ZZ, [[1, rng.randint(-3, 3), 0], [0, 1, 0], [rng.randint(-3, 3), 0, 1]])
        q = Mat(ZZ, [[1, 0, 0], [rng.randint(-3, 3), 1, 0], [0, rng.randint(-3, 3), 1]])
        assert invariant_factors(p * m * q) == invariant_factors(m)


def test_snf_gf2():
    m = Mat(GF2, [[1, 1], [1, 0]])
    diag = check_snf(m)
    assert diag == [1, 1]
    assert rank(m) == 2


def test_snf_gf3_and_extension():
    # second row is twice the first mod 3
    m = Mat(GF3, [[1, 2, 0], [2, 1, 0]])
    assert rank(m) == 1
    assert rank(Mat(GF3, [[1, 2], [2, 2]])) == 2


def test_snf_localized_at_2():
    d = Zloc(2)
    m = Mat(d, [[6, 0], [0, Fraction(4, 3)]])
    diag = check_snf(m)
    # 6 is 2 times a unit, 4/3 is 4 times a unit
    assert diag == [Fraction(2), Fraction(4)]


def test_snf_z_half():
    m = Mat(Z_HALF, [[6, 0], [0, Fraction(5, 2)]])
    diag = check_snf(m)
    assert diag == [Fraction(1), Fraction(15)]


def test_solve_and_kernel_integer():
    m = Mat(ZZ, [[2, 4], [6, 8]])
    b = Mat.column(ZZ, [2, 6])
    x = solve(m, b)
    assert x is not None and m * x == b
    # 2x + 4y = 1 has no integer solution
    assert solve(m, Mat.column(ZZ, [1, 0])) is None
    k = kernel(Mat(ZZ, [[1, 2, 3]]))
    assert k.cols == 2
    assert (Mat(ZZ, [[1, 2, 3]]) * k).is_zero()


def test_kernel_gf2():
    m = Mat(GF2, [[1, 1, 0], [0, 0, 1]])
    k = kernel(m)
    assert k.cols == 1
    assert (m * k).is_zero()


def test_inverse():
    m = Mat(ZZ, [[1, 2], [0, 1]])
    mi = inverse(m)
    assert m * mi == Mat.identity(ZZ, 2)
    assert inverse(Mat(ZZ, [[2, 0], [0, 1]])) is None
    assert inverse(Mat(GF3, [[2, 0], [0, 1]])) is not None


def test_column_hermite_lattice():
    m = Mat(ZZ, [[2, 4], [6, 8]])
    h = column_hermite(m)
    assert lattice_equal(m, h)
    # lattice membership
    assert in_column_lattice(m, Mat.column(ZZ, [2, 6]))
    assert not in_column_lattice(m, Mat.column(ZZ, [1, 0]))


def test_column_hermite_random_lattice_equality():
    rng = random.Random(3)
    for _ in range(25):
        m = Mat(ZZ, [[rng.randint(-6, 6) for _ in range(4)] for _ in range(3)])
        h = column_hermite(m)
        assert lattice_equal(m, h)
        # hermite of hermite is identical (canonical)
        assert column_hermite(h) == h


def test_det():
    assert det(Mat(ZZ, [[2, 4], [6, 8]])) == -8
    assert det(Mat(GF3, [[2, 1], [1, 2]])) == 0
    assert det(Mat(ZZ, [[1]])) == 1


def test_kron_and_direct_sum():
    a = Mat(ZZ, [[1, 2]])
    b = Mat(ZZ, [[0, 1], [1, 0]])
    k = Mat.kron(a, b)
    assert k.rows == 2 and k.cols == 4
    assert k == Mat(ZZ, [[0, 1, 0, 2], [1, 0, 2, 0]])
    s = Mat.direct_sum(ZZ, [a, b])
    assert s.rows == 3 and s.cols == 4


def test_json_round_trip():
    for m in [
        Mat(ZZ, [[1, -2], [3, 4]]),
        Mat(Zloc(2), [[Fraction(1, 3)]]),
        Mat(GF2, [[1, 0], [1, 1]]),
        Mat(Zmod(4), [[3, 2], [0, 1]]),
    ]:
        assert Mat.from_json(m.to_json()) == m


def test_composite_modulus_snf_unsupported():
    from cubefunc.domains import UnsupportedDomainError

    m = Mat(Zmod(4), [[2]])
    with pytest.raises(UnsupportedDomainError):
        smith_normal_form(m)


def test_gf_is_the_integers_mod_a_prime():
    assert GF(3) == Zmod(3) and GF3 == Zmod(3) and GF2 == Zmod(2)
    for q in (4, 6):
        with pytest.raises(ValueError, match=str(q)):
            GF(q)
    with pytest.raises(ValueError, match="unknown domain kind"):
        Domain("gf")


def test_divisibility_mod_m_goes_through_the_gcd():
    z4 = Zmod(4)
    assert z4.divides(1, 3) and z4.divides(2, 2) and z4.divides(3, 2)
    assert not z4.divides(2, 1) and not z4.divides(0, 2) and z4.divides(0, 0)
    assert [z4.canonical_associate(x) for x in range(4)] == [0, 1, 2, 1]
    assert Zmod(6).canonical_associate(4) == 2
    # brute force: a | b iff some c has a c = b, and a = u gcd(a, m) for a unit u
    for m in range(2, 13):
        d = Zmod(m)
        units = [u for u in range(m) if d.is_unit(u)]
        for a in range(m):
            multiples = {a * c % m for c in range(m)}
            assert [d.divides(a, b) for b in range(m)] == [b in multiples for b in range(m)]
            assert any(u * d.canonical_associate(a) % m == a for u in units)


# -- shapes of empty matrices -------------------------------------------------


def test_eq_and_hash_see_the_shape():
    a, b = Mat.zeros(ZZ, 0, 3), Mat.zeros(ZZ, 0, 5)
    assert a != b
    assert hash(a) != hash(b)
    assert a == Mat.zeros(ZZ, 0, 3) and hash(a) == hash(Mat.zeros(ZZ, 0, 3))
    assert Mat.zeros(ZZ, 3, 0) != Mat.zeros(ZZ, 5, 0)


def test_hstack_keeps_columns_of_empty_rows():
    h = Mat.zeros(ZZ, 0, 3).hstack(Mat.zeros(ZZ, 0, 2))
    assert (h.rows, h.cols) == (0, 5)
    v = Mat.zeros(ZZ, 0, 4).vstack(Mat.zeros(ZZ, 0, 4))
    assert (v.rows, v.cols) == (0, 4)


def test_submatrix_keeps_columns_of_empty_rows():
    m = Mat(ZZ, [[1, 2, 3], [4, 5, 6]])
    s = m.submatrix([], [0, 2])
    assert (s.rows, s.cols) == (0, 2)
    assert m.submatrix([1], range(1, 3)) == Mat(ZZ, [[5, 6]])


def test_to_domain_keeps_columns_of_empty_rows():
    t = Mat.zeros(ZZ, 0, 3).to_domain(Z_HALF)
    assert (t.dom, t.rows, t.cols) == (Z_HALF, 0, 3)
    assert t == Mat.zeros(Z_HALF, 0, 3)


def test_mismatched_operands_raise():
    with pytest.raises(ValueError):
        Mat.zeros(ZZ, 2, 3) + Mat.zeros(ZZ, 2, 2)
    with pytest.raises(ValueError):
        Mat.zeros(ZZ, 0, 3) - Mat.zeros(ZZ, 0, 2)
    # results are not re-canonicalized, so domains must agree
    for op in (Mat.__add__, Mat.__mul__, Mat.hstack, Mat.vstack):
        with pytest.raises(ValueError):
            op(Mat.identity(ZZ, 2), Mat.identity(Z_HALF, 2))


# -- properties of the exact kernel --------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_small = st.integers(-6, 6)
_sparse_int = st.one_of(st.just(0), st.just(0), _small)
# raw values that each domain's canon turns into a canonical element
ELEMENTS = {
    ZZ: _sparse_int,
    Z_HALF: st.builds(lambda n, k: Fraction(n, 2**k), _sparse_int, st.integers(0, 3)),
    Zloc(3): st.builds(Fraction, _sparse_int, st.sampled_from([1, 2, 4, 5, 7])),
    GF2: st.integers(0, 1),
    Zmod(4): st.one_of(st.just(0), st.integers(0, 3)),
}


def _mat(dom, entries, rows, cols):
    return Mat(dom, entries) if rows else Mat.zeros(dom, 0, cols)


@st.composite
def matrices(draw, dom, rows, cols):
    entries = [[draw(ELEMENTS[dom]) for _ in range(cols)] for _ in range(rows)]
    return _mat(dom, entries, rows, cols)


def _naive_product(a, b):
    d = a.dom
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = d.zero()
            for t in range(a.cols):
                s = d.add(s, d.mul(a.a[i][t], b.a[t][j]))
            row.append(s)
        out.append(row)
    return out


def _assert_canonical(m):
    d = m.dom
    assert len(m.a) == m.rows
    for row in m.a:
        assert len(row) == m.cols
        for x in row:
            c = d.canon(x)
            assert c == x and type(c) is type(x), (d, x)


@PROPERTY
@given(st.data(), st.sampled_from(list(ELEMENTS)),
       st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_sparse_product_matches_naive(data, dom, r, k, c):
    a = data.draw(matrices(dom, r, k))
    b = data.draw(matrices(dom, k, c))
    p = a * b
    assert (p.dom, p.rows, p.cols) == (dom, r, c)
    assert p.a == _naive_product(a, b)
    _assert_canonical(p)
    x = data.draw(ELEMENTS[dom])
    a2 = data.draw(matrices(dom, r, k))
    d = dom
    assert (a + a2).a == [[d.add(u, v) for u, v in zip(r1, r2)] for r1, r2 in zip(a.a, a2.a)]
    assert (a - a2).a == [[d.sub(u, v) for u, v in zip(r1, r2)] for r1, r2 in zip(a.a, a2.a)]
    assert a.scale(x).a == [[d.mul(d.canon(x), u) for u in row] for row in a.a]
    for m in (a + a2, a - a2, -a, a.scale(x), a.transpose(), a.copy()):
        _assert_canonical(m)
    assert (a - a).is_zero()
    assert a + (-a) == Mat.zeros(dom, r, k)


@st.composite
def int_vectors_with_combinations(draw, n, count):
    """Integer vectors, some of them combinations of earlier ones."""
    vecs = []
    for _ in range(count):
        if vecs and draw(st.booleans()):
            coeffs = [draw(st.integers(-3, 3)) for _ in vecs]
            vecs.append([sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n)])
        else:
            vecs.append([draw(_sparse_int) for _ in range(n)])
    return vecs


@PROPERTY
@given(data=st.data(), n=st.integers(0, 6), count=st.integers(1, 8))
def test_lattice_insert_keeps_the_hermite_basis(assert_column_hermite, data, n, count):
    vecs = data.draw(int_vectors_with_combinations(n, count))
    lat = LatticeSpan(ZZ, n)
    for i, v in enumerate(vecs):
        fresh = not lat.contains(v)
        assert lat.insert(v) == fresh
        cols = vecs[: i + 1]
        assert_column_hermite(
            lat.to_matrix(), _mat(ZZ, [[c[r] for c in cols] for r in range(n)], n, len(cols)))
        assert lat.pivots == [next(r for r, x in enumerate(c) if x) for c in lat.basis]
        assert all(lat.contains(w) for w in cols)


def _cleared(v):
    """v times the least common denominator of its entries."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in v]


@PROPERTY
@given(st.data(), st.integers(0, 5), st.integers(1, 7))
def test_rational_span_rank_matches_integer_rank(data, n, count):
    frac = st.builds(Fraction, _small, st.integers(1, 6))
    span = RationalSpan(n)
    vecs, rows = [], []
    for _ in range(count):
        if vecs and data.draw(st.booleans()):
            # a rational combination of earlier vectors
            coeffs = [data.draw(frac) for _ in vecs]
            v = [sum(c * w[i] for c, w in zip(coeffs, vecs)) for i in range(n)]
        else:
            v = [data.draw(frac) for _ in range(n)]
        before = rank(_mat(ZZ, rows, len(rows), n))
        after = rank(_mat(ZZ, rows + [_cleared(v)], len(rows) + 1, n))
        assert span.contains(v) == (after == before)
        assert span.insert(v) == (after > before)
        assert span.rank == after
        vecs.append(v)
        rows.append(_cleared(v))


@PROPERTY
@given(data=st.data(), dom=st.sampled_from([ZZ, Z_HALF, Zloc(3)]),
       r=st.integers(0, 5), c=st.integers(0, 6))
def test_column_hermite_has_the_defining_properties(assert_column_hermite, data, dom, r, c):
    m = data.draw(matrices(dom, r, c))
    assert_column_hermite(column_hermite(m), m)


# -- the field elimination -------------------------------------------------------

FIELD_ELEMENTS = {
    GF2: st.integers(0, 1),
    GF3: st.integers(0, 2),
    Zmod(5): st.integers(0, 4),
}
# every domain det supports
DET_ELEMENTS = {
    ZZ: _sparse_int, Z_HALF: ELEMENTS[Z_HALF], Zloc(3): ELEMENTS[Zloc(3)],
    **FIELD_ELEMENTS,
}


def _leibniz_det(m):
    """The determinant as the signed sum over permutations."""
    d = m.dom
    total = d.zero()
    for perm in itertools.permutations(range(m.rows)):
        term = d.one()
        for i, j in enumerate(perm):
            term = d.mul(term, m.a[i][j])
        inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
        total = d.add(total, d.neg(term) if inversions % 2 else term)
    return total


@st.composite
def low_rank_matrices(draw, dom, rows, cols):
    """Matrices in which some rows are combinations of the rows above."""
    el = DET_ELEMENTS[dom]
    entries = []
    for i in range(rows):
        if i and draw(st.booleans()):
            coeffs = [dom.canon(draw(el)) for _ in range(i)]
            row = [dom.zero()] * cols
            for c, above in zip(coeffs, entries):
                row = [dom.add(x, dom.mul(c, dom.canon(y))) for x, y in zip(row, above)]
            entries.append(row)
        else:
            entries.append([draw(el) for _ in range(cols)])
    return _mat(dom, entries, rows, cols)


def _checked_field_rank(m):
    """The rank of m over a field, read off its Smith form after checking
    U m V = diag(1, ..., 1, 0, ...) with U and V invertible."""
    dom, r, c = m.dom, m.rows, m.cols
    u, s, v = smith_normal_form(m)
    assert (u.rows, u.cols, v.rows, v.cols) == (r, r, c, c)
    assert u * m * v == s
    assert not dom.is_zero(_leibniz_det(u)) and not dom.is_zero(_leibniz_det(v))
    ones = 0
    while ones < min(r, c) and s.a[ones][ones] == dom.one():
        ones += 1
    assert s == Mat.diag(dom, [dom.one()] * ones, r, c)
    return ones


@PROPERTY
@given(data=st.data(), dom=st.sampled_from(list(FIELD_ELEMENTS)),
       r=st.integers(0, 6), c=st.integers(0, 6))
def test_field_smith_form_is_a_rank_diagonal_of_ones(data, dom, r, c):
    m = data.draw(low_rank_matrices(dom, r, c))
    # U and V are invertible, so the number of ones is the rank of m
    assert _checked_field_rank(m) == rank(m)


@PROPERTY
@given(data=st.data(), dom=st.sampled_from(list(FIELD_ELEMENTS)),
       r=st.integers(0, 6), c=st.integers(0, 6))
def test_field_column_hermite_is_the_reduced_column_echelon_form(data, dom, r, c):
    m = data.draw(low_rank_matrices(dom, r, c))
    h = column_hermite(m)
    assert h.rows == r
    pivots = []
    for k in range(h.cols):
        p = next(i for i in range(r) if not dom.is_zero(h.a[i][k]))
        assert not pivots or p > pivots[-1]
        assert h.a[p][k] == dom.one()
        assert all(dom.is_zero(h.a[p][l]) for l in range(h.cols) if l != k)
        pivots.append(p)
    # every column of m is the combination of h's columns read off at the
    # pivot rows; h's columns are independent and as many as the rank of m
    coeffs = Mat(dom, [[m.a[p][j] for j in range(c)] for p in pivots]) \
        if pivots else Mat.zeros(dom, 0, c)
    assert h * coeffs == m
    assert h.cols == _checked_field_rank(m)


@settings(PROPERTY, max_examples=150)
@given(data=st.data(), dom=st.sampled_from(list(DET_ELEMENTS)), n=st.integers(0, 4))
def test_det_matches_the_permutation_sum(data, dom, n):
    entries = [[data.draw(DET_ELEMENTS[dom]) for _ in range(n)] for _ in range(n)]
    for m in (_mat(dom, entries, n, n), data.draw(low_rank_matrices(dom, n, n))):
        assert det(m) == _leibniz_det(m)


def test_det_over_a_composite_modulus_is_unsupported():
    from cubefunc.domains import UnsupportedDomainError

    with pytest.raises(UnsupportedDomainError):
        det(Mat(Zmod(4), [[1, 2], [3, 1]]))
    with pytest.raises(ValueError):
        det(Mat(ZZ, [[1, 2]]))


# -- canonicalization refuses inexact input ---------------------------------------

CANON_DOMAINS = [ZZ, Z_HALF, Zloc(3), Zmod(4), Zmod(5), GF2, GF3]


def _canon_id(dom):
    """GF2 and GF3 are Z/2 and Z/3; their ids name the constructor."""
    return {GF2: "GF(2)", GF3: "GF(3)"}.get(dom, repr(dom))


@pytest.mark.parametrize("dom", CANON_DOMAINS, ids=_canon_id)
def test_canon_accepts_exact_integers(dom):
    import numpy as np

    assert dom.canon(np.int64(3)) == dom.canon(3)
    assert type(dom.canon(np.int64(3))) is type(dom.canon(3))
    assert dom.canon(Fraction(4, 2)) == dom.canon(2)
    assert type(dom.canon(Fraction(4, 2))) is type(dom.canon(2))


@pytest.mark.parametrize("dom", CANON_DOMAINS, ids=_canon_id)
def test_canon_refuses_floats(dom):
    import numpy as np

    for x in (2.5, 2.0, np.float64(1.0), "1"):
        with pytest.raises(TypeError):
            dom.canon(x)


@pytest.mark.parametrize("dom", [d for d in CANON_DOMAINS if d.kind not in ("loc", "inv")],
                         ids=_canon_id)
def test_canon_refuses_proper_fractions(dom):
    with pytest.raises(ValueError):
        dom.canon(Fraction(1, 2))


def test_canon_keeps_fractions_of_the_localizations():
    assert Z_HALF.canon(Fraction(1, 2)) == Fraction(1, 2)
    assert Zloc(3).canon(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        Zloc(3).canon(Fraction(1, 3))


def test_matrix_refuses_float_entries():
    with pytest.raises(TypeError):
        Mat(ZZ, [[2.5]])
    with pytest.raises(TypeError):
        Mat(ZZ, [[2.5, -0.5]])
    with pytest.raises(ValueError):
        Mat(GF3, [[Fraction(1, 2)]])
