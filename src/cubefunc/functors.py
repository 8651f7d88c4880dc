"""Built-in polynomial functors on free abelian groups, cross-effects, and
the associated three-level diagram of structure maps.

A functor F is given by its value rank on Z^n together with the induced
matrix F(A) for any integer matrix A, relative to a frozen basis order.
BuiltinFunctor holds rank, evaluate and act; each construction is one
subclass that gives the basis labels and the integer matrix F(A):

- Tensor(k), the k-th tensor power, as the iterated Kronecker product;
- Sym(k), the k-th symmetric power, on sorted k-multisets;
- Ext(k), the k-th exterior power for k = 2, 3, by closed-form minors;
- Product(F, G), the tensor product F (x) G, as the Kronecker product of
  the factors' matrices;
- GroupRingTrunc, the group ring Z[A] truncated above degree 3 in the
  augmentation ideal.

builtin(fid, base) builds the seven built-in functors of FUNCTOR_IDS from
these; tensor_cube is Tensor(3) and ext2_tensor_id is Product(Ext(2),
Tensor(1)).

The cross-effect pieces are cut out with the recursive idempotents
f(k1...km) built from the coordinate projections of a direct sum, and the
structure maps are three-step compositions through F(diagonal) and
F(codiagonal).

Before it builds the diagram, extract_diagram proves degree <= 3 by showing
that the top cross-effects F_4 and F_5 vanish.  Each is one Moebius sum of
the 2^m images F(e_T), streamed into one r x r integer accumulator, so the
check holds O(r^2) entries (r = rank F(Z^m), 125 for tensor_cube at m = 5)
and never the 2^m images at once.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, combinations_with_replacement, product

from .domains import ZZ
from .matrix import Mat, column_hermite, solve as mat_solve
from .presentation import FpPresentation, QuiverRep


# ---------------------------------------------------------------------------
# truncated polynomial helpers for the group-ring model
# ---------------------------------------------------------------------------


def _gen_binom(k, d):
    """Generalized binomial coefficient C(k, d) for any integer k, d >= 0."""
    num = 1
    for i in range(d):
        num *= k - i
    den = 1
    for i in range(2, d + 1):
        den *= i
    return num // den


def _trunc_mul(f, g, maxdeg=3):
    """Product of two polynomials given as {sorted index tuple: coeff},
    truncated above total degree maxdeg."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            if len(m1) + len(m2) > maxdeg:
                continue
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _power_series_column(a_col, maxdeg=3):
    """Expansion of prod_i (1+v_i)^{a_i} - 1 truncated above degree maxdeg,
    as {sorted index tuple: int} without the constant term."""
    poly = {(): 1}
    for i, k in enumerate(a_col):
        if k == 0:
            continue
        factor = {}
        for d in range(maxdeg + 1):
            c = _gen_binom(k, d)
            if c:
                factor[(i,) * d] = c
        poly = _trunc_mul(poly, factor, maxdeg)
    poly.pop((), None)
    return poly


# ---------------------------------------------------------------------------
# the built-in family
# ---------------------------------------------------------------------------


class BuiltinFunctor:
    """A functor on free abelian groups over a coefficient domain.

    A subclass gives the frozen ordered basis labels basis(n) of F(Z^n) and
    the induced integer matrix _act_int(a, m, n) of an m x n integer matrix
    a, as a list of rows.  act(a) takes an integer matrix (as Mat over Z or
    Z/p or a plain list of lists) and returns the induced matrix over the
    base domain.
    """

    def __init__(self, base=ZZ):
        self.base = base

    def rank(self, n):
        return len(self.basis(n))

    def evaluate(self, n):
        """F(Z^n) as a free presentation over the base domain."""
        return FpPresentation.free(self.base, self.rank(n))

    def act(self, a):
        """The induced matrix F(a) for an integer matrix a: Z^n -> Z^m.
        ValueError if an entry of a is not an integer."""
        rows = [[_integer(x) for x in row] for row in (a.a if isinstance(a, Mat) else a)]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        entries = self._act_int(rows, m, n)
        if not entries:
            return Mat.zeros(self.base, 0, self.rank(n))
        out = Mat(self.base, entries)
        out.cols = self.rank(n)  # kept even when a value is the zero module
        return out


class _Power(BuiltinFunctor):
    """The k-th power of one of the three kinds below."""

    def __init__(self, k, base=ZZ):
        super().__init__(base)
        self.k = k

    def __repr__(self):
        return f"{type(self).__name__}({self.k}, {self.base})"


class Tensor(_Power):
    """The k-th tensor power, basis the k-tuples in lexicographic order."""

    def basis(self, n):
        return list(product(range(n), repeat=self.k))

    def _act_int(self, a, m, n):
        out = a
        for _ in range(self.k - 1):
            out = _kron(out, a)
        return out


class Sym(_Power):
    """The k-th symmetric power, basis the sorted k-multisets."""

    def basis(self, n):
        return list(combinations_with_replacement(range(n), self.k))

    def _act_int(self, a, m, n):
        out_basis = {b: i for i, b in enumerate(self.basis(m))}
        cols = []
        for js in self.basis(n):
            col = [0] * len(out_basis)
            for iis in product(range(m), repeat=self.k):
                c = 1
                for i, j in zip(iis, js):
                    c *= a[i][j]
                    if not c:
                        break
                if c:
                    col[out_basis[tuple(sorted(iis))]] += c
            cols.append(col)
        return _cols_to_rows(cols, len(out_basis))


class Ext(_Power):
    """The k-th exterior power for k = 2 or 3, basis the sorted k-subsets;
    its matrix entries are the k x k minors."""

    def __init__(self, k, base=ZZ):
        if k not in (2, 3):
            raise ValueError(f"Ext({k}) is not built in: k must be 2 or 3")
        super().__init__(k, base)

    def basis(self, n):
        return list(combinations(range(n), self.k))

    def _act_int(self, a, m, n):
        cols_in = self.basis(n)
        return [[_minor(a, iis, js) for js in cols_in] for iis in self.basis(m)]


class Product(BuiltinFunctor):
    """The tensor product F(A) (x) G(A), basis the pairs (x, y) of the
    factors' labels in row-major order.  Only the factors' integer
    matrices are read, so their base domains do not matter."""

    def __init__(self, f, g, base=ZZ):
        super().__init__(base)
        self.f, self.g = f, g

    def __repr__(self):
        return f"Product({self.f}, {self.g}, {self.base})"

    def basis(self, n):
        return list(product(self.f.basis(n), self.g.basis(n)))

    def _act_int(self, a, m, n):
        return _kron(self.f._act_int(a, m, n), self.g._act_int(a, m, n))


class GroupRingTrunc(BuiltinFunctor):
    """The group ring Z[A] modulo the fourth power of its augmentation
    ideal, basis the monomials in v_i = e_i - 1 of degree 1 to 3."""

    def __repr__(self):
        return f"GroupRingTrunc({self.base})"

    def basis(self, n):
        return [b for d in (1, 2, 3) for b in combinations_with_replacement(range(n), d)]

    def _act_int(self, a, m, n):
        dst_idx = {b: i for i, b in enumerate(self.basis(m))}
        images = [_power_series_column([a[i][j] for i in range(m)]) for j in range(n)]
        cols = []
        for mono in self.basis(n):
            poly = {(): 1}
            for j in mono:
                poly = _trunc_mul(poly, images[j])
            poly.pop((), None)
            col = [0] * len(dst_idx)
            for mset, c in poly.items():
                col[dst_idx[mset]] = c
            cols.append(col)
        return _cols_to_rows(cols, len(dst_idx))


def _integer(x):
    """x as an int; ValueError if x is not an integer."""
    i = int(x)
    if i != x:
        raise ValueError(f"a functor acts on integer matrices, not on the entry {x!r}")
    return i


def _kron(x, y):
    """Kronecker product of two integer matrices given as lists of rows."""
    return [[p * q for p in xr for q in yr] for xr in x for yr in y]


def _cols_to_rows(cols, nrows):
    if not cols:
        return [[] for _ in range(nrows)]
    return [[c[i] for c in cols] for i in range(nrows)]


def _minor(a, iis, js):
    sub = [[a[i][j] for j in js] for i in iis]
    if len(sub) == 2:
        return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
    return (
        sub[0][0] * (sub[1][1] * sub[2][2] - sub[1][2] * sub[2][1])
        - sub[0][1] * (sub[1][0] * sub[2][2] - sub[1][2] * sub[2][0])
        + sub[0][2] * (sub[1][0] * sub[2][1] - sub[1][1] * sub[2][0])
    )


# ---------------------------------------------------------------------------
# cross-effects
# ---------------------------------------------------------------------------


def _projection_image(f, n, T):
    """F(e_T) as plain-int rows, e_T the coordinate projection of Z^n onto
    the coordinates in T."""
    e = [[1 if (i == j and i in T) else 0 for j in range(n)] for i in range(n)]
    return f._act_int(e, n, n)


def _cross_effect_int(f, n, S, image):
    """f(S) as plain-int rows, for S a subset of {0..n-1}.

    f(S) = sum over T subset of S of (-1)^{|S|-|T|} F(e_T), the Moebius sum
    over the subsets of S.  image(T) returns the integer matrix F(e_T); each
    one is added into a single r x r accumulator as it comes, so the sum
    holds no more than the accumulator and the image at hand.  Mapping the
    sum into the base domain afterwards gives the same matrix as summing
    there, because Z -> base is a ring homomorphism; act maps its integer
    matrix the same way.
    """
    r = f.rank(n)
    acc = [[0] * r for _ in range(r)]
    for k in range(len(S) + 1):
        sign = -1 if (len(S) - k) % 2 else 1
        for T in combinations(S, k):
            for acc_row, row in zip(acc, image(T)):
                for j, x in enumerate(row):
                    if x:
                        acc_row[j] += sign * x
    return acc


def _top_cross_effect(f, m):
    """The full-set idempotent f(0..m-1) over the base domain.

    Each F(e_T) is built, added into the accumulator and dropped: no other
    subset reads it.  So the memory is O(r^2) for r = rank F(Z^m), about
    three r x r int tables, and not the 2^m images at once (for
    tensor_cube at m = 5, r = 125 and 2^m = 32).
    """
    return Mat(f.base, _cross_effect_int(
        f, m, tuple(range(m)), lambda T: _projection_image(f, m, T)))


def cross_effect_idempotents(f, n):
    """The family { S : f(S) } over all nonempty S subset of {0..n-1}.

    f(S) = sum over T subset of S of (-1)^{|S|-|T|} F(e_T), where e_T is the
    coordinate projection of Z^n onto the coordinates in T.  The subsets S
    share their images, so the 2^n integer matrices F(e_T) are built once
    and kept for the whole family.
    """
    images = {T: _projection_image(f, n, T)
              for k in range(n + 1) for T in combinations(range(n), k)}
    return {
        S: Mat(f.base, _cross_effect_int(f, n, S, images.__getitem__))
        for m in range(1, n + 1)
        for S in combinations(range(n), m)
    }


def first_nonvanishing_above(f, degree):
    """Smallest m > degree with F_m != 0, or None if none up to degree+2."""
    for m in range(degree + 1, degree + 3):
        if not _top_cross_effect(f, m).is_zero():
            return m
    return None


def split_idempotent(e):
    """For an idempotent matrix e, return (s, t) with s*t = e and t*s = I.

    Columns of s form a basis of the image of e.  Over Z the image of an
    idempotent is a direct summand, so the Hermite basis of the column
    lattice works and t exists exactly.
    """
    s = column_hermite(e)
    t = mat_solve(s, e)
    if t is None:
        raise ArithmeticError("idempotent image is not a summand")
    return s, t


# ---------------------------------------------------------------------------
# the cubic diagram
# ---------------------------------------------------------------------------


class CubicDiagram(QuiverRep):
    """Three modules F1, F2, F3 with the six structure maps
    h: F1 -> F2, p: F2 -> F1, h_i: F2 -> F3 and p_i: F3 -> F2.

    Its identities depend on the characteristic of the base, so a checked
    constructor checks only the arrows; rings.verify_relations checks the
    identities (rings.cubic_relations)."""

    VERTICES = ("F1", "F2", "F3")
    ARROWS = ("h", "p", "h1", "h2", "p1", "p2")

    def to_json(self):
        d = {"schema": "cubefunc/diagram/1"}
        d.update((v, m.relations.to_json()) for v, m in zip(self.VERTICES, self.modules()))
        d.update((name, f.matrix.to_json()) for name, f in self.maps().items())
        return d

    @staticmethod
    def from_json(d):
        rels = [Mat.from_json(d[v]) for v in CubicDiagram.VERTICES]
        return CubicDiagram(*(FpPresentation(r.dom, r.rows, r) for r in rels),
                            **{name: Mat.from_json(d[name]) for name in CubicDiagram.ARROWS})


def _dup_matrix(m, k):
    """(m+1) x m integer matrix duplicating coordinate k (0-based)."""
    rows = []
    for i in range(m):
        row = [1 if j == i else 0 for j in range(m)]
        rows.append(row)
        if i == k:
            rows.append(row[:])
    return rows


def _sum_matrix(m, k):
    """m x (m+1) integer matrix adding coordinates k and k+1 (0-based k)."""
    out = []
    for i in range(m):
        row = [0] * (m + 1)
        if i < k:
            row[i] = 1
        elif i == k:
            row[k] = row[k + 1] = 1
        else:
            row[i + 1] = 1
        out.append(row)
    return out


def structure_maps(f, upto=3):
    """Splittings (s_m, t_m) of the diagonal cross-effects plus all maps
    h^m_k = t_{m+1} F(dup_k) s_m and p^m_k = t_m F(sum_k) s_{m+1}."""
    splits = {}
    for m in range(1, upto + 1):
        fam = cross_effect_idempotents(f, m)
        splits[m] = split_idempotent(fam[tuple(range(m))])
    hmaps, pmaps = {}, {}
    for m in range(1, upto):
        s_m, t_m = splits[m]
        s_m1, t_m1 = splits[m + 1]
        for k in range(m):
            hmaps[(m, k + 1)] = t_m1 * f.act(_dup_matrix(m, k)) * s_m
            pmaps[(m, k + 1)] = t_m * f.act(_sum_matrix(m, k)) * s_m1
    return splits, hmaps, pmaps


def extract_diagram(f):
    """The cubic diagram of a built-in functor of degree at most 3."""
    bad = first_nonvanishing_above(f, 3)
    if bad is not None:
        raise ValueError(f"functor has a nonvanishing cross-effect in degree {bad}")
    splits, hmaps, pmaps = structure_maps(f, upto=3)
    return CubicDiagram(
        *(FpPresentation.free(f.base, splits[m][0].cols) for m in (1, 2, 3)),
        hmaps[(1, 1)], pmaps[(1, 1)], hmaps[(2, 1)], hmaps[(2, 2)], pmaps[(2, 1)], pmaps[(2, 2)],
        check=False,
    )


# id -> constructor taking the base domain; faithful and the benchmark
# read the ids in this order
_BUILTINS = {
    "group_ring_trunc": GroupRingTrunc,
    "tensor_cube": partial(Tensor, 3),
    "sym3": partial(Sym, 3),
    "ext3": partial(Ext, 3),
    "ext2_tensor_id": partial(Product, Ext(2), Tensor(1)),
    "sym2": partial(Sym, 2),
    "ext2": partial(Ext, 2),
}
FUNCTOR_IDS = tuple(_BUILTINS)


def builtin(fid, base=ZZ):
    """The built-in functor named fid over the base domain."""
    if fid not in _BUILTINS:
        raise ValueError(f"unknown functor id {fid!r}")
    return _BUILTINS[fid](base)
