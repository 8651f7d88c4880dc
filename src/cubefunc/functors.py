"""Built-in polynomial functors on free abelian groups, cross-effects, and
the associated three-level diagram of structure maps.

A functor F is given by its value rank on Z^n together with the induced
matrix F(A) for any integer matrix A, relative to a frozen basis order.
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

from itertools import combinations, combinations_with_replacement, product
from math import comb

from .domains import ZZ
from .matrix import Mat, column_hermite, solve as mat_solve
from .presentation import FpPresentation, QuiverRep


FUNCTOR_IDS = (
    "group_ring_trunc",
    "tensor_cube",
    "sym3",
    "ext3",
    "ext2_tensor_id",
    "sym2",
    "ext2",
)


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
    """One of the fixed built-in functors over a coefficient domain.

    act(a) takes an integer matrix (as Mat over Z or a plain list of lists)
    and returns the induced matrix over the base domain, in the basis order
    given by basis(n).
    """

    def __init__(self, fid, base=ZZ):
        if fid not in FUNCTOR_IDS:
            raise ValueError(f"unknown functor id {fid!r}")
        self.fid = fid
        self.base = base

    def __repr__(self):
        return f"BuiltinFunctor({self.fid}, {self.base})"

    # -- bases ----------------------------------------------------------

    def basis(self, n):
        """Frozen ordered basis labels of F(Z^n)."""
        idx = range(n)
        if self.fid == "group_ring_trunc":
            out = []
            for d in (1, 2, 3):
                out.extend(combinations_with_replacement(idx, d))
            return out
        if self.fid == "tensor_cube":
            return list(product(idx, repeat=3))
        if self.fid == "sym3":
            return list(combinations_with_replacement(idx, 3))
        if self.fid == "sym2":
            return list(combinations_with_replacement(idx, 2))
        if self.fid == "ext3":
            return list(combinations(idx, 3))
        if self.fid == "ext2":
            return list(combinations(idx, 2))
        # ext2_tensor_id
        return [(pair, i) for pair in combinations(idx, 2) for i in idx]

    def rank(self, n):
        return len(self.basis(n))

    def evaluate(self, n):
        """F(Z^n) as a free presentation over the base domain."""
        return FpPresentation.free(self.base, self.rank(n))

    # -- matrix action ----------------------------------------------------

    def act(self, a):
        """The induced matrix F(a) for an integer matrix a: Z^n -> Z^m."""
        if isinstance(a, Mat):
            rows = [[int(x) for x in row] for row in a.a]
        else:
            rows = [[int(x) for x in row] for row in a]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        entries = self._act_int(rows, m, n)
        if not entries:
            return Mat.zeros(self.base, 0, self.rank(n))
        out = Mat(self.base, entries)
        out.cols = self.rank(n)  # kept even when a value is the zero module
        return out

    def _act_int(self, a, m, n):
        fid = self.fid
        if fid == "group_ring_trunc":
            return self._act_group_ring(a, m, n)
        if fid == "tensor_cube":
            out_basis = {b: i for i, b in enumerate(product(range(m), repeat=3))}
            cols = []
            for (j1, j2, j3) in product(range(n), repeat=3):
                col = [0] * len(out_basis)
                for i1 in range(m):
                    x1 = a[i1][j1]
                    if not x1:
                        continue
                    for i2 in range(m):
                        x2 = a[i2][j2]
                        if not x2:
                            continue
                        for i3 in range(m):
                            x3 = a[i3][j3]
                            if x3:
                                col[out_basis[(i1, i2, i3)]] += x1 * x2 * x3
                cols.append(col)
            return _cols_to_rows(cols, len(out_basis))
        if fid in ("sym3", "sym2"):
            d = 3 if fid == "sym3" else 2
            out_basis = {
                b: i for i, b in enumerate(combinations_with_replacement(range(m), d))
            }
            cols = []
            for js in combinations_with_replacement(range(n), d):
                col = [0] * len(out_basis)
                for iis in product(range(m), repeat=d):
                    c = 1
                    for i, j in zip(iis, js):
                        c *= a[i][j]
                        if not c:
                            break
                    if c:
                        col[out_basis[tuple(sorted(iis))]] += c
                cols.append(col)
            return _cols_to_rows(cols, len(out_basis))
        if fid in ("ext3", "ext2"):
            d = 3 if fid == "ext3" else 2
            rows_out = list(combinations(range(m), d))
            cols_in = list(combinations(range(n), d))
            out = []
            for iis in rows_out:
                row = []
                for js in cols_in:
                    row.append(_minor(a, iis, js))
                out.append(row)
            return out
        # ext2_tensor_id
        e2 = BuiltinFunctor("ext2", ZZ)
        left = e2._act_int(a, m, n)
        lr = len(list(combinations(range(m), 2)))
        lc = len(list(combinations(range(n), 2)))
        out = [[0] * (lc * n) for _ in range(lr * m)]
        for i in range(lr):
            for j in range(lc):
                x = left[i][j]
                if not x:
                    continue
                for k in range(m):
                    for l in range(n):
                        out[i * m + k][j * n + l] = x * a[k][l]
        return out

    def _act_group_ring(self, a, m, n):
        src = self.basis(n)
        dst = self.basis(m)
        dst_idx = {b: i for i, b in enumerate(dst)}
        images = [_power_series_column([a[i][j] for i in range(m)]) for j in range(n)]
        cols = []
        for mono in src:
            poly = {(): 1}
            for j in mono:
                poly = _trunc_mul(poly, images[j])
            poly.pop((), None)
            col = [0] * len(dst)
            for mset, c in poly.items():
                col[dst_idx[mset]] = c
            cols.append(col)
        return _cols_to_rows(cols, len(dst))


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


def builtin(fid, base=ZZ):
    return BuiltinFunctor(fid, base)
