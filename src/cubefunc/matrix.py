"""Exact matrices over the domains in domains.py, with Smith and Hermite
normal forms, solving, kernels, and lattice operations.

Each elimination job has one kernel per kind of ring:

- over Z, Z_(p) and Z[1/S] (denominators cleared), Smith forms run on
  ``_snf_euclidean`` and column Hermite forms on the ``LatticeSpan`` fold
  over Z (``LatticeSpan._fold_int``);
- over Z/p, Smith forms and column echelon forms run on the GF(p) kernel
  of gf2, one reduced row echelon form each (``row_reduce`` at p), whose
  int64 arithmetic needs p^2 < 2^63; a larger p raises
  UnsupportedDomainError.

The numpy kernels live with their callers: GF(p) row reduction in gf2,
Smith forms over Z/p^k in strings_bands (``_snf_mod``).  Here everything is
list-of-lists with canonical domain elements; no floats ever.
``Mat(dom, entries)`` canonicalizes what it is given.  Arithmetic and
slicing results are built from entries that are canonical already and are
trusted, not re-canonicalized: the domain's element operations return
canonical elements, and so do the native int/Fraction ``+`` and ``*`` with
which products over Z, Z_(p) and Z[1/S] accumulate; over Z/m each product
row is reduced mod m once it is accumulated.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from fractions import Fraction
from math import gcd

from .domains import Domain, UnsupportedDomainError, ZZ

# the Z-like domain kinds: their canonical elements are ints (Z) or Fractions
# (Z_(p), Z[1/S]), which add and multiply natively to canonical results, and
# their Smith and Hermite forms run on integer matrices
_NATIVE = frozenset(("Z", "loc", "inv"))


class Mat:
    """An exact matrix over a Domain.

    rows are stored as lists.  Invariant: every entry is a canonical domain
    element (``dom.canon(x) == x``, of the same type).  The constructor
    canonicalizes; products, sums, differences, negation, ``scale``,
    ``copy``, ``transpose``, ``hstack``/``vstack`` and ``submatrix`` come
    from ``Mat._trusted``, which takes its entries as they are.
    """

    __slots__ = ("dom", "rows", "cols", "a")

    def __init__(self, dom, entries):
        self.dom = dom
        self.a = [[dom.canon(x) for x in row] for row in entries]
        self.rows = len(self.a)
        self.cols = len(self.a[0]) if self.a else 0
        for row in self.a:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def _trusted(dom, a, rows, cols):
        """A matrix on rows ``a`` of canonical entries, taken without a copy
        or a check; ``rows``/``cols`` give the shape, also when it is empty."""
        m = Mat.__new__(Mat)
        m.dom = dom
        m.a = a
        m.rows = rows
        m.cols = cols
        return m

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(dom, r, c):
        z = dom.zero()
        return Mat._trusted(dom, [[z] * c for _ in range(r)], r, c)

    @staticmethod
    def identity(dom, n):
        z, o = dom.zero(), dom.one()
        a = [[o if i == j else z for j in range(n)] for i in range(n)]
        return Mat._trusted(dom, a, n, n)

    @staticmethod
    def diag(dom, entries, rows=None, cols=None):
        n = len(entries)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        m = Mat.zeros(dom, rows, cols)
        for i, e in enumerate(entries):
            m.a[i][i] = dom.canon(e)
        return m

    @staticmethod
    def column(dom, entries):
        return Mat(dom, [[e] for e in entries])

    def copy(self):
        return Mat._trusted(self.dom, [row[:] for row in self.a], self.rows, self.cols)

    def to_domain(self, dom):
        """Reinterpret entries in another domain (must be representable)."""
        m = Mat(dom, self.a)
        m.cols = self.cols  # keep the column count of 0-row matrices
        return m

    # -- basic ops -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.dom == other.dom
            and self.rows == other.rows
            and self.cols == other.cols
            and self.a == other.a
        )

    def __hash__(self):
        return hash((self.dom, self.rows, self.cols, tuple(tuple(r) for r in self.a)))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.dom.elem_to_str(x) for x in row) for row in self.a
        )
        return f"Mat({self.dom}, {self.rows}x{self.cols}: [{body}])"

    def _like(self, entries):
        return Mat._trusted(self.dom, entries, self.rows, self.cols)

    def _check_addable(self, other):
        _check_same_domain(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # A falsy entry is zero in every domain, so the elementwise operations
    # skip the zero operands.

    def __add__(self, other):
        self._check_addable(other)
        add = self.dom.add
        return self._like(
            [[add(x, y) if y else x for x, y in zip(r1, r2)]
             for r1, r2 in zip(self.a, other.a)]
        )

    def __sub__(self, other):
        self._check_addable(other)
        sub = self.dom.sub
        return self._like(
            [[sub(x, y) if y else x for x, y in zip(r1, r2)]
             for r1, r2 in zip(self.a, other.a)]
        )

    def __neg__(self):
        neg = self.dom.neg
        return self._like([[neg(x) for x in row] for row in self.a])

    def scale(self, c):
        d = self.dom
        c = d.canon(c)
        mul = d.mul
        return self._like([[mul(c, x) if x else x for x in row] for row in self.a])

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        _check_same_domain(self, other)
        d = self.dom
        m = d.m  # the modulus of Z/m, None for the Z-like domains
        z = d.zero()
        n = other.cols
        # nonzero (column, entry) pairs of each right row, indexed once
        right = [
            [(j, y) for j, y in enumerate(row) if y] if any(row) else ()
            for row in other.a
        ]
        out = []
        for row in self.a:
            acc = [z] * n
            if any(row):
                for x, pairs in zip(row, right):
                    if x and pairs:
                        for j, y in pairs:
                            acc[j] += x * y
                if m:
                    acc = [v % m for v in acc]
            out.append(acc)
        return Mat._trusted(d, out, self.rows, n)

    def transpose(self):
        a = [list(r) for r in zip(*self.a)] if self.a and self.cols else [
            [] for _ in range(self.cols)
        ]
        return Mat._trusted(self.dom, a, self.cols, self.rows)

    def is_zero(self):
        return not any(map(any, self.a))

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        _check_same_domain(self, other)
        return Mat._trusted(
            self.dom,
            [r1 + r2 for r1, r2 in zip(self.a, other.a)],
            self.rows,
            self.cols + other.cols,
        )

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        _check_same_domain(self, other)
        return Mat._trusted(
            self.dom,
            [r[:] for r in self.a] + [r[:] for r in other.a],
            self.rows + other.rows,
            self.cols,
        )

    def submatrix(self, row_idx, col_idx):
        col_idx = list(col_idx)
        a = [[self.a[i][j] for j in col_idx] for i in row_idx]
        return Mat._trusted(self.dom, a, len(a), len(col_idx))

    def col(self, j):
        return Mat._trusted(self.dom, [[row[j]] for row in self.a], self.rows, 1)

    def flat(self):
        """The entries row by row, as one list."""
        return [x for row in self.a for x in row]

    @staticmethod
    def hstack_all(dom, mats, rows=None):
        mats = [m for m in mats]
        if not mats:
            return Mat.zeros(dom, rows or 0, 0)
        out = mats[0]
        for m in mats[1:]:
            out = out.hstack(m)
        return out

    @staticmethod
    def direct_sum(dom, mats):
        r = sum(m.rows for m in mats)
        c = sum(m.cols for m in mats)
        out = Mat.zeros(dom, r, c)
        i0 = j0 = 0
        for m in mats:
            for i in range(m.rows):
                for j in range(m.cols):
                    out.a[i0 + i][j0 + j] = m.a[i][j]
            i0 += m.rows
            j0 += m.cols
        return out

    def kron(a, b):
        """Kronecker product over a's domain."""
        d = a.dom
        out = Mat.zeros(d, a.rows * b.rows, a.cols * b.cols)
        for i in range(a.rows):
            for j in range(a.cols):
                x = a.a[i][j]
                if d.is_zero(x):
                    continue
                for k in range(b.rows):
                    for l in range(b.cols):
                        out.a[i * b.rows + k][j * b.cols + l] = d.mul(x, b.a[k][l])
        return out

    def trace(self):
        d = self.dom
        s = d.zero()
        for i in range(min(self.rows, self.cols)):
            s = d.add(s, self.a[i][i])
        return s

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "domain": self.dom.to_json(),
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[self.dom.elem_to_str(x) for x in row] for row in self.a],
        }

    @staticmethod
    def from_json(d):
        dom = Domain.from_json(d["domain"])
        entries = [[dom.elem_from_str(x) for x in row] for row in d["entries"]]
        if not entries:
            return Mat.zeros(dom, d["rows"], d["cols"])
        m = Mat(dom, entries)
        if m.rows != d["rows"] or m.cols != d["cols"]:
            raise ValueError("matrix shape disagrees with entries")
        return m


def _check_same_domain(a, b):
    """Results are trusted, so both operands must hold elements of one domain."""
    if a.dom is not b.dom and a.dom != b.dom:
        raise ValueError(f"domain mismatch {a.dom} vs {b.dom}")


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _field_array(m):
    """The entries of m over Z/p as an int64 array, and p.  The GF(p)
    kernel of gf2 multiplies two entries in int64, so p^2 < 2^63."""
    p = m.dom.m
    if p * p >= 2**63:
        raise UnsupportedDomainError(f"GF(p) elimination overflows int64 at p = {p}")
    import numpy as np

    return np.array(m.a, dtype=np.int64).reshape(m.rows, m.cols), p


def _snf_field(m):
    """SNF over Z/p: U m V = diag(1,...,1,0,...) with rank ones, read off
    the reduced form [R | U] of [m | I], in which U m = R.  V takes the
    pivot columns of R first, then the nullspace basis e_j - R[:, j] for
    each free column j."""
    import numpy as np

    from . import gf2

    a, p = _field_array(m)
    rows, cols = a.shape
    red, piv = gf2.row_reduce(np.hstack([a, np.eye(rows, dtype=np.int64)]), p)
    pivots = [c for c in piv if c < cols]
    r = len(pivots)
    free = sorted(set(range(cols)) - set(pivots))
    v = np.zeros((cols, cols), dtype=np.int64)
    v[pivots, np.arange(r)] = 1
    v[free, np.arange(r, cols)] = 1
    v[pivots, r:] = -red[:r, free].astype(np.int64) % p
    d = m.dom
    return (Mat._trusted(d, red[:, cols:].tolist(), rows, rows),
            Mat.diag(d, [d.one()] * r, rows, cols),
            Mat._trusted(d, v.tolist(), cols, cols))


def _snf_euclidean(a):
    """SNF of the int matrix ``a`` (a list of rows, consumed) by repeated
    pivoting on the absolutely least nonzero entry; returns the int rows of
    (U, S, V) with U a V == S."""
    rows, cols = len(a), len(a[0])
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addrow(dst, src, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        U[dst] = [x + f * y for x, y in zip(U[dst], U[src])]

    def addcol(dst, src, f):
        for row in a:
            row[dst] += f * row[src]
        for row in V:
            row[dst] += f * row[src]

    t = 0
    n = min(rows, cols)
    while t < n:
        # locate the absolutely smallest nonzero entry in the trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(best[2])):
                    best = (i, j, x)
        if best is None:
            break
        bi, bj, _ = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        # eliminate; pivot may change, loop until column and row are clean
        while True:
            piv = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // piv
                    addrow(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // piv
                    addcol(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if not dirty:
                break
        # divisibility: pivot must divide the rest of the block
        piv = a[t][t]
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % piv:
                    addrow(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if piv < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, a, V


def _clear_denominators(a):
    """(int rows, d) with int rows == d * a, d the least common denominator
    of the int/Fraction entries of ``a``."""
    den = 1
    for row in a:
        for x in row:
            q = x.denominator
            if den % q:
                den = den // gcd(den, q) * q
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


class _Fractions(dict):
    """x -> Fraction(x, den) for ints x, each built once."""

    def __init__(self, den):
        super().__init__()
        self.den = den

    def __missing__(self, x):
        f = self[x] = Fraction(x, self.den)
        return f


def smith_normal_form(m):
    """Return (u, s, v) with u*m*v == s, u and v invertible over m.dom
    and s diagonal with canonical associates d1 | d2 | ... ."""
    d = m.dom
    if m.rows == 0 or m.cols == 0:
        return Mat.identity(d, m.rows), m.copy(), Mat.identity(d, m.cols)
    if d.is_field:
        return _snf_field(m)
    if d.kind not in _NATIVE:
        raise UnsupportedDomainError(f"Smith form not implemented over {d}")
    # clear denominators, compute over Z, then renormalize the diagonal
    za, den = ([row[:] for row in m.a], 1) if d.kind == "Z" else _clear_denominators(m.a)
    u, s, v = _snf_euclidean(za)
    if d.kind != "Z":
        # u and v are unimodular over Z; s / den = u m v lies in d
        ints, scaled = _Fractions(1), _Fractions(den)
        u = [[ints[x] for x in row] for row in u]
        s = [[scaled[x] for x in row] for row in s]
        v = [[ints[x] for x in row] for row in v]
        # renormalize diagonal entries to canonical associates, folding the
        # unit into u
        for i in range(min(m.rows, m.cols)):
            x = s[i][i]
            if x:
                c = d.canonical_associate(x)
                unit = d.div(c, x)
                u[i] = [d.mul(unit, y) for y in u[i]]
                s[i][i] = c
    return (Mat._trusted(d, u, m.rows, m.rows), Mat._trusted(d, s, m.rows, m.cols),
            Mat._trusted(d, v, m.cols, m.cols))


def invariant_factors(m):
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    _, s, _ = smith_normal_form(m)
    d = m.dom
    out = []
    for i in range(min(s.rows, s.cols)):
        if not d.is_zero(s.a[i][i]):
            out.append(s.a[i][i])
    return out


def rank(m):
    return len(invariant_factors(m))


def kernel(m):
    """Matrix whose columns generate { x : m x = 0 } (a basis over a PID)."""
    d = m.dom
    u, s, v = smith_normal_form(m)
    r = 0
    for i in range(min(s.rows, s.cols)):
        if not d.is_zero(s.a[i][i]):
            r += 1
    idx = list(range(r, m.cols))
    return v.submatrix(range(m.cols), idx)


def smith_solve(u, s, b):
    """The back-substitution over a Smith factorization u m v == s.

    Returns the y with s y == u b that is 0 in the rows of zero diagonal
    entries, or None when there is none, which is exactly when a column of
    b lies outside the column lattice of m; x = v y then solves m x = b.
    This is the one solving kernel behind ``solve`` and the membership
    tests of presented modules, which keep u and s.
    """
    d = s.dom
    zero = d.zero()
    div = d.div
    n = min(s.rows, s.cols)
    y = []
    for i, row in enumerate((u * b).a):
        p = s.a[i][i] if i < n else zero
        if d.is_zero(p):
            if not all(d.is_zero(x) for x in row):
                return None
            if i < s.cols:
                y.append([zero] * b.cols)
        elif p == 1:
            y.append(row)
        else:
            try:
                y.append([div(x, p) for x in row])
            except (ValueError, ZeroDivisionError):
                return None
    y.extend([zero] * b.cols for _ in range(s.rows, s.cols))
    return Mat._trusted(d, y, s.cols, b.cols)


def solve(m, b):
    """One solution x of m x = b over m.dom, or None if none exists.

    b may have several columns; a solution is found columnwise.
    """
    u, s, v = smith_normal_form(m)
    y = smith_solve(u, s, b)
    return None if y is None else v * y


def inverse(m):
    """Inverse over the domain, or None if m is not invertible."""
    if m.rows != m.cols:
        return None
    d = m.dom
    x = solve(m, Mat.identity(d, m.rows))
    if x is None:
        return None
    if (m * x) == Mat.identity(d, m.rows) and (x * m) == Mat.identity(d, m.rows):
        return x
    return None


def column_hermite(m):
    """A column-style Hermite form: matrix with the same column lattice,
    zero columns dropped, in echelon shape.  Works over Z, localizations,
    and fields; over a field it is the reduced column echelon form."""
    d = m.dom
    if d.is_field:
        from . import gf2

        # the nonzero rows of the reduced row echelon form of m^T, transposed
        a, p = _field_array(m)
        red, piv = gf2.row_reduce(a.T, p)
        return Mat._trusted(d, red[: len(piv)].T.tolist(), m.rows, len(piv))
    if d.kind not in _NATIVE:
        raise UnsupportedDomainError(f"Hermite form not implemented over {d}")
    za, den = (m.a, 1) if d.kind == "Z" else _clear_denominators(m.a)
    span = LatticeSpan(ZZ, m.rows)
    for col in zip(*za):
        span.insert(col)
    h = span.basis
    if d.kind != "Z":
        # scale each column h / den by a unit so the pivot p / den becomes
        # its canonical associate c: the entries become x * c / p
        for k, col in enumerate(h):
            p = next(x for x in col if x)
            c = int(d.canonical_associate(Fraction(p, den)))
            fr = _Fractions(p)
            h[k] = [fr[x * c] for x in col]
    return Mat._trusted(d, _from_columns(h, m.rows), m.rows, len(h))


def _from_columns(cols, n):
    """The n rows of the matrix with the given columns."""
    return [[c[i] for c in cols] for i in range(n)]


class LatticeSpan:
    """An incrementally built column lattice in D^n with fast membership.

    Basis columns are kept in column Hermite form, so membership reduces to
    a triangular divisibility check.  Works over Z and its localizations.
    Over Z an insert folds the new column into the basis row by row and
    re-reduces only what changed; this fold is the Hermite kernel that
    ``column_hermite`` runs over every Z-like domain.
    """

    def __init__(self, dom, n):
        self.dom = dom
        self.n = n
        self.basis = []  # list of columns (python lists)
        self.pivots = []  # pivot row of each column, strictly increasing

    @property
    def rank(self):
        return len(self.basis)

    def reduce(self, vec):
        """Remainder of vec after greedy reduction against the basis."""
        d = self.dom
        v = [d.canon(x) for x in vec]
        for col, piv in zip(self.basis, self.pivots):
            x = v[piv]
            if d.is_zero(x):
                continue
            if not d.divides(col[piv], x):
                continue
            q = d.div(x, col[piv])
            v = [d.sub(a, d.mul(q, b)) if b else a for a, b in zip(v, col)]
        return v

    def contains(self, vec):
        d = self.dom
        if d.kind == "Z":
            return self._fold_int(_int_vector(vec), False) is None
        return all(d.is_zero(x) for x in self.reduce(vec))

    def insert(self, vec):
        """Add vec to the lattice; returns True if the lattice grew."""
        d = self.dom
        if d.kind == "Z":
            changed = self._fold_int(_int_vector(vec), True)
            if changed is None:
                return False
            self._rereduce_int(changed)
            return True
        if self.contains(vec):
            return False
        m = self.to_matrix().hstack(Mat.column(d, vec))
        h = column_hermite(m)
        self.basis = [[h.a[i][j] for i in range(self.n)] for j in range(h.cols)]
        self.pivots = [
            next(i for i, x in enumerate(col) if not d.is_zero(x))
            for col in self.basis
        ]
        return True

    def _fold_int(self, v, merge):
        """Reduce the int vector v against the basis, pivot row by pivot row.

        Returns None if v lies in the lattice.  Otherwise, without merge it
        returns []; with merge it folds v into the basis (an extended-gcd
        merge where a pivot does not divide v's entry, a new column where v
        has a nonzero entry outside the pivot rows) and returns the indices
        of the basis columns whose pivot changed or is new, in order.
        """
        basis, pivots, n = self.basis, self.pivots, self.n
        changed = []
        r = 0
        while True:
            while r < n and not v[r]:
                r += 1
            if r == n:
                break
            k = bisect_left(pivots, r)
            if k == len(pivots) or pivots[k] != r:
                if not merge:
                    return []
                if v[r] < 0:
                    v = [-x for x in v]
                basis.insert(k, v)
                pivots.insert(k, r)
                changed.append(k)
                break
            b = basis[k]
            a, x = b[r], v[r]
            q, rem = divmod(x, a)
            if not rem:
                v = [y - q * z for y, z in zip(v, b)]
            elif not merge:
                return []
            else:
                # [b, v] -> [s b + t v, (a/g) v - (x/g) b] has determinant 1
                g, s, t = _xgcd(a, x)
                basis[k] = [s * z + t * y for y, z in zip(v, b)]
                a, x = a // g, x // g
                v = [a * y - x * z for y, z in zip(v, b)]
                changed.append(k)
            r += 1
        return changed or None

    def _rereduce_int(self, changed):
        """Restore the Hermite reduction (each entry in a later pivot's row
        in [0, pivot)) after the columns ``changed`` got a new pivot.

        Pivots are taken in order; at a changed pivot every earlier column
        is reduced, elsewhere only the columns that an earlier step of this
        pass (or the fold) modified below their pivot."""
        basis, pivots = self.basis, self.pivots
        full = set(changed)
        dirty = set(changed)
        for k in range(changed[0], len(basis)):
            p = pivots[k]
            bk = basis[k]
            a = bk[p]
            for l in (range(k) if k in full else [l for l in dirty if l < k]):
                bl = basis[l]
                q = bl[p] // a
                if q:
                    basis[l] = [x - q * y for x, y in zip(bl, bk)]
                    dirty.add(l)

    def to_matrix(self):
        if not self.basis:
            return Mat.zeros(self.dom, self.n, 0)
        a = _from_columns(self.basis, self.n)
        return Mat._trusted(self.dom, a, self.n, len(self.basis))


def _int_vector(vec):
    """A fresh list of the entries of vec as canonical integers."""
    return [x if type(x) is int else ZZ.canon(x) for x in vec]


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) = s a + t b and g > 0, for a, b not both 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


class RationalSpan:
    """A growing subspace of Q^n kept in echelon form.

    Rows are stored as primitive integer vectors (entries with gcd 1, pivot
    entry positive) and vectors are reduced fraction-free: cross-multiply
    to clear a pivot entry, divide by the content once at the end."""

    def __init__(self, n):
        self.n = n
        self.rows = []  # primitive int rows in echelon form
        self.pivots = []  # pivot column of each row, strictly increasing

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """A primitive integer vector (or 0) that, with the rows, spans the
        same space as vec with the rows, and is 0 exactly when vec is in
        their span."""
        v = _clear_denominators([vec])[0][0]
        for row, piv in zip(self.rows, self.pivots):
            x = v[piv]
            if x:
                a = row[piv]
                g = gcd(a, x)
                a, x = a // g, x // g
                v = [a * y - x * z for y, z in zip(v, row)]
        g = gcd(*v)
        return [y // g for y in v] if g > 1 else v

    def contains(self, vec):
        return not any(self.reduce(vec))

    def insert(self, vec):
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        if v[piv] < 0:
            v = [-x for x in v]
        k = bisect_left(self.pivots, piv)
        self.rows.insert(k, v)
        self.pivots.insert(k, piv)
        return True


def det(m):
    """Determinant by Gaussian elimination: in Fraction arithmetic over the
    Z-like domains, and with the field operations over Z/p."""
    if m.rows != m.cols:
        raise ValueError("det needs a square matrix")
    d = m.dom
    if m.rows == 0:
        return d.one()
    if d.kind in _NATIVE:
        a = [[Fraction(x) for x in row] for row in m.a]
        sub, mul, div = operator.sub, operator.mul, operator.truediv
    elif d.is_field:
        a = [row[:] for row in m.a]
        sub, mul, div = d.sub, d.mul, d.div
    else:
        raise UnsupportedDomainError("det over Z/m (composite) not supported")
    n = m.rows
    prod = d.one()
    for c in range(n):
        piv = next((i for i in range(c, n) if not d.is_zero(a[i][c])), None)
        if piv is None:
            return d.zero()
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            prod = sub(d.zero(), prod)
        prod = mul(prod, a[c][c])
        for i in range(c + 1, n):
            if not d.is_zero(a[i][c]):
                f = div(a[i][c], a[c][c])
                a[i] = [sub(x, mul(f, y)) for x, y in zip(a[i], a[c])]
    return d.canon(prod)
