"""Cubic diagrams of vector spaces over GF(2).

A cubic space is a diagram

    F1  <--p--/--h-->  F2  <--p_i--/--h_i-->  F3      (i = 1, 2)

subject to the char-2 identity list, rings.cubic_relations(char2=True),
which CubicSpace2 reads and evaluates on its matrices.  The module
provides the classification pipeline of the source paper over GF(2):
splitting off the multiplicity of the trivial diagram, the six-block
normal form of the (h, p) pair, the staircase form of h1, the word calculus
over the bunch of semichains, and realize / decompose as mutually inverse
constructions (strings, bands and the trivial diagram).

Matrices are uint8 arrays of zeros and ones, and a batch of square
matrices is a uint8 stack [C, n, n], which _mul multiplies as it does one
matrix.  Every row reduction runs on one kernel, _eliminate(a, p), the
reduced row echelon form over GF(p): uint8 with XOR row updates at p = 2,
int64 with modular row updates at odd p.  rank, nullspace, solve and
pivot_columns take p (default 2), and the 3-local probe of strings_bands
reaches the kernel through them over GF(3), and the Z/p forms of matrix
through row_reduce.  _quotient reads a quotient map and its section off
one reduced form, for the staircase and for local_algebra alike.

One type, Rep2, holds a representation of a quiver over GF(2): a space at
each vertex and a matrix on each arrow.  A cubic space is a Rep2 on the
cubic quiver (CubicSpace2), and the mod-2 action tuple of a
wildness.SigmaModule is a Rep2 on one vertex with a loop per matrix.  One
kernel, written over arrows, serves both: hom_basis solves Hom(x, y) as
the nullspace of one Kronecker system, split_indecomposable and
indecomposable_summands split by Fitting's lemma and return the inclusion
of each summand, and match_summands pairs the summands of two
representations (Krull-Schmidt).  Two facts about an
indecomposable finite-dimensional representation (Auslander-Reiten-Smalo,
Representation Theory of Artin Algebras) make the deciders exact:

- its endomorphism algebra is local: every endomorphism is nilpotent or
  invertible.  split_indecomposable decides this by linear algebra on a
  basis of End (_locality): the ideal J generated by commutators is
  nilpotent, and squaring fixes only span{1} on the commutative End/J.  A
  local End comes with that certificate (Locality); otherwise an element
  that is neither nilpotent nor invertible splits the representation by
  Fitting's lemma.  The steps after a screen of the basis elements in one
  batch are written once for every GF(p), on structure constants
  (local_algebra), and also decide the 3-local probe of strings_bands over
  GF(3);
- if x or y is indecomposable and x ~ y, the maps x -> y that are not
  isomorphisms form a proper subspace of Hom(x, y), so every basis of
  Hom(x, y) has an invertible element.  invertible_element tests the
  basis elements only, in one batch, so the None of find_isomorphism is a
  proof under that hypothesis; match_summands applies it to each pair of
  summands.

Band polynomials come from polys.py.
"""

from collections import namedtuple

import numpy as np

from .domains import GF2
from .polys import (
    companion_matrix, poly_deg, poly_pow, poly_trim, primary_polys,
    primary_root, reciprocal,
)
from .rings import LETTERS, cubic_relations


# ---------------------------------------------------------------------------
# dense linear algebra over GF(p): uint8 arrays at p = 2, int64 at odd p
# ---------------------------------------------------------------------------


def _mul(a, b):
    """The matrix product over GF(2): uint8 sums wrap mod 256, which is
    even, so the parity is exact."""
    return (np.asarray(a, dtype=np.uint8) @ np.asarray(b, dtype=np.uint8)) & 1


def zeros(r, c):
    return np.zeros((r, c), dtype=np.uint8)


def eye(n):
    return np.eye(n, dtype=np.uint8)


def mats(*factors):
    """Product of a chain of matrices."""
    out = factors[0]
    for f in factors[1:]:
        out = _mul(out, f)
    return out


def _eliminate(a, p=2):
    """Reduced row echelon form over GF(p).  Returns (R, pivot_columns).

    At p = 2, R is uint8 and a row update is an XOR; at odd p, R is int64,
    the pivot row is scaled to a leading 1 and the other rows are updated
    in one modular step."""
    if p == 2:
        r = np.array(a, dtype=np.uint8, copy=True)
    else:
        r = np.asarray(a, dtype=np.int64) % p
    rows, cols = r.shape
    piv = []
    if rows == 0:
        return r, piv
    lead = 0
    for c in range(cols):
        sel = lead
        if not r[lead, c]:
            # any nonzero entry will do: the reduced form is unique
            sel += int(r[lead:, c].argmax())
            if not r[sel, c]:
                continue
        if sel != lead:
            r[[lead, sel]] = r[[sel, lead]]
        if p != 2:
            r[lead] = r[lead] * pow(int(r[lead, c]), -1, p) % p
        col = r[:, c].copy()
        col[lead] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            if p == 2:
                r[nz] ^= r[lead][None, :]
            else:
                r[nz] = (r[nz] - np.outer(col[nz], r[lead])) % p
        piv.append(c)
        lead += 1
        if lead == rows:
            break
    return r, piv


def row_reduce(a, p=2):
    """The reduced row echelon form R of a over GF(p) and its pivot
    columns; the Smith and Hermite forms of matrix over Z/p read both."""
    return _eliminate(a, p)


def pivot_columns(a, p=2):
    """The pivot columns of a over GF(p): each column of a that is not in
    the span of the columns before it."""
    return _eliminate(a, p)[1]


def rank(a):
    if min(a.shape) == 0:
        return 0
    return len(pivot_columns(a))


def nullspace(a, p=2):
    """Columns form a basis of {x : a x = 0} over GF(p): one column per
    free column f of the reduced form R, with 1 at f and -R[:, f] at the
    pivots."""
    r, piv = _eliminate(a, p)
    is_free = np.ones(a.shape[1], dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    out = np.zeros((a.shape[1], free.size), dtype=r.dtype)
    out[free, np.arange(free.size)] = 1
    out[piv] = -r[: len(piv), free] % p
    return out


def solve(a, b, p=2):
    """Any X with a X = b over GF(p), or None."""
    cols = a.shape[1]
    b = np.asarray(b)
    if b.ndim == 1:
        b = b[:, None]
    r, piv = _eliminate(np.concatenate([a, b], axis=1), p)
    if piv and piv[-1] >= cols:
        return None
    x = np.zeros((cols, b.shape[1]), dtype=r.dtype)
    x[piv] = r[: len(piv), cols:]
    return x


def inverse(a):
    n, cols = a.shape
    if n != cols:
        raise ValueError("matrix is not square")
    # [a | I] always has n pivots; a is invertible iff they all lie in a
    r, piv = _eliminate(np.concatenate([a, eye(n)], axis=1))
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return r[:, n:]


def column_space(a):
    """A basis of the column span (a selection of columns of a)."""
    return a[:, pivot_columns(a)]


def intersect_columns(a, b):
    """Basis of (col span a) ∩ (col span b)."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return zeros(a.shape[0], 0)
    k = nullspace(np.concatenate([a, b], axis=1))
    return column_space(_mul(a, k[: a.shape[1]]))


def extend_basis(inner, ambient):
    """Columns of `ambient` that extend the independent set `inner`."""
    piv = pivot_columns(np.concatenate([inner, ambient], axis=1))
    extra = [c - inner.shape[1] for c in piv if c >= inner.shape[1]]
    return ambient[:, extra]


def _quotient(rows, dim, p):
    """(quot, section) for GF(p)^dim modulo the span of some rows: quot has
    kernel exactly the span, and quot section = 1.  Both are read off the
    reduced form R of the rows: the section is the unit vectors at the free
    columns, and quot is 1 there and -R[:, free]^T at the pivots."""
    r, piv = _eliminate(rows, p)
    is_free = np.ones(dim, dtype=bool)
    is_free[piv] = False
    section = np.eye(dim, dtype=r.dtype)[:, is_free]
    quot = section.T.copy()
    quot[:, piv] = -r[: len(piv), is_free].T % p
    return quot, section


def reduce_mod(vecs, span):
    """Project columns of vecs along the column span onto the complement
    that _quotient's section spans."""
    quot, section = _quotient(span.T, span.shape[0], 2)
    return _mul(section, _mul(quot, vecs))


# ---------------------------------------------------------------------------
# representations of a quiver; cubic spaces
# ---------------------------------------------------------------------------


class Rep2:
    """A representation of a quiver over GF(2): the space GF(2)^dims[v] at
    each vertex v and, for each arrow (s, t, m), the matrix m of a map from
    vertex s to vertex t, with entries 0 and 1.  A cubic space is a
    representation of the cubic quiver (CubicSpace2); an action tuple
    (a_1, .., a_n) is one of the quiver with one vertex and n loops."""

    dom = GF2

    def __init__(self, dims, arrows):
        self.dims = tuple(dims)
        checked = []
        for k, (s, t, given) in enumerate(arrows):
            given = np.asarray(given)
            m = given.astype(np.uint8, copy=False)
            if m.shape != (self.dims[t], self.dims[s]):
                raise ValueError(f"arrow {k} must be {(self.dims[t], self.dims[s])}")
            # the cast to uint8 changes every entry that is not an integer
            # from 0 to 255
            if (m > 1).any() or (m is not given and (m != given).any()):
                raise ValueError(f"arrow {k} has an entry other than 0 and 1")
            checked.append((s, t, m))
        self.arrows = tuple(checked)

    def _with_maps(self, dims, maps):
        """The representation of the same quiver with these maps."""
        return Rep2(dims, [(s, t, m) for (s, t, _), m in zip(self.arrows, maps)])

    def direct_sum(self, other):
        def blk(a, b):
            out = zeros(a.shape[0] + b.shape[0], a.shape[1] + b.shape[1])
            out[: a.shape[0], : a.shape[1]] = a
            out[a.shape[0]:, a.shape[1]:] = b
            return out

        return self._with_maps([i + j for i, j in zip(self.dims, other.dims)],
                               [blk(a, b) for (_, _, a), (_, _, b)
                                in zip(self.arrows, other.arrows)])

    def conjugate(self, *bases):
        """The same representation in new bases (the columns of bases[v]
        are the new basis at vertex v)."""
        inv = [inverse(b) for b in bases]
        return self._with_maps(self.dims, [mats(inv[t], m, bases[s])
                                           for s, t, m in self.arrows])

    def restrict(self, *bases):
        """The subrepresentation spanned by the column bases, one per
        vertex; it must be closed under every arrow."""
        maps = []
        for k, (s, t, m) in enumerate(self.arrows):
            x = solve(bases[t], _mul(m, bases[s]))
            if x is None:
                raise ValueError(f"subspace is not closed under arrow {k}")
            maps.append(x)
        return self._with_maps([b.shape[1] for b in bases], maps)

    def __eq__(self, other):
        return (isinstance(other, Rep2) and self.dims == other.dims
                and len(self.arrows) == len(other.arrows)
                and all((s, t) == (u, v) and np.array_equal(m, n)
                        for (s, t, m), (u, v, n) in zip(self.arrows, other.arrows)))


class CubicSpace2(Rep2):
    """A char-2 cubic diagram: the representation of the cubic quiver with
    spaces F1, F2, F3 at vertices 0, 1, 2 and the arrows ARROWS, typed by
    rings.LETTERS: h: F1->F2, p: F2->F1, h_i: F2->F3, p_i: F3->F2.  With
    check=True the identities RELATIONS, the defects lhs - rhs of
    rings.cubic_relations(char2=True), must hold."""

    ARROWS = ("h", "p", "h1", "h2", "p1", "p2")
    RELATIONS = tuple((name, lhs - rhs) for name, lhs, rhs in cubic_relations(char2=True))

    def __init__(self, h, p, h1, h2, p1, p2, check=True):
        super().__init__((np.shape(h)[1], np.shape(h)[0], np.shape(h1)[0]),
                         [(LETTERS[a][0] - 1, LETTERS[a][1] - 1, m)
                          for a, m in zip(self.ARROWS, (h, p, h1, h2, p1, p2))])
        self.h, self.p, self.h1, self.h2, self.p1, self.p2 = (m for _, _, m in self.arrows)
        if check:
            _fail_unless_cubic(self)

    def _with_maps(self, dims, maps):
        return CubicSpace2(*maps, check=False)

    def verify(self, relations):
        """Check identities, given as (name, defect) pairs with defect a
        rings.Expr in the arrow names and id1, id2, id3, as
        presentation.QuiverRep.verify does; returns (ok, [(name, holds)]).
        Each word is multiplied right to left over GF(2), and a suffix
        shared by words of one call is multiplied once."""
        products = {(a,): m for a, (_, _, m) in zip(self.ARROWS, self.arrows)}
        products.update(((f"id{k}",), eye(n)) for k, n in enumerate(self.dims, 1))

        def product(word):
            if word not in products:
                products[word] = _mul(products[word[:1]], product(word[1:]))
            return products[word]

        report = []
        for name, defect in relations:
            acc = None
            for word, c in defect.terms.items():
                if self.dom.canon(c):
                    acc = product(word) if acc is None else acc ^ product(word)
            report.append((name, acc is None or not acc.any()))
        return all(good for _, good in report), report


def _fail_unless_cubic(space):
    ok, report = space.verify(space.RELATIONS)
    if not ok:
        raise ValueError("cubic relations fail: "
                         + "; ".join(name for name, good in report if not good))


def zero_space():
    return CubicSpace2(zeros(0, 0), zeros(0, 0), zeros(0, 0),
                       zeros(0, 0), zeros(0, 0), zeros(0, 0))


def trivial_space():
    """The two-generator diagram with F1 = 0 that every other
    indecomposable avoids: h1, h2 pick out complementary lines and
    p1, p2 swap them."""
    return CubicSpace2(
        zeros(2, 0), zeros(0, 2),
        [[1, 0], [0, 0]], [[0, 0], [0, 1]],
        [[0, 1], [0, 0]], [[0, 0], [1, 0]],
    )


def split_trivial(space):
    """Multiplicity of the trivial diagram plus the complementary summand.

    The idempotents e_i = h_i p_i h_j p_j on F3 and f_i = p_i h_j p_j h_i
    on F2 cut out the trivial part; the remainder is the diagram on their
    common complement and satisfies h1 p1 = h1 h p p1 there.
    """
    _fail_unless_cubic(space)
    h1, h2, p1, p2 = space.h1, space.h2, space.p1, space.p2
    e1 = mats(h1, p1, h2, p2)
    e2 = mats(h2, p2, h1, p1)
    f1 = mats(p1, h2, p2, h1)
    f2 = mats(p2, h1, p1, h2)
    mult = rank(e1)
    for idem in (e1, e2, f1, f2):
        if (_mul(idem, idem) ^ idem).any():
            raise ValueError("trivial-part projectors fail to be idempotent")
    e0 = e1 ^ e2 ^ eye(space.dims[2])
    f0 = f1 ^ f2 ^ eye(space.dims[1])
    b3 = column_space(e0)
    b2 = column_space(f0)
    b1 = eye(space.dims[0])
    reduced = space.restrict(b1, b2, b3)
    rem = (
        _mul(reduced.h1, reduced.p1)
        ^ mats(reduced.h1, reduced.h, reduced.p, reduced.p1)
    )
    if rem.any():
        raise ValueError("reduced diagram violates h1 p1 = h1 h p p1")
    return mult, reduced


# ---------------------------------------------------------------------------
# six-block form of the (h, p) pair
# ---------------------------------------------------------------------------


class SixBlockSplit:
    """Bases of F1 and F2 splitting a pair h: F1 -> F2, p: F2 -> F1 with
    hph = php = 0 into six blocks on each side, where h maps U1, U2, U4
    isomorphically onto V1, V2, V3 and p maps V6, V3, V5 onto U1, U3, U5."""

    def __init__(self, basis1, basis2, u, v):
        self.basis1 = basis1
        self.basis2 = basis2
        self.u = tuple(u)
        self.v = tuple(v)


def h_pattern(u, v):
    out = zeros(sum(v), sum(u))
    uo = np.cumsum((0,) + tuple(u))
    vo = np.cumsum((0,) + tuple(v))
    for ui, vi in ((0, 0), (1, 1), (3, 2)):
        n = u[ui]
        out[vo[vi]: vo[vi] + n, uo[ui]: uo[ui] + n] = eye(n)
    return out


def p_pattern(u, v):
    out = zeros(sum(u), sum(v))
    uo = np.cumsum((0,) + tuple(u))
    vo = np.cumsum((0,) + tuple(v))
    for vi, ui in ((5, 0), (2, 2), (4, 4)):
        n = v[vi]
        out[uo[ui]: uo[ui] + n, vo[vi]: vo[vi] + n] = eye(n)
    return out


def six_block_split(h, p):
    """Normal form of a pair of mutually annihilating-ish maps
    (h p h = 0 and p h p = 0): explicit bases and the block dimensions."""
    h = np.asarray(h, dtype=np.uint8)
    p = np.asarray(p, dtype=np.uint8)
    if mats(h, p, h).any() or mats(p, h, p).any():
        raise ValueError("six-block form needs h p h = 0 and p h p = 0")

    im_p = column_space(p)
    ker_h = nullspace(h)
    u3 = column_space(_mul(p, h))
    imp_kerh = intersect_columns(im_p, ker_h)
    u5 = extend_basis(u3, imp_kerh)
    u1 = extend_basis(imp_kerh, im_p)
    v1 = _mul(h, u1)

    im_h = column_space(h)
    ker_p = nullspace(p)
    imh_kerp = intersect_columns(im_h, ker_p)
    v2 = extend_basis(v1, imh_kerp)
    # v3: vectors of im h mapping onto the chosen u3 basis under p
    y = solve(_mul(p, im_h), u3)
    v3 = _mul(im_h, y)
    u4 = solve(h, v3)
    u2 = solve(h, v2)
    u6 = extend_basis(np.concatenate([u3, u5], axis=1), ker_h)
    v6 = solve(p, u1)
    v5 = solve(p, u5)
    v4 = extend_basis(np.concatenate([v1, v2], axis=1), ker_p)

    basis1 = np.concatenate([u1, u2, u3, u4, u5, u6], axis=1)
    basis2 = np.concatenate([v1, v2, v3, v4, v5, v6], axis=1)
    u = [b.shape[1] for b in (u1, u2, u3, u4, u5, u6)]
    v = [b.shape[1] for b in (v1, v2, v3, v4, v5, v6)]
    hp = mats(inverse(basis2), h, basis1)
    pp = mats(inverse(basis1), p, basis2)
    if not np.array_equal(hp, h_pattern(u, v)) or not np.array_equal(
        pp, p_pattern(u, v)
    ):
        raise ValueError("six-block reduction failed to reach the 0/I form")
    return SixBlockSplit(basis1, basis2, u, v)


# ---------------------------------------------------------------------------
# staircase form of h1 over the six-block frame
# ---------------------------------------------------------------------------

# The 18 column groups of the staircase, as (six-block column, local index).
# Groups 1-4 subdivide V1, 5-6 subdivide V2, 7-9 V3, 10-12 V4, 13-14 V5 and
# 15-18 V6; the V1 and V6 subdivisions share one index set because h p maps
# V6 isomorphically onto V1.
_PIVOTS = {
    3: 1, 4: 2, 6: 3, 8: 4, 11: 4, 9: 5, 12: 6, 14: 7, 16: 8, 18: 9,
}  # column group -> row group carrying its identity block


def staircase_pattern(col_groups, row_groups):
    out = zeros(sum(row_groups), sum(col_groups))
    co = np.cumsum((0,) + tuple(col_groups))
    ro = np.cumsum((0,) + tuple(row_groups))
    for cg, rg in _PIVOTS.items():
        n = col_groups[cg - 1]
        out[ro[rg - 1]: ro[rg - 1] + n, co[cg - 1]: co[cg - 1] + n] = eye(n)
    return out


def staircase_H(h1, v):
    """The 18 column-group and 10 row-group sizes of the block staircase
    that h1 reduces to.

    h1 is given in the F2 basis of a six-block split whose V blocks have
    the sizes v (h1 @ SixBlockSplit.basis2).  Only column operations
    compatible with that form are used, so the reduction extends to a basis
    change of the whole diagram; it is checked to reach the exact 0/I form.
    """
    d3, d2 = h1.shape
    vo = np.cumsum((0,) + tuple(v))
    Hb = [h1[:, vo[i]: vo[i + 1]] for i in range(6)]
    if v[0] != v[5]:
        raise ValueError("six-block form must have dim V1 = dim V6")

    span = lambda ms: column_space(np.concatenate(ms, axis=1)) if ms else zeros(d3, 0)
    M1 = span([Hb[0]])
    M2 = span([M1, Hb[1]])
    M34 = span([M2, Hb[2], Hb[3]])
    M5 = span([M34, Hb[4]])

    quot = lambda mod: _quotient(mod.T, d3, 2)[0]
    ker_mod = lambda mat, mod: nullspace(_mul(quot(mod), mat))

    # coupled splitting of the common V1/V6 index set
    A, B = Hb[0], Hb[5]
    ka = nullspace(A)
    kb = ker_mod(B, M5)
    g1c = intersect_columns(ka, kb)                      # group 1 (and 15)
    g2c = extend_basis(g1c, ka)                          # 2 (16)
    g3c = extend_basis(g1c, kb)                          # 3 (17)
    g4c = extend_basis(np.concatenate([ka, kb], axis=1), eye(v[0]))  # 4 (18)
    C16 = np.concatenate([g1c, g2c, g3c, g4c], axis=1)

    # V2
    k5 = ker_mod(Hb[1], M1)
    c6 = extend_basis(k5, eye(v[1]))
    C2 = np.concatenate([k5, c6], axis=1)

    # V3 / V4: only their common image admits matched pivots
    q2 = quot(M2)
    A3, A4 = _mul(q2, Hb[2]), _mul(q2, Hb[3])
    shared = intersect_columns(column_space(A3), column_space(A4))
    k7 = nullspace(A3)
    c8 = solve(A3, shared)
    c9 = extend_basis(np.concatenate([k7, c8], axis=1), eye(v[2]))
    C3 = np.concatenate([k7, c8, c9], axis=1)
    k10 = nullspace(A4)
    c11 = solve(A4, shared)
    c12 = extend_basis(np.concatenate([k10, c11], axis=1), eye(v[3]))
    C4 = np.concatenate([k10, c11, c12], axis=1)

    # V5
    k13 = ker_mod(Hb[4], M34)
    c14 = extend_basis(k13, eye(v[4]))
    C5 = np.concatenate([k13, c14], axis=1)

    col_groups = [
        g1c.shape[1], g2c.shape[1], g3c.shape[1], g4c.shape[1],
        k5.shape[1], c6.shape[1],
        k7.shape[1], c8.shape[1], c9.shape[1],
        k10.shape[1], c11.shape[1], c12.shape[1],
        k13.shape[1], c14.shape[1],
        g1c.shape[1], g2c.shape[1], g3c.shape[1], g4c.shape[1],
    ]

    # the new F3 flag: one group of rows per pivot family
    g1 = _mul(A, g3c)
    g2 = _mul(A, g4c)
    g3 = reduce_mod(_mul(Hb[1], c6), M1)
    g4 = reduce_mod(_mul(Hb[2], c8), M2)
    g5 = reduce_mod(_mul(Hb[2], c9), np.concatenate([M2, g4], axis=1))
    g6 = reduce_mod(_mul(Hb[3], c12), np.concatenate([M2, g4], axis=1))
    g7 = reduce_mod(_mul(Hb[4], c14), M34)
    g8 = reduce_mod(_mul(B, g2c), M5)
    g9 = reduce_mod(_mul(B, g4c), np.concatenate([M5, g8], axis=1))
    partial = np.concatenate([g1, g2, g3, g4, g5, g6, g7, g8, g9], axis=1)
    g10 = extend_basis(partial, eye(d3))
    basis3 = np.concatenate([partial, g10], axis=1)
    row_groups = [b.shape[1] for b in (g1, g2, g3, g4, g5, g6, g7, g8, g9, g10)]

    # block-diagonal part of the new F2 basis
    basis2 = zeros(d2, d2)
    for i, C in enumerate((C16, C2, C3, C4, C5, C16)):
        basis2[vo[i]: vo[i + 1], vo[i]: vo[i + 1]] = C

    # column corrections: each column must equal its row-group vector (or
    # zero) exactly; the residue lies in the span of earlier pivots and is
    # removed by adding those pivots' basis columns (all of which are
    # permitted additions for the group being corrected)
    inv3 = inverse(basis3)
    co = np.cumsum((0,) + tuple(col_groups))
    ro = np.cumsum((0,) + tuple(row_groups))
    # which of the six V blocks each column group sits inside
    vblk = {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 3, 9: 3,
            10: 4, 11: 4, 12: 4, 13: 5, 14: 5, 15: 6, 16: 6, 17: 6, 18: 6}
    # column groups whose columns hit a given row group exactly
    owners = {1: (3,), 2: (4,), 3: (6,), 4: (8, 11), 5: (9,), 6: (12,),
              7: (14,), 8: (16,), 9: (18,)}
    finalized = {3, 4}
    order = [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18]
    for cg in order:
        rg = _PIVOTS.get(cg)
        for j in range(co[cg - 1], co[cg]):
            want_vec = zeros(d3, 1)[:, 0]
            if rg is not None:
                want_vec = basis3[:, ro[rg - 1] + (j - co[cg - 1])]
            cur = _mul(h1, basis2[:, j: j + 1])[:, 0]
            resid = cur ^ want_vec
            if not resid.any():
                continue
            coords = _mul(inv3, resid[:, None])[:, 0]
            for rgp in range(1, 11):
                seg = coords[ro[rgp - 1]: ro[rgp]]
                nzl = np.nonzero(seg)[0]
                if nzl.size == 0:
                    continue
                src_cg = None
                for cand in owners.get(rgp, ()):
                    ok = (cand in finalized
                          and vblk[cand] <= vblk[cg]
                          and (vblk[cand], vblk[cg]) != (3, 4))
                    if ok:
                        src_cg = cand
                        break
                if src_cg is None:
                    raise ValueError(
                        "staircase residue escapes the permitted pivots"
                    )
                for loc in nzl:
                    basis2[:, j] ^= basis2[:, co[src_cg - 1] + loc]
                    if vblk[src_cg] == 6 and vblk[cg] == 6:
                        # V1 and V6 share one index set, so an addition
                        # inside V6 must be copied to the V1 twin columns
                        mj = co[cg - 15] + (j - co[cg - 1])
                        basis2[:, mj] ^= basis2[:, co[src_cg - 15] + loc]
        finalized.add(cg)

    if not np.array_equal(mats(inv3, h1, basis2),
                          staircase_pattern(col_groups, row_groups)):
        raise ValueError("staircase reduction failed to reach the 0/I form")
    return col_groups, row_groups


# ---------------------------------------------------------------------------
# building spaces from staircase data
# ---------------------------------------------------------------------------


def row_groups_from_cols(col_groups, extra=0):
    """Row group sizes forced by the staircase pattern; `extra` is the
    size of the free last group (rows h1 misses)."""
    r = col_groups
    return (r[2], r[3], r[5], r[7], r[8], r[11], r[13], r[1], r[3], extra)


def check_col_groups(col_groups):
    r = tuple(col_groups)
    if len(r) != 18 or any(n < 0 for n in r):
        raise ValueError("need 18 nonnegative column group sizes")
    if r[14:18] != r[0:4]:
        raise ValueError("groups 15-18 must repeat groups 1-4")
    if r[10] != r[7]:
        raise ValueError("groups 8 and 11 must have equal size")
    return r


def block_condition_report(P, col_groups, row_groups):
    """Which structural zero/equality constraints the matrix p1 satisfies
    in staircase coordinates."""
    co = np.cumsum((0,) + tuple(col_groups))
    ro = np.cumsum((0,) + tuple(row_groups))
    stripe = lambda i: P[co[i - 1]: co[i], :]
    out = {}
    for i in (4, 6, 9, 12, 14, 16, 18):
        out[f"stripe {i} = 0"] = not stripe(i).any()
    for i in (3, 17):
        out[f"stripe {i} = 0 off the last column group"] = \
            not stripe(i)[:, : ro[9]].any()
    out["stripe 8 = stripe 11"] = np.array_equal(stripe(8), stripe(11))
    out["stripe 3 = stripe 17"] = np.array_equal(stripe(3), stripe(17))
    return out


def assemble_staircase(col_groups, P, extra_rows=None, points=0):
    """Cubic space whose (h, p) are in six-block 0/I form and whose h1 is
    the exact staircase; p1 = P must satisfy the block conditions.
    h2, p2 are the forced combinations h1 + h1 h p and p1 + h p p1.
    `points` adds that many extra F1 dimensions no map touches (the U6
    block), each of which is a one-dimensional direct summand."""
    r = check_col_groups(col_groups)
    if extra_rows is None:
        extra_rows = P.shape[1] - sum(row_groups_from_cols(r))
    row_groups = row_groups_from_cols(r, extra_rows)
    v = (r[0] + r[1] + r[2] + r[3], r[4] + r[5], r[6] + r[7] + r[8],
         r[9] + r[10] + r[11], r[12] + r[13], r[0] + r[1] + r[2] + r[3])
    u = (v[0], v[1], v[2], v[2], v[4], points)
    d2, d3 = sum(v), sum(row_groups)
    if P.shape != (d2, d3):
        raise ValueError(f"p1 must be {(d2, d3)}")
    bad = [k for k, ok in block_condition_report(P, r, row_groups).items()
           if not ok]
    if bad:
        raise ValueError("block conditions fail: " + "; ".join(bad))
    h = h_pattern(u, v)
    p = p_pattern(u, v)
    h1 = staircase_pattern(r, row_groups)
    h2 = h1 ^ mats(h1, h, p)
    p2 = P ^ mats(h, p, P)
    return CubicSpace2(h, p, h1, h2, P, p2, check=True)


def random_block_matrix(rng, col_groups, row_groups):
    """A uniformly random p1 on the block-condition slice with
    stripes 3 and 17 zero."""
    d2, d3 = sum(col_groups), sum(row_groups)
    co = np.cumsum((0,) + tuple(col_groups))
    P = zeros(d2, d3)
    draw = lambda n: rng.integers(0, 2, size=(n, d3), dtype=np.uint8) \
        if n else zeros(n, d3)
    for i in (1, 2, 5, 7, 10, 13, 15):
        P[co[i - 1]: co[i], :] = draw(col_groups[i - 1])
    shared = draw(col_groups[7])
    P[co[7]: co[8], :] = shared
    P[co[10]: co[11], :] = shared
    return P


def random_invertible(rng, n):
    if n == 0:
        return zeros(0, 0)
    while True:
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if rank(m) == n:
            return m


# ---------------------------------------------------------------------------
# the bunch of semichains behind the matrix problem
# ---------------------------------------------------------------------------


class SemiChainBunch:
    """The fixed strata posets of the reduced matrix problem: row strata
    E with R1 > R2 > R5 > R7 > R11 > R13 > R15 and R5 > R10 > R11,
    column strata F with S1 < ... < S5 < S7 < ... < S10 and S4 < S6 < S7,
    and the involution pairing R1-R15, R2-S8, R11-S4, S2-S9."""

    SIGMA = {"R1": "R15", "R15": "R1", "R2": "S8", "S8": "R2",
             "R11": "S4", "S4": "R11", "S2": "S9", "S9": "S2"}
    SPECIAL = ("R7", "S5")

    @classmethod
    def sigma(cls, x):
        return cls.SIGMA.get(x, x)


# the word alphabet: everything except the shadow elements R10, S6
ALPHABET = ("R1", "R2", "R5", "R7", "R11", "R13", "R15",
            "S1", "S2", "S3", "S4", "S5", "S7", "S8", "S9", "S10")


def _tilde_ok(x, y):
    if x == y:
        return x in SemiChainBunch.SPECIAL
    return SemiChainBunch.sigma(x) == y


def _dash_ok(x, y):
    return x.startswith("R") != y.startswith("R")


class XWord:
    """An alternating word x1 r2 x2 ... rn xn in the strata alphabet,
    with rels[k] in {'~', '-'} between letters[k] and letters[k+1].
    Cyclic words additionally close up with letters[-1] ~ letters[0]."""

    def __init__(self, letters, rels, cyclic=False):
        self.letters = tuple(letters)
        self.rels = tuple(rels)
        self.cyclic = bool(cyclic)
        n = len(self.letters)
        if n == 0:
            raise ValueError("empty word")
        if len(self.rels) != n - 1:
            raise ValueError("need one relation between consecutive letters")
        for x in self.letters:
            if x not in ALPHABET:
                raise ValueError(f"letter {x!r} is not in the alphabet")
        for r in self.rels:
            if r not in ("~", "-"):
                raise ValueError(f"bad relation {r!r}")
        for k in range(1, n):
            x, y, r = self.letters[k - 1], self.letters[k], self.rels[k - 1]
            ok = _tilde_ok(x, y) if r == "~" else _dash_ok(x, y)
            if not ok:
                raise ValueError(f"{x} {r} {y} is not a legal step")
            if k >= 2 and self.rels[k - 1] == self.rels[k - 2]:
                raise ValueError("relations must alternate")
        if self.cyclic:
            if n < 2 or self.rels[0] != "-" or self.rels[-1] != "-":
                raise ValueError("a cyclic word starts and ends with -")
            if not _tilde_ok(self.letters[-1], self.letters[0]):
                raise ValueError("a cyclic word must close up under ~")
            if n % 2:
                raise ValueError("cyclic words have even length")

    def __repr__(self):
        body = self.letters[0]
        for r, x in zip(self.rels, self.letters[1:]):
            body += r + x
        return f"<{body}>" if self.cyclic else body

    def __eq__(self, other):
        return (isinstance(other, XWord) and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return (self.cyclic, self.letters, self.rels)

    @property
    def n(self):
        return len(self.letters)

    def is_full(self):
        if self.cyclic:
            return True
        ok = []
        for end, rel in ((0, 0), (-1, -1)):
            x = self.letters[end]
            free = SemiChainBunch.sigma(x) == x   # no partner other than x
            ok.append((self.rels and self.rels[rel] == "~") or free)
        return all(ok)

    def end_special(self, which):
        """True when the given end (0 = left, 1 = right) is an unpaired
        special letter, so it carries a delta flag.  A special letter
        absorbed into a ~ pair at the end resolves inside its cluster and
        leaves nothing to choose."""
        x = self.letters[-1 if which else 0]
        if x not in SemiChainBunch.SPECIAL:
            return False
        if self.n == 1:
            return True
        r = self.rels[-1] if which else self.rels[0]
        return r == "-"

    @property
    def kind(self):
        """'ordinary' / 'special' / 'bispecial' for full linear words."""
        if self.cyclic:
            raise ValueError("cyclic words are band words")
        if not self.is_full():
            raise ValueError("only full words are classified")
        sp = [self.end_special(0), self.end_special(1)]
        if self.n == 1:
            return "special" if sp[0] else "ordinary"
        if all(sp):
            return "bispecial"
        return "special" if any(sp) else "ordinary"

    def star(self):
        return XWord(self.letters[::-1], self.rels[::-1], cyclic=self.cyclic)

    def is_symmetric(self):
        return self.letters == self.letters[::-1] and self.rels == self.rels[::-1]

    def rotations(self, reverse=False):
        """The letters of each shift of this cyclic word (of its star, with
        reverse), the unshifted word first.  A shift moves an even number
        of letters, so it keeps the relations -~-...- of a cyclic word,
        which its star shares; only the letters rotate."""
        if not self.cyclic:
            raise ValueError("only cyclic words shift")
        x = self.letters[::-1] if reverse else self.letters
        return [x[s:] + x[:s] for s in range(0, self.n, 2)]

    def is_aperiodic(self):
        return self.letters not in self.rotations()[1:]

    def is_shift_symmetric(self):
        return any(x == x[::-1] for x in self.rotations())


class StringDatum5:
    """An ordinary word, a (special word, delta), or a
    (bispecial word, delta1, delta2, m).

    Single-letter words at sigma-fixed letters are admitted as ordinary
    data even though they are symmetric; they are the only labels for the
    one-dimensional point summands and longer symmetric ordinary words
    still realize decomposable spaces and stay excluded."""

    def __init__(self, word, delta=None, delta2=None, m=None):
        if word.cyclic:
            raise ValueError("string data use linear words")
        kind = word.kind
        self.word = word
        self.kind = kind
        if kind == "ordinary":
            if word.n > 1 and word.is_symmetric():
                raise ValueError("ordinary string words must be non-symmetric")
            if delta is not None or delta2 is not None or m is not None:
                raise ValueError("ordinary data carry no parameters")
        elif kind == "special":
            if delta not in (0, 1) or delta2 is not None or m is not None:
                raise ValueError("special data are (word, delta)")
        else:
            if word.is_symmetric():
                raise ValueError("bispecial words must be non-symmetric")
            if delta not in (0, 1) or delta2 not in (0, 1):
                raise ValueError("bispecial data need delta1, delta2 in {0,1}")
            if not isinstance(m, int) or m < 1:
                raise ValueError("bispecial data need m >= 1")
        self.delta = delta
        self.delta2 = delta2
        self.m = m

    def __repr__(self):
        if self.kind == "ordinary":
            return f"D[{self.word!r}]"
        if self.kind == "special":
            return f"D[{self.word!r}, {self.delta}]"
        return f"D[{self.word!r}, {self.delta}, {self.delta2}, {self.m}]"

    def star(self):
        if self.kind == "bispecial":
            return StringDatum5(self.word.star(), self.delta2, self.delta,
                                self.m)
        return StringDatum5(self.word.star(), self.delta)  \
            if self.kind == "special" else StringDatum5(self.word.star())

    def key(self):
        return ("string", self.word.key(), self.delta, self.delta2, self.m)

    def canonical_key(self):
        """The lesser of the keys of the datum and of its star, the star's
        read off the reversed word."""
        w = self.word
        d1, d2 = (self.delta2, self.delta) if self.kind == "bispecial" \
            else (self.delta, self.delta2)
        star = ("string", (False, w.letters[::-1], w.rels[::-1]), d1, d2, self.m)
        return min(self.key(), star)

    def __eq__(self, other):
        return isinstance(other, StringDatum5) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class BandDatum5:
    """An aperiodic cyclic word with a primary polynomial, excluding
    pi = t^d on non-shift-symmetric words and pi = (t-1)^d on
    shift-symmetric ones."""

    def __init__(self, word, poly):
        if not word.cyclic:
            raise ValueError("band data use cyclic words")
        if not word.is_aperiodic():
            raise ValueError("band words must be aperiodic")
        self.word = word
        self.poly = poly_trim(poly)
        d = poly_deg(self.poly)
        if d < 1 or primary_root(2, self.poly) is None:
            raise ValueError("band polynomial must be primary")
        sym = word.is_shift_symmetric()
        t_pow = tuple([0] * d + [1])
        t1_pow = poly_pow(2, (1, 1), d)
        if not sym and self.poly == t_pow:
            raise ValueError("pi = t^d is excluded for this word")
        if sym and self.poly == t1_pow:
            raise ValueError("pi = (t-1)^d is excluded for this word")

    def __repr__(self):
        return f"B[{self.word!r}, {self.poly}]"

    def star(self):
        """(w*, lambda^-1 t^d pi(1/t)); defined when pi(0) != 0."""
        return BandDatum5(self.word.star(), reciprocal(2, self.poly))

    def key(self):
        return ("band", self.word.key(), self.poly)

    def canonical_key(self):
        """The least key over the word shifts of the datum and of its star;
        the shifted and starred data are valid whenever the datum is, so
        their keys are built without constructing them."""
        w = self.word
        pairs = [(w.rotations(), self.poly)]
        if self.poly[0] != 0:
            pairs.append((w.rotations(reverse=True), reciprocal(2, self.poly)))
        return min(("band", (True, x, w.rels), poly)
                   for rots, poly in pairs for x in rots)

    def __eq__(self, other):
        return isinstance(other, BandDatum5) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


# ---------------------------------------------------------------------------
# realizing data as cubic spaces
# ---------------------------------------------------------------------------

# F2 column group carrying each row stratum of the reduced matrix
_STRIPE = {"R1": 1, "R2": 2, "R5": 5, "R7": 7, "R10": 10, "R11": 11,
           "R13": 13, "R15": 15}
# F3 row group carrying each column stratum
_COLGRP = {"S1": 1, "S2": 2, "S3": 3, "S4": 4, "S5": 5, "S6": 6,
           "S7": 7, "S8": 8, "S9": 9, "S10": 10}
# column group sizes determined by each stratum's population
_SIZE_SOURCE = {1: "R1", 2: "R2", 3: "S1", 4: "S2", 5: "R5", 6: "S3",
                7: "R7", 8: "R11", 9: "S5", 10: "R10", 11: "R11",
                12: "S6", 13: "R13", 14: "S7", 15: "R1", 16: "R2",
                17: "S1", 18: "S2"}


def _word_slots(word, delta1=None, delta2=None):
    """Resolve each letter to a concrete stratum: inner special pairs use
    both elements of their cluster (R7 with R10, S5 with S6) and special
    ends pick one by delta (0 keeps the word letter, 1 takes the shadow)."""
    shadow = {"R7": "R10", "S5": "S6"}
    n = word.n
    strata = list(word.letters)
    pair_rels = [(k, k + 1) for k in range(n - 1) if word.rels[k] == "~"]
    if word.cyclic:
        pair_rels.append((n - 1, 0))
    for a, b in pair_rels:
        if strata[a] == strata[b] and strata[a] in shadow:
            strata[b] = shadow[strata[b]]
    if word.cyclic:
        return strata
    if word.end_special(0) and delta1:
        strata[0] = shadow[strata[0]]
    if n > 1 and word.end_special(1) and delta2:
        strata[-1] = shadow[strata[-1]]
    return strata


_FAMILY = {"R1": "R1R15", "R15": "R1R15", "R2": "R2S8", "S8": "R2S8",
           "R11": "R11S4", "S4": "R11S4", "S2": "S2S9", "S9": "S2S9"}


def _assemble_from_slots(slots, pairs, links, blocks):
    """slots: list of stratum names (one per node); pairs: (i, j) node
    pairs joined by ~ whose strata share one index set and must sit at
    matching positions; links: (i, j, label) with label a b x b matrix
    placed between node i's rows/cols and node j's; blocks: the common
    block size b."""
    counts = {}
    index = [None] * len(slots)
    fam_counter = {}
    for a, c in pairs:
        fam = _FAMILY.get(slots[a])
        if fam is not None and fam == _FAMILY.get(slots[c]):
            t = fam_counter.get(fam, 0)
            fam_counter[fam] = t + 1
            index[a] = index[c] = t
    for node, s in enumerate(slots):
        fam = _FAMILY.get(s)
        if index[node] is None and fam is not None:
            raise ValueError(f"unpaired occurrence of {s}")
        if index[node] is None:
            index[node] = counts.get(s, 0)
            counts[s] = counts.get(s, 0) + 1
    for s in set(slots):
        fam = _FAMILY.get(s)
        if fam is not None:
            counts[s] = fam_counter[fam]
    b = blocks
    col_groups = [b * counts.get(_SIZE_SOURCE[i], 0) for i in range(1, 19)]
    s10 = b * counts.get("S10", 0)
    row_groups = row_groups_from_cols(col_groups, s10)
    d2, d3 = sum(col_groups), sum(row_groups)
    co = np.cumsum((0,) + tuple(col_groups))
    ro = np.cumsum((0,) + tuple(row_groups))
    P = zeros(d2, d3)

    def rows_of(node):
        s = slots[node]
        off = co[_STRIPE[s] - 1] + b * index[node]
        return slice(off, off + b)

    def cols_of(node):
        s = slots[node]
        off = ro[_COLGRP[s] - 1] + b * index[node]
        return slice(off, off + b)

    for i, j, label in links:
        if slots[i].startswith("S"):
            i, j = j, i
            label = label.T.copy()
        P[rows_of(i), cols_of(j)] ^= label
    # stripe 8 mirrors stripe 11
    P[co[7]: co[8], :] = P[co[10]: co[11], :]
    return assemble_staircase(col_groups, P, extra_rows=s10)


# chain heights used to pick which neighbour of a special pair gets tied
# to both elements of the cluster: the lower one
_HEIGHT = {"R15": 0, "R13": 1, "R11": 2, "R7": 3, "R10": 3, "R5": 4,
           "R2": 5, "R1": 6,
           "S1": 0, "S2": 1, "S3": 2, "S4": 3, "S5": 4, "S6": 4,
           "S7": 5, "S8": 6, "S9": 7, "S10": 8}


def _double_lower(slots, a, b, na, nb, links, label):
    """Attach the lower of the two neighbour nodes of the cluster pair
    (a, b) to both of its slots; the word links already attach na to a
    and b to nb, so this adds the missing cross entry."""
    if na is None and nb is None:
        return
    if nb is None or (na is not None
                      and _HEIGHT[slots[na]] <= _HEIGHT[slots[nb]]):
        links.append((na, b, label))
    else:
        links.append((nb, a, label))


def realize(datum):
    """The cubic space of a string or band datum."""
    if isinstance(datum, BandDatum5):
        word = datum.word
        n = word.n
        d = poly_deg(datum.poly)
        one = eye(d)
        slots = _word_slots(word)
        links, pairs = [], []
        phi = np.array(companion_matrix(2, datum.poly), dtype=np.uint8)
        first = True
        for k in range(n - 1):
            if word.rels[k] == "-":
                links.append((k, k + 1, phi if first else one))
                first = False
        for a, b in [(k, k + 1) for k in range(n - 1)
                     if word.rels[k] == "~"] + [(n - 1, 0)]:
            if word.letters[a] in SemiChainBunch.SPECIAL \
                    and word.letters[a] == word.letters[b]:
                # around a cycle both neighbours tie to both elements of
                # the cluster, otherwise the holonomy never couples them
                links.append(((a - 1) % n, b, one))
                links.append(((b + 1) % n, a, one))
            else:
                pairs.append((a, b))
        return _assemble_from_slots(slots, pairs, links, d)
    if not isinstance(datum, StringDatum5):
        raise TypeError("expected a StringDatum5 or BandDatum5")
    word = datum.word
    n = word.n
    m = datum.m if datum.kind == "bispecial" else 1
    # per-copy delta flags at the two ends; the visible flags sit on the
    # first copy's left end and the last copy's right end, interior ends
    # alternate so that every junction crosses its cluster
    if datum.kind == "ordinary":
        ends = [(None, None)]
    elif datum.kind == "special":
        left_sp = word.end_special(0)
        ends = [(datum.delta if left_sp else None,
                 None if left_sp else datum.delta)]
    else:
        same_type = (word.letters[0][0] == word.letters[-1][0])
        ends = []
        left = datum.delta
        for t in range(m):
            right = (datum.delta2 + (m - 1 - t)) % 2
            ends.append((left, right))
            left = (1 - right) if same_type else (datum.delta + t + 1) % 2
    slots, links, pairs = [], [], []
    one = eye(1)
    for t, (d1, d2) in enumerate(ends):
        base = t * n
        slots.extend(_word_slots(word, delta1=d1, delta2=d2))
        for k in range(n - 1):
            if word.rels[k] == "-":
                links.append((base + k, base + k + 1, one))
        for k in range(n - 1):
            if word.rels[k] != "~":
                continue
            a, b = base + k, base + k + 1
            if word.letters[k] in SemiChainBunch.SPECIAL \
                    and word.letters[k] == word.letters[k + 1]:
                _double_lower(slots, a, b,
                              a - 1 if k > 0 else None,
                              b + 1 if k + 2 < n else None,
                              links, one)
            else:
                pairs.append((a, b))
        if t:
            prev = base - 1
            if slots[prev][0] != slots[base][0]:
                links.append((prev, base, one))
            else:
                if slots[prev] == slots[base]:
                    raise ValueError("junction slots collide")
                # the junction behaves like a special pair spanning the
                # two copies
                _double_lower(slots, prev, base, base - 2, base + 1,
                              links, one)
    return _assemble_from_slots(slots, pairs, links, 1)


# ---------------------------------------------------------------------------
# homomorphisms, splitting, identification
# ---------------------------------------------------------------------------


def _kron(a, b):
    a, b = a[:, None, :, None], b[None, :, None, :]
    return (a & b).reshape(a.shape[0] * b.shape[1], a.shape[2] * b.shape[3])


def hom_basis(x, y):
    """Basis of the morphisms x -> y of two representations of one quiver:
    the families (f_v : x_v -> y_v) with y_a f_s = f_t x_a for every arrow
    a from s to t, as tuples of matrices, one per vertex.

    The basis is the nullspace of the stacked Kronecker system: with f
    flattened row by row, y_a f_s = f_t x_a reads
    (y_a kron I) vec f_s = (I kron x_a^T) vec f_t.  x and y must have
    the same vertex count and the same (s, t) list of arrows, or
    ValueError is raised."""
    if len(x.dims) != len(y.dims) or [a[:2] for a in x.arrows] != [a[:2] for a in y.arrows]:
        raise ValueError("x and y are representations of different quivers")
    dims_x, dims_y = x.dims, y.dims
    nvars = [dx * dy for dx, dy in zip(dims_x, dims_y)]
    off = np.cumsum([0] + nvars)
    rows = []
    for (s, t, xa), (_, _, ya) in zip(x.arrows, y.arrows):
        block = zeros(ya.shape[0] * dims_x[s], off[-1])
        block[:, off[s]: off[s + 1]] = _kron(ya, eye(dims_x[s]))
        block[:, off[t]: off[t + 1]] ^= _kron(eye(dims_y[t]), xa.T)
        rows.append(block)
    system = np.concatenate(rows, axis=0) if rows else zeros(0, off[-1])
    null = nullspace(system)
    return [
        tuple(null[off[v]: off[v + 1], j].reshape(dims_y[v], dims_x[v])
              for v in range(len(nvars)))
        for j in range(null.shape[1])
    ]


# ---------------------------------------------------------------------------
# batches of GF(2) matrices
# ---------------------------------------------------------------------------
#
# A batch of C square matrices of size n is a uint8 stack [C, n, n] of zeros
# and ones.  _mul multiplies whole stacks, and _full_rank runs a few numpy
# operations per column over the whole batch, adding rows by xor.


def _full_rank(a):
    """Which square matrices of a batch [C, n, n] are invertible.

    Elimination without row swaps: each column takes its pivot among the
    rows not yet used and clears the column in every other row; a column
    with no unused row holding a 1 proves the matrix singular, and the
    matrices so proved leave the batch."""
    C, n = a.shape[:2]
    ok = np.zeros(C, dtype=bool)
    live = np.arange(C)
    free = np.ones((C, n), dtype=bool)
    for col in range(n):
        bit = a[:, :, col].astype(bool)
        cand = bit & free
        has = cand.any(axis=1)
        if not has.all():
            live, a, free, bit, cand = (x[has] for x in (live, a, free, bit, cand))
            if not live.size:
                return ok
        rows = np.arange(live.size)
        piv = cand.argmax(axis=1)
        free[rows, piv] = False
        bit[rows, piv] = False
        a = a ^ bit[:, :, None] * a[rows, piv][:, None, :]
    ok[live] = True
    return ok


def _stable_exponent(n):
    """r >= 1 with 2^r >= n: f^(2^r) has the stable kernel and image of an
    endomorphism f of an n-dimensional space."""
    return max(1, (n - 1).bit_length())


def _stable_power(a):
    """The power f^(2^r) of _stable_exponent of a batch [C, n, n]."""
    for _ in range(_stable_exponent(a.shape[1])):
        a = _mul(a, a)
    return a


def _invertible(batch):
    """Which morphisms of a batch (one [C, n, n] stack per component) are
    invertible in every component."""
    ok = np.ones(len(batch[0]), dtype=bool)
    for g in batch:
        live = np.flatnonzero(ok)
        ok[live] = _full_rank(g[live])
    return ok


def _mixed(batch):
    """Which endomorphisms of a batch are neither nilpotent nor invertible;
    these are exactly the ones whose Fitting decomposition splits."""
    inv = _invertible(batch)
    nilp = ~inv
    for g in batch:
        live = np.flatnonzero(nilp)
        nilp[live] = ~_stable_power(g[live]).any(axis=(1, 2))
    return ~(inv | nilp)


def _pack_basis(basis, dims):
    """A basis of square morphisms as one stack [E, n, n] per component."""
    return [np.array([f[c] for f in basis], dtype=np.uint8).reshape(len(basis), n, n)
            for c, n in enumerate(dims)]


def _first(mask):
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def invertible_element(basis, dims):
    """The first invertible element of a basis of morphisms, or None."""
    hit = _first(_invertible(_pack_basis(basis, dims))) if basis else None
    return None if hit is None else basis[hit]


# ---------------------------------------------------------------------------
# locality of an endomorphism algebra
# ---------------------------------------------------------------------------
#
# An algebra A over GF(p) is given by its structure constants on a basis
# b_1..b_E: its elements are row vectors of coordinates, mult[i, j] holds
# the coordinates of b_i b_j and one those of 1.  Every question below is
# linear algebra on E x E matrices over GF(p), and every row reduction runs
# on the one kernel _eliminate(a, p), for p = 2 and for odd p.  See Ronyai,
# "Computing the structure of finite algebras", J. Symbolic Comput. 9
# (1990), for the method.  Over GF(2), A is the span of a basis of square
# morphisms (tuples of matrices, one per component) containing the
# identity, such as a basis from hom_basis(x, x), and _structure computes
# its constants.

Locality = namedtuple("Locality", "ideal index fixed")
Locality.__doc__ = """Certificate that an algebra A over GF(p) is local.

ideal: a basis of the two-sided ideal J generated by the commutators of
the basis of A;
index: the least m with J^m = 0;
fixed: a basis of the fixed space of x -> x^p on A/J, lifted to A: one
element, congruent to a nonzero multiple of 1 mod J."""


def _flat(basis, dims):
    """The basis as rows [E, sum n^2]: each component flattened row by row."""
    return np.array([np.concatenate([f[c].reshape(-1) for c in range(len(dims))])
                     for f in basis], dtype=np.uint8).reshape(len(basis), -1)


def _elements(coords, flat, dims):
    """The morphisms with the given rows of coordinates."""
    off = np.cumsum([0] + [n * n for n in dims])
    return [tuple(v[off[c]: off[c + 1]].reshape(n, n) for c, n in enumerate(dims))
            for v in _mul(coords, flat)]


def _row_basis(rows, p):
    """A basis of the row span over GF(p): the nonzero rows of the reduced
    form."""
    r, piv = _eliminate(rows, p)
    return r[: len(piv)]


def _structure(flat, dims):
    """(mult, one): coordinates of every product b_i b_j and of 1.

    x = c flat has x[piv] = c flat[:, piv] at E pivot positions where the
    basis rows are independent, so only those entries of each product are
    computed."""
    E = len(flat)
    piv = np.array(pivot_columns(flat), dtype=np.int64)
    at_piv = np.zeros((E, E, E), dtype=np.int64)
    one = np.zeros(E, dtype=np.int64)
    off = 0
    for n in dims:
        sel = np.flatnonzero((piv >= off) & (piv < off + n * n))
        if sel.size:
            r, s = np.divmod(piv[sel] - off, n)
            m = flat[:, off: off + n * n].reshape(E, n, n).astype(np.int64)
            at_piv[:, :, sel] = np.einsum("ipt,jtp->ijp", m[:, r, :], m[:, :, s])
            one[sel] = r == s
        off += n * n
    g = inverse(flat[:, piv]).astype(np.int64)
    return (at_piv @ g & 1).astype(np.uint8), (one @ g & 1).astype(np.uint8)


def _dot(a, b, p):
    """a @ b over GF(p), as a float64 product, which numpy hands to BLAS;
    exact while no sum comes near 2^53, and on int64 past that."""
    if a.shape[-1] * (p - 1) ** 2 < 2 ** 53:
        out = a.astype(np.float64) @ b.astype(np.float64) % p
    else:
        out = a.astype(np.int64) @ b.astype(np.int64) % p
    return out.astype(np.uint8 if p == 2 else np.int64)


def _commutator_ideal(mult, p):
    """Row basis of the two-sided ideal J = A C A generated by the
    commutators C of basis elements.  A contains 1, so A C is spanned by
    the products b_l c, and (A C) A by the products y b_l."""
    E = len(mult)
    commutators = (mult + (p - 1) * mult.transpose(1, 0, 2)) % p
    ideal = _row_basis(commutators.reshape(-1, E), p)
    for side in (mult.transpose(1, 0, 2), mult):     # b_l y, then y b_l
        ideal = _row_basis(_dot(ideal, side.reshape(E, -1), p).reshape(-1, E), p)
    return ideal


def _nilpotency_index(ideal, mult, p):
    """The least m with J^m = 0, or None when J is not nilpotent: the
    powers J^(k+1) = J^k J shrink until they are 0 or stop shrinking."""
    E = len(mult)
    power, m = ideal, 1
    while len(power):
        by_basis = _dot(power, mult.reshape(E, -1), p).reshape(-1, E, E)   # x b_j
        nxt = _row_basis(_dot(ideal, by_basis, p).reshape(-1, E), p)
        if len(nxt) == len(power):
            return None
        power, m = nxt, m + 1
    return m


def _frobenius(mult, p):
    """Rows b_i^p: b_i^2 = mult[i, i], then the right multiplications
    y -> y b_i, the matrices mult[:, i], raised to the power p - 2 by
    squaring."""
    E = len(mult)
    right = mult.transpose(1, 0, 2)
    power = right[np.arange(E), np.arange(E)]
    n = p - 2
    while n:
        if n & 1:
            power = np.einsum("ij,ijk->ik", power.astype(np.int64), right) % p
        n >>= 1
        if n:
            right = np.matmul(right.astype(np.int64), right) % p
    return power


def _fitting_idempotent(a, mult, one, p):
    """The idempotent e with A e = A a^N, N >= E, when a is neither
    nilpotent nor invertible, else None.

    y -> y a^N is the power of y -> y a at which Fitting's lemma splits A
    into the left ideals A a^N and {y : y a^N = 0}; both are nonzero
    exactly for such a.  The part e of 1 = e + f in A a^N is then an
    idempotent other than 0 and 1."""
    E = len(mult)
    power = np.tensordot(np.asarray(a, dtype=np.int64), mult, axes=([0], [1])) % p
    for _ in range(max(1, (E - 1).bit_length())):
        power = _dot(power, power, p)
    image = _row_basis(power, p)
    if len(image) in (0, E):
        return None
    kernel = nullspace(power.T, p).T
    # c image + d kernel + t one = 0 has one solution up to scale, t != 0
    sol = nullspace(np.vstack([image, kernel, one[None]]).T, p)[:, 0].astype(np.int64)
    return -pow(int(sol[-1]), -1, p) * sol[: len(image)] @ image.astype(np.int64) % p


def _idempotent_search(mult, one, p):
    """A nontrivial idempotent of an algebra proved not local.  Seeded
    random elements are tried.  A/rad A has a factor M_k(GF(q)) with
    k >= 2, and an element whose image there is singular but not nilpotent
    qualifies: at least 1/q - 1/q^2 of all elements."""
    rng = np.random.default_rng(0)
    while True:
        e = _fitting_idempotent(rng.integers(0, p, len(mult)), mult, one, p)
        if e is not None:
            return e


def local_algebra(mult, one, p):
    """Decide whether the algebra A over GF(p) with structure constants
    (mult, one) is local, that is every element is nilpotent or
    invertible.  Returns (True, (ideal, index, fixed)), the rows of a
    Locality in coordinates, when it is, else (False, e) with e the
    coordinates of an idempotent other than 0 and 1.

    1. J, the ideal generated by the commutators of the basis, is built.
       If J is not nilpotent, A is not local: a local A has a field as
       A/rad A, so its commutators lie in the nilpotent ideal rad A.  An
       idempotent is then found by _idempotent_search.
    2. Otherwise A/J is commutative, so x -> x^p is linear on it; its
       fixed vectors x are the sums of c_i times the primitive idempotents
       of A/J, c_i in GF(p).  J lies in rad A, so A is local iff A/J is,
       iff that fixed space is span{1}.
    3. Any other fixed x has two different values c_i, so x - c is neither
       nilpotent nor invertible for c one of them, and its Fitting
       idempotent (_fitting_idempotent) splits A."""
    E = len(mult)
    ideal = _commutator_ideal(mult, p)
    index = _nilpotency_index(ideal, mult, p)
    if index is None:
        return False, _idempotent_search(mult, one, p)
    quot, section = _quotient(ideal, E, p)
    frob = _dot(_dot(quot, _frobenius(mult, p).T, p), section, p)
    fixed = nullspace((frob + (p - 1) * np.eye(len(frob), dtype=np.int64)) % p, p)
    lifts = _dot(section, fixed, p).T
    if len(lifts) == 1:
        return True, (ideal, index, lifts)
    one_bar = _dot(quot, one[:, None], p)[:, 0]
    k = int(np.flatnonzero(one_bar)[0])
    # a fixed vector that is not a multiple of 1
    x = next(x for x, v in zip(lifts, fixed.T)
             if ((v.astype(np.int64) * int(one_bar[k]) - int(v[k]) * one_bar) % p).any())
    for c in range(p):
        e = _fitting_idempotent((x.astype(np.int64) - c * one) % p, mult, one, p)
        if e is not None:
            return False, e


def _locality(basis, dims):
    """Decide whether the algebra A over GF(2) with this basis of square
    morphisms is local, that is every element is nilpotent or invertible.
    Returns (True, Locality) when it is, else (False, f) with f an element
    that is neither.

    The basis elements are screened for one that is neither, in one batch;
    then local_algebra decides on the structure constants, with a
    nontrivial idempotent as f when A is not local."""
    if len(basis) == 1:                   # A = GF(2) 1, a field
        return True, Locality([], 1, list(basis))
    hit = _first(_mixed(_pack_basis(basis, dims)))
    if hit is not None:
        return False, basis[hit]
    flat = _flat(basis, dims)
    local, got = local_algebra(*_structure(flat, dims), 2)
    if not local:
        return False, _elements(got[None], flat, dims)[0]
    ideal, index, fixed = got
    return True, Locality(_elements(ideal, flat, dims), index,
                          _elements(fixed, flat, dims))


# ---------------------------------------------------------------------------
# isomorphism and splitting of representations
# ---------------------------------------------------------------------------


def find_isomorphism(x, y):
    """An isomorphism x -> y, or None.  A returned map is always invertible;
    None proves x and y non-isomorphic whenever x or y is indecomposable.

    The rule: let y be indecomposable and phi: x -> y an isomorphism.  End y
    is local, so the maps x -> y that are not isomorphisms are
    rad(End y) phi, a proper linear subspace of Hom(x, y), and every basis
    of Hom(x, y) has an invertible element (likewise when x is
    indecomposable).  So the basis elements are tested for invertibility in
    one batch (invertible_element) and the first invertible one is
    returned.  decompose meets the hypothesis: every part that reaches
    identify was certified indecomposable by split_indecomposable.
    match_summands decides any pair."""
    if x.dims != y.dims:
        return None
    basis = hom_basis(x, y)
    if not basis:
        return None if sum(x.dims) else ()
    return invertible_element(basis, x.dims)


def split_indecomposable(x):
    """Either (None, certificate) where x is indecomposable, or the two
    summands of a Fitting split of x, each as a pair (inc, part): part is
    the summand and the columns of inc[v] are its basis at vertex v, so
    x_a inc[s] = inc[t] part_a for every arrow a from s to t.

    The rule: x is indecomposable iff its endomorphism algebra is local,
    that is every endomorphism is nilpotent or invertible; an endomorphism
    f that is neither splits x by Fitting's lemma into the kernel and the
    image of its stable power f^(2^r).  _locality decides this by linear
    algebra on a basis of End, and the certificate is its Locality: the
    commutator ideal J of End, its nilpotency index and the fixed space of
    squaring on End/J."""
    if sum(x.dims) == 0:
        raise ValueError("the zero space has no summands")
    local, g = _locality(hom_basis(x, x), x.dims)
    if local:
        return None, g
    g = tuple(_stable_power(m[None])[0] for m in g)
    return tuple((inc, x.restrict(*inc)) for inc in (tuple(nullspace(m) for m in g),
                                                     tuple(column_space(m) for m in g)))


def indecomposable_summands(x):
    """All indecomposable direct summands of x, by repeated Fitting splits,
    as pairs (inc, part) as in split_indecomposable; the inclusions inc[v]
    side by side form an invertible matrix at every vertex v."""
    if sum(x.dims) == 0:
        return []
    first, second = split_indecomposable(x)
    if first is None:
        return [(tuple(eye(n) for n in x.dims), x)]
    return [(tuple(_mul(i, j) for i, j in zip(inc, sub)), part)
            for inc, half in (first, second)
            for sub, part in indecomposable_summands(half)]


def match_summands(x, y):
    """An isomorphism x -> y assembled from an isomorphism of each
    indecomposable summand of x onto its own summand of y, or None when
    some summand of x has no isomorphic partner left: then x and y are not
    isomorphic (Krull-Schmidt).  The summands are indecomposable, so
    find_isomorphism decides each pair."""
    if x.dims != y.dims:
        return None
    xs, free = indecomposable_summands(x), indecomposable_summands(y)
    pairs = []
    for inc, part in xs:
        for k, (inc_y, part_y) in enumerate(free):
            phi = find_isomorphism(part, part_y)
            if phi is not None:
                break
        else:
            return None
        del free[k]
        pairs.append((inc, tuple(_mul(j, f) for j, f in zip(inc_y, phi))))
    side = lambda v, n, k: np.hstack([zeros(n, 0)] + [pair[k][v] for pair in pairs])
    return tuple(_mul(side(v, n, 1), inverse(side(v, n, 0))) for v, n in enumerate(x.dims))


# ---------------------------------------------------------------------------
# identification: which datum a given indecomposable space realizes
# ---------------------------------------------------------------------------

# units a word is built from: sigma pairs (joined by ~) and end singles
_PAIR_UNITS = (
    ("R1", "R15"), ("R15", "R1"), ("R2", "S8"), ("S8", "R2"),
    ("R11", "S4"), ("S4", "R11"), ("S2", "S9"), ("S9", "S2"),
    ("R7", "R10"), ("R10", "R7"), ("S5", "S6"), ("S6", "S5"),
)
# letter-level units for linear words: sigma pairs in both orders, the
# special pairs, and the letters allowed at a bare word end
_LETTER_PAIRS = (
    ("R1", "R15"), ("R15", "R1"), ("R2", "S8"), ("S8", "R2"),
    ("R11", "S4"), ("S4", "R11"), ("S2", "S9"), ("S9", "S2"),
    ("R7", "R7"), ("S5", "S5"),
)
_END_LETTERS = ("R5", "R13", "S1", "S3", "S7", "S10", "R7", "S5")


def _letter_of(stratum):
    return {"R10": "R7", "S6": "S5"}.get(stratum, stratum)


def _spend(budget, *strata):
    out = dict(budget)
    for s in strata:
        out[s] = out.get(s, 0) - 1
        if out[s] < 0:
            return None
    return out


def _linear_word(units):
    """(letters, rels) of the linear word on the given units: pairs of
    letters joined by ~ and single letters, consecutive units joined by -."""
    letters, rels = [], []
    for u in units:
        if letters:
            rels.append("-")
        letters.append(u[0])
        if len(u) == 2:
            rels.append("~")
            letters.append(u[1])
    return letters, rels


def _cyclic_word(pairs):
    """(letters, rels) of the cyclic word on the given cycle of pair units
    in the standard presentation: it starts inside the first pair, so that
    the pair's ~ closes the word, and joins consecutive pairs by -."""
    letters = [_letter_of(pairs[0][1])]
    rels = []
    for a, b in pairs[1:]:
        rels += ["-", "~"]
        letters += [_letter_of(a), _letter_of(b)]
    rels.append("-")
    letters.append(_letter_of(pairs[0][0]))
    return letters, rels


def _linear_words(budget):
    """All full linear words whose letter usage equals the budget exactly
    (cluster letters merged: R10 counts as R7, S6 as S5), as
    (letters, rels) lists."""
    results = []

    def extend(units, budget):
        if all(v == 0 for v in budget.values()):
            results.append(_linear_word(units))
            return
        if len(units[-1]) == 1 and len(units) > 1:
            return                       # a non-initial single must be last
        prev = units[-1][-1]
        for pair in _LETTER_PAIRS:
            if not _dash_ok(prev, pair[0]):
                continue
            left = _spend(budget, *pair)
            if left is not None:
                extend(units + [pair], left)
        for letter in _END_LETTERS:
            if not _dash_ok(prev, letter):
                continue
            left = _spend(budget, letter)
            if left is not None and all(v == 0 for v in left.values()):
                extend(units + [(letter,)], left)

    for letter in _END_LETTERS:
        left = _spend(budget, letter)
        if left is not None:
            extend([(letter,)], left)
    for pair in _LETTER_PAIRS:
        left = _spend(budget, *pair)
        if left is not None:
            extend([pair], left)
    return results


def _cyclic_words(budget):
    """All cyclic words whose slot usage equals the budget, as
    (letters, rels) in the standard presentation."""
    results = []

    def extend(pairs, budget):
        if all(v == 0 for v in budget.values()):
            if pairs and _dash_ok(pairs[-1][1], pairs[0][0]):
                results.append(_cyclic_word(pairs))
            return
        for pair in _PAIR_UNITS:
            if pairs and not _dash_ok(pairs[-1][1], pair[0]):
                continue
            left = _spend(budget, *pair)
            if left is not None:
                extend(pairs + [pair], left)

    extend([], dict(budget))
    return results


def _strata_budget(space):
    """Exact slot counts of all strata, from the staircase of the space."""
    sb = six_block_split(space.h, space.p)
    c, rg = staircase_H(_mul(space.h1, sb.basis2), sb.v)
    return {
        "R1": c[0], "R2": c[1], "S1": c[2], "S2": c[3], "R5": c[4],
        "S3": c[5], "R7": c[6], "R11": c[7], "S5": c[8], "R10": c[9],
        "S6": c[11], "R13": c[12], "S7": c[13], "S10": rg[9],
        "R15": c[14], "S8": c[1], "S4": c[7], "S9": c[3],
    }, sb.u[5]


def _candidate_data(budget):
    """Every string/band datum whose realization has the given strata
    slot counts, ordered by canonical key."""
    cands = []
    letter_budget = {}
    for s, v in budget.items():
        if v:
            x = _letter_of(s)
            letter_budget[x] = letter_budget.get(x, 0) + v
    positive = [v for v in budget.values() if v]
    lpositive = list(letter_budget.values())
    ldivisors = [d for d in range(1, (min(lpositive) if lpositive else 0) + 1)
                 if all(v % d == 0 for v in lpositive)]
    for m in ldivisors:
        base = {k: v // m for k, v in letter_budget.items()}
        for letters, rels in _linear_words(base):
            try:
                word = XWord(letters, rels)
                kind = word.kind
            except ValueError:
                continue
            opts = []
            if kind == "ordinary":
                if m == 1:
                    opts = [()]
            elif kind == "special":
                if m == 1:
                    opts = [(0,), (1,)]
            else:
                opts = [(a, b, m) for a in (0, 1) for b in (0, 1)]
            for args in opts:
                try:
                    cands.append(StringDatum5(word, *args))
                except ValueError:
                    continue
    divisors = [d for d in range(1, (min(positive) if positive else 0) + 1)
                if all(v % d == 0 for v in positive)]
    for d in divisors:
        base = {k: v // d for k, v in budget.items()}
        polys = primary_polys(2, d)
        shifted = set()      # a shift of an earlier word gives the same keys
        for letters, rels in _cyclic_words(base):
            if tuple(letters) in shifted:
                continue
            try:
                word = XWord(letters, rels, cyclic=True)
            except ValueError:
                continue
            rotations = word.rotations()
            shifted.update(rotations)
            if word.letters in rotations[1:]:
                continue                     # periodic
            for pi in polys:
                try:
                    cands.append(BandDatum5(word, pi))
                except ValueError:
                    continue
    seen, out = set(), []
    for key, c in sorted(((c.canonical_key(), c) for c in cands),
                         key=lambda kc: kc[0]):
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def _composites(space):
    """Composite maps along the cycle F1 -h-> F2 -h1-> F3 -p1-> F2 -p-> F1,
    the ones that tell most candidates of a budget apart first.  Their
    ranks are isomorphism invariants."""
    p1h1h = mats(space.p1, space.h1, space.h)
    pp1h1h = _mul(space.p, p1h1h)
    yield pp1h1h
    yield space.p1
    pp1 = _mul(space.p, space.p1)
    yield pp1
    yield _mul(pp1h1h, space.p)
    yield p1h1h
    hpp1h1 = mats(space.h, pp1, space.h1)
    yield _mul(hpp1h1, space.h)
    yield hpp1h1


def identify(space):
    """The datum realizing a given indecomposable space (no trivial or
    F1-point part), up to the allowed symmetries.

    Each candidate of the space's strata budget is realized; one whose
    dims or _composites ranks differ from the space's is not isomorphic
    to it, and find_isomorphism decides the others."""
    budget, points = _strata_budget(space)
    if points:
        raise ValueError("space contains F1-point summands")
    ranks = [rank(m) for m in _composites(space)]
    for cand in _candidate_data(budget):
        try:
            rs = realize(cand)
        except ValueError:
            continue
        if rs.dims != space.dims:
            continue
        if any(rank(m) != r for m, r in zip(_composites(rs), ranks)):
            continue
        if find_isomorphism(rs, space) is not None:
            return cand
    raise ValueError("no string or band datum matches this space")


class DecomposeReport:
    """Trivial multiplicity, F1-point multiplicity and the multiset of
    string/band data of a cubic space."""

    def __init__(self, trivial, points, data, dims):
        self.trivial = trivial
        self.points = points
        self.data = sorted(data, key=lambda d: d.canonical_key())
        self.dims = dims

    def keys(self):
        return tuple(d.canonical_key() for d in self.data)

    def summand_dims(self):
        out = [(0, 2, 2)] * self.trivial + [(1, 0, 0)] * self.points
        out += [realize(d).dims for d in self.data]
        return out

    def __repr__(self):
        return (f"DecomposeReport(trivial={self.trivial}, "
                f"points={self.points}, data={self.data})")

    def __eq__(self, other):
        return (isinstance(other, DecomposeReport)
                and self.trivial == other.trivial
                and self.points == other.points
                and self.keys() == other.keys())


def decompose(space):
    mult, reduced = split_trivial(space)
    points = 0
    data = []
    parts = [part for _, part in indecomposable_summands(reduced)]
    for part in parts:
        if part.dims == (1, 0, 0):
            points += 1
        else:
            data.append(identify(part))
    # identify only returns a datum whose realization has the part's dims
    dims = [(0, 2, 2)] * mult + [part.dims for part in parts]
    got = tuple(map(sum, zip(*dims))) if dims else (0, 0, 0)
    if got != space.dims:
        raise ValueError("decomposition lost dimensions: internal error")
    return DecomposeReport(mult, points, data, space.dims)


def random_space(rng, max_dim=12, trivial=True):
    """A random cubic space: a random admissible staircase instance plus
    optional trivial and F1-point summands, in a random basis."""
    while True:
        # sparse group sizes keep the rejection rate low for small max_dim
        r = [0] * 14
        for j in rng.choice(14, size=int(rng.integers(1, 5)), replace=False):
            r[int(j)] = int(rng.integers(1, 3))
        r += r[0:4]
        r[10] = r[7]
        s10 = int(rng.integers(0, 2))
        pts = int(rng.integers(0, 2))
        t = int(rng.integers(0, 2)) if trivial else 0
        rg = row_groups_from_cols(r, s10)
        P = random_block_matrix(rng, check_col_groups(r), rg)
        sp = assemble_staircase(r, P, extra_rows=s10, points=pts)
        for _ in range(t):
            sp = sp.direct_sum(trivial_space())
        if 0 < sum(sp.dims) <= max_dim:
            break
    return sp.conjugate(*(random_invertible(rng, n) for n in sp.dims))


def random_string_datum(rng, max_units=3, max_m=3):
    """A random valid string datum built from a random full word."""
    while True:
        k = int(rng.integers(1, max_units + 1))
        units = []
        for i in range(k):
            if i > 1 and len(units[-1]) == 1:
                break                     # a non-initial single must be last
            prev = units[-1][-1] if units else None
            cand = [p for p in _LETTER_PAIRS
                    if prev is None or _dash_ok(prev, p[0])]
            if i in (0, k - 1):
                cand += [(x,) for x in _END_LETTERS
                         if prev is None or _dash_ok(prev, x)]
            if not cand:
                break
            units.append(cand[int(rng.integers(len(cand)))])
        else:
            try:
                word = XWord(*_linear_word(units))
                kind = word.kind
                if kind == "ordinary":
                    return StringDatum5(word)
                if kind == "special":
                    return StringDatum5(word, int(rng.integers(2)))
                return StringDatum5(word, int(rng.integers(2)),
                                    int(rng.integers(2)),
                                    int(rng.integers(1, max_m + 1)))
            except ValueError:
                continue


def random_band_datum(rng, max_pairs=3, max_deg=2):
    """A random valid band datum."""
    while True:
        k = int(rng.integers(1, max_pairs + 1))
        pairs = []
        ok = True
        for i in range(k):
            cand = [p for p in _PAIR_UNITS
                    if not pairs or _dash_ok(pairs[-1][1], p[0])]
            if i == k - 1:
                cand = [p for p in cand if _dash_ok(p[1], pairs[0][0])] \
                    if pairs else cand
            if not cand:
                ok = False
                break
            pairs.append(cand[int(rng.integers(len(cand)))])
        if not ok or not _dash_ok(pairs[-1][1], pairs[0][0]):
            continue
        try:
            word = XWord(*_cyclic_word(pairs), cyclic=True)
        except ValueError:
            continue
        if not word.is_aperiodic():
            continue
        d = int(rng.integers(1, max_deg + 1))
        polys = primary_polys(2, d)
        rng.shuffle(polys)
        for pi in polys:
            try:
                return BandDatum5(word, pi)
            except ValueError:
                continue
