"""Cubic diagrams of vector spaces over GF(2).

A cubic space is a diagram

    F1  <--p--/--h-->  F2  <--p_i--/--h_i-->  F3      (i = 1, 2)

subject to the char-2 relation list (see CubicSpace2.verify).  The module
provides the classification pipeline of the source paper over GF(2):
splitting off the multiplicity of the trivial diagram, the six-block
normal form of the (h, p) pair, the staircase form of h1, the word calculus
over the bunch of semichains, and realize / decompose as mutually inverse
constructions (strings, bands and the trivial diagram).

Matrices are uint8 arrays of zeros and ones.  Hom spaces, of cubic spaces
and of modules over free algebras alike, are nullspaces of one Kronecker
system (_intertwiners), and the deciders test their elements at once on
bit-packed rows.  Two facts about an indecomposable finite-dimensional
object (Auslander-Reiten-Smalo, Representation Theory of Artin Algebras)
make the deciders exact:

- its endomorphism algebra is local: every endomorphism is nilpotent or
  invertible.  split_indecomposable and wildness.indecomposable_mod2 share
  one search for an element that is neither (_mixed_element), which
  splits the object by Fitting's lemma;
- if x or y is indecomposable and x ~ y, the maps x -> y that are not
  isomorphisms form a proper subspace of Hom(x, y), so every basis of
  Hom(x, y) has an invertible element.  find_isomorphism tests the basis
  elements only, and its None is a proof under that hypothesis.

Band polynomials come from polys.py.
"""

import numpy as np

from .polys import (
    companion_matrix, poly_deg, poly_pow, poly_trim, primary_polys,
    primary_root, reciprocal,
)


# ---------------------------------------------------------------------------
# dense GF(2) linear algebra on uint8 arrays
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


def _eliminate(a):
    """Row echelon form (fully reduced).  Returns (R, pivot_columns)."""
    r = np.array(a, dtype=np.uint8, copy=True)
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
        col = r[:, c].copy()
        col[lead] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            r[nz] ^= r[lead][None, :]
        piv.append(c)
        lead += 1
        if lead == rows:
            break
    return r, piv


def rank(a):
    if min(a.shape) == 0:
        return 0
    return len(_eliminate(a)[1])


def nullspace(a):
    """Columns form a basis of {x : a x = 0}."""
    cols = a.shape[1]
    if cols == 0:
        return zeros(0, 0)
    r, piv = _eliminate(a)
    is_free = np.ones(cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    out = zeros(cols, free.size)
    out[free, np.arange(free.size)] = 1
    out[piv] = r[: len(piv), free]
    return out


def solve(a, b):
    """Any X with a X = b, or None."""
    cols = a.shape[1]
    b = np.asarray(b, dtype=np.uint8)
    if b.ndim == 1:
        b = b[:, None]
    aug = np.concatenate([a, b], axis=1)
    r, piv = _eliminate(aug)
    if piv and piv[-1] >= cols:
        return None
    x = zeros(cols, b.shape[1])
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
    _, piv = _eliminate(a)
    return a[:, piv]


def intersect_columns(a, b):
    """Basis of (col span a) ∩ (col span b)."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return zeros(a.shape[0], 0)
    k = nullspace(np.concatenate([a, b], axis=1))
    return column_space(_mul(a, k[: a.shape[1]]))


def extend_basis(inner, ambient):
    """Columns of `ambient` that extend the independent set `inner`."""
    both = np.concatenate([inner, ambient], axis=1)
    _, piv = _eliminate(both)
    extra = [c - inner.shape[1] for c in piv if c >= inner.shape[1]]
    return ambient[:, extra]


def quotient_map(span, dim):
    """A map F -> F/span as a matrix whose kernel is exactly the span,
    together with a section (columns completing span to a basis)."""
    comp = extend_basis(span, eye(dim))
    full = np.concatenate([span, comp], axis=1)
    inv = inverse(full)
    return inv[span.shape[1]:], comp


def reduce_mod(vecs, span, dim):
    """Project columns of vecs into a fixed complement of the span."""
    if span.shape[1] == 0:
        return np.array(vecs, copy=True)
    qm, comp = quotient_map(span, dim)
    return _mul(comp, _mul(qm, vecs))


# ---------------------------------------------------------------------------
# cubic spaces
# ---------------------------------------------------------------------------


class CubicSpace2:
    """A char-2 cubic diagram: spaces F1, F2, F3 with maps
    h: F1->F2, p: F2->F1, h_i: F2->F3, p_i: F3->F2."""

    def __init__(self, h, p, h1, h2, p1, p2, check=True):
        self.h = np.asarray(h, dtype=np.uint8)
        self.p = np.asarray(p, dtype=np.uint8)
        self.h1 = np.asarray(h1, dtype=np.uint8)
        self.h2 = np.asarray(h2, dtype=np.uint8)
        self.p1 = np.asarray(p1, dtype=np.uint8)
        self.p2 = np.asarray(p2, dtype=np.uint8)
        self.d1 = self.h.shape[1]
        self.d2 = self.h.shape[0]
        self.d3 = self.h1.shape[0]
        shapes = {
            "h": (self.d2, self.d1), "p": (self.d1, self.d2),
            "h1": (self.d3, self.d2), "h2": (self.d3, self.d2),
            "p1": (self.d2, self.d3), "p2": (self.d2, self.d3),
        }
        for name, want in shapes.items():
            if getattr(self, name).shape != want:
                raise ValueError(f"{name} must be {want}")
        if check:
            bad = [name for name, ok in self.verify().items() if not ok]
            if bad:
                raise ValueError("cubic relations fail: " + "; ".join(bad))

    @property
    def dims(self):
        return (self.d1, self.d2, self.d3)

    def verify(self):
        """Exact relation checks; returns {relation name: bool}."""
        h, p, h1, h2, p1, p2 = self.h, self.p, self.h1, self.h2, self.p1, self.p2
        # shared subproducts: h1 h = h2 h iff (h1 + h2) h = 0, and
        # p1 h1 p1 = p1 (h1 p1), so 21 products check all 12 relations
        hp = _mul(h, p)
        h1p1, h2p2 = _mul(h1, p1), _mul(h2, p2)
        x, y = _mul(h1p1, h2p2), _mul(h2p2, h1p1)
        lhs7 = _mul(h1, hp) ^ h1 ^ h2
        rhs7 = _mul(x, h1) ^ _mul(y, h2)
        lhs8 = _mul(hp, p1) ^ p1 ^ p2
        rhs8 = _mul(p1, y) ^ _mul(p2, x)
        return {
            "h1 p2 = 0": not _mul(h1, p2).any(),
            "h2 p1 = 0": not _mul(h2, p1).any(),
            "h1 h = h2 h": not _mul(h1 ^ h2, h).any(),
            "p p1 = p p2": not _mul(p, p1 ^ p2).any(),
            "h1 p1 h1 = 0": not _mul(h1p1, h1).any(),
            "p1 h1 p1 = 0": not _mul(p1, h1p1).any(),
            "h2 p2 h2 = 0": not _mul(h2p2, h2).any(),
            "p2 h2 p2 = 0": not _mul(p2, h2p2).any(),
            "h p h = 0": not _mul(hp, h).any(),
            "p h p = 0": not _mul(p, hp).any(),
            "(h1 h) p + h1 + h2 = h1p1h2p2h1 + h2p2h1p1h2": not (lhs7 ^ rhs7).any(),
            "h (p p1) + p1 + p2 = p1h2p2h1p1 + p2h1p1h2p2": not (lhs8 ^ rhs8).any(),
        }

    def direct_sum(self, other):
        def blk(a, b):
            out = zeros(a.shape[0] + b.shape[0], a.shape[1] + b.shape[1])
            out[: a.shape[0], : a.shape[1]] = a
            out[a.shape[0]:, a.shape[1]:] = b
            return out

        return CubicSpace2(
            blk(self.h, other.h), blk(self.p, other.p),
            blk(self.h1, other.h1), blk(self.h2, other.h2),
            blk(self.p1, other.p1), blk(self.p2, other.p2),
            check=False,
        )

    def conjugate(self, b1, b2, b3):
        """The same space in new bases (columns of b_i are the new basis)."""
        i1, i2, i3 = inverse(b1), inverse(b2), inverse(b3)
        return CubicSpace2(
            mats(i2, self.h, b1), mats(i1, self.p, b2),
            mats(i3, self.h1, b2), mats(i3, self.h2, b2),
            mats(i2, self.p1, b3), mats(i2, self.p2, b3),
            check=False,
        )

    def restrict(self, b1, b2, b3):
        """The subspace spanned by the given column bases (must be a
        subdiagram, i.e. closed under all six maps)."""
        parts = {}
        for name, mat, src, dst in (
            ("h", self.h, b1, b2), ("p", self.p, b2, b1),
            ("h1", self.h1, b2, b3), ("h2", self.h2, b2, b3),
            ("p1", self.p1, b3, b2), ("p2", self.p2, b3, b2),
        ):
            x = solve(dst, _mul(mat, src))
            if x is None:
                raise ValueError(f"subspace is not closed under {name}")
            parts[name] = x
        return CubicSpace2(parts["h"], parts["p"], parts["h1"],
                           parts["h2"], parts["p1"], parts["p2"], check=False)

    def __eq__(self, other):
        return (
            isinstance(other, CubicSpace2)
            and all(
                np.array_equal(getattr(self, n), getattr(other, n))
                for n in ("h", "p", "h1", "h2", "p1", "p2")
            )
        )


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
    bad = [name for name, ok in space.verify().items() if not ok]
    if bad:
        raise ValueError("cubic relations fail: " + "; ".join(bad))
    h1, h2, p1, p2 = space.h1, space.h2, space.p1, space.p2
    e1 = mats(h1, p1, h2, p2)
    e2 = mats(h2, p2, h1, p1)
    f1 = mats(p1, h2, p2, h1)
    f2 = mats(p2, h1, p1, h2)
    mult = rank(e1)
    for idem in (e1, e2, f1, f2):
        if (_mul(idem, idem) ^ idem).any():
            raise ValueError("trivial-part projectors fail to be idempotent")
    e0 = e1 ^ e2 ^ eye(space.d3)
    f0 = f1 ^ f2 ^ eye(space.d2)
    b3 = column_space(e0)
    b2 = column_space(f0)
    b1 = eye(space.d1)
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

    def ker_mod(mat, mod):
        if mod.shape[1] == 0:
            return nullspace(mat)
        qm, _ = quotient_map(mod, d3)
        return nullspace(_mul(qm, mat))

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
    qm2, _ = quotient_map(M2, d3) if M2.shape[1] else (eye(d3), None)
    A3, A4 = _mul(qm2, Hb[2]), _mul(qm2, Hb[3])
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
    g3 = reduce_mod(_mul(Hb[1], c6), M1, d3)
    g4 = reduce_mod(_mul(Hb[2], c8), M2, d3)
    g5 = reduce_mod(_mul(Hb[2], c9),
                    np.concatenate([M2, g4], axis=1), d3)
    g6 = reduce_mod(_mul(Hb[3], c12),
                    np.concatenate([M2, g4], axis=1), d3)
    g7 = reduce_mod(_mul(Hb[4], c14), M34, d3)
    g8 = reduce_mod(_mul(B, g2c), M5, d3)
    g9 = reduce_mod(_mul(B, g4c),
                    np.concatenate([M5, g8], axis=1), d3)
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

    @classmethod
    def parse(cls, text, cyclic=False):
        import re
        toks = re.findall(r"[RS]\d+|[~-]", text.replace(" ", ""))
        return cls(toks[0::2], toks[1::2], cyclic=cyclic)

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


def _intertwiners(dims_x, dims_y, arrows):
    """Basis of the families (f_v : x_v -> y_v) with y_a f_s = f_t x_a for
    every arrow (s, t, x_a, y_a), as tuples of matrices.

    The basis is the nullspace of the stacked Kronecker system: with f
    flattened row by row, y_a f_s = f_t x_a reads
    (y_a kron I) vec f_s = (I kron x_a^T) vec f_t."""
    nvars = [dx * dy for dx, dy in zip(dims_x, dims_y)]
    off = np.cumsum([0] + nvars)
    rows = []
    for s, t, xa, ya in arrows:
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


def hom_basis(x, y):
    """Basis of the space of morphisms x -> y, as triples (f1, f2, f3)."""
    arrows = [
        (0, 1, x.h, y.h), (1, 0, x.p, y.p),
        (1, 2, x.h1, y.h1), (1, 2, x.h2, y.h2),
        (2, 1, x.p1, y.p1), (2, 1, x.p2, y.p2),
    ]
    return _intertwiners(x.dims, y.dims, arrows)


def module_hom_basis(amats, bmats, d):
    """Basis of {U : U a_i = b_i U} for two tuples of d x d GF(2)
    matrices: the homomorphisms between the modules over a free algebra
    that the tuples define, as 1-tuples (U,)."""
    arrows = [(0, 0, a, b) for a, b in zip(amats, bmats)]
    return _intertwiners((d,), (d,), arrows)


# ---------------------------------------------------------------------------
# bit-packed batches of GF(2) matrices
# ---------------------------------------------------------------------------
#
# A batch of C matrices with r rows and c columns is a uint64 array
# [C, r, ceil(c / 64)]: column j of a row is bit j % 64 of its word j // 64.
# Adding rows is xor of words, and each function below runs a few numpy
# operations per column over the whole batch.  The deciders enumerate the
# 2^E combinations of a morphism basis in chunks of at most _CHUNK_WORDS
# words; combination i is the sum of the basis elements at the set bits of
# i (the order of _bit_matrix), so the first hit is the same in any chunking.

ENUM_BITS = 16          # the deciders enumerate at most 2^16 combinations
_CHUNK_WORDS = 1 << 18


def _bit_matrix(count, width):
    """Rows are the binary digits of 0..count-1, least significant first."""
    idx = np.arange(count, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(width, dtype=np.uint32)) & 1) \
        .astype(np.uint8)


def _pack(mats):
    """0/1 matrices [..., r, c] as packed rows [..., r, ceil(c / 64)]."""
    mats = np.asarray(mats, dtype=np.uint8)
    cols = mats.shape[-1]
    if cols % 64:
        wide = np.zeros(mats.shape[:-1] + (cols + (-cols % 64),), dtype=np.uint8)
        wide[..., :cols] = mats
        mats = wide
    words = np.packbits(mats, axis=-1, bitorder="little").view("<u8")
    return words.astype(np.uint64, copy=False)


def _column(a, j):
    """Column j of a packed batch [C, r, W], as 0/1 words [C, r]."""
    return (a[:, :, j >> 6] >> (j & 63)) & 1


def _full_rank(a):
    """Which square matrices of a packed batch [C, n, W] are invertible.

    Elimination without row swaps: each column takes its pivot among the
    rows not yet used and clears the column in every other row; a column
    with no unused row holding a 1 proves the matrix singular, and the
    matrices so proved leave the batch."""
    C, n = a.shape[:2]
    ok = np.zeros(C, dtype=bool)
    live = np.arange(C)
    free = np.ones((C, n), dtype=bool)
    for col in range(n):
        bit = _column(a, col).astype(bool)
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


def _matmul(a, b):
    """Products a[i] @ b[i] of packed batches [C, r, W'] and [C, n, W]:
    row k of a product is the sum of the rows j of b with a[i, k, j] = 1."""
    out = np.zeros(a.shape[:2] + b.shape[2:], dtype=np.uint64)
    for j in range(b.shape[1]):
        out ^= _column(a, j)[:, :, None] * b[:, j, None, :]
    return out


def _stable_exponent(n):
    """r >= 1 with 2^r >= n: f^(2^r) has the stable kernel and image of an
    endomorphism f of an n-dimensional space."""
    return max(1, (n - 1).bit_length())


def _stable_power(a):
    """The power f^(2^r) of _stable_exponent of a packed batch [C, n, W]."""
    for _ in range(_stable_exponent(a.shape[1])):
        a = _matmul(a, a)
    return a


def _combinations(basis, lo, count):
    """Combinations lo .. lo + count - 1 of a packed basis [E, r, W], in
    the order of _bit_matrix.  count is a power of two dividing lo: the
    low bits are filled in by doubling, the high ones are common."""
    out = np.empty((count,) + basis.shape[1:], dtype=np.uint64)
    out[0] = 0
    low = count.bit_length() - 1
    for e in range(low):
        out[1 << e: 2 << e] = out[: 1 << e] ^ basis[e]
    for e in range(low, len(basis)):
        if lo >> e & 1:
            out ^= basis[e]
    return out


def _invertible(batch):
    """Which morphisms of a batch (one packed [C, n, W] array per
    component) are invertible in every component."""
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
    """A basis of square morphisms as one packed [E, n, W] per component."""
    return [
        _pack(np.array([f[c] for f in basis], dtype=np.uint8)
              .reshape(len(basis), n, n))
        for c, n in enumerate(dims)
    ]


def _first(mask):
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _combination(basis, i, dims):
    """Combination i of a basis of square morphisms, unpacked."""
    out = tuple(zeros(n, n) for n in dims)
    for e, f in enumerate(basis):
        if i >> e & 1:
            out = tuple(a ^ b for a, b in zip(out, f))
    return out


def _first_combination(basis, dims, test):
    """The first combination of a basis of square GF(2) morphisms that
    passes test (_invertible or _mixed), or None.  All 2^E combinations
    are tested, in chunks of at most _CHUNK_WORDS words."""
    comps = _pack_basis(basis, dims)
    E = len(basis)
    words = max(1, sum(c.shape[1] * c.shape[2] for c in comps))
    size = 1 << min(E, max(0, (_CHUNK_WORDS // words).bit_length() - 1))
    for lo in range(0, 1 << E, size):
        hit = _first(test([_combinations(c, lo, size) for c in comps]))
        if hit is not None:
            return _combination(basis, lo + hit, dims)
    return None


# ---------------------------------------------------------------------------
# isomorphism and splitting of cubic spaces
# ---------------------------------------------------------------------------


def find_isomorphism(x, y):
    """An isomorphism x -> y, or None.  A returned map is always invertible;
    None proves x and y non-isomorphic whenever x or y is indecomposable.

    The rule: let y be indecomposable and phi: x -> y an isomorphism.  End y
    is local, so the maps x -> y that are not isomorphisms are
    rad(End y) phi, a proper linear subspace of Hom(x, y), and every basis
    of Hom(x, y) has an invertible element (likewise when x is
    indecomposable).  So the basis elements are tested for invertibility in
    one packed batch and the first invertible one is returned.  decompose
    meets the hypothesis: every part that reaches identify was certified
    indecomposable by split_indecomposable.  Cubic spaces in general are
    compared by their decompose reports."""
    if x.dims != y.dims:
        return None
    basis = hom_basis(x, y)
    if not basis:
        return None if sum(x.dims) else ()
    hit = _first(_invertible(_pack_basis(basis, x.dims)))
    return None if hit is None else basis[hit]


def _power_stable(mats_, n):
    """Component-wise power f^(2^r) with 2^r >= n."""
    out = tuple(m.copy() for m in mats_)
    for _ in range(_stable_exponent(n)):
        out = tuple(_mul(m, m) for m in out)
    return out


def _try_split(space, f):
    """Fitting decomposition along an endomorphism, or None."""
    n = sum(space.dims)
    g = _power_stable(f, n)
    kers = [nullspace(m) for m in g]
    ims = [column_space(m) for m in g]
    kdim = sum(k.shape[1] for k in kers)
    if kdim == 0 or kdim == n:
        return None
    a = space.restrict(*kers)
    b = space.restrict(*ims)
    return a, b


TOO_LARGE = "endomorphism algebra too large to certify locality"


def _mixed_element(basis, dims):
    """The first element of an endomorphism algebra, given by a basis of
    square morphisms, that is neither nilpotent nor invertible, or None
    when every element is one of the two: then the algebra is local, which
    proves the object indecomposable.

    The search screens the basis elements, then every combination when
    there are at most 2^ENUM_BITS, else the sums of two basis elements;
    when even those find nothing it raises ValueError(TOO_LARGE)."""
    comps = _pack_basis(basis, dims)
    hit = _first(_mixed(comps))
    if hit is not None:
        return basis[hit]
    E = len(basis)
    if E <= ENUM_BITS:
        return _first_combination(basis, dims, _mixed)
    left, right = np.triu_indices(E, 1)
    hit = _first(_mixed([c[left] ^ c[right] for c in comps]))
    if hit is None:
        raise ValueError(TOO_LARGE)
    return tuple(a ^ b for a, b in zip(basis[left[hit]], basis[right[hit]]))


def split_indecomposable(space):
    """Either (None, proof) where the space is indecomposable, or a pair
    of proper subdiagram summands.

    The rule: a space is indecomposable iff its endomorphism algebra is
    local, that is every endomorphism is nilpotent or invertible; an
    endomorphism that is neither splits the space by Fitting's lemma.
    _mixed_element searches End for one.  The proof is the dimension of
    End, every element of which was checked to be nilpotent or invertible;
    past the sizes _mixed_element searches this raises ValueError(TOO_LARGE)."""
    if sum(space.dims) == 0:
        raise ValueError("the zero space has no summands")
    basis = hom_basis(space, space)
    f = _mixed_element(basis, space.dims)
    return (None, len(basis)) if f is None else _try_split(space, f)


def indecomposable_summands(space):
    """All indecomposable direct summands, by repeated Fitting splits."""
    if sum(space.dims) == 0:
        return []
    got = split_indecomposable(space)
    if got[0] is None:
        return [space]
    return indecomposable_summands(got[0]) + indecomposable_summands(got[1])


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
        for letters, rels in _cyclic_words(base):
            try:
                word = XWord(letters, rels, cyclic=True)
            except ValueError:
                continue
            if not word.is_aperiodic():
                continue
            for pi in primary_polys(2, d):
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


def identify(space):
    """The datum realizing a given indecomposable space (no trivial or
    F1-point part), up to the allowed symmetries."""
    budget, points = _strata_budget(space)
    if points:
        raise ValueError("space contains F1-point summands")
    for cand in _candidate_data(budget):
        try:
            rs = realize(cand)
        except ValueError:
            continue
        if rs.dims != space.dims:
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
    parts = indecomposable_summands(reduced)
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
    return sp.conjugate(
        random_invertible(rng, sp.d1),
        random_invertible(rng, sp.d2),
        random_invertible(rng, sp.d3),
    )


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
