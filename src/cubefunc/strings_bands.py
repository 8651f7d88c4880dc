"""String and band modules over the quadruple ring, and the two-object
diagrams over Z_(2) built from words in xi and eta.

A module over the quadruple ring is the same thing as a three-term diagram
M1 <-> M2 <-> M3 with maps a1, b1, a2, b2 subject to

    a1 b1 a1 = 3 a1,   b1 a1 b1 = 3 b1,
    a2 b2 a2 = 3 a2,   b2 a2 b2 = 3 b2,
    b1 b2 = 0,         a2 a1 = 0,
    a1 b1 + b2 a2 = 3 id on M2.

String and band modules are presented over the three indecomposable
projectives by relations written with the operator table theta(i, j).

indecomposability_probe decides whether the truncation M/p^k of such a
module splits, by linear algebra and without enumeration: M/p^k is
indecomposable iff the GF(p)-algebra End(M/p^k) / (N + p End), N the null
endomorphisms, is local, which gf2.local_algebra decides over GF(p): the
same locality kernel that decides End of GF(2) representations.
"indecomposable-at-level" comes with that proof as a certificate
(gf2.Locality), "splits" with an idempotent endomorphism of M/p^k other
than 0 and 1 as a witness.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .domains import Z_HALF, Zloc, _is_prime
from . import gf2
from .matrix import LatticeSpan, Mat, _snf_mod
from .polys import companion_matrix, primary_root, reciprocal
from .presentation import FpPresentation, ModuleMorphism, compose

PARTNER = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}        # the relation ~
MERGE = {1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 6: 6}           # classes of -
NU = {frozenset({1, 2}): 1, frozenset({3, 4}): 2, frozenset({5, 6}): 3}


def same_dash(i, j):
    """The equivalence -, whose only nontrivial classes are 2-3 and 4-5."""
    return MERGE[i] == MERGE[j]


def nu(i):
    for pair, c in NU.items():
        if i in pair:
            return c
    raise ValueError(f"index {i} out of range")


class BModuleDiagram:
    """Three presented groups with the four structure maps."""

    def __init__(self, M1, M2, M3, a1, b1, a2, b2, check=True):
        self.M1, self.M2, self.M3 = M1, M2, M3
        self.a1, self.b1, self.a2, self.b2 = a1, b1, a2, b2
        self.dom = M1.dom
        if check:
            ok, report = self.verify_relations()
            if not ok:
                bad = [name for name, good in report if not good]
                raise ValueError(f"diagram relations fail: {bad}")

    @staticmethod
    def from_matrices(dom, sizes, a1, b1, a2, b2, rels=(None, None, None), check=True):
        M = [FpPresentation(dom, sizes[i], rels[i]) for i in range(3)]
        mk = lambda s, t, m: ModuleMorphism(M[s - 1], M[t - 1], m, check=check)
        return BModuleDiagram(
            M[0], M[1], M[2],
            mk(1, 2, a1), mk(2, 1, b1), mk(2, 3, a2), mk(3, 2, b2),
            check=check,
        )

    def modules(self):
        return (self.M1, self.M2, self.M3)

    def verify_relations(self):
        a1, b1, a2, b2 = self.a1, self.b1, self.a2, self.b2
        id2 = ModuleMorphism(
            self.M2, self.M2, Mat.identity(self.dom, self.M2.gens), check=False
        )
        checks = [
            ("a1 b1 a1 = 3 a1", compose(compose(a1, b1), a1) - a1.scale(3)),
            ("b1 a1 b1 = 3 b1", compose(compose(b1, a1), b1) - b1.scale(3)),
            ("a2 b2 a2 = 3 a2", compose(compose(a2, b2), a2) - a2.scale(3)),
            ("b2 a2 b2 = 3 b2", compose(compose(b2, a2), b2) - b2.scale(3)),
            ("b1 b2 = 0", compose(b1, b2)),
            ("a2 a1 = 0", compose(a2, a1)),
            ("a1 b1 + b2 a2 = 3 id2", compose(a1, b1) + compose(b2, a2) - id2.scale(3)),
        ]
        report = [(name, defect.is_zero()) for name, defect in checks]
        return all(good for _, good in report), report

    def theta(self, i, j):
        """The operator table; theta(i, j) maps level nu(i) to level nu(j)."""
        a1, b1, a2, b2 = self.a1, self.b1, self.a2, self.b2
        if (i, j) == (1, 1):
            id1 = ModuleMorphism(
                self.M1, self.M1, Mat.identity(self.dom, self.M1.gens), check=False
            )
            return id1.scale(3) - compose(b1, a1)
        if (i, j) == (2, 2):
            return compose(b1, a1)
        if (i, j) == (2, 3):
            return a1
        if (i, j) == (3, 2):
            return b1
        # indices 3 and 4 both live on level 2; 3 faces the M1 side and 4 the
        # M3 side, so their reflections are a1 b1 and its complement b2 a2
        if (i, j) == (3, 3):
            return compose(a1, b1)
        if (i, j) == (4, 4):
            return compose(b2, a2)
        if (i, j) == (4, 5):
            return a2
        if (i, j) == (5, 4):
            return b2
        if (i, j) == (5, 5):
            return compose(a2, b2)
        if (i, j) == (6, 6):
            id3 = ModuleMorphism(
                self.M3, self.M3, Mat.identity(self.dom, self.M3.gens), check=False
            )
            return id3.scale(3) - compose(a2, b2)
        raise ValueError(f"theta({i}{j}) undefined: need {i} - {j}")

    def direct_sum(self, other):
        def stack(f, g):
            return Mat.direct_sum(self.dom, [f.matrix, g.matrix])

        sizes = [a.gens + b.gens for a, b in zip(self.modules(), other.modules())]
        rels = [
            Mat.direct_sum(self.dom, [a.relations, b.relations])
            for a, b in zip(self.modules(), other.modules())
        ]
        return BModuleDiagram.from_matrices(
            self.dom, sizes,
            stack(self.a1, other.a1), stack(self.b1, other.b1),
            stack(self.a2, other.a2), stack(self.b2, other.b2),
            rels=tuple(rels), check=False,
        )

    def invariant_factors(self):
        return tuple(m.invariant_factors() for m in self.modules())


def projective_diagram(c, dom=Z_HALF):
    """The indecomposable projective generated at level c; its cyclic
    generator is the first basis vector of level c."""
    z = lambda r, co: Mat.zeros(dom, r, co)
    if c == 1:
        return BModuleDiagram.from_matrices(
            dom, (2, 1, 0),
            a1=Mat(dom, [[1, 3]]), b1=Mat(dom, [[0], [1]]),
            a2=z(0, 1), b2=z(1, 0),
        )
    if c == 2:
        return BModuleDiagram.from_matrices(
            dom, (1, 2, 1),
            a1=Mat(dom, [[0], [1]]), b1=Mat(dom, [[1, 3]]),
            a2=Mat(dom, [[1, 0]]), b2=Mat(dom, [[3], [-1]]),
        )
    if c == 3:
        return BModuleDiagram.from_matrices(
            dom, (0, 1, 2),
            a1=z(1, 0), b1=z(0, 1),
            a2=Mat(dom, [[0], [1]]), b2=Mat(dom, [[1, 3]]),
        )
    raise ValueError("component must be 1, 2 or 3")


def irreducible_torsion_free(i, dom=Z_HALF):
    """The rank-one components of the projectives, numbered 1..6."""
    z = lambda r, co: Mat.zeros(dom, r, co)
    one = lambda x: Mat(dom, [[x]])
    if i == 1:
        return BModuleDiagram.from_matrices(dom, (1, 0, 0), z(0, 1), z(1, 0), z(0, 0), z(0, 0))
    if i == 2:
        return BModuleDiagram.from_matrices(dom, (1, 1, 0), one(1), one(3), z(0, 1), z(1, 0))
    if i == 3:
        return BModuleDiagram.from_matrices(dom, (1, 1, 0), one(3), one(1), z(0, 1), z(1, 0))
    if i == 4:
        return BModuleDiagram.from_matrices(dom, (0, 1, 1), z(1, 0), z(0, 1), one(1), one(3))
    if i == 5:
        return BModuleDiagram.from_matrices(dom, (0, 1, 1), z(1, 0), z(0, 1), one(3), one(1))
    if i == 6:
        return BModuleDiagram.from_matrices(dom, (0, 0, 1), z(0, 0), z(0, 0), z(1, 0), z(0, 1))
    raise ValueError("index must be in 1..6")


def build_named(kind, p, k, dom=Z_HALF):
    """The cyclic torsion modules L(i, p, k) and the quadratic quotients.

    kind is an integer i in {1, 2, 4, 6} for L(i, p, k) with p > 3, or one
    of the strings "ext2"/"sym2" for the p-power quotients of the exterior
    and symmetric squares (p >= 3).
    """
    if k < 0:
        raise ValueError("truncation exponent must be nonnegative")
    if not _is_prime(p):
        raise ValueError("p must be prime")
    if kind in ("ext2", "sym2"):
        if p < 3:
            raise ValueError("quadratic quotients need p >= 3")
        from .functors import builtin, extract_diagram

        d = extract_diagram(builtin(kind))
        return truncate_diagram(d, p ** k)
    i = kind
    if i not in (1, 2, 4, 6):
        raise ValueError("torsion-free index must be one of 1, 2, 4, 6")
    if p <= 3:
        raise ValueError("these quotients are taken at primes p > 3")
    base = irreducible_torsion_free(i, dom)
    q = p ** k
    rels = tuple(
        Mat.diag(dom, [q] * m.gens) if m.gens else Mat.zeros(dom, 0, 0)
        for m in base.modules()
    )
    return BModuleDiagram.from_matrices(
        dom, tuple(m.gens for m in base.modules()),
        base.a1.matrix, base.b1.matrix, base.a2.matrix, base.b2.matrix,
        rels=rels, check=False,
    )


def truncate_diagram(d, q):
    """Quotient every level of a cubic diagram by q."""
    from .functors import CubicDiagram

    def cut(pres):
        extra = Mat.diag(pres.dom, [q] * pres.gens)
        if pres.relations.cols:
            extra = pres.relations.hstack(extra)
        return extra

    return CubicDiagram.from_matrices(
        d.dom,
        d.h.matrix, d.p.matrix, d.h1.matrix, d.h2.matrix,
        d.p1.matrix, d.p2.matrix,
        rels=tuple(cut(p) for p in (d.F1, d.F2, d.F3)),
    )


# ---------------------------------------------------------------------------
# string and band data
# ---------------------------------------------------------------------------


class StringDiagram3:
    """A walk datum: shapes "i", "ii", "iii" with index and exponent rows.

    The rows are stored 1-indexed over positions 1..2n, with None at the
    positions a given shape omits.  Phantom i-indices (the convention that
    defines i_1 or i_2n so the pairing condition holds) are filled in and
    remembered in .synthetic.
    """

    def __init__(self, shape, i, j, k):
        if shape not in ("i", "ii", "iii"):
            raise ValueError("shape must be 'i', 'ii' or 'iii'")
        if len(i) % 2 or not i:
            raise ValueError("need index rows of even length 2n")
        self.shape = shape
        self.n = len(i) // 2
        n2 = 2 * self.n
        if len(j) != n2 or len(k) != n2:
            raise ValueError("rows i, j, k must all have length 2n")
        self.i = list(i)
        self.j = list(j)
        self.k = list(k)
        self.synthetic = []
        missing_jk = self._absent_positions()
        for pos in range(1, n2 + 1):
            absent = pos in missing_jk
            if (self.j[pos - 1] is None) != absent or (self.k[pos - 1] is None) != absent:
                raise ValueError(
                    f"position {pos}: shape {shape} "
                    + ("omits" if absent else "requires") + " j and k there"
                )
        self._fill_phantoms()
        self._validate()

    def _absent_positions(self):
        n2 = 2 * self.n
        if self.shape == "i":
            return {n2}
        if self.shape == "ii":
            return {1, n2}
        return set()

    def _fill_phantoms(self):
        n2 = 2 * self.n
        fill = []
        if self.shape == "i":
            fill = [n2]
        elif self.shape == "ii":
            fill = [1, n2]
        self.synthetic = list(fill)
        changed = True
        while changed:
            changed = False
            for pos in fill:
                other = pos - 1 if pos == n2 else pos + 1
                if self.i[pos - 1] is None and self.i[other - 1] is not None:
                    self.i[pos - 1] = PARTNER[self.i[other - 1]]
                    changed = True
        for pos in range(1, n2 + 1):
            if self.i[pos - 1] is None:
                raise ValueError(f"i_{pos} cannot be inferred; supply it")

    def _validate(self):
        n, iv, jv, kv = self.n, self.i, self.j, self.k
        for m in range(1, n + 1):
            a, b = iv[2 * m - 2], iv[2 * m - 1]
            if a is None or b is None or PARTNER[a] != b:
                raise ValueError(f"i_{2*m-1} ~ i_{2*m} fails")
        for m in range(1, n):
            a, b = jv[2 * m - 1], jv[2 * m]
            if a is not None and b is not None and PARTNER[a] != b:
                raise ValueError(f"j_{2*m+1} ~ j_{2*m} fails")
        for pos in range(1, 2 * n + 1):
            if jv[pos - 1] is None:
                continue
            if not same_dash(iv[pos - 1], jv[pos - 1]):
                raise ValueError(f"i_{pos} - j_{pos} fails")
            if not isinstance(kv[pos - 1], int) or kv[pos - 1] < 0:
                raise ValueError(f"k_{pos} must be a nonnegative integer")

    def components(self):
        return [nu(self.i[2 * m - 2]) for m in range(1, self.n + 1)]

    def relation_range(self):
        if self.shape == "i":
            return range(0, self.n)
        if self.shape == "ii":
            return range(1, self.n)
        return range(0, self.n + 1)

    def reverse(self):
        """The symmetric diagram, defined for shapes ii and iii."""
        if self.shape == "i":
            raise ValueError("shape i has no symmetric mate of the same shape")
        rev = lambda row: list(reversed(row))
        return StringDiagram3(self.shape, rev(self.i), rev(self.j), rev(self.k))

    def __eq__(self, other):
        return (
            isinstance(other, StringDiagram3)
            and (self.shape, self.i, self.j, self.k)
            == (other.shape, other.i, other.j, other.k)
        )


class BandData3:
    """A nonperiodic cyclic diagram together with a primary polynomial
    lam_1 + lam_2 t + ... + t^d over Z/3 with lam_1 nonzero."""

    def __init__(self, diagram, poly):
        if diagram.shape != "iii":
            raise ValueError("band diagrams have shape iii")
        d = diagram
        if PARTNER[d.j[2 * d.n - 1]] != d.j[0]:
            raise ValueError("band closure needs j_2n ~ j_1")
        if _is_periodic(d):
            raise ValueError("band diagram must be non-periodic")
        coeffs = [c % 3 for c in poly]
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("polynomial must be monic of positive degree")
        if coeffs[0] == 0:
            raise ValueError("lam_1 must be nonzero")
        if primary_root(3, coeffs) is None:
            raise ValueError("polynomial must be primary over Z/3")
        self.diagram = d
        self.poly = coeffs
        self.degree = len(coeffs) - 1

    def shift(self, s):
        n2 = 2 * self.diagram.n
        s = (2 * s) % n2
        rot = lambda row: row[s:] + row[:s]
        d = self.diagram
        return BandData3(StringDiagram3("iii", rot(d.i), rot(d.j), rot(d.k)), self.poly)

    def star(self):
        return BandData3(self.diagram.reverse(), reciprocal(3, self.poly))


def _is_periodic(d):
    n2 = 2 * d.n
    rows = (d.i, d.j, d.k)
    for s in range(1, d.n):
        if d.n % s:
            continue
        t = 2 * s
        if all(row[(p + t) % n2] == row[p] for row in rows for p in range(n2)):
            return True
    return False


# ---------------------------------------------------------------------------
# the builders
# ---------------------------------------------------------------------------


class _FreeCover:
    """A direct sum of projectives with located cyclic generators."""

    def __init__(self, comps, dom=Z_HALF):
        self.dom = dom
        self.comps = list(comps)
        pieces = [projective_diagram(c, dom) for c in self.comps]
        self.diagram = pieces[0] if pieces else None
        for piece in pieces[1:]:
            self.diagram = self.diagram.direct_sum(piece)
        if self.diagram is None:
            z = Mat.zeros(dom, 0, 0)
            self.diagram = BModuleDiagram.from_matrices(dom, (0, 0, 0), z, z, z, z)
        self.offsets = []
        tally = [0, 0, 0]
        for c, piece in zip(self.comps, pieces):
            self.offsets.append(tally[c - 1])
            for lvl in range(3):
                tally[lvl] += piece.modules()[lvl].gens

    def generator_vector(self, m):
        """Generator m (0-based) as a coordinate column at its level."""
        lvl = self.comps[m]
        size = self.diagram.modules()[lvl - 1].gens
        col = Mat.zeros(self.dom, size, 1)
        col.a[self.offsets[m]][0] = self.dom.one()
        return lvl, col


def _quotient_by(cover, relation_vectors):
    """Close relation vectors under the four maps and form the quotient."""
    dom = cover.dom
    free = cover.diagram
    sizes = [m.gens for m in free.modules()]
    spans = [LatticeSpan(dom, s) for s in sizes]
    frontier = []
    for lvl, col in relation_vectors:
        vec = [col.a[r][0] for r in range(col.rows)]
        if spans[lvl - 1].insert(vec):
            frontier.append((lvl, col))
    arrows = [
        (1, 2, free.a1.matrix), (2, 1, free.b1.matrix),
        (2, 3, free.a2.matrix), (3, 2, free.b2.matrix),
    ]
    while frontier:
        nxt = []
        for lvl, col in frontier:
            for s, t, m in arrows:
                if s != lvl:
                    continue
                img = m * col
                vec = [img.a[r][0] for r in range(img.rows)]
                if any(not dom.is_zero(x) for x in vec) and spans[t - 1].insert(vec):
                    nxt.append((t, img))
        frontier = nxt
    rels = tuple(
        span.to_matrix() if span.rank else Mat.zeros(dom, sizes[l], 0)
        for l, span in enumerate(spans)
    )
    return BModuleDiagram.from_matrices(
        dom, tuple(sizes),
        free.a1.matrix, free.b1.matrix, free.a2.matrix, free.b2.matrix,
        rels=rels, check=True,
    )


def build_string_module(d, dom=Z_HALF):
    """The module presented by generators g_1..g_n and the walk relations."""
    cover = _FreeCover(d.components(), dom)
    free = cover.diagram

    def term(pos, m):
        """3^{k_pos} theta(i_pos, j_pos) applied to g_m, as a column."""
        i, j, kexp = d.i[pos - 1], d.j[pos - 1], d.k[pos - 1]
        _, col = cover.generator_vector(m - 1)
        th = free.theta(i, j)
        out = th.matrix * col
        return nu(j), out.scale(dom.canon(3 ** kexp))

    rel_vectors = []
    for m in d.relation_range():
        if m == 0:
            rel_vectors.append(term(1, 1))
        elif m == d.n and 2 * d.n <= len(d.j) and d.j[2 * d.n - 1] is not None:
            rel_vectors.append(term(2 * d.n, d.n))
        else:
            lvl, left = term(2 * m, m)
            lvl2, right = term(2 * m + 1, m + 1)
            assert lvl == lvl2
            rel_vectors.append((lvl, left - right))
    return _quotient_by(cover, rel_vectors)


def build_band_module(b, dom=Z_HALF):
    """Generators g_{ml} wound d times around the cycle, closed by the
    companion relation of the primary polynomial."""
    d = b.diagram
    n, deg = d.n, b.degree
    comps = []
    for m in range(n):
        for _ in range(deg):
            comps.append(nu(d.i[2 * m]))
    cover = _FreeCover(comps, dom)
    free = cover.diagram

    def gen_col(m, l):
        _, col = cover.generator_vector((m - 1) * deg + (l - 1))
        return col

    def theta_at(pos):
        i, j, kexp = d.i[pos - 1], d.j[pos - 1], d.k[pos - 1]
        th = free.theta(i, j)
        return nu(j), th.matrix, dom.canon(3 ** kexp)

    rel_vectors = []
    for m in range(1, n):
        lvl, thm, cm = theta_at(2 * m)
        _, thn, cn = theta_at(2 * m + 1)
        for l in range(1, deg + 1):
            rel_vectors.append(
                (lvl, (thm * gen_col(m, l)).scale(cm) - (thn * gen_col(m + 1, l)).scale(cn))
            )
    lvl, th_last, c_last = theta_at(2 * n)
    _, th_first, c_first = theta_at(1)
    for l in range(1, deg):
        rel_vectors.append(
            (lvl, (th_last * gen_col(n, l)).scale(c_last)
             - (th_first * gen_col(1, l + 1)).scale(c_first))
        )
    closing = (th_last * gen_col(n, deg)).scale(c_last)
    for v in range(1, deg + 1):
        lam = b.poly[v - 1] % 3
        if lam:
            closing = closing + (th_first * gen_col(1, v)).scale(
                dom.mul(c_first, dom.canon(lam))
            )
    rel_vectors.append((lvl, closing))
    return _quotient_by(cover, rel_vectors)


# ---------------------------------------------------------------------------
# indecomposability probing at a finite level
# ---------------------------------------------------------------------------

ProbeVerdict = namedtuple("ProbeVerdict", "verdict witness endo_rank certificate")


def _mat_mod(m, q):
    """The residues of a Mat over Z, Z_(p) or Z[1/S] in Z/q, as an int array."""
    return np.array(
        [[_residue(m.dom, x, q) for x in row] for row in m.a], dtype=np.int64
    ).reshape(m.rows, m.cols)


def _residue(dom, x, q):
    """The image of a Z-, Z[1/S]- or Z_(p)-element in Z/q, q prime to the
    denominators."""
    x = dom.canon(x)
    if isinstance(x, int):
        return x % q
    num, den = x.numerator, x.denominator
    return (num * pow(den, -1, q)) % q


def _null_columns(rels, sizes, offs):
    """Generators of the null triples, whose columns lie in relations + q:
    column c of E_l runs through the relation columns of level l."""
    total = offs[2] + sizes[2] ** 2
    blocks = []
    for lvl in range(3):
        block = np.zeros((total, rels[lvl].shape[1] * sizes[lvl]), dtype=np.int64)
        block[offs[lvl]:offs[lvl] + sizes[lvl] ** 2] = np.kron(
            rels[lvl], np.eye(sizes[lvl], dtype=np.int64)
        )
        blocks.append(block)
    return np.hstack(blocks)


def _endo_basis_mod(module, p, k):
    """Generators mod q = p^k of the endomorphism triples of M/q, as the
    rows of an int array, with the level sizes, offsets and relation
    residues.

    E = (E1, E2, E3) is an endomorphism iff E_t F - F E_s = R_t Y for each
    arrow F: M_s -> M_t and E_l R_l = R_l Y' for each relation matrix, for
    some Y, Y' mod q.  The exact system over the domain has q I columns
    next to each R; they vanish mod q, and a solution mod q lifts by
    absorbing A x = q w into them, so the residues of the exact kernel and
    the kernel mod q span the same module.  With U A V = diag(p^e) mod q
    that kernel is spanned by the columns p^(k - e_t) V[:, t], e_t = k past
    the diagonal, cut to the E coordinates.
    """
    q = p ** k
    sizes = [m.gens for m in module.modules()]
    offs = [0, sizes[0] ** 2, sizes[0] ** 2 + sizes[1] ** 2]
    total = offs[2] + sizes[2] ** 2
    rels = [_mat_mod(m.relations, q) for m in module.modules()]
    eye = lambda n: np.eye(n, dtype=np.int64)
    # (terms, aux): terms are (level, coefficients of vec E_level)
    blocks = []
    for s, t, f in [
        (1, 2, module.a1.matrix), (2, 1, module.b1.matrix),
        (2, 3, module.a2.matrix), (3, 2, module.b2.matrix),
    ]:
        F, ns = _mat_mod(f, q), sizes[s - 1]
        terms = [(t, np.kron(eye(sizes[t - 1]), F.T)), (s, -np.kron(F, eye(ns)))]
        blocks.append((terms, -np.kron(rels[t - 1], eye(ns))))
    for lvl in range(1, 4):
        R = rels[lvl - 1]
        if R.shape[1]:
            terms = [(lvl, np.kron(eye(sizes[lvl - 1]), R.T))]
            blocks.append((terms, -np.kron(R, eye(R.shape[1]))))
    width = total + sum(aux.shape[1] for _, aux in blocks)
    A = np.zeros((sum(aux.shape[0] for _, aux in blocks), width), dtype=np.int64)
    row, col = 0, total
    for terms, aux in blocks:
        h, w = aux.shape
        for lvl, coef in terms:
            A[row:row + h, offs[lvl - 1]:offs[lvl - 1] + sizes[lvl - 1] ** 2] += coef
        A[row:row + h, col:col + w] = aux
        row, col = row + h, col + w
    _, exps, V = _snf_mod(A, p, k)
    e = np.array(exps + [k] * (width - len(exps)), dtype=np.int64)
    gens = (V[:total] * p ** (k - e) % q).T
    return gens[gens.any(axis=1)], sizes, offs, rels


def _span_residue(H, p, k):
    """Data (U, d) with x in the column span of H plus q Z^n iff
    (U x) % d == 0 rowwise: d_i = p^(e_i) from the Smith form of H mod
    q = p^k, and q past its diagonal."""
    U, exps, _ = _snf_mod(H, p, k)
    d = np.full(U.shape[0], p ** k, dtype=np.int64)
    d[:len(exps)] = p ** np.array(exps, dtype=np.int64)
    return U % d[:, None], d


def _coordinates(vecs, span, p):
    """x -> ((U1 x) % d1) / (d1 / p) on the rows with d1 > 1, for
    span = (U1, d1) the membership data of a lattice L1 with p L in L1: a
    linear map L / L1 -> GF(p)^rows with kernel zero."""
    U1, d1 = span
    hi = d1 > 1
    return (vecs @ U1[hi].T % d1[hi]) // (d1[hi] // p)


def _gfp_basis(gens, span, p):
    """The generators that extend a GF(p)-basis of L / L1, in order, where
    L1 = {x : (U1 x) % d1 == 0}, span = (U1, d1), contains p * gens: a
    generator is kept iff it raises the GF(p) rank of its _coordinates."""
    kept, echelon = [], []
    for g, y in zip(gens, _coordinates(gens, span, p)):
        for piv, row in echelon:
            if y[piv]:
                y = (y - y[piv] * row) % p
        nz = np.flatnonzero(y)
        if nz.size:
            echelon.append((nz[0], y * pow(int(y[nz[0]]), -1, p) % p))
            kept.append(g)
    return kept


ProbeAlgebra = namedtuple("ProbeAlgebra", "basis sizes offs null span mult one")
ProbeAlgebra.__doc__ = """End(M/q), q = p^k, and its quotient algebra
A = End / (N + p End) over GF(p), as the probe computes them.

basis: int rows mod q, the vectorized endomorphism triples whose classes
form a GF(p)-basis of A;
sizes, offs: the generator count and the row offset of each level;
null, span: membership data (U, d) of the null lattice N (columns in
relations + q) and of N + p End (see _span_residue);
mult, one: the structure constants of A on the basis over GF(p)."""


def _levels(vec, sizes, offs):
    """The three matrices of a vectorized endomorphism triple."""
    return [np.asarray(vec[o:o + n * n], dtype=np.int64).reshape(n, n)
            for n, o in zip(sizes, offs)]


def _probe_algebra(module, p, k):
    """The ProbeAlgebra of M/p^k.  Raises ValueError when M/q = 0.

    The structure constants come from the _coordinates of the basis, C,
    of its products and of 1: with U C V = [1 0] over GF(p) (_snf_mod),
    an element with coordinates y = m C has m = y V[:, :r] U."""
    q = p ** k
    gens, sizes, offs, rels = _endo_basis_mod(module, p, k)
    null = _null_columns(rels, sizes, offs)
    span = _span_residue(np.hstack([null, p * gens.T % q]), p, k)
    kept = _gfp_basis(gens, span, p)
    if not kept:
        raise ValueError("the zero module has no summands")
    basis, r = np.array(kept, dtype=np.int64), len(kept)
    prods = np.hstack([
        np.einsum("iab,jbc->ijac", m, m).reshape(r * r, -1) % q
        for m in (basis[:, o:o + n * n].reshape(r, n, n) for n, o in zip(sizes, offs))
    ])
    idvec = np.concatenate([np.eye(n, dtype=np.int64).reshape(-1) for n in sizes])
    u, _, v = _snf_mod(_coordinates(basis, span, p), p, 1)
    solve = lambda vecs: _coordinates(vecs, span, p) @ v[:, :r] % p @ u % p
    return ProbeAlgebra(basis, sizes, offs, _span_residue(null, p, k), span,
                        solve(prods).reshape(r, r, r), solve(idvec))


def indecomposability_probe(module, level=3, prime=3):
    """Decide whether the truncation M/q, q = prime**level, splits.

    Everything is computed in Z/q, on int64 arrays, and nothing is
    enumerated (_probe_algebra):

    - End(M/q) is the kernel mod q of the linear system of endomorphism
      triples (see _endo_basis_mod), read off the Smith form over the
      chain ring Z/q (matrix._snf_mod).
    - The null endomorphisms N (columns in relations + q) and N + p End
      are lattices containing q Z^total; their Smith forms mod q give
      membership tests (_span_residue).
    - A GF(p)-basis of A = End/(N + p End) is kept from the generators
      (_gfp_basis); its size is endo_rank.  The structure constants of A
      over GF(p) come from the same membership data.
    - N + p End is a nil ideal of End modulo N, so M/q is indecomposable
      iff A is local, and idempotents lift along End -> A.
      gf2.local_algebra decides this by linear algebra over GF(p): the
      commutator ideal J of A, its nilpotency index and the fixed space of
      x -> x^p on the commutative A/J.
    - A local A gives the verdict "indecomposable-at-level" with that
      proof as certificate, a gf2.Locality whose ideal and fixed hold
      endomorphism triples of M/q: their classes span J and the fixed
      space, J^index lies in N + p End, and the fixed space is span{1}.
    - Otherwise a nontrivial idempotent of A is lifted by the Newton step
      e -> 3e^2 - 2e^3 to an idempotent endomorphism of M/q, neither 0
      nor 1, which is returned as the witness with verdict "splits".

    Raises ValueError unless level >= 1 and prime is a prime that is not
    a unit of the domain (Z, Z_(p) or Z[1/S]), when q is too large for
    exact int64 arithmetic, and for the zero module M/q = 0, which has no
    summands.
    """
    dom = module.dom
    if not isinstance(level, int) or level < 1:
        raise ValueError(f"level must be an integer >= 1, not {level!r}")
    if not isinstance(prime, int) or not _is_prime(prime):
        raise ValueError(f"prime must be a prime number, not {prime!r}")
    if dom.kind not in ("Z", "loc", "inv"):
        raise ValueError(f"the probe needs Z, Z_(p) or Z[1/S], not {dom}")
    if dom.is_unit(dom.canon(prime)):
        raise ValueError(f"{prime} is a unit of {dom}")
    q = prime ** level
    if (1 + sum(m.gens ** 2 for m in module.modules())) * q * q >= 2 ** 63:
        raise ValueError(f"level {level} is too deep for exact int64 arithmetic")
    alg = _probe_algebra(module, prime, level)
    r = len(alg.basis)
    lift = lambda coords: _levels(coords @ alg.basis % q, alg.sizes, alg.offs)
    local, got = gf2.local_algebra(alg.mult, alg.one, prime)
    if local:
        ideal, index, fixed = got
        triples = lambda rows: [[m.tolist() for m in lift(x)] for x in rows]
        return ProbeVerdict("indecomposable-at-level", None, r,
                            gf2.Locality(triples(ideal), index, triples(fixed)))
    witness = _newton_lift(lift(got), q, level, *alg.null)
    if witness is None:
        raise ArithmeticError("an idempotent of End/(N + p End) did not lift")
    return ProbeVerdict("splits", witness, r, None)


def _newton_lift(mats, q, level, U0, d0):
    """Lift an idempotent modulo N + p End to one modulo the null lattice
    N = {x : (U0 x) % d0 == 0}: e -> 3e^2 - 2e^3 squares the defect e^2 - e."""
    for _ in range(level + 2):
        squares = [m @ m % q for m in mats]
        mats = [(3 * s - 2 * (s @ m)) % q for s, m in zip(squares, mats)]
        defect = np.concatenate(
            [((mats[l] @ mats[l] - mats[l]) % q).reshape(-1) for l in range(3)]
        )
        if not ((U0 @ defect) % d0).any():
            return [m.tolist() for m in mats]
    return None


# ---------------------------------------------------------------------------
# words in xi and eta over Z_(2)
# ---------------------------------------------------------------------------

INF = None  # exponent marker for the torsion-free summand

Z2 = Zloc(2)


class WordDatum4:
    """An alternating word in xi (superscripts) and eta (subscripts) with
    entries in N u {infinity}, avoiding the subwords that would break
    2 xi = 2 eta = xi eta ... = 0; an optional primary polynomial over
    Z/2 (not a power of t) closes the word into a cycle."""

    def __init__(self, letters, poly=None):
        if not letters:
            raise ValueError("empty word")
        self.letters = []
        for kind, e in letters:
            if kind not in ("xi", "eta"):
                raise ValueError(f"unknown letter {kind}")
            if e is not INF and (not isinstance(e, int) or e < 1):
                raise ValueError("exponents must be positive integers or INF")
            self.letters.append((kind, e))
        for (k1, _), (k2, _) in zip(self.letters, self.letters[1:]):
            if k1 == k2:
                raise ValueError("letters must alternate between xi and eta")
        self.poly = None
        if poly is not None:
            coeffs = [c % 2 for c in poly]
            if len(coeffs) < 2 or coeffs[-1] != 1:
                raise ValueError("polynomial must be monic of positive degree")
            if primary_root(2, coeffs) is None:
                raise ValueError("polynomial must be primary over Z/2")
            if all(c == 0 for c in coeffs[:-1]):
                raise ValueError("powers of t are excluded")
            if self.letters[0][0] != "xi" or self.letters[-1][0] != "eta":
                raise ValueError("a cyclic word runs xi ... eta")
            self.poly = coeffs
        self._check_subwords()

    def _check_subwords(self):
        pairs = list(zip(self.letters, self.letters[1:]))
        if self.poly is not None:
            pairs.append((self.letters[-1], self.letters[0]))
        for (k1, e1), (k2, e2) in pairs:
            if k1 == "eta" and k2 == "xi":
                if e1 is INF:
                    raise ValueError("subword eta_inf xi is forbidden")
                if e1 == 1:
                    raise ValueError("subword eta_1 xi is forbidden")
            if k1 == "xi" and k2 == "eta" and e1 is INF:
                raise ValueError("subword xi^inf eta is forbidden")
        if self.poly is not None:
            for _, e in self.letters:
                if e is INF:
                    raise ValueError("cyclic words admit no infinite summand")


class WDiagram:
    """Two presented Z_(2)-modules with maps xi: W1 -> W2, eta: W2 -> W1."""

    def __init__(self, W1, W2, xi, eta):
        self.W1, self.W2 = W1, W2
        self.xi, self.eta = xi, eta

    def verify(self):
        checks = {
            "2 xi = 0": self.xi.scale(2),
            "2 eta = 0": self.eta.scale(2),
            "eta xi = 0": compose(self.eta, self.xi),
        }
        return {name: defect.is_zero() for name, defect in checks.items()}

    def torsion_free_rank(self):
        return (
            self.W1.invariant_factors()[1] + self.W2.invariant_factors()[1]
        )


def _cyclic_block(e, n):
    """Relations of n copies of Z/2^e (no relation for the infinite one)."""
    if e is INF:
        return Mat.zeros(Z2, n, 0)
    return Mat.diag(Z2, [2 ** e] * n)


def build_W(w):
    """Assemble the diagram of a word, with the companion-cell twist when a
    polynomial is present."""
    n = len(w.poly) - 1 if w.poly is not None else 1
    xis = [e for kind, e in w.letters if kind == "xi"]
    etas = [e for kind, e in w.letters if kind == "eta"]
    if w.poly is not None:
        closing = etas.pop()  # the shared subscript j
        w2_exps = [closing] + etas
    else:
        w2_exps = etas
    size1 = n * len(xis)
    size2 = n * len(w2_exps)
    rel1 = Mat.direct_sum(Z2, [_cyclic_block(e, n) for e in xis] or [Mat.zeros(Z2, 0, 0)])
    rel2 = Mat.direct_sum(Z2, [_cyclic_block(e, n) for e in w2_exps] or [Mat.zeros(Z2, 0, 0)])
    W1 = FpPresentation(Z2, size1, rel1)
    W2 = FpPresentation(Z2, size2, rel2)
    xi_m = Mat.zeros(Z2, size2, size1)
    eta_m = Mat.zeros(Z2, size1, size2)

    def gamma(target_exp):
        return 2 ** (target_exp - 1)

    def place(mat, tgt_block, src_block, scale, frob=None):
        for r in range(n):
            for c in range(n):
                if frob is None:
                    val = scale if r == c else 0
                else:
                    val = frob[r][c] * scale
                if val:
                    mat.a[tgt_block * n + r][src_block * n + c] = Z2.canon(val)

    if w.poly is None:
        # letters in order; each letter maps to the summand on its left
        xi_idx = eta_idx = 0
        prev = None  # (kind, block index)
        for kind, e in w.letters:
            if kind == "xi":
                if prev is not None and prev[0] == "eta":
                    place(xi_m, prev[1], xi_idx, gamma(etas[prev[1]]))
                prev = ("xi", xi_idx)
                xi_idx += 1
            else:
                if prev is not None and prev[0] == "xi":
                    place(eta_m, prev[1], eta_idx, gamma(xis[prev[1]]))
                prev = ("eta", eta_idx)
                eta_idx += 1
    else:
        m = len(xis)
        frob = companion_matrix(2, w.poly)
        # xi of block l lands in the eta summand to its left; block 1 wraps
        # to the closing summand (index 0 of W2)
        place(xi_m, 0, 0, gamma(w2_exps[0]))
        for l in range(1, m):
            place(xi_m, l, l, gamma(w2_exps[l]))
        for l in range(0, m - 1):
            place(eta_m, l, l + 1, gamma(xis[l]))
        place(eta_m, m - 1, 0, gamma(xis[m - 1]), frob=frob)
    xi = ModuleMorphism(W1, W2, xi_m, check=True)
    eta = ModuleMorphism(W2, W1, eta_m, check=True)
    return WDiagram(W1, W2, xi, eta)
