"""Modules over Z/4 free algebras, restriction along a -> 2x1, b -> 2x2,
and the cubic diagrams they induce.

The point of this machinery is an embedding of matrix-tuple classification
into cubic diagrams: pairs of matrices over Z/4 give modules over the
level-1 endomorphism ring (A11Module, a presentation.QuiverRep on one vertex
with the loops a and b), and inducing up to levels 2 and 3 turns them
into full diagrams without collapsing the isomorphism problem.

The deciders work on the mod-2 action tuples, which is exact: a module
restricted along a -> 2x1, b -> 2x2 has a = 2A and b = 2B, so U a = b U
over Z/4 says U A = B U mod 2.  An action tuple is a gf2.Rep2 on one vertex
with a loop per matrix (SigmaModule.mod2_rep), so both deciders run on the
representation kernel that gf2 shares with cubic spaces: gf2.hom_basis
solves Hom = {U : U a_i = b_i U} as the nullspace of the stacked system
I kron a_i^T + b_i kron I, gf2.split_indecomposable decides by linear
algebra whether End is local, and gf2.match_summands matches the
indecomposable summands of two tuples.  Every answer is a proof; nothing
is left undecided.

- iso_test_mod2 proves isomorphism with a witness U, invertible mod 2 with
  U a_i = b_i U: an invertible element of the Hom basis, or else one
  assembled from isomorphisms of the indecomposable summands of the two
  tuples (Krull-Schmidt, gf2.match_summands).  It proves non-isomorphism by
  dim Hom(A, B) != dim End(A) or by a summand of A with no isomorphic
  partner in B.  IsoVerdict.method is "hom space" (decided on the Hom
  space and the summands), "hom dimension" (the dimensions differ: not
  isomorphic) or "shape mismatch" (generator counts or ranks differ: not
  isomorphic).  brute_force_a11_iso, the test oracle, searches all of
  GL_d(Z/4) and reports "exhaustive mod 4" (or "rank mismatch").
- indecomposable_mod2 proves indecomposability by a gf2.Locality
  certificate of End, and decomposability by an endomorphism that is
  neither nilpotent nor invertible: a basis element, or else a nontrivial
  idempotent.  The zero module raises ValueError.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

import numpy as np

from .domains import ZZ, Zmod
from .functors import CubicDiagram
from .matrix import Mat, solve as mat_solve
from .presentation import FpPresentation, QuiverRep
from .rings import H, HBAR, ID1, P, PBAR, Expr

Z4 = Zmod(4)


class SigmaModule:
    """A module over Z/4<x1..xn>, free over Z/4 of the given rank."""

    def __init__(self, n, rank, action):
        if len(action) != n:
            raise ValueError(f"expected {n} action matrices, got {len(action)}")
        self.n = n
        self.rank = rank
        self.action = []
        for m in action:
            m = m if isinstance(m, Mat) else Mat(Z4, m)
            if m.rows != rank or m.cols != rank:
                raise ValueError("action matrix is not rank x rank")
            if m.dom is not Z4:
                m = Mat(Z4, [[int(x) for x in row] for row in m.a])
            self.action.append(m)

    def mod2_rep(self):
        """The action tuple mod 2, as a one-vertex gf2.Rep2 with a loop per
        generator."""
        from . import gf2

        return gf2.Rep2((self.rank,), [
            (0, 0, np.array([[int(x) % 2 for x in row] for row in m.a], dtype=np.uint8)
             .reshape(self.rank, self.rank)) for m in self.action])

    def to_json(self):
        return {
            "schema": "cubefunc/sigma-module/1",
            "n": self.n,
            "rank": self.rank,
            "action": [[[int(x) for x in row] for row in m.a] for m in self.action],
        }

    @staticmethod
    def from_json(data):
        return SigmaModule(data["n"], data["rank"], data["action"])


A, B = Expr.gen("a"), Expr.gen("b")


class A11Module(QuiverRep):
    """An abelian group M with two operators a and b satisfying
    a^2 = 2a, b^2 = 6b and ab = ba = 0: a module over the level-1
    endomorphism ring A(1, 1)."""

    VERTICES = ("M",)
    ARROWS = ("a", "b")
    RELATIONS = (
        ("a^2 = 2a", A * A - A * 2),
        ("b^2 = 6b", B * B - B * 6),
        ("ab = 0", A * B),
        ("ba = 0", B * A),
    )


def phi_restrict(l):
    """Restrict a rank-n free Z/4<x1,x2>-module along a -> 2x1, b -> 2x2."""
    if l.n != 2:
        raise ValueError("restriction needs exactly two generators")
    rels = Mat.diag(ZZ, [4] * l.rank)
    pres = FpPresentation(ZZ, l.rank, rels)
    lift = lambda m: Mat(ZZ, [[2 * int(x) for x in row] for row in m.a])
    return A11Module(pres, lift(l.action[0]), lift(l.action[1]))


# ---------------------------------------------------------------------------
# induction to a full diagram
# ---------------------------------------------------------------------------


def _as_columns(ms):
    """The matrices ms, each flattened row by row into one column."""
    return Mat.hstack_all(ZZ, [Mat.column(ZZ, m.flat()) for m in ms])


@lru_cache(maxsize=None)
def _induction_data():
    """Structure constants of the level-(1,2) and level-(1,3) Hom lattices.

    Returns coordinate matrices for the left action of the six structure
    letters and the right action of the level-1 operators a and b, all
    integral in the chosen bases.
    """
    from .faithful import hom_lattice, shared_representation

    rep = shared_representation(ZZ)
    w2 = hom_lattice(rep, 1, 2)
    w3 = hom_lattice(rep, 1, 3)
    one = rep.eval(ID1)
    a_el = rep.eval(P * H - PBAR * HBAR)
    b_el = rep.eval(PBAR * HBAR)
    b11 = [rep.corner(m, 1, 1) for m in (one, a_el, b_el)]

    def coord_mats(basis, groups):
        """The coordinates of each group of elements in a lattice basis, as
        one matrix per group with a column per element.  All groups are the
        columns of one right-hand side, so the basis is factored once; the
        coordinates are unique because the basis is a lattice basis."""
        sol = mat_solve(_as_columns(basis), _as_columns([m for g in groups for m in g]))
        if sol is None:
            raise RuntimeError("element escapes the Hom lattice")
        out, j = [], 0
        for g in groups:
            out.append(sol.submatrix(range(len(basis)), range(j, j + len(g))))
            j += len(g)
        return out

    gm = rep.gen_mats
    side = lambda g, s, t, ws: [rep.corner(gm[g], s, t) * w for w in ws]
    data = {"k2": len(w2), "k3": len(w3)}
    data.update(zip(("h", "p1", "p2", "ra2", "rb2"), coord_mats(w2, [
        [rep.corner(gm["h"], 1, 2)],
        side("p1", 3, 2, w3),
        side("p2", 3, 2, w3),
        [w * b11[1] for w in w2],
        [w * b11[2] for w in w2],
    ])))
    data.update(zip(("h1", "h2", "ra3", "rb3"), coord_mats(w3, [
        side("h1", 2, 3, w2),
        side("h2", 2, 3, w2),
        [v * b11[1] for v in w3],
        [v * b11[2] for v in w3],
    ])))
    # p . w lands back at level 1; record its {1, a, b} coordinates
    data["p"] = coord_mats(b11, [side("p", 2, 1, w2)])[0]
    return data


def induce_cubic(m):
    """Tensor a level-1 module up to a full cubic diagram.

    F1 is the module itself; F2 and F3 are the tensor products with the
    Hom lattices to levels 2 and 3, presented by the bimodule relations
    w*a (x) v = w (x) a*v together with the inherited relations of F1.
    """
    data = _induction_data()
    g = m.M.gens
    rel = m.M.relations
    a, b = m.a.matrix, m.b.matrix
    k2, k3 = data["k2"], data["k3"]
    eye_g = Mat.identity(ZZ, g)

    def tensor_rels(k, ra, rb):
        blocks = [
            ra.kron(eye_g) - Mat.identity(ZZ, k).kron(a),
            rb.kron(eye_g) - Mat.identity(ZZ, k).kron(b),
        ]
        if rel.cols:
            blocks.append(Mat.identity(ZZ, k).kron(rel))
        out = blocks[0]
        for blk in blocks[1:]:
            out = out.hstack(blk)
        return out

    rel2 = tensor_rels(k2, data["ra2"], data["rb2"])
    rel3 = tensor_rels(k3, data["ra3"], data["rb3"])
    c0, ca, cb = (data["p"].submatrix([t], range(k2)) for t in range(3))
    p_mat = c0.kron(eye_g) + ca.kron(a) + cb.kron(b)
    return CubicDiagram(
        m.M, FpPresentation(ZZ, rel2.rows, rel2), FpPresentation(ZZ, rel3.rows, rel3),
        h=data["h"].kron(eye_g),
        p=p_mat,
        h1=data["h1"].kron(eye_g),
        h2=data["h2"].kron(eye_g),
        p1=data["p1"].kron(eye_g),
        p2=data["p2"].kron(eye_g),
    )


def regular_a11_module():
    """The level-1 endomorphism ring acting on itself, basis {1, a, b}."""
    pres = FpPresentation.free(ZZ, 3)
    a = Mat(ZZ, [[0, 0, 0], [1, 2, 0], [0, 0, 0]])
    b = Mat(ZZ, [[0, 0, 0], [0, 0, 0], [1, 0, 6]])
    return A11Module(pres, a, b)


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

IsoVerdict = namedtuple("IsoVerdict", "isomorphic witness method")


@lru_cache(maxsize=8)
def _gl2(d):
    """All invertible d x d matrices over GF(2), as a uint8 array, in the
    order of itertools.product((0, 1), repeat=d * d)."""
    from . import gf2

    mats = np.array(list(product((0, 1), repeat=d * d)), dtype=np.uint8)
    mats = mats.reshape(2 ** (d * d), d, d)
    return mats[np.array([gf2.rank(m) == d for m in mats], dtype=bool)]


def _batch_conjugacy(us, amats, bmats, mod):
    """Indices u with us[u] @ a_i = b_i @ us[u] (mod) for all i."""
    alive = np.arange(us.shape[0])
    for a, b in zip(amats, bmats):
        lhs = np.einsum("uij,jk->uik", us[alive], a) % mod
        rhs = np.einsum("ij,ujk->uik", b, us[alive]) % mod
        keep = np.all(lhs == rhs, axis=(1, 2))
        alive = alive[keep]
        if alive.size == 0:
            return alive
    return alive


def iso_test_mod2(l, lp):
    """Decide simultaneous conjugacy of the mod-2 reductions: is there an
    invertible U over GF(2) with U a_i = b_i U for every i?

    Hom = {U : U a_i = b_i U} is the nullspace of the stacked system
    I kron a_i^T + b_i kron I.  If A and B are isomorphic, Hom(A, B) and
    End(A) have the same dimension, so different dimensions prove them
    non-isomorphic ("hom dimension").  Otherwise ("hom space"), an
    invertible element of that same Hom basis is a witness
    (gf2.invertible_element), so Hom(A, B) is solved once.  Failing that,
    gf2.match_summands splits both tuples into indecomposables, and by
    Krull-Schmidt A ~ B iff their summands match one to one up to
    isomorphism: the witness is assembled from the summand isomorphisms,
    and a summand without a partner proves non-isomorphism.  The module
    docstring lists every method."""
    if l.n != lp.n or l.rank != lp.rank:
        return IsoVerdict(False, None, "shape mismatch")
    from . import gf2

    if l.rank == 0:
        return IsoVerdict(True, [], "hom space")
    x, y = l.mod2_rep(), lp.mod2_rep()
    basis = gf2.hom_basis(x, y)
    if len(basis) != len(gf2.hom_basis(x, x)):
        return IsoVerdict(False, None, "hom dimension")
    u = gf2.invertible_element(basis, x.dims)
    if u is None:
        u = gf2.match_summands(x, y)
    if u is None:
        return IsoVerdict(False, None, "hom space")
    return IsoVerdict(True, u[0].tolist(), "hom space")


@lru_cache(maxsize=8)
def _gl4(d):
    """All invertible d x d matrices over Z/4: units lift units mod 2."""
    base = _gl2(d)
    lifts = []
    shifts = np.array(list(product((0, 2), repeat=d * d)), dtype=np.uint8)
    shifts = shifts.reshape(2 ** (d * d), d, d)
    for m in base:
        lifts.append((m[None, :, :] + shifts) % 4)
    return np.concatenate(lifts)


def brute_force_a11_iso(m, mp):
    """Exhaustively test isomorphism of two restricted modules over Z/4.

    Both inputs must come from phi_restrict (free over Z/4); the search
    runs over all invertible matrices mod 4, independent of any mod-2
    reduction argument.
    """
    ra = m.M.gens
    rb = mp.M.gens
    if ra != rb:
        return IsoVerdict(False, None, "rank mismatch")
    if ra > 3:
        raise ValueError("exhaustive search is limited to rank <= 3")
    mod4 = lambda op: np.array([[x % 4 for x in row] for row in op.a],
                               dtype=np.uint8).reshape(ra, ra)
    us = _gl4(ra)
    hits = _batch_conjugacy(us, [mod4(m.a.matrix), mod4(m.b.matrix)],
                            [mod4(mp.a.matrix), mod4(mp.b.matrix)], 4)
    if hits.size:
        return IsoVerdict(True, us[hits[0]].tolist(), "exhaustive mod 4")
    return IsoVerdict(False, None, "exhaustive mod 4")


def indecomposable_mod2(l):
    """Whether a free Z/4 module restricts to an indecomposable: true iff
    the endomorphism algebra End = {E : E a_i = a_i E} of its mod-2 action
    tuple is local, that is every element is nilpotent or invertible (an
    element that is neither gives a nontrivial idempotent by Fitting's
    lemma).

    End is the nullspace of the stacked system I kron a_i^T + a_i kron I,
    and gf2.split_indecomposable, the kernel that splits cubic spaces,
    decides it by linear algebra, so both answers are proofs: True by a
    gf2.Locality certificate (the commutator ideal J of End is nilpotent
    and squaring fixes only span{1} on End/J), False by a Fitting split
    along an element that is neither nilpotent nor invertible.  The zero
    module, which has no summands, raises a ValueError."""
    if l.rank == 0:
        raise ValueError("the zero module has no summands")
    from . import gf2

    return gf2.split_indecomposable(l.mod2_rep())[0] is None
