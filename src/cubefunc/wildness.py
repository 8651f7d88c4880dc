"""Modules over Z/4 free algebras, restriction along a -> 2x1, b -> 2x2,
and the cubic diagrams they induce.

The point of this machinery is an embedding of matrix-tuple classification
into cubic diagrams: pairs of matrices over Z/4 give modules over the
level-1 endomorphism ring, and inducing up to levels 2 and 3 turns them
into full diagrams without collapsing the isomorphism problem.

The deciders work on the mod-2 action tuples, which is exact: a module
restricted along a -> 2x1, b -> 2x2 has a = 2A and b = 2B, so U a = b U
over Z/4 says U A = B U mod 2.  Both compute a Hom space
{U : U a_i = b_i U} over GF(2) as the nullspace of the stacked system
I kron a_i^T + b_i kron I (gf2.module_hom_basis) and test its elements
on gf2's bit-packed batch kernel:

- iso_test_mod2 proves isomorphism with a witness U, invertible mod 2 with
  U a_i = b_i U, and proves non-isomorphism by dim Hom(A, B) != dim End(A)
  or by a Hom space without an invertible element.  It enumerates every
  combination of the Hom basis, at most 2^16, and not only the basis as
  gf2.find_isomorphism does, because that rule needs an indecomposable
  module and these need not be.  IsoVerdict.method is
  "hom space" (the Hom basis was enumerated; both answers are proofs),
  "hom dimension" (the dimensions differ: not isomorphic), "shape
  mismatch" (generator counts or ranks differ: not isomorphic) or
  "inconclusive" (more than 2^16 homomorphisms, not searched; isomorphic
  is None).  brute_force_a11_iso, the test oracle, searches all of
  GL_d(Z/4) and reports "exhaustive mod 4" (or "rank mismatch").
- indecomposable_mod2 proves indecomposability by checking that every
  endomorphism is nilpotent or invertible (End is local), and
  decomposability by an endomorphism that is neither.  It runs gf2's one
  locality search (gf2._mixed_element, shared with split_indecomposable):
  the basis, then every combination up to 2^16, else the sums of two
  basis elements; if even those find no such element, and for the zero
  module, it raises ValueError.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

import numpy as np

from .domains import ZZ, Zmod
from .functors import CubicDiagram
from .matrix import Mat, solve as mat_solve
from .presentation import FpPresentation
from .rings import H, HBAR, ID1, P, PBAR

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

    def mod2_action(self):
        return [np.array([[int(x) % 2 for x in row] for row in m.a], dtype=np.uint8)
                .reshape(self.rank, self.rank) for m in self.action]

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


class A11Module:
    """An abelian group with two commuting-to-zero operators a and b
    satisfying a^2 = 2a, b^2 = 6b and ab = ba = 0."""

    def __init__(self, pres, a, b, check=True):
        self.pres = pres
        self.a = a
        self.b = b
        if check:
            ok, bad = self.verify()
            if not ok:
                raise ValueError(f"operator identities fail: {bad}")

    def verify(self):
        """Check the defining identities as endomorphisms of the group."""
        a, b = self.a, self.b
        defects = {
            "a^2 = 2a": a * a - a.scale(2),
            "b^2 = 6b": b * b - b.scale(6),
            "ab = 0": a * b,
            "ba = 0": b * a,
        }
        bad = [name for name, d in defects.items() if not self.pres.element_is_zero(d)]
        return not bad, bad


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

    def coords(basis, m):
        cols = Mat.hstack_all(ZZ, [Mat.column(ZZ, _flat(x)) for x in basis])
        sol = mat_solve(cols, Mat.column(ZZ, _flat(m)))
        if sol is None:
            raise RuntimeError("element escapes the Hom lattice")
        return [sol.a[k][0] for k in range(len(basis))]

    def _flat(m):
        return [x for row in m.a for x in row]

    def coord_mat(basis, mats):
        cols = [coords(basis, m) for m in mats]
        return Mat(ZZ, [[cols[j][i] for j in range(len(cols))] for i in range(len(basis))])

    gm = rep.gen_mats
    h_m = rep.corner(gm["h"], 1, 2)
    data = {
        "k2": len(w2),
        "k3": len(w3),
        "h": coord_mat(w2, [h_m]),
        # p . w lands back at level 1; record its {1, a, b} coordinates
        "p": Mat(
            ZZ,
            [coords(b11, rep.corner(gm["p"], 2, 1) * w) for w in w2],
        ).transpose(),
        "h1": coord_mat(w3, [rep.corner(gm["h1"], 2, 3) * w for w in w2]),
        "h2": coord_mat(w3, [rep.corner(gm["h2"], 2, 3) * w for w in w2]),
        "p1": coord_mat(w2, [rep.corner(gm["p1"], 3, 2) * v for v in w3]),
        "p2": coord_mat(w2, [rep.corner(gm["p2"], 3, 2) * v for v in w3]),
        "ra2": coord_mat(w2, [w * b11[1] for w in w2]),
        "rb2": coord_mat(w2, [w * b11[2] for w in w2]),
        "ra3": coord_mat(w3, [v * b11[1] for v in w3]),
        "rb3": coord_mat(w3, [v * b11[2] for v in w3]),
    }
    return data


def induce_cubic(m):
    """Tensor a level-1 module up to a full cubic diagram.

    F1 is the module itself; F2 and F3 are the tensor products with the
    Hom lattices to levels 2 and 3, presented by the bimodule relations
    w*a (x) v = w (x) a*v together with the inherited relations of F1.
    """
    data = _induction_data()
    g = m.pres.gens
    rel = m.pres.relations
    k2, k3 = data["k2"], data["k3"]
    eye_g = Mat.identity(ZZ, g)

    def tensor_rels(k, ra, rb):
        blocks = [
            ra.kron(eye_g) - Mat.identity(ZZ, k).kron(m.a),
            rb.kron(eye_g) - Mat.identity(ZZ, k).kron(m.b),
        ]
        if rel is not None and rel.cols:
            blocks.append(Mat.identity(ZZ, k).kron(rel))
        out = blocks[0]
        for b in blocks[1:]:
            out = out.hstack(b)
        return out

    rel2 = tensor_rels(k2, data["ra2"], data["rb2"])
    rel3 = tensor_rels(k3, data["ra3"], data["rb3"])
    c0, ca, cb = (data["p"].submatrix([t], range(k2)) for t in range(3))
    p_mat = c0.kron(eye_g) + ca.kron(m.a) + cb.kron(m.b)
    return CubicDiagram.from_matrices(
        ZZ,
        h=data["h"].kron(eye_g),
        p=p_mat,
        h1=data["h1"].kron(eye_g),
        h2=data["h2"].kron(eye_g),
        p1=data["p1"].kron(eye_g),
        p2=data["p2"].kron(eye_g),
        rels=(rel if rel is not None else Mat.zeros(ZZ, g, 0), rel2, rel3),
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

    mats = gf2._bit_matrix(1 << d * d, d * d)[:, ::-1].reshape(-1, d, d)
    return mats[gf2._full_rank(gf2._pack(mats))]


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
    non-isomorphic ("hom dimension").  Otherwise every combination of the
    Hom basis is tested for invertibility on bit-packed rows, at most 2^16
    of them: the first invertible one is the witness, and none proves
    non-isomorphism ("hom space").  A larger Hom space is not searched
    ("inconclusive").  The module docstring lists every method."""
    if l.n != lp.n or l.rank != lp.rank:
        return IsoVerdict(False, None, "shape mismatch")
    from . import gf2

    d = l.rank
    amats, bmats = l.mod2_action(), lp.mod2_action()
    hom = gf2.module_hom_basis(amats, bmats, d)
    if len(hom) != len(gf2.module_hom_basis(amats, amats, d)):
        return IsoVerdict(False, None, "hom dimension")
    if len(hom) > gf2.ENUM_BITS:
        return IsoVerdict(None, None, "inconclusive")
    u = gf2._first_combination(hom, (d,), gf2._invertible)
    if u is None:
        return IsoVerdict(False, None, "hom space")
    return IsoVerdict(True, u[0].tolist(), "hom space")


@lru_cache(maxsize=8)
def _gl4(d):
    """All invertible d x d matrices over Z/4: units lift units mod 2."""
    base = _gl2(d)
    lifts = []
    shifts = np.array(list(product((0, 2), repeat=d * d)), dtype=np.uint8)
    for m in base:
        lifts.append((m[None, :, :] + shifts.reshape(-1, d, d)) % 4)
    return np.concatenate(lifts)


def brute_force_a11_iso(m, mp):
    """Exhaustively test isomorphism of two restricted modules over Z/4.

    Both inputs must come from phi_restrict (free over Z/4); the search
    runs over all invertible matrices mod 4, independent of any mod-2
    reduction argument.
    """
    ra = m.pres.gens
    rb = mp.pres.gens
    if ra != rb:
        return IsoVerdict(False, None, "rank mismatch")
    if ra > 3:
        raise ValueError("exhaustive search is limited to rank <= 3")
    amats = [np.array([[x % 4 for x in row] for row in op.a], dtype=np.uint8)
             for op in (m.a, m.b)]
    bmats = [np.array([[x % 4 for x in row] for row in op.a], dtype=np.uint8)
             for op in (mp.a, mp.b)]
    us = _gl4(ra)
    hits = _batch_conjugacy(us, amats, bmats, 4)
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
    searched by gf2._mixed_element on bit-packed rows, so both answers are
    proofs.  When End has more than 2^16 elements and no basis element or
    sum of two is neither nilpotent nor invertible, this raises the
    ValueError "endomorphism algebra too large to certify locality"; the
    zero module, which has no summands, raises a ValueError too."""
    if l.rank == 0:
        raise ValueError("the zero module has no summands")
    from . import gf2

    mats = l.mod2_action()
    end = gf2.module_hom_basis(mats, mats, l.rank)
    return gf2._mixed_element(end, (l.rank,)) is None
