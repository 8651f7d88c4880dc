"""A faithful matrix model of the structure-map calculus.

The direct sum of the diagrams of all seven built-in functors gives total
spaces of ranks 6, 15, 12.  The six structure maps act on the 33-dimensional
sum, and the rational algebra they generate turns out to have dimension 39,
certifying that identities verified here hold in the defining presentation.
"""

from __future__ import annotations

from functools import lru_cache

from .domains import ZZ, Z_HALF
from .functors import FUNCTOR_IDS, builtin, extract_diagram
from .matrix import LatticeSpan, Mat, RationalSpan
from .rings import GEN_TYPES, Expr


@lru_cache(maxsize=None)
def faithful_diagram(dom=ZZ):
    """The direct sum of all built-in diagrams over the given domain."""
    total = None
    for fid in FUNCTOR_IDS:
        d = extract_diagram(builtin(fid, dom))
        total = d if total is None else total.direct_sum(d)
    return total


class Representation:
    """Block-matrix images of the nine generator letters on F1+F2+F3."""

    def __init__(self, dom=ZZ):
        self.dom = dom
        self.diagram = faithful_diagram(dom)
        dims = (self.diagram.F1.gens, self.diagram.F2.gens, self.diagram.F3.gens)
        self.dims = dims
        self.total = sum(dims)
        self.offset = {1: 0, 2: dims[0], 3: dims[0] + dims[1]}
        self.gen_mats = {}
        for name in GEN_TYPES:
            self.gen_mats[name] = self._embed_gen(name)

    def _embed_gen(self, name):
        d = self.dom
        src, dst = GEN_TYPES[name]
        big = Mat.zeros(d, self.total, self.total)
        if name.startswith("id"):
            lvl = int(name[2])
            o = self.offset[lvl]
            for i in range(self.dims[lvl - 1]):
                big.a[o + i][o + i] = d.one()
            return big
        block = self.diagram.maps()[name].matrix
        ro, co = self.offset[dst], self.offset[src]
        for i in range(block.rows):
            for j in range(block.cols):
                big.a[ro + i][co + j] = block.a[i][j]
        return big

    def eval(self, expr):
        """The 33x33 matrix of a formal expression (padded to full size)."""
        d = self.dom
        acc = Mat.zeros(d, self.total, self.total)
        for w, c in expr.terms.items():
            m = None
            for g in reversed(w):
                m = self.gen_mats[g] if m is None else self.gen_mats[g] * m
            acc = acc + m.scale(d.canon(c))
        return acc

    def corner(self, big, lvl_src, lvl_dst):
        ro, co = self.offset[lvl_dst], self.offset[lvl_src]
        return big.submatrix(
            range(ro, ro + self.dims[lvl_dst - 1]),
            range(co, co + self.dims[lvl_src - 1]),
        )

    def block(self, vec, lvl_src, lvl_dst):
        """The corner of id_dst * m * id_src, sliced straight from the
        vectorized matrix m (a word-lattice basis vector)."""
        t = self.total
        co = self.offset[lvl_src]
        c1 = co + self.dims[lvl_src - 1]
        ro = self.offset[lvl_dst]
        a = [vec[i * t + co:i * t + c1] for i in range(ro, ro + self.dims[lvl_dst - 1])]
        return Mat._trusted(self.dom, a, len(a), c1 - co)

    def padded_block(self, vec, lvl_src, lvl_dst):
        """id_dst * m * id_src for the vectorized matrix m: its level block
        in place and zeros elsewhere."""
        t, z = self.total, self.dom.zero()
        co = self.offset[lvl_src]
        a = [[z] * t for _ in range(t)]
        for i, row in enumerate(self.block(vec, lvl_src, lvl_dst).a, self.offset[lvl_dst]):
            a[i][co:co + len(row)] = row
        return Mat._trusted(self.dom, a, t, t)


@lru_cache(maxsize=None)
def shared_representation(dom=ZZ):
    """A memoized Representation; the verification suites all share it."""
    return Representation(dom)


def _vec(m):
    return [x for row in m.a for x in row]


MAX_ROUNDS = 16   # rounds of the word-lattice closure before it gives up


def algebra_dimension(rep):
    """Dimension over Q of the unital algebra generated by the images: the
    rank over Q of the word-lattice basis, which spans that algebra."""
    span = RationalSpan(rep.total * rep.total)
    for vec in word_lattice(rep)[0].basis:
        span.insert(vec)
    return span.rank


def word_lattice(rep):
    """The span over the base domain of all composable generator words,
    as a LatticeSpan of vectorized matrices, with the matrices that grew it.

    The generator images go in first, then every product g * b of a
    generator g with a matrix b that grew the lattice in the previous
    round, until a round adds nothing."""
    cached = getattr(rep, "_word_lattice", None)
    if cached is not None:
        return cached
    lat = LatticeSpan(rep.dom, rep.total * rep.total)
    gens = list(rep.gen_mats.values())
    frontier = [g for g in gens if lat.insert(_vec(g))]
    mats = frontier[:]
    for _ in range(MAX_ROUNDS):
        new = []
        for g in gens:
            for b in frontier:
                prod = g * b
                if lat.insert(_vec(prod)):
                    new.append(prod)
        if not new:
            rep._word_lattice = (lat, mats)
            return lat, mats
        mats += new
        frontier = new
    raise RuntimeError("word lattice did not stabilize")


def hom_lattice(rep, src, dst):
    """An integral basis, as corner matrices, of id_dst * words * id_src."""
    cache = getattr(rep, "_hom_lattices", None)
    if cache is None:
        cache = rep._hom_lattices = {}
    if (src, dst) in cache:
        return cache[(src, dst)]
    lat, _ = word_lattice(rep)
    rows, cols = rep.dims[dst - 1], rep.dims[src - 1]
    span = LatticeSpan(rep.dom, rows * cols)
    for col in lat.basis:
        span.insert(_vec(rep.block(col, src, dst)))
    basis = [
        Mat(rep.dom, [v[i * cols:(i + 1) * cols] for i in range(rows)])
        for v in span.basis
    ]
    cache[(src, dst)] = basis
    return basis


def ideal_lattice(rep, lattice_mats, corner_gen):
    """The lattice spanned by b1 * corner_gen * b2 over the word lattice."""
    cache = getattr(rep, "_ideal_lattices", None)
    if cache is None:
        cache = rep._ideal_lattices = {}
    key = tuple(_vec(corner_gen))
    if key in cache:
        return cache[key]
    lat = LatticeSpan(rep.dom, rep.total * rep.total)
    left = [b * corner_gen for b in lattice_mats]
    for l in left:
        if l.is_zero():
            continue
        for r in lattice_mats:
            prod = l * r
            if not prod.is_zero():
                lat.insert(_vec(prod))
    cache[key] = lat
    return lat
