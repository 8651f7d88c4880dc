"""A matrix model of the structure-map calculus.

The direct sum of the diagrams of all seven built-in functors gives total
spaces of ranks 6, 15, 12.  The six structure maps act on the 33-dimensional
sum, and the rational algebra they generate has dimension 39.  Nothing here
shows that the model is faithful to the defining presentation: a "= 0"
verdict decided here holds in the model, and a "!= 0" verdict transfers to
the presented ring, which maps onto the model.

The model is graded by level pair.  A word from level s to level t, and so
every ``Expr`` (whose terms share one type), lives in the level block
(s, t) of the 33x33 matrix: the Hom group A(s, t).  Words are multiplied
as level blocks, and the level ranks differ, so a product of two words that
do not compose fails on its shapes.  The word and ideal lattices are kept as
one ``LatticeSpan`` of vectorized blocks per level pair, and a closure needs
only the composable products.  ``Representation.eval`` pads a block to the
33x33 matrix for callers that want the whole matrix.
"""

from __future__ import annotations

from functools import lru_cache

from .functors import FUNCTOR_IDS, builtin, extract_diagram
from .matrix import LatticeSpan, Mat, RationalSpan
from .rings import GEN_TYPES

LEVELS = (1, 2, 3)


@lru_cache(maxsize=None)
def faithful_diagram(dom):
    """The direct sum of all built-in diagrams over the given domain."""
    total = None
    for fid in FUNCTOR_IDS:
        d = extract_diagram(builtin(fid, dom))
        total = d if total is None else total.direct_sum(d)
    return total


class Representation:
    """Images of the nine generator letters on F1+F2+F3: each as its level
    block (``gen_blocks``) and as a padded 33x33 matrix (``gen_mats``)."""

    def __init__(self, dom):
        self.dom = dom
        self.diagram = faithful_diagram(dom)
        dims = (self.diagram.F1.gens, self.diagram.F2.gens, self.diagram.F3.gens)
        self.dims = dims
        self.total = sum(dims)
        self.offset = {1: 0, 2: dims[0], 3: dims[0] + dims[1]}
        self.gen_blocks = self.diagram.letters()
        self.gen_mats = {
            name: self.pad(*GEN_TYPES[name], m) for name, m in self.gen_blocks.items()
        }

    def pad(self, src, dst, block):
        """The 33x33 matrix with the (src, dst) level block in place and
        zeros elsewhere."""
        t, z = self.total, self.dom.zero()
        co = self.offset[src]
        a = [[z] * t for _ in range(t)]
        for i, row in enumerate(block.a, self.offset[dst]):
            a[i][co:co + len(row)] = row
        return Mat._trusted(self.dom, a, t, t)

    def eval(self, expr):
        """The 33x33 matrix of a formal expression (padded to full size)."""
        if expr.src is None:
            return Mat.zeros(self.dom, self.total, self.total)
        return self.pad(expr.src, expr.dst, self.diagram.evaluate(expr))

    def corner(self, big, lvl_src, lvl_dst):
        ro, co = self.offset[lvl_dst], self.offset[lvl_src]
        return big.submatrix(
            range(ro, ro + self.dims[lvl_dst - 1]),
            range(co, co + self.dims[lvl_src - 1]),
        )


class GradedLattice:
    """A lattice of level blocks, kept as one LatticeSpan of vectorized
    blocks per level pair (src, dst); ``grown`` lists (src, dst, block) of
    every insert that grew it, in order."""

    def __init__(self, rep):
        self.blocks = {
            (s, t): LatticeSpan(rep.dom, rep.dims[t - 1] * rep.dims[s - 1])
            for s in LEVELS for t in LEVELS
        }
        self.grown = []

    def insert(self, src, dst, block):
        """Add a (src, dst) level block; returns True if the lattice grew."""
        grew = self.blocks[src, dst].insert(block.flat())
        if grew:
            self.grown.append((src, dst, block))
        return grew

    def has(self, src, dst, block):
        """Whether the lattice holds the (src, dst) level block."""
        return self.blocks[src, dst].contains(block.flat())

    @property
    def rank(self):
        return sum(lat.rank for lat in self.blocks.values())


@lru_cache(maxsize=None)
def shared_representation(dom):
    """A memoized Representation; the verification suites all share it."""
    return Representation(dom)


def _unvec(dom, vec, cols):
    """The matrix whose rows, cols entries each, are read off vec in turn."""
    return Mat(dom, [vec[i:i + cols] for i in range(0, len(vec), cols)])


MAX_ROUNDS = 16   # rounds of the word-lattice closure before it gives up


def algebra_dimension(rep):
    """Dimension over Q of the unital algebra generated by the images: the
    rank over Q of the word-lattice basis, which spans that algebra.  The
    level blocks occupy disjoint entries, so their ranks add up."""
    dim = 0
    for lat in word_lattice(rep).blocks.values():
        span = RationalSpan(lat.n)
        for vec in lat.basis:
            span.insert(vec)
        dim += span.rank
    return dim


def word_lattice(rep):
    """The span over the base domain of all composable generator words, as
    a GradedLattice.

    The generator blocks go in first, then every product g * b of a
    generator g with a block b that grew the lattice in the previous round
    and ends where g starts, until a round adds nothing."""
    cached = getattr(rep, "_word_lattice", None)
    if cached is not None:
        return cached
    lat = GradedLattice(rep)
    gens = [(*GEN_TYPES[name], g) for name, g in rep.gen_blocks.items()]
    for gen in gens:
        lat.insert(*gen)
    done = 0
    for _ in range(MAX_ROUNDS):
        frontier, done = lat.grown[done:], len(lat.grown)
        for gs, gt, g in gens:
            for bs, bt, b in frontier:
                if bt == gs:
                    lat.insert(bs, gt, g * b)
        if len(lat.grown) == done:
            rep._word_lattice = lat
            return lat
    raise RuntimeError("word lattice did not stabilize")


def hom_lattice(rep, src, dst):
    """An integral basis, as level-block matrices, of the words from level
    src to level dst: the basis of block (src, dst) of the word lattice."""
    lat = word_lattice(rep).blocks[src, dst]
    return [_unvec(rep.dom, v, rep.dims[src - 1]) for v in lat.basis]


def ideal_lattice(rep, name):
    """The lattice spanned by b1 * g * b2 for the generator g called name
    and b1, b2 in the word lattice, as a GradedLattice."""
    cache = getattr(rep, "_ideal_lattices", None)
    if cache is None:
        cache = rep._ideal_lattices = {}
    if name in cache:
        return cache[name]
    gs, gt = GEN_TYPES[name]
    g = rep.gen_blocks[name]
    grown = word_lattice(rep).grown
    lat = GradedLattice(rep)
    for s1, t1, b1 in grown:
        if s1 == gt:
            left = b1 * g
            for s2, t2, b2 in grown:
                if t2 == gs:
                    lat.insert(s2, t1, left * b2)
    cache[name] = lat
    return lat
