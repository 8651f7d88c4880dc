"""A faithful matrix model of the structure-map calculus.

The direct sum of the diagrams of all seven built-in functors gives total
spaces of ranks 6, 15, 12.  The six structure maps act on the 33-dimensional
sum, and the rational algebra they generate turns out to have dimension 39,
certifying that identities verified here hold in the defining presentation.

The model is graded by level pair.  A word from level s to level t, and so
every ``Expr`` (whose terms share one type), lives in the level block
(s, t) of the 33x33 matrix: the Hom group A(s, t).  A product g * b of two
words is zero unless g starts where b ends.  So words are multiplied as
level blocks and padded to 33x33 only on request, and the word and ideal
lattices are kept as one ``LatticeSpan`` of vectorized blocks per level
pair: each is the direct sum of its nine block lattices, and a closure
needs only the composable products.  Nothing is lost against one lattice of
1,089-entry vectorized matrices: the blocks occupy disjoint entries, and
row-major order within a block is the order of those entries in the big
vector.  So over Z, where the column Hermite form of a lattice is unique,
the embedded block bases sorted by pivot are exactly the Hermite basis of
the big lattice.  Over Z[1/2] they span the same lattice, but the basis may
differ: ``column_hermite`` there is no normal form, and the big lattice
folds its whole basis again on every insert.
"""

from __future__ import annotations

from functools import lru_cache

from .domains import ZZ
from .functors import FUNCTOR_IDS, builtin, extract_diagram
from .matrix import LatticeSpan, Mat, RationalSpan
from .rings import GEN_TYPES

LEVELS = (1, 2, 3)


@lru_cache(maxsize=None)
def faithful_diagram(dom=ZZ):
    """The direct sum of all built-in diagrams over the given domain."""
    total = None
    for fid in FUNCTOR_IDS:
        d = extract_diagram(builtin(fid, dom))
        total = d if total is None else total.direct_sum(d)
    return total


class Representation:
    """Images of the nine generator letters on F1+F2+F3: each as its level
    block (``gen_blocks``) and as a padded 33x33 matrix (``gen_mats``)."""

    def __init__(self, dom=ZZ):
        self.dom = dom
        self.diagram = faithful_diagram(dom)
        dims = (self.diagram.F1.gens, self.diagram.F2.gens, self.diagram.F3.gens)
        self.dims = dims
        self.total = sum(dims)
        self.offset = {1: 0, 2: dims[0], 3: dims[0] + dims[1]}
        maps = self.diagram.maps()
        self.gen_blocks = {
            name: Mat.identity(dom, dims[src - 1]) if name.startswith("id")
            else maps[name].matrix
            for name, (src, _) in GEN_TYPES.items()
        }
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

    def level_block(self, expr):
        """The (src, dst) level block of a nonzero expression, its words
        multiplied as blocks."""
        d = self.dom
        acc = Mat.zeros(d, self.dims[expr.dst - 1], self.dims[expr.src - 1])
        for w, c in expr.terms.items():
            m = self.gen_blocks[w[-1]]
            for g in reversed(w[:-1]):
                m = self.gen_blocks[g] * m
            acc = acc + m.scale(d.canon(c))
        return acc

    def eval(self, expr):
        """The 33x33 matrix of a formal expression (padded to full size)."""
        if expr.src is None:
            return Mat.zeros(self.dom, self.total, self.total)
        return self.pad(expr.src, expr.dst, self.level_block(expr))

    def corner(self, big, lvl_src, lvl_dst):
        ro, co = self.offset[lvl_dst], self.offset[lvl_src]
        return big.submatrix(
            range(ro, ro + self.dims[lvl_dst - 1]),
            range(co, co + self.dims[lvl_src - 1]),
        )


class GradedLattice:
    """A lattice of 33x33 matrices that each live in one level block, kept
    as one LatticeSpan of vectorized blocks per level pair (src, dst).

    ``basis``, ``rank`` and ``contains`` read it as the lattice of the
    vectorized 33x33 matrices; ``grown`` lists (src, dst, block) of every
    insert that grew it, in order."""

    def __init__(self, rep):
        self.rep = rep
        self.blocks = {
            (s, t): LatticeSpan(rep.dom, rep.dims[t - 1] * rep.dims[s - 1])
            for s in LEVELS for t in LEVELS
        }
        self.grown = []

    def insert(self, src, dst, block):
        """Add a (src, dst) level block; returns True if the lattice grew."""
        grew = self.blocks[src, dst].insert(_vec(block))
        if grew:
            self.grown.append((src, dst, block))
        return grew

    def has(self, src, dst, block):
        """Whether the lattice holds the (src, dst) level block."""
        return self.blocks[src, dst].contains(_vec(block))

    @property
    def rank(self):
        return sum(lat.rank for lat in self.blocks.values())

    @property
    def basis(self):
        """The block bases in place in vectorized 33x33 matrices, by pivot."""
        rep = self.rep
        cols = [
            _vec(rep.pad(s, t, _unvec(rep.dom, v, rep.dims[s - 1])))
            for (s, t), lat in self.blocks.items() for v in lat.basis
        ]
        return sorted(cols, key=lambda v: next(i for i, x in enumerate(v) if x))

    def contains(self, vec):
        """Whether the lattice holds the vectorized 33x33 matrix vec: each
        of its level blocks lies in the lattice of that block."""
        m = _unvec(self.rep.dom, vec, self.rep.total)
        return all(self.has(s, t, self.rep.corner(m, s, t)) for s, t in self.blocks)


@lru_cache(maxsize=None)
def shared_representation(dom=ZZ):
    """A memoized Representation; the verification suites all share it."""
    return Representation(dom)


def _vec(m):
    return [x for row in m.a for x in row]


def _unvec(dom, vec, cols):
    """The matrix whose rows, cols entries each, are read off vec in turn."""
    return Mat(dom, [vec[i:i + cols] for i in range(0, len(vec), cols)])


MAX_ROUNDS = 16   # rounds of the word-lattice closure before it gives up


def algebra_dimension(rep):
    """Dimension over Q of the unital algebra generated by the images: the
    rank over Q of the word-lattice basis, which spans that algebra."""
    span = RationalSpan(rep.total * rep.total)
    for vec in word_lattice(rep)[0].basis:
        span.insert(vec)
    return span.rank


def word_lattice(rep):
    """The span over the base domain of all composable generator words, as
    a GradedLattice, with the 33x33 matrices that grew it.

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
            rep._word_lattice = (lat, [rep.pad(*x) for x in lat.grown])
            return rep._word_lattice
    raise RuntimeError("word lattice did not stabilize")


def hom_lattice(rep, src, dst):
    """An integral basis, as level-block matrices, of the words from level
    src to level dst: the basis of block (src, dst) of the word lattice."""
    lat = word_lattice(rep)[0].blocks[src, dst]
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
    grown = word_lattice(rep)[0].grown
    lat = GradedLattice(rep)
    for s1, t1, b1 in grown:
        if s1 == gt:
            left = b1 * g
            for s2, t2, b2 in grown:
                if t2 == gs:
                    lat.insert(s2, t1, left * b2)
    cache[name] = lat
    return lat
