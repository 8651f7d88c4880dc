"""Finitely presented modules, their morphisms, and quiver representations
in them.

A module is given by a generator count and a relation matrix whose columns
are relators.  Morphisms are matrices on generators, checked to carry the
source relators into the target relation lattice.  Every membership
test in a module, for its elements and for the maps into it, runs on one
Smith factorization of its relation matrix, computed on first use.

QuiverRep holds a representation of a quiver in presented modules: a module
at each vertex and a morphism along each arrow.  Every diagram of the paper
is one, on its own quiver: the cubic diagrams (functors.CubicDiagram), the
modules over the quadruple ring and the xi/eta diagrams of the weakly
alternative class (strings_bands.BModuleDiagram, WDiagram), and the
A(1,1)-modules (wildness.A11Module).  A subclass names its quiver and the
identities its diagrams satisfy; relation checks, direct sums and
truncations are the base class's.
"""

from __future__ import annotations

from .matrix import (
    Mat,
    column_hermite,
    kernel as mat_kernel,
    smith_normal_form,
    smith_solve,
)
from .rings import LETTERS


class FpPresentation:
    """Module presented as coker(relations: D^r -> D^g).

    The relation matrix is fixed once the module is made: the Smith form
    that the membership tests share is computed from it once."""

    __slots__ = ("dom", "gens", "relations", "_smith")

    def __init__(self, dom, gens, relations=None):
        self.dom = dom
        self.gens = gens
        if relations is None:
            relations = Mat.zeros(dom, gens, 0)
        if relations.rows != gens:
            raise ValueError("relation matrix must have one row per generator")
        if relations.dom != dom:
            raise ValueError("domain mismatch")
        self.relations = relations
        self._smith = None

    @staticmethod
    def free(dom, n):
        return FpPresentation(dom, n)

    @staticmethod
    def zero(dom):
        return FpPresentation(dom, 0)

    def __repr__(self):
        return f"FpPresentation({self.dom}, gens={self.gens}, rels={self.relations.cols})"

    def identity(self):
        return ModuleMorphism(self, self, Mat.identity(self.dom, self.gens))

    def invariant_factors(self):
        """Return (torsion, free_rank) where torsion is a list of
        (factor, multiplicity) pairs in divisibility order, units dropped."""
        d = self.dom
        if not d.is_pid:
            from .domains import UnsupportedDomainError

            raise UnsupportedDomainError(f"invariant factors need a PID, not {d}")
        _, s = self._smith_form()
        facts = []
        r = 0
        for i in range(min(s.rows, s.cols)):
            x = s.a[i][i]
            if d.is_zero(x):
                continue
            r += 1
            if not d.is_unit(x):
                facts.append(x)
        torsion = []
        for f in facts:
            if torsion and torsion[-1][0] == f:
                torsion[-1] = (f, torsion[-1][1] + 1)
            else:
                torsion.append((f, 1))
        return torsion, self.gens - r

    def is_zero_module(self):
        torsion, free = self.invariant_factors()
        return free == 0 and not torsion

    def _smith_form(self):
        """(u, s) of the Smith form u * relations * v == s, computed once."""
        if self._smith is None:
            u, s, _ = smith_normal_form(self.relations)
            self._smith = (u, s)
        return self._smith

    def element_is_zero(self, col):
        """Whether a generator-coordinate column vector is 0 in the module;
        given a matrix, whether every one of its columns is."""
        u, s = self._smith_form()
        return smith_solve(u, s, col) is not None


class ModuleMorphism:
    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, check=True):
        if source.dom != target.dom or matrix.dom != source.dom:
            raise ValueError("domain mismatch")
        if matrix.rows != target.gens or matrix.cols != source.gens:
            raise ValueError(
                f"morphism matrix must be {target.gens}x{source.gens}, "
                f"got {matrix.rows}x{matrix.cols}"
            )
        self.source = source
        self.target = target
        self.matrix = matrix
        if check and not self.is_well_defined():
            raise ValueError("matrix does not respect the relations")

    def is_well_defined(self):
        return self.target.element_is_zero(self.matrix * self.source.relations)

    def __repr__(self):
        return f"ModuleMorphism({self.source} -> {self.target})"

    def __eq__(self, other):
        """Equality as module maps, not as matrices."""
        if not isinstance(other, ModuleMorphism):
            return NotImplemented
        if self.source.gens != other.source.gens or self.target.gens != other.target.gens:
            return False
        diff = self.matrix - other.matrix
        return self.target.element_is_zero(diff)

    def __hash__(self):
        raise TypeError("module morphisms are not hashable")

    def is_zero(self):
        return self.target.element_is_zero(self.matrix)


def _lattice_preimage(f_matrix, target_relations):
    """Columns x with f_matrix * x in the column lattice of target_relations."""
    big = f_matrix.hstack(target_relations)
    k = mat_kernel(big)
    return k.submatrix(range(f_matrix.cols), range(k.cols))


def kernel(f):
    """Kernel of f as (presentation, inclusion morphism into the source)."""
    d = f.source.dom
    gens_mat = _lattice_preimage(f.matrix, f.target.relations)
    gens_mat = column_hermite(gens_mat) if gens_mat.cols else gens_mat
    rels = _lattice_preimage(gens_mat, f.source.relations)
    pres = FpPresentation(d, gens_mat.cols, rels)
    incl = ModuleMorphism(pres, f.source, gens_mat, check=False)
    return pres, incl


def image(f):
    """Image of f as (presentation, inclusion morphism into the target).

    Generators are the images of the source generators, so the inclusion
    matrix is just f's matrix.
    """
    d = f.source.dom
    rels = _lattice_preimage(f.matrix, f.target.relations)
    pres = FpPresentation(d, f.source.gens, rels)
    incl = ModuleMorphism(pres, f.target, f.matrix, check=False)
    return pres, incl


def direct_sum(summands):
    """The direct sum: the generators of the summands in order, their
    relation matrices block-diagonal."""
    if not summands:
        raise ValueError("need at least one summand")
    d = summands[0].dom
    rels = Mat.direct_sum(d, [p.relations for p in summands])
    return FpPresentation(d, sum(p.gens for p in summands), rels)


class QuiverRep:
    """A representation of a quiver in presented modules over one domain.

    A subclass names its quiver: VERTICES, the vertex names, and ARROWS,
    the arrow names; rings.LETTERS types each arrow, and a letter of type
    (s, t) is an arrow from vertex s - 1 to vertex t - 1.  The constructor
    takes the module of each vertex and then the map along each arrow, a
    Mat or a ModuleMorphism, in that order, by position or by name; each
    becomes an attribute of that name.  With check=True every
    arrow is checked to respect the module relations, and the identities in
    RELATIONS are verified; a failure raises ValueError.

    An identity is a (name, defect) pair, defect a rings.Expr whose letters
    are the arrow names and id1, id2, .. for the identity of vertex 0, 1,
    ..; it holds when the defect is 0 as a map of presented modules."""

    VERTICES = ()
    ARROWS = ()
    RELATIONS = ()

    def __init__(self, *parts, check=True, **named):
        names = self.VERTICES + self.ARROWS
        given = dict(zip(names, parts), **named)
        if len(parts) + len(named) != len(names) or set(given) != set(names):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}, each once")
        mods = tuple(given[v] for v in self.VERTICES)
        self._modules = mods
        for v, m in zip(self.VERTICES, mods):
            setattr(self, v, m)
        arrows = []
        for name in self.ARROWS:
            s, t = (k - 1 for k in LETTERS[name])
            f = given[name]
            f = ModuleMorphism(mods[s], mods[t], getattr(f, "matrix", f), check=check)
            setattr(self, name, f)
            arrows.append((s, t, f))
        self.arrows = tuple(arrows)
        self._letters = None
        if check and self.RELATIONS:
            ok, report = self.verify(self.RELATIONS)
            if not ok:
                bad = [name for name, good in report if not good]
                raise ValueError(f"{type(self).__name__} relations fail: {bad}")

    @property
    def dom(self):
        return self._modules[0].dom

    def modules(self):
        return self._modules

    def maps(self):
        """{arrow name: ModuleMorphism}, in the order of ARROWS."""
        return {name: f for name, (_, _, f) in zip(self.ARROWS, self.arrows)}

    def letters(self):
        """{letter: Mat}: the matrix of each arrow, and the identity matrix
        id<k> of vertex k - 1; the map that evaluate reads."""
        if self._letters is None:
            self._letters = {name: f.matrix for name, f in self.maps().items()}
            for k, m in enumerate(self._modules, 1):
                self._letters[f"id{k}"] = Mat.identity(self.dom, m.gens)
        return self._letters

    def evaluate(self, expr):
        """The matrix of a rings.Expr: each word multiplied right to left
        with every letter read as its matrix, and the words summed with
        their coefficients."""
        if expr.src is None:
            raise ValueError("zero expression has no shape; compare via defect")
        mats, d = self.letters(), self.dom
        acc = Mat.zeros(d, self._modules[expr.dst - 1].gens, self._modules[expr.src - 1].gens)
        for w, c in expr.terms.items():
            m = mats[w[-1]]
            for g in reversed(w[:-1]):
                m = mats[g] * m
            acc = acc + m.scale(d.canon(c))
        return acc

    def verify(self, relations):
        """Check identities, given as (name, defect) pairs; returns
        (ok, [(name, holds)]).  An identity holds when every column of the
        defect's matrix is 0 in the module of its target vertex."""
        report = [(name, not defect.terms or self._modules[defect.dst - 1].element_is_zero(
            self.evaluate(defect))) for name, defect in relations]
        return all(good for _, good in report), report

    def direct_sum(self, other):
        """The direct sum with a representation of the same quiver."""
        if type(other) is not type(self) or other.dom != self.dom:
            raise ValueError("a direct sum needs two representations of one quiver over one domain")
        mods = [direct_sum([a, b]) for a, b in zip(self._modules, other._modules)]
        mats = [Mat.direct_sum(self.dom, [f.matrix, g.matrix])
                for (_, _, f), (_, _, g) in zip(self.arrows, other.arrows)]
        return type(self)(*mods, *mats, check=False)

    def truncate(self, q):
        """The quotient by q: q times every generator joins the relations of
        each vertex, and the arrows keep their matrices, which respect q."""
        mods = [FpPresentation(m.dom, m.gens, m.relations.hstack(Mat.diag(m.dom, [q] * m.gens)))
                for m in self._modules]
        return type(self)(*mods, *(f.matrix for _, _, f in self.arrows), check=False)

    def invariant_factors(self):
        """FpPresentation.invariant_factors of each vertex."""
        return tuple(m.invariant_factors() for m in self._modules)
