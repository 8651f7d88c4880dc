"""Finitely presented modules and their morphisms.

A module is given by a generator count and a relation matrix whose columns
are relators.  Morphisms are matrices on generators, checked to carry the
source relators into the target relation lattice.  Every membership
test in a module, for its elements and for the maps into it, runs on one
Smith factorization of its relation matrix, computed on first use.
"""

from __future__ import annotations

from .matrix import (
    Mat,
    column_hermite,
    kernel as mat_kernel,
    smith_normal_form,
    smith_solve,
)


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

    def __add__(self, other):
        return ModuleMorphism(
            self.source, self.target, self.matrix + other.matrix, check=False
        )

    def __sub__(self, other):
        return ModuleMorphism(
            self.source, self.target, self.matrix - other.matrix, check=False
        )

    def __neg__(self):
        return ModuleMorphism(self.source, self.target, -self.matrix, check=False)

    def scale(self, c):
        return ModuleMorphism(
            self.source, self.target, self.matrix.scale(c), check=False
        )

    def is_zero(self):
        return self.target.element_is_zero(self.matrix)


def compose(g, f):
    """g after f."""
    if f.target.gens != g.source.gens:
        raise ValueError("composition shape mismatch")
    return ModuleMorphism(f.source, g.target, g.matrix * f.matrix, check=False)


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
    """Direct sum with split injections and projections."""
    if not summands:
        raise ValueError("need at least one summand")
    d = summands[0].dom
    total = sum(p.gens for p in summands)
    rels = Mat.direct_sum(d, [p.relations for p in summands])
    pres = FpPresentation(d, total, rels)
    injections, projections = [], []
    offset = 0
    for p in summands:
        inj = Mat.zeros(d, total, p.gens)
        prj = Mat.zeros(d, p.gens, total)
        for i in range(p.gens):
            inj.a[offset + i][i] = d.one()
            prj.a[i][offset + i] = d.one()
        injections.append(ModuleMorphism(p, pres, inj, check=False))
        projections.append(ModuleMorphism(pres, p, prj, check=False))
        offset += p.gens
    return pres, injections, projections
