"""Column-lattice membership and equality on the Smith kernel.

The tests check the Hermite fold (``column_hermite``, ``LatticeSpan``) and
the presented modules against these: they run on ``smith_normal_form`` and
``smith_solve``, not on the fold.
"""

from cubefunc.matrix import smith_normal_form, smith_solve


def in_column_lattice(m, b):
    """Whether every column of b lies in the column lattice (span) of m."""
    u, s, _ = smith_normal_form(m)
    return smith_solve(u, s, b) is not None


def lattice_equal(m1, m2):
    return in_column_lattice(m1, m2) and in_column_lattice(m2, m1)
