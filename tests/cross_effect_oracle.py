"""Reference cross-effects, independent of the streamed sum in functors.

- signed_sum_table is the table-based signed sum: it builds every image
  F(e_T) for T a subset of {0..n-1} first, keeps them in one table, and
  then sums (-1)^{|S|-|T|} F(e_T) over the subsets T of S.  The tests
  compare functors' streamed top cross-effect with it.
- cross_effect_ranks gives the ranks of the multi-diagonal cross-effects
  that the frozen expectations of tests/test_functors.py pin.
"""

from itertools import combinations

from cubefunc import functors
from cubefunc.matrix import Mat, rank


def signed_sum_table(f, n, S):
    """f(S) over the base domain from a table of all 2^n images F(e_T)."""
    table = {}
    for k in range(n + 1):
        for T in combinations(range(n), k):
            e = [[1 if (i == j and i in T) else 0 for j in range(n)] for i in range(n)]
            table[T] = f._act_int(e, n, n)
    r = f.rank(n)
    acc = [[0] * r for _ in range(r)]
    for k in range(len(S) + 1):
        sign = -1 if (len(S) - k) % 2 else 1
        for T in combinations(S, k):
            for i, row in enumerate(table[T]):
                for j, x in enumerate(row):
                    acc[i][j] += sign * x
    return Mat(f.base, acc)


def cross_effect_ranks(f, upto=3):
    """Ranks (r1, ..., r_upto) of the multi-diagonal cross-effects."""
    return tuple(rank(functors._top_cross_effect(f, m)) for m in range(1, upto + 1))
