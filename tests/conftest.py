"""Shared test helpers."""

import pytest

from lattice_oracle import lattice_equal


def _assert_column_hermite(h, m):
    """h has the defining properties of the column Hermite form of the
    lattice spanned by the columns of m:

    - no column is zero, and the columns are in lower echelon form with
      strictly increasing pivot rows;
    - each pivot is its own canonical associate (positive, over Z);
    - over Z, each entry in a later column's pivot row lies in [0, pivot);
    - h and m span the same lattice, checked by ``solve`` in both
      directions (it runs on the Smith kernel, not on the Hermite fold).

    Over Z these properties pin the form down uniquely."""
    d = h.dom
    assert (d, h.rows) == (m.dom, m.rows)
    pivots = []
    for k in range(h.cols):
        col = [h.a[i][k] for i in range(h.rows)]
        r = next((i for i, x in enumerate(col) if not d.is_zero(x)), None)
        assert r is not None, f"column {k} is zero"
        assert not pivots or r > pivots[-1], "pivot rows must increase"
        assert col[r] == d.canonical_associate(col[r])
        pivots.append(r)
    if d.kind == "Z":
        for k, r in enumerate(pivots):
            assert h.a[r][k] > 0
            for l in range(k):
                assert 0 <= h.a[r][l] < h.a[r][k], (l, k)
    assert lattice_equal(h, m)


@pytest.fixture(scope="session")
def assert_column_hermite():
    return _assert_column_hermite
