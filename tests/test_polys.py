"""Polynomials over GF(p) = Z/p, with coefficients as ints: division,
irreducible and primary lists, the reciprocal and companion matrices."""

from itertools import product

import pytest

from cubefunc.polys import (
    companion_matrix,
    irreducible_polys,
    poly_divmod,
    poly_mul,
    poly_trim,
    primary_polys,
    primary_root,
    reciprocal,
)


def _monic(p, d):
    return [tail + (1,) for tail in product(range(p), repeat=d)]


def _mobius(n):
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_irreducible_count_is_the_necklace_number(p, d):
    necklaces = sum(_mobius(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
    assert len(irreducible_polys(p, d)) == necklaces


def _products(p, d):
    """Every product of two monic polynomials of positive degrees adding
    up to d: the reducible monic polynomials of degree d."""
    return {poly_mul(p, a, b)
            for da in range(1, d) for a in _monic(p, da) for b in _monic(p, d - da)}


@pytest.mark.parametrize("p", (2, 3))
def test_primary_test_agrees_with_brute_force_powers(p):
    irreducible = {d: [g for g in _monic(p, d) if g not in _products(p, d)]
                   for d in range(1, 5)}
    powers = set()
    for gs in irreducible.values():
        for g in gs:
            power = g
            while len(power) - 1 <= 4:
                powers.add(power)
                power = poly_mul(p, power, g)
    for d in range(1, 5):
        primaries = set(primary_polys(p, d))
        for f in _monic(p, d):
            assert (primary_root(p, f) is not None) == (f in powers), f
            assert (f in primaries) == (f in powers), f


def _add(p, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return poly_trim([x + y for x, y in zip(a, b)], p)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_divmod_gives_quotient_and_short_remainder(p):
    polys = [c for d in range(5) for c in product(range(p), repeat=d)]
    for a in polys[::3]:
        for b in polys[::5]:
            if not any(b):
                continue
            q, r = poly_divmod(p, a, b)
            assert len(r) < len(poly_trim(b))
            assert _add(p, poly_mul(p, q, b), r) == poly_trim(a)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_reciprocal_is_an_involution(p):
    for d in range(1, 4):
        for f in _monic(p, d):
            if f[0]:
                r = reciprocal(p, f)
                assert r[-1] == 1 and len(r) == len(f)
                assert reciprocal(p, r) == f
    with pytest.raises(ValueError):
        reciprocal(p, (0, 1))


def test_primary_list_is_a_new_list_each_call():
    first = primary_polys(2, 2)
    first.reverse()
    assert primary_polys(2, 2) == sorted(first) != first


@pytest.mark.parametrize("p, pi", [(2, (1, 1, 1)), (3, (2, 0, 1)), (5, (3, 4, 1))])
def test_companion_matrix_has_the_polynomial_as_characteristic(p, pi):
    # for d = 2: C^2 + pi_1 C + pi_0 = 0
    c = companion_matrix(p, pi)
    sq = [[sum(c[i][k] * c[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    eye = [[1, 0], [0, 1]]
    assert all((sq[i][j] + pi[1] * c[i][j] + pi[0] * eye[i][j]) % p == 0
               for i in range(2) for j in range(2))


# the first monic irreducible of degree k over GF(p) in the order of
# irreducible_polys, below the leading 1 (low to high)
MODULI = {
    (2, 2): (1, 1), (2, 3): (1, 0, 1), (2, 4): (1, 0, 0, 1), (2, 5): (1, 0, 0, 1, 0),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1),
    (3, 2): (1, 0), (3, 3): (1, 0, 2),
    (5, 2): (1, 1), (7, 2): (1, 0),
}


@pytest.mark.parametrize("pk, modulus", MODULI.items(), ids=str)
def test_domain_moduli_are_pinned(pk, modulus):
    first = irreducible_polys(*pk)[0]
    assert first == modulus + (1,)
    assert primary_root(pk[0], first) == first
