"""Polynomials over a prime field GF(p) = Z/p.

A polynomial is a tuple of ints in 0..p-1, lowest degree first, with no
trailing zeros; the zero polynomial is ().  Every function takes the prime
p first and accepts untrimmed coefficient sequences.  The band parameters
of the classification are primary polynomials, which enter matrices as
companion matrices over Z/p.
"""

from functools import lru_cache
from itertools import product


def poly_trim(c, p=None):
    """The coefficients as a trimmed tuple, reduced mod p when p is given."""
    c = [int(x) % p if p else int(x) for x in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_deg(c):
    return len(c) - 1


def poly_mul(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out, p)


def poly_divmod(p, a, b):
    """(q, r) with a = q b + r and deg r < deg b."""
    b = poly_trim(b, p)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(poly_trim(a, p))
    binv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * binv % p
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = list(poly_trim(a))
    return poly_trim(q), tuple(a)


def poly_pow(p, a, e):
    """a^e."""
    out, base = (1,), poly_trim(a, p)
    while e:
        if e & 1:
            out = poly_mul(p, out, base)
        e >>= 1
        if e:
            base = poly_mul(p, base, base)
    return out


def _monic_polys(p, d):
    """Every monic polynomial of degree d, in the order of
    itertools.product over the coefficients below the leading one."""
    for tail in product(range(p), repeat=d):
        yield tail + (1,)


def is_irreducible(p, f):
    """Whether f (monic, of positive degree) has no monic factor of
    degree 1 .. deg f / 2."""
    d = poly_deg(f)
    return d >= 1 and all(
        poly_divmod(p, f, g)[1]
        for dd in range(1, d // 2 + 1)
        for g in irreducible_polys(p, dd)
    )


@lru_cache(maxsize=None)
def irreducible_polys(p, d):
    """All monic irreducible polynomials of degree d, as a tuple in the
    order of _monic_polys."""
    return tuple(f for f in _monic_polys(p, d) if is_irreducible(p, f))


def primary_root(p, pi):
    """The monic irreducible phi with pi = phi^e, or None if pi is not
    primary (a power of a monic irreducible).  Coefficients are taken as
    given: one outside 0..p-1 makes pi non-primary."""
    pi = poly_trim(pi)
    d = poly_deg(pi)
    if d < 1 or pi[-1] != 1:
        return None
    for dd in range(1, d + 1):
        if d % dd:
            continue
        for phi in irreducible_polys(p, dd):
            if pi == poly_pow(p, phi, d // dd):
                return phi
    return None


def primary_polys(p, d):
    """All monic primary polynomials of degree d, sorted, as a new list."""
    out = []
    for dd in range(1, d + 1):
        if d % dd:
            continue
        for phi in irreducible_polys(p, dd):
            out.append(poly_pow(p, phi, d // dd))
    return sorted(out)


def reciprocal(p, pi):
    """The monic reciprocal lambda^-1 t^d pi(1/t), lambda = pi(0) != 0."""
    pi = poly_trim(pi, p)
    if not pi or pi[0] == 0:
        raise ValueError("the reciprocal needs pi(0) != 0")
    inv = pow(pi[0], -1, p)
    return tuple(inv * c % p for c in pi[::-1])


def companion_matrix(p, pi):
    """The d x d companion matrix of a monic pi, as lists of ints: ones
    below the diagonal and -pi_0 .. -pi_(d-1) in the last column."""
    d = poly_deg(pi)
    out = [[0] * d for _ in range(d)]
    for i in range(1, d):
        out[i][i - 1] = 1
    for i in range(d):
        out[i][d - 1] = -pi[i] % p
    return out
