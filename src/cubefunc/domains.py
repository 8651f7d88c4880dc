"""Exact coefficient domains: Z, localizations, Z[1/S], Z/m, and small finite fields.

Every element is a plain Python value (int, Fraction, or coefficient tuple)
kept in a canonical form chosen by the domain; all arithmetic is exact.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .polys import first_irreducible, poly_divmod, poly_mul, poly_pow


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_power(q: int):
    """Return (p, k) with q == p**k, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1) if _is_prime(q) else None
        if q % p:
            continue
        k, m = 0, q
        while m % p == 0:
            m //= p
            k += 1
        return (p, k) if m == 1 else None
    return None


def _as_int(x):
    """x as an int: ints, numpy integers and integral Fractions pass, a
    proper fraction raises ValueError and anything else TypeError."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"{x} is not an integer")
        return x.numerator
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"{type(x).__name__} {x!r} is not an exact integer") from None


class UnsupportedDomainError(ValueError):
    """Raised when an operation needs a domain property that does not hold."""


class Domain:
    """A coefficient domain.  kind is one of:

    - "Z"    : the integers
    - "loc"  : Z localized at a prime p (fractions with denominator prime to p)
    - "inv"  : Z with a set of primes inverted, e.g. Z[1/2]
    - "mod"  : Z/m
    - "gf"   : the field GF(q), q a prime power
    """

    __slots__ = ("kind", "p", "inverted", "m", "q", "char", "deg", "_modulus")

    def __init__(self, kind, p=None, inverted=None, m=None, q=None):
        self.kind = kind
        self.p = p
        self.inverted = tuple(sorted(inverted)) if inverted else None
        self.m = m
        self.q = q
        self.char = None
        self.deg = None
        self._modulus = None
        if kind == "loc":
            if not _is_prime(p):
                raise ValueError(f"localization prime must be prime, got {p}")
        elif kind == "inv":
            if not self.inverted or not all(_is_prime(x) for x in self.inverted):
                raise ValueError(f"inverted set must be primes, got {inverted}")
        elif kind == "mod":
            if m < 2:
                raise ValueError(f"modulus must be >= 2, got {m}")
        elif kind == "gf":
            pk = _prime_power(q)
            if pk is None:
                raise ValueError(f"GF order must be a prime power, got {q}")
            self.char, self.deg = pk
            if self.deg > 1:
                self._modulus = first_irreducible(self.char, self.deg) + (1,)
        elif kind != "Z":
            raise ValueError(f"unknown domain kind {kind!r}")

    # -- identity / hashing -------------------------------------------------

    def _key(self):
        return (self.kind, self.p, self.inverted, self.m, self.q)

    def __eq__(self, other):
        return isinstance(other, Domain) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.kind == "Z":
            return "Z"
        if self.kind == "loc":
            return f"Z_({self.p})"
        if self.kind == "inv":
            return "Z[1/{}]".format(",".join(str(x) for x in self.inverted))
        if self.kind == "mod":
            return f"Z/{self.m}"
        return f"GF({self.q})"

    # -- structural predicates ----------------------------------------------

    @property
    def is_field(self):
        return self.kind == "gf" or (self.kind == "mod" and _is_prime(self.m))

    @property
    def is_pid(self):
        if self.kind in ("Z", "loc", "inv"):
            return True
        return self.is_field

    @property
    def characteristic(self):
        if self.kind == "gf":
            return self.char
        if self.kind == "mod":
            return self.m
        return 0

    # -- element arithmetic --------------------------------------------------

    def canon(self, x):
        """Canonical form of an element given as an int (or numpy integer),
        a Fraction, or a coefficient tuple over GF(p^k), k > 1.  A float or
        another type raises TypeError; a proper fraction over Z, Z/m or
        GF(q) raises ValueError."""
        if self.kind == "Z":
            return x if type(x) is int else _as_int(x)
        if self.kind in ("loc", "inv"):
            if type(x) is not Fraction:
                x = Fraction(x if type(x) is int or isinstance(x, Fraction) else _as_int(x))
            self._check_denominator(x.denominator)
            return x
        if self.kind == "mod":
            return (x if type(x) is int else _as_int(x)) % self.m
        # gf
        if self.deg == 1:
            return (x if type(x) is int else _as_int(x)) % self.char
        if not isinstance(x, (tuple, list)):
            return (_as_int(x) % self.char,) + (0,) * (self.deg - 1)
        t = tuple(_as_int(c) % self.char for c in x)
        if len(t) != self.deg:
            raise ValueError(f"GF({self.q}) element needs {self.deg} coefficients")
        return t

    def _check_denominator(self, d):
        if self.kind == "loc":
            if d % self.p == 0:
                raise ValueError(f"denominator {d} not invertible in {self}")
        else:
            for p in self.inverted:
                while d % p == 0:
                    d //= p
            if d != 1:
                raise ValueError(f"denominator has a prime outside {self.inverted}")

    def zero(self):
        return self.canon(0)

    def one(self):
        return self.canon(1)

    def add(self, a, b):
        if self.kind == "gf" and self.deg > 1:
            return tuple((x + y) % self.char for x, y in zip(a, b))
        if self.kind == "mod":
            return (a + b) % self.m
        if self.kind == "gf":
            return (a + b) % self.char
        return a + b

    def neg(self, a):
        if self.kind == "gf" and self.deg > 1:
            return tuple((-x) % self.char for x in a)
        if self.kind == "mod":
            return (-a) % self.m
        if self.kind == "gf":
            return (-a) % self.char
        return -a

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.kind == "gf" and self.deg > 1:
            return self._gf_reduce(poly_mul(self.char, a, b))
        if self.kind == "mod":
            return (a * b) % self.m
        if self.kind == "gf":
            return (a * b) % self.char
        return a * b

    def _gf_reduce(self, c):
        """A polynomial as an element: its remainder mod the field's
        modulus, padded to deg coefficients."""
        r = poly_divmod(self.char, c, self._modulus)[1]
        return r + (0,) * (self.deg - len(r))

    def is_zero(self, a):
        if self.kind == "gf" and self.deg > 1:
            return all(c == 0 for c in a)
        return a == 0

    def is_unit(self, a):
        if self.is_zero(a):
            return False
        if self.kind == "Z":
            return a in (1, -1)
        if self.kind == "loc":
            return Fraction(a).numerator % self.p != 0
        if self.kind == "inv":
            n = abs(Fraction(a).numerator)
            for p in self.inverted:
                while n % p == 0:
                    n //= p
            return n == 1
        if self.kind == "mod":
            from math import gcd

            return gcd(a, self.m) == 1
        return True  # field, nonzero

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in {self}")
        if self.kind == "Z":
            return a
        if self.kind in ("loc", "inv"):
            return 1 / Fraction(a)
        if self.kind == "mod":
            return pow(a, -1, self.m)
        if self.deg == 1:
            return pow(a, -1, self.char)
        # extension field: a^(q-2)
        return self._gf_reduce(poly_pow(self.char, a, self.q - 2, self._modulus))

    def div(self, a, b):
        """Exact division a/b; raises if not exact in the domain."""
        if self.is_field:
            return self.mul(a, self.inv(b))
        if self.kind == "Z":
            q, r = divmod(a, b)
            if r:
                raise ValueError(f"{a} not divisible by {b} in Z")
            return q
        if self.kind in ("loc", "inv"):
            q = Fraction(a) / Fraction(b)
            self._check_denominator(q.denominator)
            return q
        raise UnsupportedDomainError(f"division not supported in {self}")

    def divides(self, a, b):
        """Whether a | b in the domain."""
        if self.is_zero(a):
            return self.is_zero(b)
        try:
            self.div(b, a)
            return True
        except (ValueError, ZeroDivisionError):
            return False

    def canonical_associate(self, a):
        """The canonical representative of a up to units (PID domains)."""
        if self.is_zero(a):
            return self.zero()
        if self.is_field:
            return self.one()
        if self.kind == "Z":
            return abs(a)
        f = Fraction(a)
        n = abs(f.numerator)
        primes = (self.p,) if self.kind == "loc" else self.inverted
        if self.kind == "loc":
            # keep only the p-part
            k = 0
            while n % self.p == 0:
                n //= self.p
                k += 1
            return Fraction(self.p**k)
        # inv: strip inverted primes
        for p in primes:
            while n % p == 0:
                n //= p
        return Fraction(n)

    # -- serialization ---------------------------------------------------

    def to_json(self):
        d = {"kind": self.kind}
        if self.kind == "loc":
            d["p"] = self.p
        elif self.kind == "inv":
            d["inverted"] = list(self.inverted)
        elif self.kind == "mod":
            d["m"] = self.m
        elif self.kind == "gf":
            d["q"] = self.q
        return d

    @staticmethod
    def from_json(d):
        return Domain(
            d["kind"],
            p=d.get("p"),
            inverted=d.get("inverted"),
            m=d.get("m"),
            q=d.get("q"),
        )

    def elem_to_str(self, a):
        if self.kind == "gf" and self.deg > 1:
            return ",".join(str(c) for c in a)
        if isinstance(a, Fraction):
            return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)
        return str(a)

    def elem_from_str(self, s):
        if self.kind == "gf" and self.deg > 1:
            return self.canon(tuple(int(c) for c in s.split(",")))
        if "/" in s:
            return self.canon(Fraction(s))
        return self.canon(int(s))


# Common domains
ZZ = Domain("Z")
GF2 = Domain("gf", q=2)
GF3 = Domain("gf", q=3)
Z_HALF = Domain("inv", inverted=(2,))


def Zloc(p):
    return Domain("loc", p=p)


def Zmod(m):
    return Domain("mod", m=m)


def GF(q):
    return Domain("gf", q=q)
