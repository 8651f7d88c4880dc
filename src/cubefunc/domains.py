"""Exact coefficient domains: Z, localizations, Z[1/S] and Z/m.

Every element is a plain Python int or Fraction kept in a canonical form
chosen by the domain; all arithmetic is exact.  The prime field GF(p) is
Z/p: ``GF(p)`` checks that p is prime and returns ``Zmod(p)``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd


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
    - "mod"  : Z/m, a field when m is prime
    """

    __slots__ = ("kind", "p", "inverted", "m")

    def __init__(self, kind, p=None, inverted=None, m=None):
        self.kind = kind
        self.p = p
        self.inverted = tuple(sorted(inverted)) if inverted else None
        self.m = m
        if kind == "loc":
            if not _is_prime(p):
                raise ValueError(f"localization prime must be prime, got {p}")
        elif kind == "inv":
            if not self.inverted or not all(_is_prime(x) for x in self.inverted):
                raise ValueError(f"inverted set must be primes, got {inverted}")
        elif kind == "mod":
            if m < 2:
                raise ValueError(f"modulus must be >= 2, got {m}")
        elif kind != "Z":
            raise ValueError(f"unknown domain kind {kind!r}")

    # -- identity / hashing -------------------------------------------------

    def _key(self):
        return (self.kind, self.p, self.inverted, self.m)

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
        return f"Z/{self.m}"

    # -- structural predicates ----------------------------------------------

    @property
    def is_field(self):
        return self.kind == "mod" and _is_prime(self.m)

    @property
    def is_pid(self):
        if self.kind in ("Z", "loc", "inv"):
            return True
        return self.is_field

    @property
    def characteristic(self):
        return self.m if self.kind == "mod" else 0

    # -- element arithmetic --------------------------------------------------

    def canon(self, x):
        """Canonical form of an element given as an int (or numpy integer)
        or a Fraction.  A float or another type raises TypeError; a proper
        fraction over Z or Z/m raises ValueError."""
        if self.kind == "Z":
            return x if type(x) is int else _as_int(x)
        if self.kind in ("loc", "inv"):
            if type(x) is not Fraction:
                x = Fraction(x if type(x) is int or isinstance(x, Fraction) else _as_int(x))
            self._check_denominator(x.denominator)
            return x
        return (x if type(x) is int else _as_int(x)) % self.m

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
        if self.kind == "mod":
            return (a + b) % self.m
        return a + b

    def neg(self, a):
        if self.kind == "mod":
            return (-a) % self.m
        return -a

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.kind == "mod":
            return (a * b) % self.m
        return a * b

    def is_zero(self, a):
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
        return gcd(a, self.m) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in {self}")
        if self.kind == "Z":
            return a
        if self.kind in ("loc", "inv"):
            return 1 / Fraction(a)
        return pow(a, -1, self.m)

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
        """Whether a | b in the domain.  In Z/m, a is associate to
        gcd(a, m), so a | b iff gcd(a, m) | b."""
        if self.kind == "mod":
            return b % gcd(a, self.m) == 0
        if self.is_zero(a):
            return self.is_zero(b)
        try:
            self.div(b, a)
            return True
        except (ValueError, ZeroDivisionError):
            return False

    def canonical_associate(self, a):
        """The canonical representative of a up to units: |a| in Z, the
        p-part in Z_(p), a with the inverted primes stripped in Z[1/S],
        and gcd(a, m) in Z/m (0 for 0, 1 for a unit)."""
        if self.is_zero(a):
            return self.zero()
        if self.kind == "mod":
            return gcd(a, self.m)
        if self.kind == "Z":
            return abs(a)
        n = abs(Fraction(a).numerator)
        if self.kind == "loc":
            # keep only the p-part
            k = 0
            while n % self.p == 0:
                n //= self.p
                k += 1
            return Fraction(self.p**k)
        # inv: strip inverted primes
        for p in self.inverted:
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
        return d

    @staticmethod
    def from_json(d):
        return Domain(d["kind"], p=d.get("p"), inverted=d.get("inverted"), m=d.get("m"))

    def elem_to_str(self, a):
        if isinstance(a, Fraction):
            return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)
        return str(a)

    def elem_from_str(self, s):
        if "/" in s:
            return self.canon(Fraction(s))
        return self.canon(int(s))


def Zloc(p):
    return Domain("loc", p=p)


def Zmod(m):
    return Domain("mod", m=m)


def GF(p):
    """The prime field GF(p), which is Z/p."""
    if not _is_prime(p):
        raise ValueError(f"GF order must be prime, got {p}")
    return Zmod(p)


# Common domains
ZZ = Domain("Z")
GF2 = GF(2)
GF3 = GF(3)
Z_HALF = Domain("inv", inverted=(2,))
