"""Reference checks for the GF(2) deciders and for locality certificates
over any GF(p), independent of their kernels.

- first_combination, the exhaustive oracle: it enumerates all 2^E
  combinations of a basis of square morphisms on gf2's batch kernel, as
  uint8 stacks [C, n, n] of at most chunk_bytes bytes.  Combination i is the
  sum of the basis elements at the set bits of i (the order of
  bit_matrix), so the first hit is the same in any chunking.  The
  deciders use linear algebra; the tests compare them with this search on
  small algebras.
- check_locality re-verifies a gf2.Locality certificate over GF(p) with
  int64 products and a rank on Python integers, not with the kernel's
  elimination.  It serves the GF(2) deciders and the 3-local probe.
- word parses a word of the strata alphabet from its text, for test data.
- rank is the rank of a 0/1 matrix over GF(2) on Python integers, for
  checks that do not use the kernel's elimination.
"""

import re

import numpy as np

from cubefunc import gf2

CHUNK_BYTES = 1 << 21


def word(text, cyclic=False):
    """The gf2.XWord written as text, such as "S7-R1~R15-S10"."""
    toks = re.findall(r"[RS]\d+|[~-]", text.replace(" ", ""))
    return gf2.XWord(toks[0::2], toks[1::2], cyclic=cyclic)


def bit_matrix(count, width):
    """Rows are the binary digits of 0..count-1, least significant first."""
    idx = np.arange(count, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(width, dtype=np.uint32)) & 1).astype(np.uint8)


def combinations(basis, lo, count):
    """Combinations lo .. lo + count - 1 of a basis stacked as [E, n, n]
    uint8, in the order of bit_matrix.  count is a power of two dividing
    lo: the low bits are filled in by doubling, the high ones are common."""
    out = np.empty((count,) + basis.shape[1:], dtype=np.uint8)
    out[0] = 0
    low = count.bit_length() - 1
    for e in range(low):
        out[1 << e: 2 << e] = out[: 1 << e] ^ basis[e]
    for e in range(low, len(basis)):
        if lo >> e & 1:
            out ^= basis[e]
    return out


def combination(basis, i, dims):
    """Combination i of a basis of square morphisms, one at a time."""
    out = tuple(gf2.zeros(n, n) for n in dims)
    for e, f in enumerate(basis):
        if i >> e & 1:
            out = tuple(a ^ b for a, b in zip(out, f))
    return out


def first_combination(basis, dims, test, chunk_bytes=CHUNK_BYTES):
    """The first combination of a basis of square GF(2) morphisms that
    passes test (gf2._invertible or gf2._mixed), or None."""
    comps = gf2._pack_basis(basis, dims)
    E = len(basis)
    per = max(1, sum(n * n for n in dims))
    size = 1 << min(E, max(0, (chunk_bytes // per).bit_length() - 1))
    for lo in range(0, 1 << E, size):
        hit = gf2._first(test([combinations(c, lo, size) for c in comps]))
        if hit is not None:
            return combination(basis, lo + hit, dims)
    return None


def is_local(basis, dims):
    """Whether every element of the algebra is nilpotent or invertible."""
    return first_combination(basis, dims, gf2._mixed) is None


def _rank(vecs, p=2):
    """Rank over GF(p) of integer vectors, on Python ints.  Over GF(2) a
    vector is one int and the basis has distinct leading bits, kept in
    decreasing order; over GF(p) each new vector is reduced by the earlier
    rows, in order, and kept with its first nonzero entry scaled to 1."""
    basis = []
    for v in vecs:
        if p == 2:
            x = int.from_bytes(np.packbits(np.asarray(v, dtype=np.int64) % 2 == 1).tobytes(), "big")
            for b in basis:
                x = min(x, x ^ b)
            if x:
                basis = sorted(basis + [x], reverse=True)
            continue
        x = [int(c) % p for c in v]
        for piv, row in basis:
            if x[piv]:
                x = [(c - x[piv] * d) % p for c, d in zip(x, row)]
        piv = next((i for i, c in enumerate(x) if c), None)
        if piv is not None:
            inv = pow(x[piv], -1, p)
            basis.append((piv, [c * inv % p for c in x]))
    return len(basis)


def rank(m):
    """Rank over GF(2) of a 0/1 matrix: _rank of its rows."""
    return _rank(np.asarray(m), 2)


def _flatten(f):
    return np.concatenate([np.asarray(m, dtype=np.int64).reshape(-1) for m in f])


def check_locality(basis, dims, certificate, p=2, modulus=None, vec=None):
    """Check that a gf2.Locality certificate proves the algebra A spanned
    by basis local over GF(p): J = certificate.ideal lies in A, is a
    two-sided ideal that contains every commutator of basis elements, and
    has J^m = 0 for m = certificate.index; and the fixed space of
    x -> x^p on A/J is span{1}, spanned by certificate.fixed.

    Elements are tuples of square integer matrices, multiplied mod
    modulus (default p).  vec maps an element to a vector over GF(p) and
    must be linear and injective on A (default: the entries mod p), so A
    may be a quotient such as End(M/q) / (N + p End), vec then being the
    probe's coordinates modulo N + p End."""
    modulus = modulus or p
    vec = vec or (lambda f: _flatten(f) % p)
    rank = lambda vecs: _rank(vecs, p)
    prod = lambda f, g: tuple(np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)
                              % modulus for a, b in zip(f, g))
    minus = lambda u, w: (u - w) % p
    A = [vec(b) for b in basis]
    J = [vec(x) for x in certificate.ideal]
    rank_j = rank(J)
    inside = lambda span, vecs: rank(span + vecs) == rank(span)
    one = tuple(np.eye(n, dtype=np.int64) for n in dims)
    assert rank(A) == len(A) and rank_j == len(J)
    assert inside(A, [vec(one)] + J)
    assert inside(J, [vec(prod(b, x)) for b in basis for x in certificate.ideal])
    assert inside(J, [vec(prod(x, b)) for b in basis for x in certificate.ideal])
    assert inside(J, [minus(vec(prod(b, c)), vec(prod(c, b))) for b in basis for c in basis])
    power = list(certificate.ideal)
    for _ in range(certificate.index - 1):
        power = _independent([prod(f, x) for f in power for x in certificate.ideal], vec, p)
    assert not any(vec(f).any() for f in power)

    def frobenius(b):
        out = b
        for _ in range(p - 1):
            out = prod(out, b)
        return out

    # x -> x^p - x is linear mod J, since A/J is commutative of
    # characteristic p; its kernel in A is J plus the lifts of the fixed
    # space, so that space is span{1} iff the kernel has dimension dim J + 1
    frob_minus = [minus(vec(frobenius(b)), vec(b)) for b in basis]
    assert len(A) - (rank(J + frob_minus) - rank_j) == rank_j + 1
    assert len(certificate.fixed) == 1
    (f,) = certificate.fixed
    assert inside(A, [vec(f)]) and inside(J + [vec(one)], [vec(f)]) and not inside(J, [vec(f)])


def _independent(elements, vec, p):
    """A maximal independent subfamily."""
    out, vecs = [], []
    for f in elements:
        if _rank(vecs + [vec(f)], p) > len(vecs):
            out.append(f)
            vecs.append(vec(f))
    return out
