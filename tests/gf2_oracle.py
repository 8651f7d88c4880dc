"""Reference checks for the GF(2) deciders, independent of their kernels.

- first_combination, the exhaustive oracle: it enumerates all 2^E
  combinations of a basis of square morphisms on gf2's bit-packed batch
  kernel, in chunks of at most chunk_words words.  Combination i is the
  sum of the basis elements at the set bits of i (the order of
  gf2._bit_matrix), so the first hit is the same in any chunking.  The
  deciders use linear algebra; the tests compare them with this search on
  small algebras.
- check_locality re-verifies a gf2.Locality certificate with int64
  products and a rank on Python integers, not with gf2's elimination.
"""

import numpy as np

from cubefunc import gf2

CHUNK_WORDS = 1 << 18


def combinations(basis, lo, count):
    """Combinations lo .. lo + count - 1 of a packed basis [E, r, W], in
    the order of gf2._bit_matrix.  count is a power of two dividing lo: the
    low bits are filled in by doubling, the high ones are common."""
    out = np.empty((count,) + basis.shape[1:], dtype=np.uint64)
    out[0] = 0
    low = count.bit_length() - 1
    for e in range(low):
        out[1 << e: 2 << e] = out[: 1 << e] ^ basis[e]
    for e in range(low, len(basis)):
        if lo >> e & 1:
            out ^= basis[e]
    return out


def combination(basis, i, dims):
    """Combination i of a basis of square morphisms, unpacked."""
    out = tuple(gf2.zeros(n, n) for n in dims)
    for e, f in enumerate(basis):
        if i >> e & 1:
            out = tuple(a ^ b for a, b in zip(out, f))
    return out


def first_combination(basis, dims, test, chunk_words=CHUNK_WORDS):
    """The first combination of a basis of square GF(2) morphisms that
    passes test (gf2._invertible or gf2._mixed), or None."""
    comps = gf2._pack_basis(basis, dims)
    E = len(basis)
    words = max(1, sum(c.shape[1] * c.shape[2] for c in comps))
    size = 1 << min(E, max(0, (chunk_words // words).bit_length() - 1))
    for lo in range(0, 1 << E, size):
        hit = gf2._first(test([combinations(c, lo, size) for c in comps]))
        if hit is not None:
            return combination(basis, lo + hit, dims)
    return None


def is_local(basis, dims):
    """Whether every element of the algebra is nilpotent or invertible."""
    return first_combination(basis, dims, gf2._mixed) is None


def _rank(vecs):
    """Rank over GF(2) of 0/1 vectors, on Python ints: a basis with
    distinct leading bits, kept in decreasing order."""
    basis = []
    for v in vecs:
        x = int.from_bytes(np.packbits(np.asarray(v, dtype=np.uint8) % 2).tobytes(), "big")
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis = sorted(basis + [x], reverse=True)
    return len(basis)


def _vec(f):
    return np.concatenate([np.asarray(m, dtype=np.int64).reshape(-1) for m in f])


def _prod(f, g):
    return tuple(a.astype(np.int64) @ b.astype(np.int64) % 2 for a, b in zip(f, g))


def _independent(elements):
    """A maximal independent subfamily."""
    out = []
    for f in elements:
        if _rank([_vec(g) for g in out + [f]]) > len(out):
            out.append(f)
    return out


def check_locality(basis, dims, certificate):
    """Check that a gf2.Locality certificate proves the algebra A spanned
    by basis local: J = certificate.ideal lies in A, is a two-sided ideal
    that contains every commutator of basis elements, and has J^m = 0 for
    m = certificate.index; and the fixed space of x -> x^2 on A/J is
    span{1}, spanned by certificate.fixed."""
    A = [_vec(b) for b in basis]
    J = [_vec(x) for x in certificate.ideal]
    rank_j = _rank(J)
    inside = lambda span, vecs: _rank(span + vecs) == _rank(span)
    one = tuple(np.eye(n, dtype=np.int64) for n in dims)
    assert _rank(A) == len(A) and rank_j == len(J)
    assert inside(A, [_vec(one)] + J)
    assert inside(J, [_vec(_prod(b, x)) for b in basis for x in certificate.ideal])
    assert inside(J, [_vec(_prod(x, b)) for b in basis for x in certificate.ideal])
    assert inside(J, [_vec(_prod(b, c)) + _vec(_prod(c, b)) for b in basis for c in basis])
    power = list(certificate.ideal)
    for _ in range(certificate.index - 1):
        power = _independent([_prod(p, x) for p in power for x in certificate.ideal])
    assert not any(_vec(p).any() for p in power)
    # x -> x^2 + x is linear mod J, since A/J is commutative; its kernel in
    # A is J plus the lifts of the fixed space, so that space is span{1}
    # iff the kernel has dimension dim J + 1
    square_plus = [_vec(_prod(b, b)) + _vec(b) for b in basis]
    assert len(A) - (_rank(J + square_plus) - rank_j) == rank_j + 1
    assert len(certificate.fixed) == 1
    (f,) = certificate.fixed
    assert inside(A, [_vec(f)]) and inside(J, [_vec(f) + _vec(one)])
