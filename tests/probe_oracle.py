"""Reference checks for the 3-local probe, independent of its locality
kernel.

- enumerate_idempotent, the exhaustive oracle: it runs through all p^r
  combinations of the basis of A = End(M/q) / (N + p End), r the probe's
  endo_rank, in chunks, and returns the first one that is idempotent
  modulo N + p End and neither 0 nor 1 there, or None when A has no
  idempotent but 0 and 1.  It multiplies the basis triples mod q and tests
  membership with the probe's lattice data; it does not read the
  structure constants.  The probe decides by linear algebra
  (gf2._local_algebra); the tests compare the two on small algebras.
- random_string_datum and random_band_datum draw seeded 3-local string
  and band data.
"""

import numpy as np

from cubefunc.strings_bands import PARTNER, BandData3, StringDiagram3, same_dash

CHUNK = 10 ** 5


def enumerate_idempotent(alg, p, q):
    """The vector of the first idempotent combination of the basis of a
    strings_bands.ProbeAlgebra other than 0 and 1 modulo N + p End, or
    None."""
    B = alg.basis
    r, total = B.shape
    U1, d1 = alg.span
    blocks = [B[:, o:o + n * n].reshape(r, n, n) for n, o in zip(alg.sizes, alg.offs)]
    prods = np.hstack([np.einsum("iab,jbc->ijac", m, m).reshape(r * r, -1) % q
                       for m in blocks])
    idvec = np.concatenate([np.eye(n, dtype=np.int64).reshape(-1) for n in alg.sizes])
    outside = lambda vecs: ((vecs @ U1.T) % d1).any(axis=1)
    digits = p ** np.arange(r, dtype=np.int64)[::-1]
    for start in range(1, p ** r, CHUNK):
        idx = np.arange(start, min(start + CHUNK, p ** r), dtype=np.int64)
        C = (idx[:, None] // digits) % p
        E = C @ B % q
        outer = np.einsum("bi,bj->bij", C, C).reshape(len(idx), r * r)
        good = ~outside((outer @ prods - E) % q) & outside(E) & outside((E - idvec) % q)
        if good.any():
            return E[good][0]
    return None


def random_string_datum(rng, max_n=2):
    """A random valid StringDiagram3 with at most 2 max_n positions."""
    while True:
        shape = ("i", "ii", "iii")[rng.integers(0, 3)]
        n = int(rng.integers(1, max_n + 1))
        i = []
        for _ in range(n):
            a = int(rng.integers(1, 7))
            i += [a, PARTNER[a]]
        absent = {"i": {2 * n}, "ii": {1, 2 * n}, "iii": set()}[shape]
        j, k = [], []
        for pos in range(1, 2 * n + 1):
            if pos in absent:
                j.append(None)
                k.append(None)
                continue
            choices = [c for c in range(1, 7) if same_dash(c, i[pos - 1])]
            if pos % 2 and pos > 1 and j[-1] is not None:
                choices = [c for c in choices if c == PARTNER[j[-1]]]
            if not choices:
                break
            j.append(choices[rng.integers(0, len(choices))])
            k.append(int(rng.integers(0, 3)))
        else:
            try:
                return StringDiagram3(shape, i, j, k)
            except ValueError:
                pass


PRIMARY = ([1, 1], [2, 1], [1, 0, 1], [1, 2, 1], [1, 1, 1])


def random_band_datum(rng, max_n=2):
    """A random valid BandData3 with a primary polynomial of degree <= 2."""
    while True:
        d = random_string_datum(rng, max_n)
        if d.shape != "iii":
            continue
        try:
            return BandData3(d, PRIMARY[rng.integers(0, len(PRIMARY))])
        except ValueError:
            pass
