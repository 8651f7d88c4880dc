"""The benchmark's workloads: seeded inputs, the ops that run on them, and
the checks applied to each op's output after the timed phase.

Every op is a thunk that calls into cubefunc through module attributes at
call time, so the tracer's wrappers see the call.  A check returns "ok",
"undecided" or "mismatch: <reason>"; an op that raises is an "exception".

Every outcome other than "ok" counts as failed.  Some failures leave the
run correct: undecided verdicts ("unknown", "inconclusive"), the honest
refusals in REFUSALS, matched by exception type and message and allowed
only on the ops that list them, and round-trip mismatches, where the
benchmark cannot tell whether realize or decompose is at fault.  Any other
failure, such as another exception, a witness that does not verify, a
verdict against the construction or a false identity, makes the run
incorrect.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "z_diagrams.json")

# Per-run op counts, fixed so that counts repeat.  They are sized so that
# the three workloads, 22 runs each, fit the benchmark's time budget with
# room for a slower host.
# verify_z: induced diagrams per rank; the median op falls inside the
# rank-2 group, so the op latency median does not jump between groups.
SIGMA_PER_RANK = {1: 8, 2: 24, 3: 8}
SUBSET_CHECKS = 24           # extract_zhalf: seeded subset-sum idempotents
DECIDE_COUNTS = {
    "decompose": 60,         # gf2.decompose(random_space)
    "string_round_trip": 60,
    "band_round_trip": 20,
    "sum_round_trip": 20,
    "iso_per_rank_kind": 2,  # iso_test_mod2: ranks 1-5 x (conjugate, rank-differ)
    "indec_per_rank_kind": 2,  # indecomposable_mod2: ranks 1-5 Jordan, 2-5 sums
}


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str]
    refusals: tuple = ()            # messages of REFUSALS this op may raise
    tolerate_mismatch: bool = False


TOO_LARGE = "endomorphism algebra too large to certify locality"
NO_DATUM = "no string or band datum matches this space"
RANK_LIMIT = "exhaustive idempotent search is limited to rank <= 4"
# ValueError message -> outcome status; "too large" is an undecided verdict
REFUSALS = {TOO_LARGE: "undecided", NO_DATUM: "exception", RANK_LIMIT: "exception"}


def _truth(label):
    return lambda r: "ok" if r is True else f"mismatch: {label} is {r!r}"


def _report_ok(r):
    return "ok" if r.get("ok") is True else "mismatch: " + ", ".join(
        k for k, v in r.items() if v is False)


def _relations_ok(r):
    ok, report = r
    return "ok" if ok is True else "mismatch: " + ", ".join(
        name for name, good in report if not good)


# ---------------------------------------------------------------------------
# verify_z
# ---------------------------------------------------------------------------


def _sigma_module(rng, rank):
    from cubefunc import wildness

    action = [[[rng.randrange(4) for _ in range(rank)] for _ in range(rank)]
              for _ in range(2)]
    return wildness.SigmaModule(2, rank, action)


def setup_verify_z(seed):
    from cubefunc import faithful, rings, wildness
    from cubefunc.domains import ZZ

    rng = random.Random(seed)
    sigmas = [_sigma_module(rng, rank) for rank, n in SIGMA_PER_RANK.items()
              for _ in range(n)]
    rng.shuffle(sigmas)

    def check_rep(rep):
        dims = tuple(rep.dims)
        return "ok" if dims == (6, 15, 12) else f"mismatch: dims {dims}"

    stages = [
        Op("representation", "shared_representation(ZZ)",
           lambda: faithful.shared_representation(ZZ), check_rep),
        Op("suite", "a11_subring", lambda: rings.a11_subring(), _report_ok),
        Op("suite", "verify_A_alt_structure",
           lambda: rings.verify_A_alt_structure(), _report_ok),
        Op("suite", "a_alt_algebra_dimension",
           lambda: rings.a_alt_algebra_dimension(),
           lambda r: "ok" if r == 18 else f"mismatch: dimension {r}"),
        Op("relations", "verify_relations(faithful_diagram(ZZ))",
           lambda: rings.verify_relations(faithful.faithful_diagram(ZZ)),
           _relations_ok),
    ]
    induced = [
        Op("induced", f"induce_cubic rank {lm.rank} #{i}",
           lambda lm=lm: rings.verify_relations(
               wildness.induce_cubic(wildness.phi_restrict(lm))),
           _relations_ok)
        for i, lm in enumerate(sigmas)
    ]
    # the short induced ops are spread between the long stages, so that
    # their percentiles sample the whole run and not one burst of host noise
    ops = []
    chunk = -(-len(induced) // (len(stages) - 1))
    for k, stage in enumerate(stages):
        ops.append(stage)
        if k:
            ops.extend(induced[(k - 1) * chunk:k * chunk])
    return ops


# ---------------------------------------------------------------------------
# extract_zhalf
# ---------------------------------------------------------------------------

FAMILIES = {1: ("e1", "f1"), 2: ("e2", "f2", "g1", "g2"), 3: ("e3", "f3")}


def load_fixture(dom):
    """Per-functor Z diagrams from the fixture, base-changed to dom, as
    lists of rows per structure map."""
    from cubefunc.functors import CubicDiagram

    with open(FIXTURE) as fh:
        doc = json.load(fh)
    out = {}
    for fid, data in doc["diagrams"].items():
        d = CubicDiagram.from_json(data)
        out[fid] = {
            "gens": (d.F1.gens, d.F2.gens, d.F3.gens),
            "maps": {k: m.matrix.to_domain(dom).a for k, m in d.maps().items()},
        }
    return out


MAP_LEVELS = {"h": (1, 2), "p": (2, 1), "h1": (2, 3), "h2": (2, 3),
              "p1": (3, 2), "p2": (3, 2)}


def _block_diagonal(blocks, rows, cols, zero):
    out = [[zero] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b, (br, bc) in blocks:
        for i in range(br):
            out[r0 + i][c0:c0 + bc] = b[i]
        r0 += br
        c0 += bc
    return out


def _check_zhalf_rep(rep, order, fixture):
    """The Z[1/2] structure maps equal the base change of the Z fixture,
    functor by functor (the faithful diagram is their direct sum)."""
    if tuple(rep.dims) != (6, 15, 12):
        return f"mismatch: dims {tuple(rep.dims)}"
    maps = rep.diagram.maps()
    zero = rep.dom.zero()
    for name, (src, dst) in MAP_LEVELS.items():
        blocks = [(fixture[f]["maps"][name],
                   (fixture[f]["gens"][dst - 1], fixture[f]["gens"][src - 1]))
                  for f in order]
        want = _block_diagonal(blocks, rep.dims[dst - 1], rep.dims[src - 1], zero)
        if maps[name].matrix.a != want:
            return f"mismatch: map {name} differs from the base-changed Z fixture"
    return "ok"


def setup_extract_zhalf(seed):
    from cubefunc import faithful, rings
    from cubefunc.domains import Z_HALF
    from cubefunc.functors import FUNCTOR_IDS

    fixture = load_fixture(Z_HALF)
    order = FUNCTOR_IDS
    rng = random.Random(seed)
    elements = rings.halved_elements()
    state = {}
    E = {}

    def represent():
        state["rep"] = faithful.shared_representation(Z_HALF)
        return state["rep"]

    def is_zero(m):
        return m.is_zero()

    ops = [
        Op("representation", "shared_representation(Z_HALF)", represent,
           lambda rep: _check_zhalf_rep(rep, order, fixture)),
        Op("relations", "verify_relations(faithful_diagram(Z_HALF))",
           lambda: rings.verify_relations(faithful.faithful_diagram(Z_HALF)),
           _relations_ok),
    ]

    def evaluate(name, expr):
        E[name] = state["rep"].eval(expr)
        return E[name]

    def check_eval(m):
        n = state["rep"].total
        return "ok" if (m.rows, m.cols, m.dom) == (n, n, Z_HALF) else "mismatch: shape"

    for name, expr in elements.items():
        ops.append(Op("eval", f"eval {name}",
                      lambda name=name, expr=expr: evaluate(name, expr), check_eval))

    def ident(lvl):
        return state["rep"].gen_mats[f"id{lvl}"]

    for lvl, fam in FAMILIES.items():
        for x in fam:
            ops.append(Op("identity", f"{x}^2 = {x}",
                          lambda x=x: is_zero(E[x] * E[x] - E[x]),
                          _truth(f"{x}^2 = {x}")))
            for y in fam:
                if x != y:
                    ops.append(Op("identity", f"{x}*{y} = 0",
                                  lambda x=x, y=y: is_zero(E[x] * E[y]),
                                  _truth(f"{x}*{y} = 0")))

        def total(fam=fam, lvl=lvl):
            acc = E[fam[0]]
            for x in fam[1:]:
                acc = acc + E[x]
            return is_zero(acc - ident(lvl))

        ops.append(Op("identity", f"sum of {fam} = id{lvl}", total,
                      _truth(f"sum of {fam} = id{lvl}")))

    # seeded: s = sum of a random nonempty subset of one family is an
    # idempotent orthogonal to its complement id - s; the levels take turns,
    # so the op costs, which depend on the level, do not vary with the seed
    for k in range(SUBSET_CHECKS):
        lvl = 1 + k % len(FAMILIES)
        fam = FAMILIES[lvl]
        subset = tuple(x for x in fam if rng.random() < 0.5) or (rng.choice(fam),)
        label = f"s = {'+'.join(subset)}: s^2 = s, s(id{lvl} - s) = 0"

        def subset_sum(subset=subset, lvl=lvl):
            s = E[subset[0]]
            for x in subset[1:]:
                s = s + E[x]
            return is_zero(s * s - s) and is_zero(s * (ident(lvl) - s))

        ops.append(Op("subset", label, subset_sum, _truth(label)))
    return ops


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def _rank2(m):
    """Rank over GF(2) of an integer matrix."""
    a = (np.array(m, dtype=np.int64) % 2).astype(np.uint8)
    rank = 0
    rows, cols = a.shape
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if a[r, c]), None)
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        for r in range(rows):
            if r != rank and a[r, c]:
                a[r] ^= a[rank]
        rank += 1
    return rank


def _unit_mod4(rng, d):
    """A random invertible matrix over Z/4 and its inverse."""
    while True:
        u = rng.integers(0, 4, size=(d, d))
        if _rank2(u) == d:
            break
    aug = [[int(x) for x in row] + [int(i == j) for j in range(d)]
           for i, row in enumerate(u)]
    for c in range(d):
        p = next(r for r in range(c, d) if aug[r][c] % 2)
        aug[c], aug[p] = aug[p], aug[c]
        inv = aug[c][c] % 4          # 1 and 3 are their own inverses mod 4
        aug[c] = [x * inv % 4 for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % 4 for x, y in zip(aug[r], aug[c])]
    return u, np.array([row[d:] for row in aug], dtype=np.int64)


def _conjugate(rng, mats):
    d = len(mats[0])
    u, ui = _unit_mod4(rng, d)
    return [((u @ np.array(m) @ ui) % 4).tolist() for m in mats]


def _jordan(d):
    return np.eye(d, k=1, dtype=np.int64)


def _lift(rng, m2):
    """A Z/4 matrix with the given reduction mod 2."""
    m2 = np.array(m2, dtype=np.int64) % 2
    return (m2 + 2 * rng.integers(0, 2, size=m2.shape)) % 4


def _jordan_tuple(rng, d):
    """x1 a nilpotent Jordan block, x2 a polynomial in it: the mod-2
    commutant is local, so the module is indecomposable."""
    j = _jordan(d)
    poly = np.zeros((d, d), dtype=np.int64)
    power = np.eye(d, dtype=np.int64)
    for _ in range(d):
        power = power @ j
        if rng.integers(0, 2):
            poly = poly + power
    return [_lift(rng, j).tolist(), _lift(rng, poly).tolist()]


def _block_sum(a, b):
    da, db = len(a[0]), len(b[0])
    out = []
    for ma, mb in zip(a, b):
        m = np.zeros((da + db, da + db), dtype=np.int64)
        m[:da, :da] = ma
        m[da:, da:] = mb
        out.append(m.tolist())
    return out


def _rank_differing(rng, d):
    """Two random action pairs whose x1 have different ranks mod 2."""
    while True:
        a = [rng.integers(0, 4, size=(d, d)).tolist() for _ in range(2)]
        b = [rng.integers(0, 4, size=(d, d)).tolist() for _ in range(2)]
        if _rank2(a[0]) != _rank2(b[0]):
            return a, b


def _check_round_trip(want):
    def check(report):
        got = (report.trivial, report.points, report.keys())
        return "ok" if got == (0, 0, want) else f"mismatch: got {got}, want {want}"
    return check


def _check_dims(space_dims):
    def check(report):
        parts = report.summand_dims()
        got = tuple(sum(x) for x in zip(*parts)) if parts else (0, 0, 0)
        return "ok" if got == tuple(space_dims) else f"mismatch: dims {got}"
    return check


def _check_iso(expected, mats_a, mats_b):
    a2 = [np.array(m, dtype=np.int64) % 2 for m in mats_a]
    b2 = [np.array(m, dtype=np.int64) % 2 for m in mats_b]

    def check(v):
        if v.isomorphic is None:
            return "undecided"
        if v.isomorphic is not expected:
            return f"mismatch: isomorphic={v.isomorphic}, construction says {expected}"
        if v.isomorphic:
            u = np.array(v.witness, dtype=np.int64) % 2
            if _rank2(u) != len(u):
                return "mismatch: witness is singular mod 2"
            if any(((u @ a) % 2 != (b @ u) % 2).any() for a, b in zip(a2, b2)):
                return "mismatch: witness does not conjugate the pair"
        return "ok"
    return check


def _check_indecomposable(expected):
    return lambda r: "ok" if r is expected else f"mismatch: {r!r}, construction says {expected}"


# the probe modules of tests/test_strings_bands.py with the verdicts the
# tests assert, plus string0 + string0, which splits at every level
# known: (module, level) -> verdict
def _probe_modules():
    from cubefunc import strings_bands as sb

    S = sb.StringDiagram3
    strings = [
        S("ii", [1, 2], [None, None], [None, None]),
        S("i", [1, 2], [1, None], [1, None]),
        S("i", [1, 2, 4, 3], [1, 3, 4, None], [1, 0, 1, None]),
        S("ii", [None, 2, 4, None], [None, 3, 4, None], [None, 1, 1, None]),
        S("iii", [1, 2, 4, 3], [1, 3, 4, 2], [1, 0, 1, 2]),
    ]
    bands = [
        sb.BandData3(S("iii", [3, 4], [3, 4], [1, 1]), [1, 1]),
        sb.BandData3(S("iii", [3, 4], [3, 4], [1, 1]), [1, 0, 1]),
        sb.BandData3(S("iii", [3, 4, 2, 1], [2, 4, 3, 1], [1, 0, 1, 1]), [2, 1]),
        sb.BandData3(S("iii", [3, 4], [3, 4], [0, 0]), [1, 0, 1]),
        sb.BandData3(S("iii", [3, 4], [3, 4], [0, 0]), [1, 2, 1]),
    ]
    mods = {f"string{i}": sb.build_string_module(d) for i, d in enumerate(strings)}
    mods.update({f"band{i}": sb.build_band_module(b) for i, b in enumerate(bands)})
    mods["string0+string0"] = mods["string0"].direct_sum(mods["string0"])
    known = {
        ("string0", 2): "indecomposable-at-level",
        ("string0", 3): "indecomposable-at-level",
        ("band1", 1): "splits",
        ("band1", 3): "indecomposable-at-level",
        ("band3", 3): "indecomposable-at-level",
        ("band4", 3): "indecomposable-at-level",
    }
    for lvl in (1, 2, 3):
        known[("string0+string0", lvl)] = "splits"
    return mods, known


def _check_probe(expected, q):
    def check(v):
        if v.verdict == "unknown":
            return "undecided"
        if expected is not None and v.verdict != expected:
            return f"mismatch: {v.verdict}, expected {expected}"
        if v.verdict == "splits":
            for e in v.witness:
                e = np.array(e, dtype=object)
                if e.size == 0:
                    continue
                if (((e.dot(e) - e) % q) != 0).any():
                    return "mismatch: witness is not idempotent mod q"
            flat = [np.array(e, dtype=object) % q for e in v.witness]
            if all((f == 0).all() for f in flat):
                return "mismatch: witness is 0 mod q"
            if all((f == np.eye(len(f), dtype=object) % q).all() for f in flat):
                return "mismatch: witness is 1 mod q"
        return "ok"
    return check


def setup_decide(seed):
    from cubefunc import gf2, strings_bands, wildness

    streams = np.random.SeedSequence(seed).spawn(8)
    rngs = [np.random.default_rng(s) for s in streams]
    c = DECIDE_COUNTS
    ops = []

    rng = rngs[0]
    for i in range(c["decompose"]):
        sp = gf2.random_space(rng)
        ops.append(Op("decompose", f"decompose random_space #{i}",
                      lambda sp=sp: gf2.decompose(sp), _check_dims(sp.dims),
                      (TOO_LARGE, NO_DATUM)))

    def round_trips(kind, rng, n, make):
        for i in range(n):
            data = make(rng)
            want = tuple(sorted(d.canonical_key() for d in data))

            def run(data=data):
                space = gf2.realize(data[0])
                for d in data[1:]:
                    space = space.direct_sum(gf2.realize(d))
                return gf2.decompose(space)

            ops.append(Op(kind, f"{kind} {data!r}", run,
                          _check_round_trip(want), (TOO_LARGE, NO_DATUM),
                          tolerate_mismatch=True))

    round_trips("string_round_trip", rngs[1], c["string_round_trip"],
                lambda r: [gf2.random_string_datum(r)])
    round_trips("band_round_trip", rngs[2], c["band_round_trip"],
                lambda r: [gf2.random_band_datum(r)])
    round_trips("sum_round_trip", rngs[3], c["sum_round_trip"],
                lambda r: [gf2.random_string_datum(r),
                           gf2.random_band_datum(r) if r.integers(0, 2)
                           else gf2.random_string_datum(r)])

    mods, known = _probe_modules()
    for name, m in mods.items():
        for lvl in (1, 2, 3):
            ops.append(Op("probe", f"probe {name} level {lvl}",
                          lambda m=m, lvl=lvl: strings_bands.indecomposability_probe(m, level=lvl),
                          _check_probe(known.get((name, lvl)), 3 ** lvl)))

    rng = rngs[4]
    for d in range(1, 6):
        for i in range(c["iso_per_rank_kind"]):
            a = [rng.integers(0, 4, size=(d, d)).tolist() for _ in range(2)]
            b = _conjugate(rng, a)
            la, lb = wildness.SigmaModule(2, d, a), wildness.SigmaModule(2, d, b)
            ops.append(Op("iso", f"iso conjugate rank {d} #{i}",
                          lambda la=la, lb=lb: wildness.iso_test_mod2(la, lb),
                          _check_iso(True, a, b)))
            a, b = _rank_differing(rng, d)
            la, lb = wildness.SigmaModule(2, d, a), wildness.SigmaModule(2, d, b)
            ops.append(Op("iso", f"iso rank-differing rank {d} #{i}",
                          lambda la=la, lb=lb: wildness.iso_test_mod2(la, lb),
                          _check_iso(False, a, b)))

    rng = rngs[5]
    for d in range(1, 6):
        limit = (RANK_LIMIT,) if d > 4 else ()
        for i in range(c["indec_per_rank_kind"]):
            lm = wildness.SigmaModule(2, d, _conjugate(rng, _jordan_tuple(rng, d)))
            ops.append(Op("indecomposable", f"indecomposable Jordan rank {d} #{i}",
                          lambda lm=lm: wildness.indecomposable_mod2(lm),
                          _check_indecomposable(True), limit))
            if d < 2:
                continue
            k = int(rng.integers(1, d))
            mats = _block_sum(_jordan_tuple(rng, k), _jordan_tuple(rng, d - k))
            lm = wildness.SigmaModule(2, d, _conjugate(rng, mats))
            ops.append(Op("indecomposable", f"indecomposable sum {k}+{d - k} #{i}",
                          lambda lm=lm: wildness.indecomposable_mod2(lm),
                          _check_indecomposable(False), limit))

    order = rngs[6].permutation(len(ops))
    return [ops[i] for i in order]


SETUPS = {
    "verify_z": setup_verify_z,
    "extract_zhalf": setup_extract_zhalf,
    "decide": setup_decide,
}
