"""Self-test of the tracer.  From the repository root:

    python3 perfbench/check_trace.py [--seed N] [workload ...]

For each workload (all three by default) it runs one untraced and two
traced cold processes with the same seed and checks that

* every per-layer metric of BENCHMARK.json is non-zero on each workload
  where it should move (SHOULD_MOVE); the failure ratios unknown_ratio and
  undecided_ratio are exempt, because zero is what the deciders aim for;
* traced and untraced runs give the same per-op check outcomes;
* every call count of the two traced runs repeats exactly.

It prints the tracing overhead (traced minus untraced wall time of the
timed phase) and exits non-zero if a check fails.  Takes seven to ten minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys

import run

Z, ZH, D = "verify_z", "extract_zhalf", "decide"

# metric stem -> workloads on which it should move (fields are appended)
_TABLE = [
    (("domains.canon", "domains.add", "domains.mul", "domains.is_zero"), ("calls",), (ZH, Z)),
    (("matrix.mul",), ("calls", "self_s"), (Z, ZH)),
    (("matrix.init",), ("calls",), (Z, ZH)),
    (("matrix.add",), ("calls", "self_s"), (ZH,)),
    (("matrix.smith_normal_form", "matrix.solve", "matrix.column_hermite"),
     ("calls", "self_s"), (Z, ZH)),
    (("matrix.lattice_insert",), ("calls", "self_s", "grew_ratio"), (Z,)),
    (("matrix.lattice_contains", "matrix.rational_insert"), ("calls", "self_s"), (Z,)),
    (("presentation.element_is_zero",), ("calls", "self_s"), (Z,)),
    (("functors.act", "functors.cross_effect_idempotents"), ("calls", "self_s"), (ZH, Z)),
    (("functors.extract_diagram", "faithful.faithful_diagram"), ("s",), (ZH, Z)),
    (("faithful.eval",), ("calls", "self_s"), (ZH, Z)),
    (("faithful.word_lattice", "faithful.ideal_lattice", "faithful.hom_lattice",
      "faithful.algebra_dimension"), ("s",), (Z,)),
    (("rings.a11_subring", "rings.verify_A_alt_structure", "rings.a_alt_algebra_dimension",
      "rings.verify_relations"), ("s",), (Z,)),
    (("gf2.hom_basis", "gf2.nullspace", "gf2.realize"), ("calls", "self_s"), (D,)),
    (("gf2.split_trivial", "gf2.indecomposable_summands"), ("s",), (D,)),
    (("gf2.find_isomorphism",), ("calls", "self_s", "hit_ratio"), (D,)),
    (("gf2.identify",), ("calls", "s", "candidates_per_call"), (D,)),
    (("strings_bands.indecomposability_probe",), ("calls", "self_s", "unknown_ratio"), (D,)),
    (("wildness.iso_test_mod2",), ("calls", "self_s", "undecided_ratio"), (D,)),
    (("wildness.indecomposable_mod2",), ("calls", "self_s"), (D,)),
    (("wildness.induce_cubic",), ("calls", "self_s"), (Z,)),
    (("traced",), ("run_s", "spans"), (Z, ZH, D)),
]
SHOULD_MOVE = {f"{stem}.{field}": wls
               for stems, fields, wls in _TABLE for stem in stems for field in fields}
MAY_BE_ZERO = ("unknown_ratio", "undecided_ratio")


def _traced(target, tag):
    path = os.path.join(run.HERE, "out", f"check-{target.workload}-{tag}.json.gz")
    res = run._child(target, ["--trace-out", path])
    with gzip.open(path, "rt") as fh:
        res["summary"] = json.load(fh)["summary"]
    return res


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("workloads", nargs="*", default=[Z, ZH, D])
    args = ap.parse_args(argv)

    names = [m["name"] for m in run._spec()["per_layer"]]
    problems = [f"{n}: no SHOULD_MOVE entry" for n in names if n not in SHOULD_MOVE]
    for w in args.workloads:
        target = argparse.Namespace(workload=w, seed=args.seed)
        plain = run._child(target, [])
        first = _traced(target, "a")
        second = _traced(target, "b")
        for n in names:
            if w in SHOULD_MOVE.get(n, ()) and not n.endswith(MAY_BE_ZERO) \
                    and not first["layers"][n]:
                problems.append(f"{w}: {n} is zero where it should move")
        strip = lambda r: [o[:3] for o in r["outcomes"]]
        if strip(plain) != strip(first) or strip(first) != strip(second):
            problems.append(f"{w}: traced and untraced check outcomes differ")
        calls = lambda r: {k: v["calls"] for k, v in r["summary"].items()}
        if calls(first) != calls(second):
            diff = sorted(k for k in calls(first) if calls(first)[k] != calls(second).get(k))
            problems.append(f"{w}: call counts differ between traced runs: {diff[:8]}")
        print(f"{w}: untraced wall time {plain['run_wall_s']:.2f} s, traced "
              f"{first['run_wall_s']:.2f} / {second['run_wall_s']:.2f} s, overhead "
              f"{first['run_wall_s'] - plain['run_wall_s']:.2f} s, "
              f"{len(first['summary'])} traced names, {first['layers']['traced.spans']} spans")
    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
