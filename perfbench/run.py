"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each sample runs in a fresh interpreter
(child.py) with PYTHONHASHSEED and the BLAS/OpenMP thread counts pinned, so
no lru_cache of cubefunc is warm when timing starts.  Load is closed-loop:
one caller in one single-threaded process runs the ops back to back.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: set-up is
sampled in SETUP_SAMPLES set-up-only processes, half before and half after
the timed processes, plus the timed ones, and reported as the median; the
workload runs in cold processes until at least --seconds of timed work are
done (one process for every workload at the recorded sizes).  The process
CPU time (user + system) of set-up and of the timed phase is printed next
to the wall times.  setup_s and run_s are reported at a reference host
speed, measured by a probe in each child (see child.py), because the speed
of the shared host drifts by more than the metrics' bounds.
--trace 1 runs the workload once more in a cold process with the tracer
installed and reports the per-layer metrics; spans are written to
perfbench/out/.

The last line of standard output is the JSON result; the lines before it
list every metric with its unit and the per-op check outcomes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child(args, extra):
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tally(outcomes):
    kinds = {}
    for kind, _label, status, _detail, _tolerated in outcomes:
        row = kinds.setdefault(kind, {"ok": 0, "mismatch": 0, "undecided": 0, "exception": 0})
        row[status] += 1
    return kinds


def _report_checks(outcomes):
    print("per-op check outcomes:")
    for kind, row in sorted(_tally(outcomes).items()):
        print(f"  {kind:<20}" + "  ".join(f"{k}={v}" for k, v in row.items()))
    bad = [o for o in outcomes if o[2] != "ok"]
    for kind, label, status, detail, tolerated in bad[:25]:
        tag = "" if tolerated else "WRONG "
        print(f"  FAIL {tag}{status}: {label}: {detail[:160]}")
    if len(bad) > 25:
        print(f"  ... {len(bad) - 25} more failures")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cubefunc", "__init__.py")):
        print("run.py: no cubefunc sources under src/ of this checkout", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    if args.trace:
        trace_out = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json.gz")
        res = _child(args, ["--trace-out", trace_out])
        values = res["layers"]
        runs = [res]
        metrics = spec["per_layer"]
    else:
        # set-up samples come from before and after the timed phase, so that
        # one burst of host noise does not move all of them
        setup_only = lambda: _child(args, ["--setup-only"])
        setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
        runs = []
        while not runs or sum(r["run_s"] for r in runs) < args.seconds:
            runs.append(_child(args, []))
        setups += [setup_only() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        setups += runs
        lat = [x for r in runs for x in r["latencies"]]
        ok = sum(o[2] == "ok" for r in runs for o in r["outcomes"])
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "run_s": statistics.median(r["run_s"] for r in runs),
            "ops_per_s": len(lat) / sum(r["run_s"] for r in runs),
            "ok_frac": ok / len(lat),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        }
        metrics = spec["end_to_end"]
        p95 = statistics.quantiles(lat, n=20, method="inclusive")[-1]
        med = lambda key, rs: statistics.median(r[key] for r in rs)
        print(f"wall time: set-up {med('setup_wall_s', setups):.4g} s (median of "
              f"{len(setups)}), timed phase {med('run_wall_s', runs):.4g} s; host speed "
              f"{med('setup_speed', setups):.4g} in set-up, {med('run_speed', runs):.4g} "
              f"in the timed phase")
        print(f"CPU time: set-up {med('setup_cpu_s', setups):.4g} s, timed phase "
              f"{med('run_cpu_s', runs):.4g} s")
        print(f"op latency (reported, not gated): p50 {1000 * statistics.median(lat):.4g} ms, "
              f"p95 {1000 * p95:.4g} ms, {len(lat)} ops, {sum(x > p95 for x in lat)} beyond p95")

    outcomes = [o for r in runs for o in r["outcomes"]]
    _report_checks(outcomes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(runs)} timed process(es), {len(outcomes)} ops")
    for m in metrics:
        print(f"  {m['name']:<48} {values[m['name']]:>16.6g} {m['unit']}")
    failed = sum(o[2] != "ok" for o in outcomes)
    correct = all(o[4] for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
