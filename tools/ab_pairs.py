"""Run alternating A/B pairs of the benchmark from two checkouts.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload decide \
        --seed 0 --pairs 10 [--seconds 10]

Each pair runs `perfbench/run.py --trace 0` once in each checkout, in a
fresh process with the checkout as working directory; the side that goes
first alternates from pair to pair, so a slow drift of the host speed
falls on both sides alike.  Nothing under perfbench/ is changed.

For every end-to-end metric of the change's BENCHMARK.json it prints each
side's median and quartiles and the change's win fraction: the share of
pairs in which the change is better than the parent in the metric's
direction.  For each side it prints the timed processes per run, the failed
ops per process of each run and the pooled failed/attempted ops: run.py
sums failed ops over all its timed processes, so a faster workload that
fits one more process into --seconds reports more failed ops without
failing more per process.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

PROCESSES = re.compile(r"(\d+) timed process\(es\)")


def run_once(checkout, args):
    """(result JSON, timed processes) of one run.py call in a checkout."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), int(PROCESSES.search(out).group(1))


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run_once(getattr(args, side), args))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds}")
    print(f"{'metric':<14} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'change wins':>12}")
    for m in metrics:
        name = m["name"]
        vals = {s: [r["metrics"][name]["value"] for r, _ in runs] for s, runs in sides.items()}
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        shown = {s: "{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(v)) for s, v in vals.items()}
        print(f"{name:<14} {shown['parent']:>30} {shown['change']:>30} "
              f"{wins:>6}/{args.pairs}")
    for side, runs in sides.items():
        procs = [n for _, n in runs]
        per_proc = [r["failed"] / n for r, n in runs]
        failed = sum(r["failed"] for r, _ in runs)
        attempted = sum(r["attempted"] for r, _ in runs)
        correct = all(r["correct"] for r, _ in runs)
        print(f"{side}: processes per run {procs}; failed per process "
              f"{[round(x, 3) for x in per_proc]}; pooled failed/attempted "
              f"{failed}/{attempted}; correct {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
