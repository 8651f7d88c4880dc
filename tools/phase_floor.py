"""Time the cold timed phase of a benchmark workload over many children.

    python3 tools/phase_floor.py --workload extract_zhalf [--seed 0] \
        [--children 20] [--checkout DIR]

Runs --children cold timed processes of a workload through the `_child` of
perfbench/run.py, as perfbench/check_trace.py does, in the checkout DIR
(default: this one).  Nothing under perfbench/ is changed.

child.py reports `run_s` only if its host-speed probe fired in the timed
phase, that is, if the phase took at least PROBE_INTERVAL_S of wall time;
for a shorter phase run.py stops with KeyError.  So this prints the
fastest, median and slowest `run_wall_s` with the fastest one's margin above
that floor, the children without `run_s`, the median `run_s` and
`peak_rss_mb`, and the failed ops per process.  run.py starts timed
processes until their `run_s` adds up to the checkout's BENCHMARK.json
`run_seconds` and sums `failed` over all of them; the count of processes
it would start at the median `run_s` is printed too, because one more
process adds its failed ops to the total without any more failures per
process.
"""

import argparse
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--children", type=int, default=20)
    ap.add_argument("--checkout", default=ROOT)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "perfbench"))
    import child
    import run

    target = argparse.Namespace(workload=args.workload, seed=args.seed)
    results = [run._child(target, []) for _ in range(args.children)]
    wall = sorted(r["run_wall_s"] for r in results)
    run_s = [r["run_s"] for r in results if "run_s" in r]
    failed = sorted({sum(o[2] != "ok" for o in r["outcomes"]) for r in results})
    floor = child.PROBE_INTERVAL_S

    print(f"workload {args.workload}, seed {args.seed}, {args.children} children, "
          f"checkout {os.path.abspath(args.checkout)}")
    print(f"run_wall_s: fastest {wall[0]:.4g} s, median {statistics.median(wall):.4g} s, "
          f"slowest {wall[-1]:.4g} s; fastest is {wall[0] - floor:+.4g} s from the "
          f"{floor:g} s probe floor")
    print(f"children without run_s (phase under the floor): {args.children - len(run_s)}")
    if run_s:
        med = statistics.median(run_s)
        seconds = run._spec()["run_seconds"]
        print(f"run_s: median {med:.4g} s; run.py --seconds {seconds:g} would start "
              f"{math.ceil(seconds / med)} timed process(es) at that median")
    print(f"peak_rss_mb: median {statistics.median(r['peak_rss_mb'] for r in results):.4g}")
    print(f"failed ops per process: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
