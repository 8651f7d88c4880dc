"""One cold benchmark process: set up a workload's inputs, run its ops back
to back, then check every output.

run.py starts this script in a fresh interpreter for every sample; it is
not meant to be run by hand.  The last line of standard output is a JSON
object with the timings, the per-op outcomes and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

# Host-speed probe.  The benchmark runs on a shared host whose CPU speed
# drifts by 1.5x and more over seconds to minutes, so the wall time of the
# same work varies as much from one run to the next.  A fixed pure-Python
# probe, owned by the benchmark so that no change to cubefunc moves it, is
# timed every PROBE_INTERVAL_S during the timed phase (from a SIGALRM
# handler) and in a burst after set-up.  Times are reported at the
# reference speed: wall time (less the probes' own time) times the mean of
# REF_PROBE_S / probe time, the host's speed averaged over the wall time
# (a median picks one level when the speed changes within a run; on five
# runs of one decide seed the mean left a spread of 1.08x max/min, the
# median 1.22x, raw wall time 1.37x).  Small integer matrix products were
# chosen because, over three minutes of drift, their time tracked that of
# cubefunc's int and Fraction Mat products and of gf2.decompose with a
# log-log slope of 0.89-1.09 in two such runs (a tight arithmetic loop:
# 1.43-1.62).
PROBE_MATRIX = [[(3 * i + 5 * j) % 19 - 9 for j in range(9)] for i in range(9)]
PROBE_REPS = 6
REF_PROBE_S = 0.001
PROBE_INTERVAL_S = 0.2
SETUP_PROBES = 25


def _probe_loop():
    m = PROBE_MATRIX
    cols = list(zip(*m))
    for _ in range(PROBE_REPS):
        out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in m]
    return {i: tuple(row) for i, row in enumerate(out)}


class HostSpeed:
    """Times _probe_loop now and then; speed() is the mean of REF_PROBE_S
    over each probe time, spent the wall time the probes took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        _probe_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self):
        return statistics.fmean(REF_PROBE_S / t for t in self.samples)


def _assert_cold():
    """The lru_caches that would turn a repeated run into cache hits must
    be empty; the word, hom and ideal lattices live on the cached
    Representation, so an empty shared_representation cache covers them."""
    from cubefunc import faithful, wildness

    caches = {
        "faithful.faithful_diagram": faithful.faithful_diagram,
        "faithful.shared_representation": faithful.shared_representation,
        "wildness._induction_data": wildness._induction_data,
        "wildness._gl2": wildness._gl2,
        "wildness._gl4": wildness._gl4,
    }
    warm = [name for name, fn in caches.items() if fn.cache_info().currsize]
    if warm:
        raise RuntimeError(f"caches are warm before timing: {', '.join(warm)}")


def _classify(op, result, error):
    """(status, detail, tolerated) of one op; see workloads.py."""
    from workloads import REFUSALS

    if error is not None:
        detail = f"{type(error).__name__}: {error}"
        if type(error) is ValueError and str(error) in op.refusals:
            return REFUSALS[str(error)], detail, True
        return "exception", detail, False
    try:
        status = op.check(result)
    except Exception as exc:  # a malformed answer fails its check
        return "mismatch", f"check raised {type(exc).__name__}: {exc}", False
    if status == "ok" or status == "undecided":
        return status, "", True
    return "mismatch", status.removeprefix("mismatch: "), op.tolerate_mismatch


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None,
                    help="install the tracer, write its spans to this file and "
                         "report the per_layer metrics of BENCHMARK.json")
    args = ap.parse_args(argv)

    import workloads

    ops = workloads.SETUPS[args.workload](args.seed)
    setup_wall_s = time.monotonic() - args.spawned_at
    setup_cpu_s = _cpu_s()
    host = HostSpeed()
    for _ in range(SETUP_PROBES):
        host.sample()
    setup = {"setup_s": setup_wall_s * host.speed(), "setup_wall_s": setup_wall_s,
             "setup_cpu_s": setup_cpu_s, "setup_speed": host.speed()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    _assert_cold()

    # the traced run is not probed, so that no probe time lands in a span
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    host = HostSpeed()
    results = []
    latencies = []
    clock = time.perf_counter
    if tracer is None:
        host.start()
    start, cpu_start = clock(), _cpu_s()
    for op in ops:
        t0, spent0 = clock(), host.spent
        try:
            results.append((op.run(), None))
        except Exception as exc:  # an op that raises is a counted failure
            results.append((None, exc))
        latencies.append(clock() - t0 - (host.spent - spent0))
    run_wall_s = clock() - start - host.spent
    run_cpu_s = _cpu_s() - cpu_start - host.spent
    host.stop()
    if tracer is not None:
        tracer.uninstall()

    outcomes = [[op.kind, op.label, *_classify(op, result, error)]
                for op, (result, error) in zip(ops, results)]

    out = dict(setup)
    out.update({
        "run_wall_s": run_wall_s,
        "run_cpu_s": run_cpu_s,
        "latencies": latencies,
        "outcomes": outcomes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if host.samples:
        out["run_speed"] = host.speed()
        out["run_s"] = run_wall_s * host.speed()
    if tracer is not None:
        from run import _spec

        names = [m["name"] for m in _spec()["per_layer"]]
        layers = {n: tracer.metric(n) for n in names if not n.startswith("traced.")}
        layers["traced.run_s"] = run_wall_s
        layers["traced.spans"] = len(tracer.sp_start)
        out["layers"] = layers
        os.makedirs(os.path.dirname(os.path.abspath(args.trace_out)), exist_ok=True)
        tracer.write(args.trace_out, {
            "workload": args.workload, "seed": args.seed, "run_wall_s": run_wall_s})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
