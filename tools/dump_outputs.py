"""Print the result of every benchmark op, one line per op.

Runs the ops of the three workloads of perfbench/workloads.py (verify_z,
extract_zhalf, decide) at the seeds given as arguments (default 0 and
1009), in order and in this one process, and prints for each op its
workload, seed, label and the repr of its result.  An op that raises prints the exception instead.  Decompose
reports add their summand_dims(); a repr that holds a memory address
prints the class name instead.  Two trees that give the same answers give
byte-identical output, so a refactor can be checked with

    python3 tools/dump_outputs.py | sha1sum
    python3 tools/dump_outputs.py $(seq 0 20) | sha1sum

on both trees.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("verify_z", "extract_zhalf", "decide")
SEEDS = (0, 1009)
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _show(result):
    text = repr(result)
    if _ADDRESS.search(text):
        return type(result).__name__
    if hasattr(result, "summand_dims"):
        return f"{text} dims {result.summand_dims()!r}"
    return text


def main(argv=None):
    seeds = [int(s) for s in (sys.argv[1:] if argv is None else argv)] or SEEDS
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads

    for name in WORKLOADS:
        for seed in seeds:
            for op in workloads.SETUPS[name](seed):
                try:
                    shown = _show(op.run())
                except Exception as exc:  # refusals are answers too
                    shown = f"raised {type(exc).__name__}: {exc}"
                print(f"{name} {seed} {op.label}: {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
