"""Regenerate fixtures/z_diagrams.json: the cubic diagram over Z of every
built-in functor, as CubicDiagram.to_json.

The extract_zhalf workload checks that the Z[1/2] diagrams equal the base
change of these.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_fixture.py
"""

import json
import os

from cubefunc.domains import ZZ
from cubefunc.functors import FUNCTOR_IDS, builtin, extract_diagram

from workloads import FIXTURE

if __name__ == "__main__":
    doc = {
        "schema": "perfbench/z-diagrams/1",
        "diagrams": {
            fid: extract_diagram(builtin(fid, ZZ)).to_json() for fid in FUNCTOR_IDS
        },
    }
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
