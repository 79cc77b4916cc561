"""Record the golden outputs that every benchmark run is checked against.

Run from the root of a checkout of the commit whose outputs are the
reference (they are frozen; re-record only when an output is meant to
change, and say so):

    python3 perfbench/record_golden.py

Each workload's own operations run once at seed 0, in the canonical
numbering, and their outputs are written to perfbench/golden/.  The
oracle part takes about 20 seconds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from worker import WORK_ROOT, import_gridlc
from workloads import GOLDEN_DIR, ORACLE_BUDGET, ORACLE_GRAPHS, WORKLOADS, digest, grid_edges


def record_oracle(lib, workload) -> dict:
    graphs = []
    for name, cols, rows in ORACLE_GRAPHS:
        if grid_edges(cols, rows) != list(lib.grid(lib.GridSpec(cols, rows)).edges):
            raise SystemExit(f"the benchmark's {name} numbering differs from gridlc.grid")
        lc, witness = workload.run(name)
        graphs.append({
            "name": name,
            "cols": cols,
            "rows": rows,
            "lc": lc,
            "formula": lib.lc_grid_formula(cols, rows)[0],
            "witness": None if witness is None else [witness[0], witness[1]],
        })
    return {"budget": ORACLE_BUDGET, "graphs": graphs}


def record_certify(lib, workload) -> dict:
    grids = {}
    for label in workload.labels:
        output = workload.run(label)
        if not output["roundtrip"] or not all(passed for _, passed in output["checks"]):
            raise SystemExit(f"grid {label} does not certify; refusing to record it")
        grids[label] = {
            "orientation": output["doc"]["orientation"],
            "side": len(output["doc"]["A"]),
            "checks": len(output["checks"]),
            "digest": digest(json.dumps(output["doc"], sort_keys=True)),
        }
    return {"grids": grids}


def record_cli(lib, workload) -> dict:
    commands = {}
    for label in workload.labels:
        code, stdout = workload.run(label)
        argv, _ = workload.commands[label]
        commands[label] = {"argv": argv, "exit": code, "stdout": stdout, "files": workload.written(label)}
    return {"commands": commands}


RECORDERS = {"oracle": record_oracle, "certify": record_certify, "cli": record_cli}


def main() -> int:
    lib = import_gridlc()
    WORK_ROOT.mkdir(exist_ok=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, record in RECORDERS.items():
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
            golden = record(lib, WORKLOADS[name](lib, 0, Path(workdir), None))
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
