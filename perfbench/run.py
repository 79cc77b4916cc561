"""gridlc benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle|certify|cli --seed N --seconds S --trace 0|1

The workload runs in a fresh worker subprocess (perfbench/worker.py).  With
``--trace 0`` the result holds every end-to-end metric of BENCHMARK.json;
set-up time is the median of several set-up-only workers plus the measured
one.  With ``--trace 1`` it holds every per-layer metric, preceded by the
workload-property report.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Every operation is checked against golden outputs; ``failed`` counts
wrong answers, exceptions and unexpected exit codes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "certify", "cli")
SETUP_PROBES = 10
#: Whole-run limit, kept below the three minutes a run may take.
RUN_LIMIT_S = 170


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[dict, list[str]]:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} did not finish in time") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one gridlc benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gridlc" / "__init__.py").is_file():
        print(f"error: no gridlc sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + RUN_LIMIT_S
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [] if args.trace else [
            run_worker([*worker_args, "--setup-only"], deadline)[0]["setup_s"] for _ in range(SETUP_PROBES)
        ]
        result, report = run_worker(worker_args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median([*setups, metrics["setup_s"]])
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for line in report:
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
