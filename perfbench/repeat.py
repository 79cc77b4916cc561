"""Run the benchmark on several seeds and report each metric's spread.

From the root of a checkout:

    python3 perfbench/repeat.py --workloads oracle certify cli --seeds 10 [--out results.json]

Runs ``run.py`` once per workload and seed (seeds 1..N, one after
another) with BENCHMARK.json's ``run_seconds``.  For every end-to-end
metric it prints the median, the quartiles as ``statistics.quantiles(values,
n=4)`` gives them, and the spread (Q3 - Q1) / median beside the metric's
bound.  ``--out`` writes every run's result and the summary as JSON.
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


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the benchmark on several seeds.")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["per_layer" if args.trace else "end_to_end"]}
    runs, summary, ok = [], {}, True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            began = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            *report, last = proc.stdout.splitlines()
            result = json.loads(last)
            runs.append({"workload": workload, "seed": seed, **result, "report": report})
            ok = ok and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} run took {time.monotonic() - began:.1f} s", flush=True)
        summary[workload] = {}
        for name, series in values.items():
            row = summarise(series)
            summary[workload][name] = row
            bound = bounds[name]
            mark = ""
            if bound is not None:
                mark = f"bound {bound:.2f}" + ("  ABOVE A THIRD OF BOUND" if row["spread"] > bound / 3 else "")
            print(f"  {workload:8} {name:28} median {row['median']:<14.6g} q1 {row['q1']:<14.6g} "
                  f"q3 {row['q3']:<14.6g} spread {row['spread']:.4f}  {mark}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
