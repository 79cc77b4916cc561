"""Run one workload in this process and print its result as one JSON line.

run.py starts one worker per run and per set-up probe, so the peak RSS a
worker reads belongs to its workload alone.  Set-up (importing gridlc,
building inputs, loading golden outputs) is timed apart from the sweeps.

Every time this module reports is CPU time, user plus system, of this
process and the children it waited for (``cpu_seconds``).  For this
single-threaded closed loop it equals wall time on an idle machine, but
it leaves out the time the process waited for a processor while other
processes or the hypervisor (steal time) held it.  It does not remove a
processor that runs slower for a while.

A sweep runs every operation of the workload, one after another, short
ones several times.  Sweeps repeat while another one is expected to end
within ``--seconds``, judged by the median sweep so far.  A timed run
holds at least three sweeps, so every operation's mean rests on samples
taken at three different times; this lets an ``oracle`` run outlast
``--seconds``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

from tracing import MB, Tracer
from workloads import WORKLOADS, load_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
MAX_REPORTED_FAILURES = 20


def import_gridlc():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    lib = importlib.import_module("gridlc")
    importlib.import_module("gridlc.cli")
    if not Path(lib.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: gridlc was imported from {lib.__file__}, not from {src}")
    return lib


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class Phase:
    """Per-operation CPU times and the outcome of every operation in a run of sweeps."""

    def __init__(self, labels):
        self.samples = {label: [] for label in labels}
        self.sweeps: list[float] = []
        self.attempted = 0
        self.failed = 0

    def op_mean(self, label: str) -> float:
        """Mean CPU time of one run of the operation over the whole phase.

        A mean uses every sample: the largest operations run only about
        three times in a run, and the machine's speed drifts across the
        run, so the mean of all of them is steadier than their median.
        """
        return statistics.fmean(self.samples[label])

    def once(self) -> float:
        """CPU time to run every operation once: the sum of per-operation means."""
        return sum(self.op_mean(label) for label in self.samples)


def run_phase(workload, run, seconds: float, min_sweeps: int) -> Phase:
    """Sweep the workload until another sweep would end after ``seconds``.

    Within a sweep each operation repeats until it has run for a tenth of
    its even share of ``seconds``, so short operations get several samples
    per sweep; every repetition is timed and checked.  Sweeps and the
    phase are paced by wall time, each sample is CPU time.
    """
    phase = Phase(workload.labels)
    op_floor = seconds / (10 * len(workload.labels))
    start = perf_counter()
    while True:
        sweep_began = perf_counter()
        for label in workload.labels:
            op_began = perf_counter()
            while True:
                began = cpu_seconds()
                try:
                    output = run(label)
                except Exception:
                    elapsed = cpu_seconds() - began
                    problems = [traceback.format_exc(limit=4)]
                else:
                    elapsed = cpu_seconds() - began
                    problems = workload.check(label, output)
                phase.samples[label].append(elapsed)
                phase.attempted += 1
                if problems:
                    phase.failed += 1
                    if phase.failed <= MAX_REPORTED_FAILURES:
                        print(f"FAIL {label}: " + "; ".join(problems), file=sys.stderr)
                if perf_counter() - op_began >= op_floor:
                    break
        phase.sweeps.append(perf_counter() - sweep_began)
        elapsed = perf_counter() - start
        if len(phase.sweeps) >= min_sweeps and elapsed + statistics.median(phase.sweeps) > seconds:
            return phase


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def timed_run(name: str, workload, seconds: float, setup_s: float):
    phase = run_phase(workload, workload.run, seconds, min_sweeps=3)
    # Quantiles over each operation's mean in the run, so they do not
    # depend on how many samples of each operation fit into it.
    per_op = [phase.op_mean(label) for label in workload.labels]
    metrics = {
        "setup_s": setup_s,
        "sweep_cpu_s": phase.once(),
        "peak_rss_mb": peak_rss_mb(children=name == "cli"),
        "op_cpu_p50_ms": statistics.median(per_op) * 1e3,
        "op_cpu_p90_ms": statistics.quantiles(per_op, n=10, method="inclusive")[8] * 1e3,
        "largest_op_cpu_s": phase.op_mean(workload.largest),
    }
    return [phase], metrics, []


def property_report(name: str, tracer: Tracer) -> list[str]:
    """Workload properties that later optimisations may rely on."""
    lines = []
    if name == "oracle":
        seen = {}
        for label, _, attrs in tracer.calls("find_nonadjacent_pair"):
            seen.setdefault(label, {}).setdefault(attrs["r"], attrs)
        for label, levels in seen.items():
            needed = sum(a["needed"] for a in levels.values())
            total = sum(a["subsets"] for a in levels.values())
            lines.append(f"property superline.needed_share {label} overall {needed}/{total} = {needed / total:.4f}")
            for r, a in levels.items():
                kind = "incomplete" if a["hit"] else "complete"
                lines.append(
                    f"property superline.needed_share {label} r={r} {kind} "
                    f"{a['needed']}/{a['subsets']} = {a['needed'] / a['subsets']:.6f}"
                )
    if name == "cli":
        bits = {}
        for label, runs, attrs in tracer.calls("Graph.from_edges"):
            bits[label] = bits.get(label, 0) + attrs.get("mask_bits", 0) / runs
        for label in sorted(bits):
            if label.startswith("superline"):
                lines.append(f"property graph.mask_mb {label} = {bits[label] / 8 / MB:.3f}")
    return lines


def traced_run(name: str, workload, lib, seconds: float, seed: int):
    """Untraced reference sweeps, then the same sweeps with every layer traced.

    For ``cli`` both are in-process ``main(argv)`` calls, and a first part
    of the run launches the same commands as subprocesses to measure what
    interpreter start-up adds to each.
    """
    phases = []
    share = seconds / (3 if name == "cli" else 2)
    if name == "cli":
        phases.append(run_phase(workload, workload.run, share, min_sweeps=1))
    reference = run_phase(workload, workload.run_traced, share, min_sweeps=1)
    tracer = Tracer()

    def traced(label):
        with tracer.op(label):
            return workload.run_traced(label)

    tracer.install(lib)
    try:
        traced_phase = run_phase(workload, traced, share, min_sweeps=1)
    finally:
        tracer.uninstall()
    phases += [reference, traced_phase]

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced_phase.once() / reference.once()
    startup_ms = 0.0
    if name == "cli":
        startup_ms = 1e3 * statistics.median(
            phases[0].op_mean(label) - reference.op_mean(label) for label in workload.labels
        )
    metrics["cli.startup_ms"] = startup_ms
    metrics["cli.bad_exits"] = getattr(workload, "bad_exits", 0)
    tracer.write(WORK_ROOT / f"trace-{name}-seed{seed}.jsonl")
    return phases, metrics, property_report(name, tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time set-up, run nothing")
    args = parser.parse_args(argv)

    began = process_time()
    lib = import_gridlc()
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        workload = WORKLOADS[args.workload](lib, args.seed, Path(workdir), load_golden(args.workload))
        setup_s = process_time() - began
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            phases, metrics, report = traced_run(args.workload, workload, lib, args.seconds, args.seed)
        else:
            phases, metrics, report = timed_run(args.workload, workload, args.seconds, setup_s)
    for line in report:
        print(line)
    result = {
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
