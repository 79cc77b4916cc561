"""Self-test of the benchmark's golden-output checker.

From the root of a checkout:

    python3 perfbench/selfcheck.py

Feeds the checkers correct outputs, which must pass, and corrupted ones
(a wrong lc, a wrong or adjacent witness, a changed stdout line, a wrong
exit code, a changed slicing or written file), which must each be
flagged.  Exits 1 if any case comes out the other way.
"""

from __future__ import annotations

import copy
import random
import sys

from worker import import_gridlc
from workloads import (
    ORACLE_GRAPHS,
    check_certify,
    check_cli,
    check_oracle,
    grid_edges,
    load_golden,
    relabel,
)


def cases():
    """(description, problems, should_flag) for every case."""
    oracle = {entry["name"]: entry for entry in load_golden("oracle")["graphs"]}
    shapes = {name: (cols, rows) for name, cols, rows in ORACLE_GRAPHS}
    for name in ("3x3", "4x4"):
        cols, rows = shapes[name]
        expected, edges = oracle[name], grid_edges(cols, rows)
        lc, (first, second) = expected["lc"], expected["witness"]
        relabelled = relabel(cols * rows, edges, random.Random(name))
        yield f"oracle {name} golden answer", check_oracle(expected, edges, (lc, (first, second))), False
        yield f"oracle {name} golden answer, relabelled", check_oracle(expected, relabelled, (lc, (first, second))), False
        yield f"oracle {name} lc off by one", check_oracle(expected, edges, (lc - 1, (first, second))), True
        swapped = (second, first)
        yield f"oracle {name} valid but not the golden witness", check_oracle(expected, edges, (lc, swapped)), True
        touching = next(
            j for j in range(len(edges))
            if j not in first and j not in second and any(set(edges[j]) & set(edges[i]) for i in first)
        )
        adjacent = (first, sorted(second[1:] + [touching]))
        yield f"oracle {name} adjacent witness", check_oracle(expected, relabelled, (lc, adjacent)), True
        yield f"oracle {name} witness too small", check_oracle(expected, edges, (lc, (first[1:], second[1:]))), True
        shifted = relabelled[1:] + relabelled[:1]
        yield f"oracle {name} golden witness on misnumbered edges", check_oracle(expected, shifted, (lc, (first, second))), True
    yield "oracle 3x3 formula value 4", check_oracle(oracle["3x3"], grid_edges(3, 3), (4, None)), True

    lib = import_gridlc()
    certify = load_golden("certify")["grids"]
    spec = lib.GridSpec(5, 4)
    doc = lib.slicing_to_dict(lib.best_slicing(spec))
    report = lib.verify_slicing(lib.grid(spec), lib.slicing_from_dict(doc))
    output = {"doc": doc, "roundtrip": True, "checks": [(c.name, c.passed) for c in report.checks]}
    yield "certify 5x4 real output", check_certify(certify["5x4"], output), False
    bad = copy.deepcopy(output)
    bad["doc"]["A"][0], bad["doc"]["B"][0] = bad["doc"]["B"][0], bad["doc"]["A"][0]
    yield "certify 5x4 swapped edge", check_certify(certify["5x4"], bad), True
    bad = copy.deepcopy(output)
    bad["checks"][1] = (bad["checks"][1][0], False)
    yield "certify 5x4 failed check", check_certify(certify["5x4"], bad), True
    yield "certify 5x4 broken round trip", check_certify(certify["5x4"], {**output, "roundtrip": False}), True

    commands = load_golden("cli")["commands"]
    for label, expected in commands.items():
        good = (expected["exit"], expected["stdout"], dict(expected["files"]))
        yield f"cli {label} golden output", check_cli(expected, good), False
        yield f"cli {label} wrong exit code", check_cli(expected, (1 - min(expected["exit"], 1), *good[1:])), True
        lines = expected["stdout"].splitlines(keepends=True)
        lines[-1] = "#" + lines[-1]
        yield f"cli {label} changed stdout line", check_cli(expected, (good[0], "".join(lines), good[2])), True
        for name in expected["files"]:
            files = {**good[2], name: "0" * 64}
            yield f"cli {label} changed file {name}", check_cli(expected, (good[0], good[1], files)), True
    grid_stdout = commands["lc-brute-grid"]["stdout"].replace("lc = 5", "lc = 4")
    yield "cli lc-brute 3x3 reports the formula's 4", check_cli(commands["lc-brute-grid"], (0, grid_stdout, {})), True
    yield "cli xcheck exit 0", check_cli(commands["xcheck"], (0, commands["xcheck"]["stdout"], {})), True


def main() -> int:
    bad = 0
    for description, problems, should_flag in cases():
        flagged = bool(problems)
        status = "ok" if flagged == should_flag else "WRONG"
        bad += status == "WRONG"
        verdict = "flagged: " + "; ".join(problems) if flagged else "passed"
        print(f"{status:5} {description}: {verdict}")
    print(f"{bad} wrong verdicts")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
