"""Command-line front end.

Exit codes: 0 success, 1 a verification or cross-check failed, 2 bad
arguments or malformed input, 3 a size cap or enumeration budget was hit.

Each command imports the gridlc modules it runs inside its handler, so a
command pays start-up only for those modules.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    DEFAULT_PAIR_BUDGET,
    DEFAULT_VERTEX_CAP,
    BudgetExceededError,
    CapacityError,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _edge_set_text(indices) -> str:
    return "{" + ", ".join(f"e{i}" for i in indices) + "}"


def _cmd_lc_formula(args: argparse.Namespace) -> int:
    from .formula import lc_grid_formula

    value, case = lc_grid_formula(args.cols, args.rows)
    if args.output == "json":
        payload = {
            "lc": value,
            "case": case.value,
            "cols": args.cols,
            "rows": args.rows,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{value} ({case.value})")
    return EXIT_OK


def _load_input_graph(args: argparse.Namespace):
    if args.input is not None:
        from .fileio import read_edge_list

        return read_edge_list(args.input)
    from .graph import GridSpec, grid, path

    if args.grid is not None:
        cols, rows = args.grid
        return grid(GridSpec(cols, rows))
    return path(args.path)


def _lc_result_payload(graph, result) -> dict:
    witness = None
    if result.witness_at_r_minus_1 is not None:
        pair = result.witness_at_r_minus_1
        witness = {"r": pair.r, "S": list(pair.S.indices()), "T": list(pair.T.indices())}
    return {
        "lc": result.r,
        "method": "brute-force",
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "witness": witness,
    }


def _cmd_lc_brute(args: argparse.Namespace) -> int:
    from .superline import lc_bruteforce

    graph = _load_input_graph(args)
    result = lc_bruteforce(graph, pair_budget=args.pair_budget)
    if args.output == "json":
        print(json.dumps(_lc_result_payload(graph, result), indent=2))
        return EXIT_OK
    print(f"lc = {result.r} (brute-force)")
    pair = result.witness_at_r_minus_1
    if pair is None:
        print("witness: none")
    else:
        print(
            f"witness at r = {pair.r}: S = {_edge_set_text(pair.S.indices())}, "
            f"T = {_edge_set_text(pair.T.indices())}"
        )
    return EXIT_OK


def _cmd_superline(args: argparse.Namespace) -> int:
    from .fileio import read_edge_list, write_edge_list, write_label_table
    from .superline import super_line_graph

    graph = read_edge_list(args.input)
    result, labels = super_line_graph(graph, args.index, vertex_cap=args.vertex_cap)
    labels_path = args.labels if args.labels is not None else args.out + ".labels"
    write_edge_list(result, args.out)
    write_label_table(labels, labels_path)
    if args.output == "json":
        payload = {
            "index": args.index,
            "vertices": result.vertex_count,
            "edges": result.edge_count,
            "out": args.out,
            "labels": labels_path,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"wrote index-{args.index} super line graph: {result.vertex_count} vertices, "
            f"{result.edge_count} edges -> {args.out} (labels -> {labels_path})"
        )
    return EXIT_OK


def _cmd_slice(args: argparse.Namespace) -> int:
    from .graph import GridSpec
    from .slicing import best_slicing, slice_grid, slicing_to_dict

    spec = GridSpec(args.cols, args.rows)
    if args.axis == "auto":
        slicing = best_slicing(spec)
    else:
        slicing = slice_grid(spec, args.axis)
    print(json.dumps(slicing_to_dict(slicing), indent=2))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .slicing import slicing_from_dict, verify_slicing

    if args.slicing == "-":
        text = sys.stdin.read()
    else:
        with open(args.slicing, "r", encoding="utf-8") as handle:
            text = handle.read()
    slicing = slicing_from_dict(json.loads(text))
    # The sides already belong to grid(slicing.spec); verify_slicing
    # rebuilds that grid itself to judge the claim independently.
    report = verify_slicing(slicing.A.graph, slicing)
    if args.output == "json":
        payload = {
            "all_passed": report.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{check.name}: {status} ({check.detail})")
        failed = sum(1 for c in report.checks if not c.passed)
        if failed:
            print(f"{failed} of {len(report.checks)} checks failed")
        else:
            print(f"all {len(report.checks)} checks passed")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_xcheck(args: argparse.Namespace) -> int:
    from .formula import lc_grid_formula
    from .graph import GridSpec, grid
    from .superline import lc_bruteforce

    if args.max_edges < 0:
        raise ValueError("--max-edges must be non-negative")
    # Lazily, by edge count, then cols: a grid has (2 * cols - 1) * rows - cols
    # edges, so each (edges, cols) fixes rows.
    specs = (
        (edges, cols, (edges + cols) // (2 * cols - 1))
        for edges in range(args.max_edges + 1)
        for cols in range(1, edges + 2)
        if (edges + cols) % (2 * cols - 1) == 0
    )

    results = []
    for edges, cols, rows in specs:
        formula_value, _ = lc_grid_formula(cols, rows)
        oracle = lc_bruteforce(grid(GridSpec(cols, rows)), pair_budget=args.pair_budget)
        results.append(
            {
                "cols": cols,
                "rows": rows,
                "edges": edges,
                "formula": formula_value,
                "oracle": oracle.r,
                "agree": formula_value == oracle.r,
            }
        )
    all_agree = all(row["agree"] for row in results)

    if args.output == "json":
        print(json.dumps({"max_edges": args.max_edges, "grids": results, "all_agree": all_agree}, indent=2))
    else:
        print(" cols rows edges formula oracle agree")
        for row in results:
            mark = "yes" if row["agree"] else "NO"
            print(
                f"{row['cols']:>5} {row['rows']:>4} {row['edges']:>5} "
                f"{row['formula']:>7} {row['oracle']:>6} {mark}"
            )
        if all_agree:
            print(f"all {len(results)} grids agree")
        else:
            bad = [r for r in results if not r["agree"]]
            for row in bad:
                print(
                    f"MISMATCH: {row['cols']}x{row['rows']} grid has formula "
                    f"{row['formula']} but oracle {row['oracle']}"
                )
    return EXIT_OK if all_agree else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlc",
        description="Super line graphs, line completion numbers, and grid slicing certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output_parent = argparse.ArgumentParser(add_help=False)
    output_parent.add_argument(
        "--output", choices=("text", "json"), default="text", help="stdout format"
    )

    p = sub.add_parser(
        "lc-formula", parents=[output_parent], help="closed-form lc of a grid"
    )
    p.add_argument("--cols", type=int, required=True, help="columns (horizontal extent)")
    p.add_argument("--rows", type=int, required=True, help="rows (vertical extent)")
    p.set_defaults(handler=_cmd_lc_formula)

    p = sub.add_parser(
        "lc-brute", parents=[output_parent], help="brute-force lc of a graph"
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="edge-list file")
    source.add_argument("--grid", type=int, nargs=2, metavar=("COLS", "ROWS"))
    source.add_argument("--path", type=_positive_int, metavar="K")
    p.add_argument(
        "--pair-budget", type=_positive_int, default=DEFAULT_PAIR_BUDGET,
        help="cap on the subsets the level scans are charged; each level r costs "
        "C(E, r), so the default decides every graph with at most 24 edges",
    )
    p.set_defaults(handler=_cmd_lc_brute)

    p = sub.add_parser(
        "superline", parents=[output_parent], help="materialise a super line graph"
    )
    p.add_argument("--index", type=_positive_int, required=True, help="subset size r")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--out", required=True, help="output edge-list file")
    p.add_argument("--labels", help="label table file (default: OUT.labels)")
    p.add_argument(
        "--vertex-cap", type=_positive_int, default=DEFAULT_VERTEX_CAP,
        help="cap on subset vertices",
    )
    p.set_defaults(handler=_cmd_superline)

    p = sub.add_parser("slice", help="emit a slicing certificate as JSON")
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--axis", choices=("auto", "vertical", "horizontal"), default="auto")
    p.set_defaults(handler=_cmd_slice)

    p = sub.add_parser(
        "verify", parents=[output_parent], help="check a slicing certificate"
    )
    p.add_argument("--slicing", required=True, help="slicing JSON file, or - for stdin")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "xcheck", parents=[output_parent],
        help="compare oracle and formula on every small grid",
    )
    p.add_argument("--max-edges", type=int, required=True)
    p.add_argument(
        "--pair-budget", type=_positive_int, default=DEFAULT_PAIR_BUDGET,
        help="cap on the subsets charged per grid (see lc-brute --pair-budget)",
    )
    p.set_defaults(handler=_cmd_xcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (BudgetExceededError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
