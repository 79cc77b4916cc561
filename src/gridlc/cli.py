"""Command-line front end.

Exit codes: 0 success, 1 a verification or cross-check failed, 2 bad
arguments or malformed input, 3 a size cap or enumeration budget was hit.

Each ``_cmd_*`` handler returns its exit code, its JSON payload and its
text lines, built from the same values; ``main`` prints the payload under
``--output json`` and the lines otherwise.  Each handler imports the gridlc
modules it runs, so a command pays start-up only for those modules.
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


def _cmd_lc_formula(args: argparse.Namespace) -> tuple[int, object, list[str]]:
    from .formula import lc_grid_formula

    value, case = lc_grid_formula(args.cols, args.rows)
    payload = {"lc": value, "case": case.value, "cols": args.cols, "rows": args.rows}
    return EXIT_OK, payload, [f"{value} ({case.value})"]


def _load_input_graph(args: argparse.Namespace):
    if args.input is not None:
        from .fileio import read_edge_list

        return read_edge_list(args.input)
    from .graph import GridSpec, grid, path

    if args.grid is not None:
        cols, rows = args.grid
        return grid(GridSpec(cols, rows))
    return path(args.path)


def _cmd_lc_brute(args: argparse.Namespace) -> tuple[int, object, list[str]]:
    from .superline import lc_bruteforce

    graph = _load_input_graph(args)
    result = lc_bruteforce(graph, pair_budget=args.pair_budget)
    pair = result.witness_at_r_minus_1
    if pair is None:
        witness, witness_line = None, "witness: none"
    else:
        S, T = pair.S.indices(), pair.T.indices()
        witness = {"r": pair.r, "S": S, "T": T}
        witness_line = (
            f"witness at r = {pair.r}: S = {_edge_set_text(S)}, T = {_edge_set_text(T)}"
        )
    payload = {
        "lc": result.r,
        "method": "brute-force",
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "witness": witness,
    }
    return EXIT_OK, payload, [f"lc = {result.r} (brute-force)", witness_line]


def _cmd_superline(args: argparse.Namespace) -> tuple[int, object, list[str]]:
    from .fileio import read_edge_list, write_edge_list, write_label_table
    from .superline import super_line_graph

    graph = read_edge_list(args.input)
    result, labels = super_line_graph(graph, args.index, vertex_cap=args.vertex_cap)
    labels_path = args.labels if args.labels is not None else args.out + ".labels"
    write_edge_list(result, args.out)
    write_label_table(labels, labels_path)
    payload = {
        "index": args.index,
        "vertices": result.vertex_count,
        "edges": result.edge_count,
        "out": args.out,
        "labels": labels_path,
    }
    line = (
        f"wrote index-{args.index} super line graph: {result.vertex_count} vertices, "
        f"{result.edge_count} edges -> {args.out} (labels -> {labels_path})"
    )
    return EXIT_OK, payload, [line]


def _cmd_slice(args: argparse.Namespace) -> tuple[int, object, list[str]]:
    from .graph import GridSpec
    from .slicing import best_slicing, slice_grid, slicing_to_dict

    spec = GridSpec(args.cols, args.rows)
    if args.axis == "auto":
        slicing = best_slicing(spec)
    else:
        slicing = slice_grid(spec, args.axis)
    return EXIT_OK, slicing_to_dict(slicing), []


def _cmd_verify(args: argparse.Namespace) -> tuple[int, object, list[str]]:
    from .slicing import slicing_from_dict, verify_slicing

    if args.slicing == "-":
        text = sys.stdin.read()
    else:
        with open(args.slicing, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        document = json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"malformed slicing document: {exc}") from None
    slicing = slicing_from_dict(document)
    # The sides already belong to grid(slicing.spec); verify_slicing
    # rebuilds that grid itself to judge the claim independently.
    report = verify_slicing(slicing.A.graph, slicing)
    lines = [f"{c.name}: {'PASS' if c.passed else 'FAIL'} ({c.detail})" for c in report.checks]
    failed = sum(not c.passed for c in report.checks)
    if failed:
        lines.append(f"{failed} of {len(lines)} checks failed")
    else:
        lines.append(f"all {len(lines)} checks passed")
    payload = {"all_passed": not failed, "checks": [c._asdict() for c in report.checks]}
    return (EXIT_CHECK_FAILED if failed else EXIT_OK), payload, lines


def _cmd_xcheck(args: argparse.Namespace) -> tuple[int, object, list[str]]:
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

    grids, lines, mismatches = [], [" cols rows edges formula oracle agree"], []
    for edges, cols, rows in specs:
        formula, _ = lc_grid_formula(cols, rows)
        oracle = lc_bruteforce(grid(GridSpec(cols, rows)), pair_budget=args.pair_budget).r
        agree = formula == oracle
        grids.append(
            {"cols": cols, "rows": rows, "edges": edges,
             "formula": formula, "oracle": oracle, "agree": agree}
        )
        lines.append(
            f"{cols:>5} {rows:>4} {edges:>5} {formula:>7} {oracle:>6} {'yes' if agree else 'NO'}"
        )
        if not agree:
            mismatches.append(
                f"MISMATCH: {cols}x{rows} grid has formula {formula} but oracle {oracle}"
            )
    lines.extend(mismatches or [f"all {len(grids)} grids agree"])
    payload = {"max_edges": args.max_edges, "grids": grids, "all_agree": not mismatches}
    return (EXIT_CHECK_FAILED if mismatches else EXIT_OK), payload, lines


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
    budget_parent = argparse.ArgumentParser(add_help=False)
    budget_parent.add_argument(
        "--pair-budget", type=_positive_int, default=DEFAULT_PAIR_BUDGET,
        help="cap on the subsets the level scans are charged, per grid in xcheck; "
        "each level r costs C(E, r), so the default decides every graph with at "
        "most 24 edges",
    )

    p = sub.add_parser(
        "lc-formula", parents=[output_parent], help="closed-form lc of a grid"
    )
    p.add_argument("--cols", type=int, required=True, help="columns (horizontal extent)")
    p.add_argument("--rows", type=int, required=True, help="rows (vertical extent)")
    p.set_defaults(handler=_cmd_lc_formula)

    p = sub.add_parser(
        "lc-brute", parents=[output_parent, budget_parent], help="brute-force lc of a graph"
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="edge-list file")
    source.add_argument("--grid", type=int, nargs=2, metavar=("COLS", "ROWS"))
    source.add_argument("--path", type=_positive_int, metavar="K")
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
    p.set_defaults(handler=_cmd_slice, output="json")

    p = sub.add_parser(
        "verify", parents=[output_parent], help="check a slicing certificate"
    )
    p.add_argument("--slicing", required=True, help="slicing JSON file, or - for stdin")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "xcheck", parents=[output_parent, budget_parent],
        help="compare oracle and formula on every small grid",
    )
    p.add_argument("--max-edges", type=int, required=True)
    p.set_defaults(handler=_cmd_xcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.handler(args)
        print(json.dumps(payload, indent=2) if args.output == "json" else "\n".join(lines))
        return code
    except (BudgetExceededError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
