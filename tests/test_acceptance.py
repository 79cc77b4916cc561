"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 4 cross-checks the closed form against ``lc_bruteforce`` on
every grid with <= 19 edges, and against the lemma DP alone on every grid
of width 1..4 and length 1..12, and asserts that in both sweeps the set of
disagreements is exactly the documented 3x3 defect: exhaustive enumeration, confirmed by an
independent endpoint-level double loop, shows lc(3x3 grid) = 5 while the
closed form gives 4.  The vertex set of the 3x3 grid splits into a
boundary L of 5 cells (inducing a 4-edge path) and the opposite 2x2 block
(inducing the 4-edge cycle); the two induced edge sets are vertex-disjoint
and of size 4, so the index-4 super line graph is not complete.  The
straight/zigzag cuts behind the closed form reach side size 3 only, and
the closed form's optimality assumption fails exactly here.  No other
grid up to 19 edges disagrees, which is what the criterion tests.  The
criterion fails if a new disagreement appears, if the oracle's 3x3 value
drifts, or if either side is edited to hide the defect.
"""

import time

from gridlc import (
    GridSpec,
    best_slicing,
    find_nonadjacent_pair,
    grid,
    lc_bruteforce,
    lc_grid_formula,
    path,
    super_line_graph,
    verify_slicing,
)
from gridlc.superline import _lemma_lc
from support import (
    grids_with_at_most,
    is_complete_naive,
    line_graph_naive,
    random_simple_graphs,
    subsets_adjacent_naive,
)

# The one known disagreement between the closed form and the oracle (README,
# "Known defect in the closed form"): (cols, rows) -> (formula, oracle).
KNOWN_FORMULA_DEFECTS = {(3, 3): (4, 5)}


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"acceptance {number}: {status} ({description}){suffix}")
    assert ok, f"acceptance criterion {number} failed: {description}{suffix}"


def test_criterion_1_formula_goldens():
    expected = {(6, 4): 18, (5, 4): 14, (7, 5): 26, (1, 1): 0}
    expected.update({(k, 1): k // 2 for k in range(2, 11)})
    failures = [
        (dims, lc_grid_formula(*dims)[0], want)
        for dims, want in expected.items()
        if lc_grid_formula(*dims)[0] != want
    ]
    report(1, "closed-form golden values", not failures,
           str(failures) if failures else "")


def test_criterion_2_super_line_graph_golden():
    g, _ = super_line_graph(path(5), 2)
    complete = g.edge_count == g.vertex_count * (g.vertex_count - 1) // 2
    ok = g.vertex_count == 6 and g.edge_count == 15 and complete
    report(2, "index-2 super line graph of the 5-path is K_6", ok,
           f"{g.vertex_count} vertices, {g.edge_count} edges")


def test_criterion_3_line_graph_golden(diamond):
    lg, _ = super_line_graph(diamond, 1)
    ok = lg.vertex_count == 5 and lg.edge_count == 8 and lg == line_graph_naive(diamond)
    report(3, "line graph of the diamond has 5 vertices and 8 edges", ok,
           f"{lg.vertex_count} vertices, {lg.edge_count} edges")


def test_criterion_4_oracle_matches_formula_on_small_grids():
    specs = grids_with_at_most(19)
    started = time.time()
    oracles = {}
    disagreements = {}
    for cols, rows in specs:
        oracle = oracles[cols, rows] = lc_bruteforce(grid(GridSpec(cols, rows)))
        formula = lc_grid_formula(cols, rows)[0]
        if formula != oracle.r:
            disagreements[cols, rows] = (formula, oracle.r)
    dp_disagreements = {}
    for cols in range(1, 5):
        for rows in range(1, 13):
            formula, dp = lc_grid_formula(cols, rows)[0], _lemma_lc(grid(GridSpec(cols, rows)))[0]
            if formula != dp:
                dp_disagreements[cols, rows] = (formula, dp)
    elapsed = time.time() - started

    # Endpoint-level evidence that the oracle, not the closed form, is right
    # at 3x3: the oracle's witness at the closed form's value is a pair of
    # non-adjacent subsets, and the oracle's value is complete.
    g = grid(GridSpec(3, 3))
    formula_3x3, oracle_3x3 = KNOWN_FORMULA_DEFECTS[3, 3]
    witness = oracles[3, 3].witness_at_r_minus_1
    confirmed = (
        witness is not None
        and witness.r == formula_3x3
        and not subsets_adjacent_naive(g, witness.S.indices(), witness.T.indices())
        and is_complete_naive(g, oracle_3x3)
    )

    def listed(found):
        return "all agree" if not found else "disagree on " + ", ".join(
            f"{c}x{r}: {f} vs {o}" for (c, r), (f, o) in sorted(found.items())
        )

    detail = (
        f"{elapsed:.1f}s; {len(specs)} grids, formula vs oracle: {listed(disagreements)}; "
        f"48 grids of width <= 4 and length <= 12, formula vs DP: {listed(dp_disagreements)}"
    ) + ("; 3x3 confirmed by the endpoint-level oracle" if confirmed
         else "; 3x3 NOT confirmed by the endpoint-level oracle")
    report(4, "oracle equals closed form on every grid with <= 19 edges, and the "
              "lemma DP on every grid of width <= 4 and length <= 12, except the "
              "documented 3x3 defect",
           disagreements == KNOWN_FORMULA_DEFECTS == dp_disagreements
           and confirmed and elapsed <= 60,
           detail)


def test_criterion_5_witness_suite():
    started = time.time()
    failures = []
    for cols in range(2, 13):
        for rows in range(2, 13):
            spec = GridSpec(cols, rows)
            result = verify_slicing(grid(spec), best_slicing(spec))
            if not result.all_passed:
                failures.append((cols, rows, [c.name for c in result.checks if not c.passed]))
    elapsed = time.time() - started
    detail = f"{elapsed:.1f}s" + (f"; failures: {failures}" if failures else "")
    report(5, "best slicing passes all five checks for every 2..12 grid",
           not failures and elapsed <= 5, detail)


def test_criterion_6_monotonicity():
    corpus = [grid(GridSpec(cols, rows)) for cols, rows in grids_with_at_most(10)]
    corpus.extend(path(k) for k in range(2, 12))
    corpus.extend(random_simple_graphs(50, max_edges=10))
    violations = []
    for g in corpus:
        flags = [find_nonadjacent_pair(g, r) is None for r in range(1, g.edge_count + 1)]
        for r, (earlier, later) in enumerate(zip(flags, flags[1:]), start=1):
            if earlier and not later:
                violations.append((g.edges, r))
    detail = f"{len(corpus)} graphs" + (f"; violations: {violations}" if violations else "")
    report(6, "completeness at r implies completeness at r + 1", not violations, detail)


def test_criterion_7_index_one_reduction(diamond):
    failures = []
    for name, g in [("diamond", diamond), ("path(5)", path(5)), ("grid(3,3)", grid(GridSpec(3, 3)))]:
        sl, labels = super_line_graph(g, 1)
        if not (sl == line_graph_naive(g) and labels == tuple((i,) for i in range(g.edge_count))):
            failures.append(name)
    report(7, "index-1 super line graph coincides with the line graph",
           not failures, str(failures) if failures else "")
