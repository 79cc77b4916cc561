"""Edge-partition certificates for lower bounds on grid line completion.

A slicing splits a grid's edges into sides ``A`` and ``B`` plus a removed
set ``R`` such that no edge of A shares a vertex with an edge of B and
``|A| = |B|``.  Sides of size s show the super line graph of index s is not
complete, hence lc(grid) >= s + 1.  The constructions cut the grid between
its columns (vertical family) or between its rows (horizontal family), and a
:class:`Slicing` stores that axis as the string ``"vertical"`` or
``"horizontal"``.  When the cut dimension is even the cut is straight and
removes one edge per cross line.  When it is odd the cut
zigzags through the centre line, handing the centre cell of each cross line
to one side: the first half of the cross lines keep it on the A side, the
rest on the B side, which costs one extra removed edge.  When both
dimensions are odd the central cell of the grid joins neither side and all
four of its edges are removed.  The JSON label adds ``almost-`` to a
zigzag's axis; :func:`slicing_from_dict` reads each label as its axis.

The removed-set sizes per parity class are fixed: a vertical cut removes
m, m + 1, or m + 3 edges for {n even; n odd, m even; n odd, m odd}, and a
horizontal cut removes n, n + 1, or n + 3 for the transposed classes.
Both cuts split the same edges into two equal sides, so the cut that
removes fewer edges has the larger sides: :func:`best_slicing` picks its
axis from these counts and builds that one cut alone.

A :class:`Slicing` is only a claim.  :func:`verify_slicing` is the judge:
it rechecks everything from scratch, the graph against the grid numbering
and edge endpoints directly instead of trusting the adjacency masks.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple

from .formula import lc_grid_formula
from .graph import EdgeSet, Graph, GridSpec, _first_touching, _grid_edges, _mask, grid

_AXES = ("vertical", "horizontal")


class Slicing(namedtuple("Slicing", "spec orientation A B R")):
    """A claimed certificate: the cut axis, sides A and B plus the removed edge set R."""

    __slots__ = ()


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "checks")):
    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _cut_across(pair: tuple, axis: str) -> tuple:
    """A (cols, rows) ``pair`` reordered as (cut, across) for a cut along ``axis``.

    ``cut`` is the dimension the cut splits; ``across`` counts its cross lines.
    """
    return pair if axis == "vertical" else pair[::-1]


def _line_side(pos: int, length: int, cross_pos: int, cross_length: int) -> str | None:
    """Which half a cell lands in when a line of ``length`` cells is cut.

    Returns "A", "B", or None for the isolated central cell of an
    odd-by-odd grid.
    """
    half = length // 2
    if length % 2 == 0 or pos != half:
        return "A" if pos < half else "B"
    cross_half = cross_length // 2
    if cross_length % 2 == 1 and cross_pos == cross_half:
        return None
    return "A" if cross_pos < cross_half else "B"


def slice_grid(spec: GridSpec, axis: str) -> Slicing:
    """Cut the grid along the given axis into a slicing certificate.

    ``axis="vertical"`` splits the columns and needs ``cols >= 2``;
    ``axis="horizontal"`` splits the rows and needs ``rows >= 2``.  A
    zigzag cut (odd cut dimension) additionally needs at least 2 lines in
    the cross dimension, so 1-wide grids only admit the straight cut of an
    even dimension.
    """
    if axis not in _AXES:
        raise ValueError(f"unknown slicing axis {axis!r}: expected 'vertical' or 'horizontal'")
    cut, across = _cut_across(spec, axis)
    cut_name, across_name = _cut_across(("columns", "rows"), axis)
    if cut < 2:
        raise ValueError(f"{axis} slicing needs at least 2 {cut_name}")
    if cut % 2 == 1 and across < 2:
        raise ValueError(f"slicing an odd number of {cut_name} needs at least 2 {across_name}")

    # The side table is built only once grid() has passed its edge cap.
    g = grid(spec)
    vertical = axis == "vertical"
    sides = [
        _line_side(col, cut, row, across) if vertical else _line_side(row, cut, col, across)
        for row, col in itertools.product(range(spec.rows), range(spec.cols))
    ]
    a_bits, b_bits = (
        _mask(bytes([sides[u] == sides[v] == name for u, v in g.edges])) for name in "AB"
    )
    removed = g.full_edge_mask() & ~(a_bits | b_bits)
    return Slicing(spec, axis, EdgeSet(g, a_bits), EdgeSet(g, b_bits), EdgeSet(g, removed))


def best_slicing(spec: GridSpec) -> Slicing:
    """The cut that removes fewer edges, so has the larger sides; ties go vertical.

    The axis comes from :func:`expected_removed_count` and only that cut is
    built.  The winning side size always satisfies ``|A| + 1 == lc_grid_formula``.
    """
    if spec.cols < 2 or spec.rows < 2:
        raise ValueError("grid slicings need both dimensions at least 2; 1-wide grids are paths")
    return slice_grid(spec, min(_AXES, key=lambda axis: expected_removed_count(spec, axis)))


def expected_removed_count(spec: GridSpec, axis: str) -> int:
    """Removed-set size the parity class dictates for the cut along ``axis``."""
    cut, across = _cut_across(spec, axis)
    if cut % 2 == 0:
        return across
    if across % 2 == 0:
        return across + 1
    return across + 3


def verify_slicing(g: Graph, slicing: Slicing) -> VerificationReport:
    """Run the five certificate checks and report each outcome.

    Checks: (1) A, B, R partition the edge set; (2) no A edge shares a
    vertex with a B edge, established from the edge endpoints by mapping
    each vertex to the B edges that touch it; (3) the sides have equal
    size; (4) |R| equals the parity-class count for the claimed cut
    family; (5) |A| + 1 equals the closed-form lc.  A report that fails
    only check 5 describes a sound but sub-optimal certificate.
    """
    sized = (g.vertex_count, g.edge_count) == (slicing.spec.vertex_count, slicing.spec.edge_count)
    if not sized or not all(map(operator.eq, g.edges, _grid_edges(slicing.spec))):
        raise ValueError("graph does not match grid(slicing.spec)")
    a_bits, b_bits, r_bits = slicing.A.bits, slicing.B.bits, slicing.R.bits
    if (a_bits | b_bits | r_bits) >> g.edge_count:
        raise ValueError("slicing sides hold edge indices outside grid(slicing.spec)")

    checks: list[CheckResult] = []

    overlap = (a_bits & b_bits) | (a_bits & r_bits) | (b_bits & r_bits)
    missing = g.full_edge_mask() & ~(a_bits | b_bits | r_bits)
    if overlap:
        detail = f"sets overlap on edge {overlap.bit_length() - 1} (and possibly others)"
    elif missing:
        detail = f"{missing.bit_count()} edges belong to none of A, B, R"
    else:
        detail = f"A, B, R are disjoint and cover all {g.edge_count} edges"
    checks.append(CheckResult("partition", not overlap and not missing, detail))

    # The pair an A x B double loop would stop at, so the frozen detail text holds.
    a_indices, b_indices = slicing.A.indices(), slicing.B.indices()
    offender = _first_touching(g, a_indices, b_indices)
    if offender is None:
        detail = f"checked {len(a_indices)} x {len(b_indices)} edge pairs, none share a vertex"
    else:
        i, j = offender
        detail = f"A edge {i} {g.edges[i]} shares a vertex with B edge {j} {g.edges[j]}"
    checks.append(CheckResult("non_adjacency", offender is None, detail))

    size_a, size_b = slicing.A.cardinality, slicing.B.cardinality
    checks.append(CheckResult("equal_sides", size_a == size_b, f"|A| = {size_a}, |B| = {size_b}"))

    expected_removed = expected_removed_count(slicing.spec, slicing.orientation)
    size_r = slicing.R.cardinality
    checks.append(
        CheckResult(
            "removed_count",
            size_r == expected_removed,
            f"|R| = {size_r}, expected {expected_removed} for a {slicing.orientation} cut "
            f"of a {slicing.spec.cols}x{slicing.spec.rows} grid",
        )
    )

    lc_value, case = lc_grid_formula(slicing.spec.cols, slicing.spec.rows)
    checks.append(
        CheckResult(
            "formula_bound",
            size_a + 1 == lc_value,
            f"|A| + 1 = {size_a + 1} vs closed-form lc = {lc_value} ({case})",
        )
    )
    return VerificationReport(tuple(checks))


def slicing_to_dict(slicing: Slicing) -> dict:
    """JSON-ready form: spec, orientation (``almost-`` for an odd cut), sorted index lists."""
    axis = slicing.orientation
    return {
        "spec": {"cols": slicing.spec.cols, "rows": slicing.spec.rows},
        "orientation": f"almost-{axis}" if _cut_across(slicing.spec, axis)[0] % 2 else axis,
        "A": list(slicing.A.indices()),
        "B": list(slicing.B.indices()),
        "R": list(slicing.R.indices()),
    }


def slicing_from_dict(data: dict) -> Slicing:
    """Rebuild a slicing claim from its JSON form.

    Only well-formedness is enforced here (fields present, known
    orientation, each side a list of distinct integer indices in range);
    whether the claim certifies anything is for :func:`verify_slicing` to
    decide.  Each of the four orientation labels is read as its axis.
    """
    try:
        size = [data["spec"][name] for name in ("cols", "rows")]
        label = data["orientation"]
        axis = label.removeprefix("almost-")
        if axis not in _AXES:
            raise ValueError(f"malformed slicing document: unknown orientation {label!r}")
        sides = [data[name] for name in ("A", "B", "R")]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed slicing document: {exc!r}") from exc
    # type() rather than isinstance(): JSON true/false must not pass as 1/0
    for name, value in zip(("cols", "rows"), size):
        if type(value) is not int:
            raise ValueError(f"malformed slicing document: spec.{name} must be an integer")
    spec = GridSpec(*size)
    for name, side in zip("ABR", sides):
        if not isinstance(side, list) or any(type(index) is not int for index in side):
            raise ValueError(f"malformed slicing document: {name} must be a list of integers")
        if len(set(side)) < len(side):
            raise ValueError(f"malformed slicing document: {name} lists an edge index twice")
    g = grid(spec)
    return Slicing(spec, axis, *(EdgeSet.from_indices(g, side) for side in sides))
