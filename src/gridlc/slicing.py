"""Edge-partition certificates for lower bounds on grid line completion.

A slicing splits a grid's edges into sides ``A`` and ``B`` plus a removed
set ``R`` such that no edge of A shares a vertex with an edge of B and
``|A| = |B|``.  Sides of size s show the super line graph of index s is not
complete, hence lc(grid) >= s + 1.  The constructions cut the grid between
its columns (vertical family) or between its rows (horizontal family).
When the cut dimension is even the cut is straight and removes one edge
per cross line.  When it is odd the cut zigzags through the centre line,
handing the centre cell of each cross line to one side: the first half of
the cross lines keep it on the A side, the rest on the B side, which costs
one extra removed edge.  When both dimensions are odd the central cell of
the grid joins neither side and all four of its edges are removed.

The removed-set sizes per parity class are fixed: a vertical cut removes
m, m + 1, or m + 3 edges for {n even; n odd, m even; n odd, m odd}, and a
horizontal cut removes n, n + 1, or n + 3 for the transposed classes.

A :class:`Slicing` is only a claim.  :func:`verify_slicing` is the judge:
it rechecks everything from scratch, comparing edge endpoints directly
instead of trusting the adjacency masks.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Mapping, NamedTuple

from .formula import lc_grid_formula
from .graph import Graph, GridSpec, grid
from .superline import EdgeSet


class Orientation(enum.Enum):
    VERTICAL = "vertical"
    ALMOST_VERTICAL = "almost-vertical"
    HORIZONTAL = "horizontal"
    ALMOST_HORIZONTAL = "almost-horizontal"


_VERTICAL_FAMILY = (Orientation.VERTICAL, Orientation.ALMOST_VERTICAL)


class Slicing(NamedTuple):
    """A claimed certificate: sides A and B plus the removed edge set R."""

    spec: GridSpec
    orientation: Orientation
    A: EdgeSet
    B: EdgeSet
    R: EdgeSet


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class VerificationReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _line_side(pos: int, length: int, cross_pos: int, cross_length: int) -> str | None:
    """Which half a cell lands in when a line of ``length`` cells is cut.

    Returns "A", "B", or None for the isolated central cell of an
    odd-by-odd grid.
    """
    half = length // 2
    if length % 2 == 0:
        return "A" if pos < half else "B"
    if pos != half:
        return "A" if pos < half else "B"
    cross_half = cross_length // 2
    if cross_length % 2 == 0:
        return "A" if cross_pos < cross_half else "B"
    if cross_pos == cross_half:
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
    n, m = spec.cols, spec.rows
    if axis == "vertical":
        if n < 2:
            raise ValueError("vertical slicing needs at least 2 columns")
        if n % 2 == 1 and m < 2:
            raise ValueError("slicing an odd number of columns needs at least 2 rows")
        orientation = Orientation.VERTICAL if n % 2 == 0 else Orientation.ALMOST_VERTICAL

        def side(row: int, col: int) -> str | None:
            return _line_side(col, n, row, m)

    elif axis == "horizontal":
        if m < 2:
            raise ValueError("horizontal slicing needs at least 2 rows")
        if m % 2 == 1 and n < 2:
            raise ValueError("slicing an odd number of rows needs at least 2 columns")
        orientation = Orientation.HORIZONTAL if m % 2 == 0 else Orientation.ALMOST_HORIZONTAL

        def side(row: int, col: int) -> str | None:
            return _line_side(row, m, col, n)

    else:
        raise ValueError(f"unknown axis {axis!r}; expected 'vertical' or 'horizontal'")

    g = grid(spec)
    a_bits = b_bits = removed = 0
    for index, (u, v) in enumerate(g.edges):
        side_u = side(*spec.vertex_coords(u))
        side_v = side(*spec.vertex_coords(v))
        bit = 1 << index
        if side_u == "A" and side_v == "A":
            a_bits |= bit
        elif side_u == "B" and side_v == "B":
            b_bits |= bit
        else:
            removed |= bit
    return Slicing(spec, orientation, EdgeSet(g, a_bits), EdgeSet(g, b_bits), EdgeSet(g, removed))


def best_slicing(spec: GridSpec) -> Slicing:
    """The axis whose sides are largest; ties go to the vertical cut.

    The winning side size always satisfies ``|A| + 1 == lc_grid_formula``.
    """
    if spec.cols < 2 or spec.rows < 2:
        raise ValueError("grid slicings need both dimensions at least 2; 1-wide grids are paths")
    vertical = slice_grid(spec, "vertical")
    horizontal = slice_grid(spec, "horizontal")
    if vertical.A.cardinality >= horizontal.A.cardinality:
        return vertical
    return horizontal


def expected_removed_count(spec: GridSpec, orientation: Orientation) -> int:
    """Removed-set size the parity class dictates for this cut family."""
    if orientation in _VERTICAL_FAMILY:
        cut, across = spec.cols, spec.rows
    else:
        cut, across = spec.rows, spec.cols
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
    family; (5) |A| + 1 equals the closed-form lc.  A report that fails only check 5 describes a sound
    but sub-optimal certificate.
    """
    expected = grid(slicing.spec)
    if g.vertex_count != expected.vertex_count or g.edges != expected.edges:
        raise ValueError("graph does not match grid(slicing.spec)")

    checks: list[CheckResult] = []
    a_bits, b_bits, r_bits = slicing.A.bits, slicing.B.bits, slicing.R.bits

    overlap = (a_bits & b_bits) | (a_bits & r_bits) | (b_bits & r_bits)
    missing = g.full_edge_mask() & ~(a_bits | b_bits | r_bits)
    if overlap:
        detail = f"sets overlap on edge {overlap.bit_length() - 1} (and possibly others)"
    elif missing:
        detail = f"{missing.bit_count()} edges belong to none of A, B, R"
    else:
        detail = f"A, B, R are disjoint and cover all {g.edge_count} edges"
    checks.append(CheckResult("partition", not overlap and not missing, detail))

    # Reports the first A edge in index order that shares an endpoint with a
    # B edge other than itself, with the smallest such B edge: the pair an
    # A x B double loop would stop at, so the frozen detail text holds.
    a_indices, b_indices = slicing.A.indices(), slicing.B.indices()
    b_at: defaultdict[int, list[int]] = defaultdict(list)
    for j in b_indices:
        for vertex in g.edges[j]:
            b_at[vertex].append(j)
    offender: tuple[int, int] | None = None
    for i in a_indices:
        touching = [j for vertex in g.edges[i] for j in b_at.get(vertex, ()) if j != i]
        if touching:
            offender = (i, min(touching))
            break
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
    family = "vertical" if slicing.orientation in _VERTICAL_FAMILY else "horizontal"
    checks.append(
        CheckResult(
            "removed_count",
            size_r == expected_removed,
            f"|R| = {size_r}, expected {expected_removed} for a {family} cut of a "
            f"{slicing.spec.cols}x{slicing.spec.rows} grid",
        )
    )

    lc_value, case = lc_grid_formula(slicing.spec.cols, slicing.spec.rows)
    checks.append(
        CheckResult(
            "formula_bound",
            size_a + 1 == lc_value,
            f"|A| + 1 = {size_a + 1} vs closed-form lc = {lc_value} ({case.value})",
        )
    )
    return VerificationReport(tuple(checks))


def slicing_to_dict(slicing: Slicing) -> dict:
    """JSON-ready form: spec, orientation, and sorted index lists."""
    return {
        "spec": {"cols": slicing.spec.cols, "rows": slicing.spec.rows},
        "orientation": slicing.orientation.value,
        "A": list(slicing.A.indices()),
        "B": list(slicing.B.indices()),
        "R": list(slicing.R.indices()),
    }


def slicing_from_dict(data: Mapping) -> Slicing:
    """Rebuild a slicing claim from its JSON form.

    Only well-formedness is enforced here (fields present, known
    orientation, each side a list of integer indices in range); whether
    the claim certifies anything is for :func:`verify_slicing` to decide.
    """
    try:
        size = [data["spec"][name] for name in ("cols", "rows")]
        orientation = Orientation(data["orientation"])
        sides = [data[name] for name in ("A", "B", "R")]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed slicing document: {exc!r}") from exc
    # type() rather than isinstance(): JSON true/false must not pass as 1/0
    for name, value in zip(("cols", "rows"), size):
        if type(value) is not int:
            raise ValueError(f"malformed slicing document: spec.{name} must be an integer")
    spec = GridSpec(*size)
    for name, side in zip("ABR", sides):
        if not isinstance(side, list) or any(type(index) is not int for index in side):
            raise ValueError(f"malformed slicing document: {name} must be a list of integers")
    g = grid(spec)
    return Slicing(spec, orientation, *(EdgeSet.from_indices(g, side) for side in sides))
