"""Slow reference implementations and shared test data.

Everything here except ``first_witness_scan`` and ``lc_upward_scan``
works directly on endpoint pairs with explicit loops, independent of the
bitmask machinery under test.  ``first_witness_scan`` enumerates every
r-subset in lexicographic order and applies the popcount test to each, the
way ``find_nonadjacent_pair`` scanned a level before its pruned walk; it
uses the graph's adjacency masks but no code from ``gridlc.superline``
beyond the public record types.  ``lc_upward_scan`` runs it at every level,
the way ``lc_bruteforce`` decided lc before the lemma DP; it is the
reference the DP is checked against where the scan is fast enough.
``lc_grid_transfer`` decides grids from the lemma by its own
transfer-matrix DP, the reference for grids the scan cannot reach.
``lemma_bound_naive`` gives the relaxed lemma DP's bound and final
bitset from every split of the vertices into X, Y and rest.
``frontier_steps_reference`` is the lemma DP's visit order and field
layout, worked out afresh at every step.  ``indices_reference``,
``from_indices_reference`` and ``sets_adjacent_reference`` convert between
masks and index lists one bit at a time, ``slice_grid_reference``
applies the cut rule of the ``gridlc.slicing`` docstring to each edge's
endpoint cells, and ``best_slicing_reference`` builds both of its cuts and
keeps the one with the larger sides.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import combinations, product

import hypothesis.strategies as st

from gridlc import EdgeSet, Graph, LcResult, WitnessPair


def share_endpoint(edge_a: tuple[int, int], edge_b: tuple[int, int]) -> bool:
    return edge_a != edge_b and bool(set(edge_a) & set(edge_b))


def line_graph_naive(graph: Graph) -> Graph:
    """Vertex ``k`` is edge ``k``; pairs of touching edges in lexicographic order."""
    pairs = [
        (i, j)
        for i in range(graph.edge_count)
        for j in range(i + 1, graph.edge_count)
        if share_endpoint(graph.edges[i], graph.edges[j])
    ]
    return Graph(graph.edge_count, tuple(pairs))


def touching_pair_naive(graph: Graph, first, second):
    """First ``(i, j)`` in loop order with ``i != j`` whose edges share an endpoint."""
    for i in first:
        for j in second:
            if i != j and share_endpoint(graph.edges[i], graph.edges[j]):
                return i, j
    return None


def subsets_adjacent_naive(graph: Graph, first, second) -> bool:
    return touching_pair_naive(graph, first, second) is not None


def indices_reference(bits: int) -> tuple[int, ...]:
    """Positions of the set bits of ``bits``, tested one bit at a time."""
    return tuple(j for j in range(bits.bit_length()) if bits >> j & 1)


def from_indices_reference(edge_count: int, indices) -> int:
    """Mask of ``indices``, set one bit at a time; an out-of-range index
    raises the message ``EdgeSet.from_indices`` gives for it."""
    bits = 0
    for index in indices:
        if not 0 <= index < edge_count:
            raise ValueError(
                f"edge index {index} out of range for a graph with {edge_count} edges"
            )
        bits |= 1 << index
    return bits


def sets_adjacent_reference(graph: Graph, first_bits: int, second_bits: int) -> bool:
    """Whether the edges of two masks touch, read bit by bit and compared by endpoint."""
    return subsets_adjacent_naive(
        graph, indices_reference(first_bits), indices_reference(second_bits)
    )


def slice_grid_reference(cols: int, rows: int, axis: str):
    """``(orientation value, A, B, R)`` of the documented cut, or None where none exists.

    Worked from the ``gridlc.slicing`` docstring: each cross line has a
    boundary, and its cells before the boundary are A and the rest B.  An
    even cut dimension puts the boundary at its middle.  An odd one puts it
    after the centre cell on the first half of the cross lines and before
    it on the rest, except that the centre cell of an odd-by-odd grid joins
    neither side.  An edge whose endpoint cells are both A is in A, both B
    in B, anything else in R.  Edges are numbered as ``GridSpec`` says.
    """
    cut, cross = (cols, rows) if axis == "vertical" else (rows, cols)
    if cut < 2 or (cut % 2 == 1 and cross < 2):
        return None

    def side(cell):
        row, col = cell
        along, line = (col, row) if axis == "vertical" else (row, col)
        boundary = cut // 2
        if cut % 2 == 1:
            if cross % 2 == 1 and 2 * line + 1 == cross:
                if along == boundary:
                    return None
            elif 2 * line < cross:
                boundary += 1
        return "A" if along < boundary else "B"

    horizontal = [((i, j), (i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    vertical = [((i, j), (i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    sides = {"A": [], "B": [], "R": []}
    for index, (u, v) in enumerate(horizontal + vertical):
        side_u, side_v = side(u), side(v)
        sides[side_u if side_u == side_v and side_u is not None else "R"].append(index)
    orientation = axis if cut % 2 == 0 else f"almost-{axis}"
    return orientation, tuple(sides["A"]), tuple(sides["B"]), tuple(sides["R"])


def best_slicing_reference(cols: int, rows: int):
    """``slice_grid_reference`` of the cut with the larger sides; ties go vertical.

    Both cuts are built and their sides compared, where ``best_slicing``
    builds only the cut that its removed-edge counts pick.
    """
    vertical = slice_grid_reference(cols, rows, "vertical")
    horizontal = slice_grid_reference(cols, rows, "horizontal")
    return vertical if len(vertical[1]) >= len(horizontal[1]) else horizontal


def super_line_graph_naive(graph: Graph, r: int):
    """``(graph, labels)`` of the index-r super line graph, by testing every pair."""
    labels = tuple(combinations(range(graph.edge_count), r))
    pairs = [
        (i, j)
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if subsets_adjacent_naive(graph, labels[i], labels[j])
    ]
    return Graph(len(labels), tuple(pairs)), labels


def find_pair_naive(graph: Graph, r: int):
    """Lexicographically first non-adjacent pair of r-subsets, or None."""
    subsets = list(combinations(range(graph.edge_count), r))
    for a in range(len(subsets)):
        for b in range(a + 1, len(subsets)):
            if not subsets_adjacent_naive(graph, subsets[a], subsets[b]):
                return subsets[a], subsets[b]
    return None


def is_complete_naive(graph: Graph, r: int) -> bool:
    return find_pair_naive(graph, r) is None


def lc_naive(graph: Graph) -> int:
    if graph.edge_count == 0:
        return 0
    for r in range(1, graph.edge_count + 1):
        if is_complete_naive(graph, r):
            return r
    raise AssertionError("unreachable: a single subset is vacuously complete")


def first_witness_scan(graph: Graph, r: int) -> WitnessPair | None:
    """Lexicographically first non-adjacent pair of r-subsets, or None.

    Every r-subset S is tested in turn: with F the complement of S's
    adjacency cover, S has a partner iff |F| - [S inside F] >= r, and the
    partner of the first such S is the first r-subset of F other than S.
    """
    full = (1 << graph.edge_count) - 1
    adjacency = graph.edge_adjacency
    for indices in combinations(range(graph.edge_count), r):
        bits = cover = 0
        for e in indices:
            bits |= 1 << e
            cover |= adjacency[e]
        free = full & ~cover
        if free.bit_count() - (bits & cover == 0) >= r:
            spare = [e for e in range(graph.edge_count) if free >> e & 1]
            partner = next(t for t in combinations(spare, r) if t != indices)
            return WitnessPair(EdgeSet(graph, bits), EdgeSet.from_indices(graph, partner), r)
    return None


def lc_upward_scan(graph: Graph) -> LcResult:
    """lc as the first complete level, scanning levels 1, 2, ... in turn."""
    if graph.edge_count == 0:
        return LcResult(0)
    witness = None
    for r in range(1, graph.edge_count + 1):
        hit = first_witness_scan(graph, r)
        if hit is None:
            return LcResult(r, witness)
        witness = hit
    raise AssertionError("unreachable: a single subset is vacuously complete")


def matching_number_naive(edges: list[tuple[int, int]]) -> int:
    """Size of a maximum matching, trying the first edge both in and out."""
    if not edges:
        return 0
    (u, v), rest = edges[0], edges[1:]
    return max(
        matching_number_naive(rest),
        1 + matching_number_naive([e for e in rest if u not in e and v not in e]),
    )


def lc_lemma_naive(graph: Graph) -> int:
    """lc from the lemma, trying all 3^V splits of the vertices into X, Y and rest.

    lc - 1 is the best min(|E[X]|, |E[Y]|) + nu(G - X - Y) over splits
    where X and Y each induce an edge; with no such split lc is 1.
    """
    if graph.edge_count == 0:
        return 0
    best = 0
    for sides in product("XYR", repeat=graph.vertex_count):
        within = {"X": [], "Y": [], "R": []}
        for u, v in graph.edges:
            if sides[u] == sides[v]:
                within[sides[u]].append((u, v))
        if within["X"] and within["Y"]:
            best = max(
                best,
                min(len(within["X"]), len(within["Y"])) + matching_number_naive(within["R"]),
            )
    return best + 1


def lemma_points_naive(graph: Graph) -> int:
    """The lemma DP's final flagged bitset, from all 3^V splits into X, Y and rest.

    Bit a * (E + 1) + b is set for each point (|E[X]| + |M|, |E[Y]| + |M|)
    of a split whose E[X] or E[Y] is nonempty, with M any matching of the
    edges inside the rest.  |M| takes every value from 0 to the matching
    number: drop edges from a maximum matching.
    """
    width = graph.edge_count + 1
    bits = 0
    for sides in product("XYR", repeat=graph.vertex_count):
        within = {"X": [], "Y": [], "R": []}
        for u, v in graph.edges:
            if sides[u] == sides[v]:
                within[sides[u]].append((u, v))
        if within["X"] or within["Y"]:
            for size in range(matching_number_naive(within["R"]) + 1):
                bits |= 1 << (len(within["X"]) + size) * width + len(within["Y"]) + size
    return bits


def lemma_bound_naive(graph: Graph) -> tuple[int, int]:
    """The relaxed lemma DP's bound U and final flagged bitset, from every split.

    Each vertex that has an edge goes to X, Y or the rest R.  U - 1 is the
    best min(|E[X]|, |E[Y]|) + floor(|R| / 2) over splits whose E[X] or E[Y]
    is nonempty, and U = 0 with no edge.  Bit a * W + b is set for each such
    split's point (a, b) = (2|E[X]| + |R|, 2|E[Y]| + |R|), with W the least
    even number above E.
    """
    touched = sorted({v for edge in graph.edges for v in edge})
    width = graph.edge_count + 2 - graph.edge_count % 2
    best, bits = -1, 0
    for labels in product("XYR", repeat=len(touched)):
        sides = dict(zip(touched, labels))
        inside = {"X": 0, "Y": 0, "R": 0}
        for u, v in graph.edges:
            if sides[u] == sides[v]:
                inside[sides[u]] += 1
        if inside["X"] or inside["Y"]:
            rest = labels.count("R")
            best = max(best, min(inside["X"], inside["Y"]) + rest // 2)
            bits |= 1 << (2 * inside["X"] + rest) * width + 2 * inside["Y"] + rest
    return best + 1, bits


def frontier_steps_reference(graph: Graph):
    """Each step of the lemma DP's visit, with every choice worked out afresh.

    The candidates are the unvisited neighbours of the frontier, rebuilt at
    every step and ranked by (frontier change, -(visited neighbours),
    degree, id); with the frontier empty, the unvisited vertex of least
    degree, then id, starts the next component.  Offsets are the lowest
    even number no frontier field holds.  Yields the same
    ``(v, reads, keep, sigmask, place, ones)`` as ``_frontier_steps``.
    """
    neighbours: defaultdict[int, list[int]] = defaultdict(list)
    for u, v in graph.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    unvisited = {v: len(adj) for v, adj in neighbours.items()}
    visited: set[int] = set()
    fresh = iter(sorted(neighbours, key=lambda v: (len(neighbours[v]), v)))

    def rank(v: int) -> tuple[int, int, int, int]:
        degree = len(neighbours[v])
        # The visited neighbours that leave the frontier with v.
        closing = sum(unvisited[u] == 1 for u in neighbours[v] if u in visited)
        return ((unvisited[v] > 0) - closing, unvisited[v] - degree, degree, v)

    slot: dict[int, int] = {}  # frontier vertex -> offset of its field
    for _ in neighbours:
        if slot:
            v = min({u for w in slot for u in neighbours[w] if u not in visited}, key=rank)
        else:
            v = next(u for u in fresh if u not in visited)
        visited.add(v)
        earlier = [u for u in neighbours[v] if u in slot]
        for u in neighbours[v]:
            unvisited[u] -= 1
        # A match on u clears its rest bit (REST is 1), or nothing when u leaves.
        reads = [(slot[u], 1 << slot[u] if unvisited[u] else 0) for u in earlier]
        sigmask = sum(3 << shift for shift, _ in reads)
        keep = ~sum(3 << slot.pop(u) for u in earlier if not unvisited[u])
        place = 0
        if unvisited[v]:
            slot[v] = min(set(range(0, 2 * len(slot) + 1, 2)) - set(slot.values()))
            place = 1 << slot[v]
        ones = sum(1 << offset for offset in slot.values())
        yield v, reads, keep, sigmask, place, ones


def lc_grid_transfer(cols: int, rows: int) -> int:
    """lc of the cols x rows grid from the lemma, by a transfer-matrix DP.

    Shares no code with ``gridlc.superline``.  Cells are scanned row-major
    with the shorter side across, so the frontier is the last ``width``
    cells, one character each: X, Y, R (rest, free to be matched to a later
    neighbour) or D (rest that is matched or stays unmatched).  A state is
    the frontier and whether E[X] and E[Y] are nonempty; it maps each
    d = |E[X]| - |E[Y]| to the best value |E[Y]| + matched.  The future adds
    the same to d and to the value whatever came before, and the score
    min(|E[X]|, |E[Y]|) + matched = value + min(d, 0) grows with the value,
    so only the best value is kept.  Swapping X and Y maps (d, value) to
    (-d, value + d) and keeps the score, so each frontier is stored as the
    lesser of itself and its swap.
    """
    width, length = sorted((cols, rows))
    if 2 * width * length - width - length == 0:
        return 0
    swap = str.maketrans("XY", "YX")
    states = {("D" * width, False, False): {0: 0}}
    for i in range(length):
        for j in range(width):
            new: dict[tuple[str, bool, bool], dict[int, int]] = {}
            for (labels, has_x, has_y), points in states.items():
                near = labels[j - 1] * (j > 0) + labels[j] * (i > 0)
                nx, ny = near.count("X"), near.count("Y")
                head, tail = labels[:j], labels[j + 1:]
                # (frontier, has_x, has_y, added to d, added to the value)
                moves = [
                    (head + "X" + tail, has_x or nx > 0, has_y, nx, 0),
                    (head + "Y" + tail, has_x, has_y or ny > 0, -ny, ny),
                    (head + "R" + tail, has_x, has_y, 0, 0),
                ]
                if i > 0 and labels[j] == "R":  # matched to the cell above
                    moves.append((head + "D" + tail, has_x, has_y, 0, 1))
                if j > 0 and labels[j - 1] == "R":  # matched to the cell on the left
                    moves.append((labels[:j - 1] + "DD" + tail, has_x, has_y, 0, 1))
                for after, flag_x, flag_y, step_d, step_value in moves:
                    mirror = after.translate(swap)
                    mirrored = mirror < after
                    if mirrored:
                        after, flag_x, flag_y = mirror, flag_y, flag_x
                    target = new.setdefault((after, flag_x, flag_y), {})
                    for d, value in points.items():
                        d += step_d
                        value += step_value
                        if mirrored:
                            d, value = -d, value + d
                        if target.get(d, -1) < value:
                            target[d] = value
            states = new
    scores = [
        value + min(d, 0)
        for (_, has_x, has_y), points in states.items()
        if has_x and has_y
        for d, value in points.items()
    ]
    return max(scores, default=0) + 1


def grids_with_at_most(max_edges: int) -> list[tuple[int, int]]:
    """Every (cols, rows) whose grid graph has at most ``max_edges`` edges."""
    return [
        (cols, rows)
        for cols in range(1, max_edges + 2)
        for rows in range(1, max_edges + 2)
        if 2 * cols * rows - cols - rows <= max_edges
    ]


def random_simple_graphs(count: int, *, max_edges: int = 10, seed: int = 20240611):
    """Deterministic corpus of small simple graphs."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        vertices = rng.randint(2, 7)
        pairs = list(combinations(range(vertices), 2))
        edge_count = rng.randint(0, min(max_edges, len(pairs)))
        graphs.append(Graph.from_edges(vertices, rng.sample(pairs, edge_count)))
    return graphs


def super_line_cases():
    """``(graph, r)`` inputs on which super line graphs are checked.

    Random graphs at r = 1..4 and at r = E (one vertex), a perfect matching
    (no edges at r = 1), the star K_1,6 (complete at every r) and a triangle
    with a pendant edge among isolated vertices.
    """
    cases = [
        (g, r)
        for g in random_simple_graphs(200, max_edges=10)
        for r in sorted({*range(1, min(4, g.edge_count) + 1), g.edge_count} - {0})
    ]
    matching = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    star = Graph.from_edges(7, [(0, k) for k in range(1, 7)])
    isolated = Graph.from_edges(10, [(1, 4), (4, 6), (1, 6), (6, 8)])
    cases.append((matching, 1))
    cases.extend((star, r) for r in range(1, 7))
    cases.extend((isolated, r) for r in range(1, 5))
    return cases


@st.composite
def graphs(draw, max_vertices: int = 7, max_edges: int = 10, min_edges: int = 0):
    min_vertices = 2
    while min_vertices * (min_vertices - 1) // 2 < min_edges:
        min_vertices += 1
    vertex_count = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    pairs = list(combinations(range(vertex_count), 2))
    edges = draw(
        st.lists(
            st.sampled_from(pairs),
            unique=True,
            min_size=min_edges,
            max_size=min(max_edges, len(pairs)),
        )
    )
    return Graph.from_edges(vertex_count, edges)
