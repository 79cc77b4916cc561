"""Slow reference implementations and shared test data.

Everything here works directly on endpoint pairs with explicit double
loops, independent of the bitmask machinery under test.
"""

from __future__ import annotations

import random
from itertools import combinations

import hypothesis.strategies as st

from gridlc import Graph


def share_endpoint(edge_a: tuple[int, int], edge_b: tuple[int, int]) -> bool:
    return edge_a != edge_b and bool(set(edge_a) & set(edge_b))


def subsets_adjacent_naive(graph: Graph, first, second) -> bool:
    for i in first:
        for j in second:
            if i != j and share_endpoint(graph.edges[i], graph.edges[j]):
                return True
    return False


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
