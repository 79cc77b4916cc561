"""Immutable simple undirected graphs with indexed edge lists.

Vertices are the integers ``0 .. vertex_count - 1``.  Edges are ``(u, v)``
pairs with ``u < v`` and are identified by their position in the edge list.
Alongside the edge list, every graph carries one bitmask per edge marking
the edge indices that share an endpoint with it; all of the subset
machinery in this package runs on those masks.

Graphs are frozen after construction and safe to share between threads.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError

#: Default cap on user-supplied edge lists.  Derived constructions (paths,
#: grids, products, line graphs) validate their own sizes and build uncapped.
DEFAULT_EDGE_CAP = 4096

_PRODUCT_VERTEX_CAP = 2**31


def _adjacency_masks(edges: list[tuple[int, int]]) -> tuple[int, ...]:
    # Keyed by the endpoints that occur, so memory follows the edge count
    # however large the declared vertex count is.
    incident: defaultdict[int, int] = defaultdict(int)
    for index, (u, v) in enumerate(edges):
        bit = 1 << index
        incident[u] |= bit
        incident[v] |= bit
    return tuple(
        (incident[u] | incident[v]) & ~(1 << index)
        for index, (u, v) in enumerate(edges)
    )


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with an indexed edge list.

    ``edge_adjacency[i]`` is a bitmask over edge indices: bit ``j`` is set
    exactly when ``i != j`` and edges ``i`` and ``j`` share an endpoint.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    edge_adjacency: tuple[int, ...]

    @staticmethod
    def from_edges(
        vertex_count: int,
        edge_list: Iterable[tuple[int, int]],
        *,
        edge_cap: int | None = DEFAULT_EDGE_CAP,
    ) -> Graph:
        """Build a graph, rejecting self-loops, duplicates and bad endpoints.

        Endpoint order within a pair is normalised to ``u < v``; a pair and
        its reverse count as duplicates.  Corrupt input is rejected rather
        than silently repaired.  ``edge_cap=None`` lifts the size cap.
        """
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        normalized: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in edge_list:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"edge ({u}, {v}) has an endpoint outside 0..{vertex_count - 1}"
                )
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            normalized.append((u, v))
        if edge_cap is not None and len(normalized) > edge_cap:
            raise CapacityError(
                f"{len(normalized)} edges exceed the construction cap of {edge_cap}"
            )
        return Graph(vertex_count, tuple(normalized), _adjacency_masks(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def full_edge_mask(self) -> int:
        """Bitmask with one bit per edge index."""
        return (1 << len(self.edges)) - 1


@dataclass(frozen=True)
class GridSpec:
    """Dimensions of a grid graph: ``cols`` cells across, ``rows`` down.

    Cell ``(row i, col j)`` is vertex ``i * cols + j``.  Edge indices
    enumerate every horizontal edge in row-major order first, then every
    vertical edge in row-major order.  Slicing certificates and CLI output
    depend on this exact numbering, so it is part of the public contract.
    """

    cols: int
    rows: int

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ValueError("grid dimensions must both be at least 1")

    @property
    def vertex_count(self) -> int:
        return self.cols * self.rows

    @property
    def edge_count(self) -> int:
        return 2 * self.cols * self.rows - self.cols - self.rows

    def vertex_id(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"cell ({row}, {col}) outside a {self.cols}x{self.rows} grid")
        return row * self.cols + col

    def vertex_coords(self, vertex: int) -> tuple[int, int]:
        """Inverse of :meth:`vertex_id`, returning ``(row, col)``."""
        if not 0 <= vertex < self.vertex_count:
            raise ValueError(f"vertex {vertex} outside a {self.cols}x{self.rows} grid")
        return divmod(vertex, self.cols)

    def horizontal_edge_index(self, row: int, col: int) -> int:
        """Index of the edge joining ``(row, col)`` and ``(row, col + 1)``."""
        if not (0 <= row < self.rows and 0 <= col < self.cols - 1):
            raise ValueError(f"no horizontal edge at ({row}, {col})")
        return row * (self.cols - 1) + col

    def vertical_edge_index(self, row: int, col: int) -> int:
        """Index of the edge joining ``(row, col)`` and ``(row + 1, col)``."""
        if not (0 <= row < self.rows - 1 and 0 <= col < self.cols):
            raise ValueError(f"no vertical edge at ({row}, {col})")
        return self.rows * (self.cols - 1) + row * self.cols + col


def path(k: int) -> Graph:
    """Path on ``k`` vertices; edge ``i`` joins vertices ``i`` and ``i + 1``."""
    if k < 1:
        raise ValueError("a path needs at least one vertex")
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)], edge_cap=None)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product of two graphs.

    Vertex ``(a, b)`` gets id ``a * h.vertex_count + b``.  Edges are listed
    with the h-coordinate varying first: for each vertex ``a`` of ``g`` all
    edges of ``h`` in index order, then for each edge of ``g`` one copy per
    vertex of ``h``.  With two paths this yields exactly the grid numbering
    documented on :class:`GridSpec`.
    """
    if g.vertex_count * h.vertex_count > _PRODUCT_VERTEX_CAP:
        raise CapacityError(
            f"product has {g.vertex_count} * {h.vertex_count} vertices, "
            f"beyond the cap of {_PRODUCT_VERTEX_CAP}"
        )
    hn = h.vertex_count
    edges: list[tuple[int, int]] = []
    for a in range(g.vertex_count):
        base = a * hn
        for b1, b2 in h.edges:
            edges.append((base + b1, base + b2))
    for a1, a2 in g.edges:
        for b in range(hn):
            edges.append((a1 * hn + b, a2 * hn + b))
    return Graph.from_edges(g.vertex_count * hn, edges, edge_cap=None)


def grid(spec: GridSpec) -> Graph:
    """Grid graph with ``spec.cols * spec.rows`` vertices.

    Built as the Cartesian product of the row path and the column path so
    the vertex ids and edge indices match :class:`GridSpec` exactly.
    """
    return cartesian_product(path(spec.rows), path(spec.cols))


def edges_adjacent(g: Graph, i: int, j: int) -> bool:
    """True when edges ``i`` and ``j`` are distinct and share an endpoint."""
    if not (0 <= i < g.edge_count and 0 <= j < g.edge_count):
        raise ValueError(f"edge index out of range: ({i}, {j}) with {g.edge_count} edges")
    return bool(g.edge_adjacency[i] >> j & 1)


def line_graph(g: Graph) -> Graph:
    """Line graph: vertex ``k`` is edge ``k`` of ``g``, joined when adjacent."""
    pairs: list[tuple[int, int]] = []
    for i, mask in enumerate(g.edge_adjacency):
        higher = mask >> (i + 1)
        j = i + 1
        while higher:
            if higher & 1:
                pairs.append((i, j))
            higher >>= 1
            j += 1
    return Graph.from_edges(g.edge_count, pairs, edge_cap=None)
