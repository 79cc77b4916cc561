"""Immutable simple undirected graphs with indexed edge lists.

Vertices are the integers ``0 .. vertex_count - 1``.  Edges are ``(u, v)``
pairs with ``u < v`` and are identified by their position in the edge list;
the two make up the whole value of a graph.  The subset machinery runs on
one bitmask per edge marking the edges that share an endpoint with it,
built on first use.  Graphs are frozen and safe to share between threads;
threads that first read the masks at the same moment compute the same tuple.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from collections.abc import Iterable
from functools import cached_property

from .errors import CapacityError

#: Default cap on user-supplied edge lists.  Grids and paths are checked
#: against their own cap, and super line graphs against a vertex cap.
DEFAULT_EDGE_CAP = 4096

# Admits a 181x181 grid (65,160 edges); checked before any edge is built.
_GRID_EDGE_CAP = 2**16


def _adjacency_masks(edges: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
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


class Graph(namedtuple("Graph", "vertex_count edges")):
    """A simple undirected graph with an indexed edge list.

    ``edge_adjacency[i]`` is a bitmask over edge indices, built on first use:
    bit ``j`` is set exactly when ``i != j`` and edges ``i`` and ``j`` share
    an endpoint.  Equality, hashing and ``repr`` use the two fields alone;
    the masks are cached in the instance ``__dict__``, which is why this
    class, unlike the other records, keeps one.
    """

    @cached_property
    def edge_adjacency(self) -> tuple[int, ...]:
        return _adjacency_masks(self.edges)

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
        return Graph(vertex_count, tuple(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def full_edge_mask(self) -> int:
        """Bitmask with one bit per edge index."""
        return (1 << len(self.edges)) - 1


class GridSpec(namedtuple("GridSpec", "cols rows")):
    """Dimensions of a grid graph: ``cols`` cells across, ``rows`` down.

    Cell ``(row i, col j)`` is vertex ``i * cols + j``.  Edge indices
    enumerate every horizontal edge in row-major order first, then every
    vertical edge in row-major order.  Slicing certificates and CLI output
    depend on this exact numbering, so it is part of the public contract.
    """

    __slots__ = ()
    # _replace builds through _make, which would skip the checks in __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, cols: int, rows: int) -> GridSpec:
        if cols < 1 or rows < 1:
            raise ValueError("grid dimensions must both be at least 1")
        return super().__new__(cls, cols, rows)

    @property
    def vertex_count(self) -> int:
        return self.cols * self.rows

    @property
    def edge_count(self) -> int:
        return 2 * self.cols * self.rows - self.cols - self.rows

    def vertex_coords(self, vertex: int) -> tuple[int, int]:
        """``(row, col)`` of cell ``vertex``, so that ``row * cols + col == vertex``."""
        if not 0 <= vertex < self.vertex_count:
            raise ValueError(f"vertex {vertex} outside a {self.cols}x{self.rows} grid")
        return divmod(vertex, self.cols)


def grid(spec: GridSpec) -> Graph:
    """Grid graph with the vertex ids and edge indices of :class:`GridSpec`."""
    if spec.edge_count > _GRID_EDGE_CAP:
        raise CapacityError(
            f"{spec.cols}x{spec.rows} grid has {spec.edge_count} edges, "
            f"beyond the cap of {_GRID_EDGE_CAP}"
        )
    n, m = spec.cols, spec.rows
    horizontal = [(i * n + j, i * n + j + 1) for i in range(m) for j in range(n - 1)]
    vertical = [(v, v + n) for v in range(n * (m - 1))]
    return Graph(spec.vertex_count, tuple(horizontal + vertical))


def path(k: int) -> Graph:
    """Path on ``k`` vertices; edge ``i`` joins vertices ``i`` and ``i + 1``."""
    if k < 1:
        raise ValueError("a path needs at least one vertex")
    return grid(GridSpec(k, 1))
