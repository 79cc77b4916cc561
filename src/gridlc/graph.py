"""Graphs, edge subsets, and the grids, paths and super line graphs.

Vertices are the integers ``0 .. vertex_count - 1``.  Edges are ``(u, v)``
pairs with ``u < v`` and are identified by their position in the edge list;
the two make up the whole value of a graph, and graphs are frozen.  Whether
edges touch is decided in two places: :func:`_covers` ORs, for each edge,
a mask held by the other edges at its endpoints, and :func:`_first_touching`
compares endpoints for the first touching pair of two index lists.  A super
line graph is built from one mask of later neighbours per subset vertex,
computed from per-edge covers over the subsets; no subset pair is tested on
its own.  Deciding lc on these graphs is left to :mod:`gridlc.superline`.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, namedtuple
from collections.abc import Iterable, Iterator

from . import DEFAULT_EDGE_CAP, DEFAULT_VERTEX_CAP, CapacityError

# Admits a 181x181 grid (65,160 edges); checked before any edge is built.
_GRID_EDGE_CAP = 2**16


def _covers(edges: tuple[tuple[int, int], ...], holders: list[int]) -> tuple[int, ...]:
    """``covers[e]`` ORs ``holders[f]`` over the edges ``f != e`` that touch edge ``e``,
    from one prefix and one suffix OR over each vertex's edges."""
    # Keyed by the endpoints that occur, so memory follows the edge count
    # however large the declared vertex count is.
    incident: defaultdict[int, list[int]] = defaultdict(list)
    for e, (u, v) in enumerate(edges):
        incident[u].append(e)
        incident[v].append(e)
    covers = [0] * len(edges)
    for at in incident.values():
        before = after = 0
        for e, f in zip(at, reversed(at)):
            covers[e] |= before
            before |= holders[e]
            covers[f] |= after
            after |= holders[f]
    return tuple(covers)


def _first_touching(
    g: Graph, first: Iterable[int], second: Iterable[int]
) -> tuple[int, int] | None:
    """The first ``i`` of ``first`` whose edge shares an endpoint with an edge
    ``j != i`` of ``second``, with the least such ``j``, or ``None``; found by
    mapping each vertex to the edges of ``second`` that meet it."""
    second_at: defaultdict[int, list[int]] = defaultdict(list)
    for j in second:
        for vertex in g.edges[j]:
            second_at[vertex].append(j)
    for i in first:
        touching = [j for vertex in g.edges[i] for j in second_at.get(vertex, ()) if j != i]
        if touching:
            return i, min(touching)
    return None


class Graph(namedtuple("Graph", "vertex_count edges")):
    """A simple undirected graph with an indexed edge list.

    ``edge_adjacency[i]`` is a bitmask over edge indices, computed on each
    read: bit ``j`` is set exactly when ``i != j`` and edges ``i`` and ``j``
    share an endpoint.  A caller that reads it often binds it once.
    """

    __slots__ = ()

    @property
    def edge_adjacency(self) -> tuple[int, ...]:
        return _covers(self.edges, [1 << e for e in range(len(self.edges))])

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


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_BYTE_BITS = bytes.maketrans(b"\0\1", b"01")


def _selector(mask: int) -> bytes:
    """Byte ``j`` is bit ``j`` of ``mask`` (0 or 1), for ``itertools.compress``.

    With its inverse :func:`_mask`, the package's one conversion between a
    bitmask and its set positions, such as an :class:`EdgeSet`'s indices.
    Both are linear in the bits; base 2 is exempt from ``int``'s digit limit.
    """
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _mask(flags: bytes | bytearray) -> int:
    """Inverse of :func:`_selector`: bit ``j`` is byte ``j`` of ``flags`` (0 or 1)."""
    return int(b"0" + flags[::-1].translate(_BYTE_BITS), 2)


class EdgeSet(namedtuple("EdgeSet", "graph bits")):
    """Edge indices of one graph as a bitmask, converted by ``_selector``/``_mask``."""

    __slots__ = ()
    # _replace builds through _make, which would skip the checks in __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, graph: Graph, bits: int) -> EdgeSet:
        if bits < 0 or bits >> graph.edge_count:
            raise ValueError("bitmask contains edge indices outside the graph")
        return super().__new__(cls, graph, bits)

    @staticmethod
    def from_indices(graph: Graph, indices: Iterable[int]) -> EdgeSet:
        count = graph.edge_count
        flags = bytearray(count)
        for index in indices:
            if not 0 <= index < count:
                raise ValueError(f"edge index {index} out of range for a graph with {count} edges")
            flags[index] = 1
        return EdgeSet(graph, _mask(flags))

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        """Member edge indices in ascending order."""
        return tuple(itertools.compress(range(self.graph.edge_count), _selector(self.bits)))


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
        # type() rather than isinstance(): True must not pass as 1
        if type(cols) is not int or type(rows) is not int:
            raise ValueError("grid dimensions must be integers")
        if cols < 1 or rows < 1:
            raise ValueError("grid dimensions must both be at least 1")
        return super().__new__(cls, cols, rows)

    @property
    def vertex_count(self) -> int:
        return self.cols * self.rows

    @property
    def edge_count(self) -> int:
        return 2 * self.cols * self.rows - self.cols - self.rows


def _grid_edges(spec: GridSpec) -> Iterator[tuple[int, int]]:
    """The edges of :func:`grid` in index order, one at a time; no other code states that order."""
    if spec.edge_count > _GRID_EDGE_CAP:
        raise CapacityError(
            f"{spec.cols}x{spec.rows} grid has {spec.edge_count} edges, "
            f"beyond the cap of {_GRID_EDGE_CAP}"
        )
    n, count = spec.cols, spec.vertex_count
    rows = (zip(range(v, v + n - 1), range(v + 1, v + n)) for v in range(0, count, n))
    return itertools.chain(*rows, zip(range(count - n), range(n, count)))


def grid(spec: GridSpec) -> Graph:
    """Grid graph with the vertex ids and edge indices of :class:`GridSpec`."""
    return Graph(spec.vertex_count, tuple(_grid_edges(spec)))


def path(k: int) -> Graph:
    """Path on ``k`` vertices; edge ``i`` joins vertices ``i`` and ``i + 1``."""
    if k < 1:
        raise ValueError("a path needs at least one vertex")
    return grid(GridSpec(k, 1))


def _super_line_rows(
    g: Graph, r: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Labels of the super line graph of index ``r`` and its later neighbours.

    ``labels[i]`` is the ``i``-th r-subset of edge indices in lexicographic
    order, and bit ``j`` of ``rows[i]`` is set exactly when ``j > i`` and
    some edge of subset ``i`` touches some other edge of subset ``j``, so
    the super line graph has ``sum(row.bit_count() for row in rows)`` edges.
    The cost is O(C(E, r) * r + E) operations on C(E, r)-bit masks, and the
    rows hold about C(E, r)^2 / 2 bits; no subset pair is tested on its own.
    """
    if r < 1:
        raise ValueError("subset size r must be at least 1")
    if r > g.edge_count:
        raise ValueError(f"r = {r} exceeds the {g.edge_count} available edges")
    subset_count = math.comb(g.edge_count, r)
    if subset_count > vertex_cap:
        raise CapacityError(
            f"C({g.edge_count}, {r}) = {subset_count} subset vertices "
            f"exceed the cap of {vertex_cap}"
        )
    labels = tuple(itertools.combinations(range(g.edge_count), r))
    # holders[e]: the subsets that contain edge e.
    holders = [0] * g.edge_count
    for i, subset in enumerate(labels):
        for e in subset:
            holders[e] |= 1 << i
    # near[e]: the subsets holding an edge other than e that touches e.
    near = _covers(g.edges, holders)
    rows = []
    for i, subset in enumerate(labels):
        row = 0
        for e in subset:
            row |= near[e]
        rows.append(row >> (i + 1) << (i + 1))
    return labels, rows


def super_line_graph(
    g: Graph, r: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Materialise the super line graph of index ``r`` with vertex labels.

    Returns ``(graph, labels)``: vertex ``k`` of ``graph`` is the ``k``-th
    r-subset of edge indices in lexicographic order and ``labels[k]`` is
    that subset.  With ``r = 1`` it is the line graph of ``g``: vertex ``k``
    is edge ``k``.  Each subset's later neighbours come as one mask from
    ``_super_line_rows`` rather than from a test per subset pair, and
    ``vertex_cap`` bounds the subset count before anything is built.
    """
    labels, rows = _super_line_rows(g, r, vertex_cap)
    ids = tuple(range(len(labels)))
    # The pairs ending at j share one int, ids[j].  Pairs are (i < j), unique
    # and in range, so the graph is built without Graph.from_edges' checks.
    pairs = itertools.chain.from_iterable(
        zip(itertools.repeat(i), itertools.compress(ids, _selector(row)))
        for i, row in enumerate(rows)
    )
    return Graph(len(labels), tuple(pairs)), labels
