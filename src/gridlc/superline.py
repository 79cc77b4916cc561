"""Super line graphs, completeness testing, and the line completion oracle.

The super line graph of index ``r`` of a graph G has one vertex per
r-element subset of G's edges; two subsets are adjacent when some edge of
one shares an endpoint with a different edge of the other.  The line
completion number lc(G) is the least ``r`` for which that graph is
complete, with lc = 0 for an edgeless graph.  Completeness is monotone in
``r``, so the brute-force oracle scans upward and stops at the first
complete level.

Subset pairs are enumerated lexicographically by sorted edge indices, and
overlapping pairs are included: two distinct subsets may share edges and
still be non-adjacent.  Every search here is a pure function of immutable
inputs.

Level scans are budgeted in subsets: a level is charged all C(E, r) of
its subsets before it is scanned and is refused whole if that passes the
budget, so no level is ever cut short.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .errors import (
    DEFAULT_PAIR_BUDGET,
    DEFAULT_VERTEX_CAP,
    BudgetExceededError,
    CapacityError,
)
from .graph import Graph


class EdgeSet(namedtuple("EdgeSet", "graph bits")):
    """A set of edge indices of one particular graph, stored as a bitmask."""

    __slots__ = ()
    # _replace builds through _make, which would skip the checks in __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, graph: Graph, bits: int) -> EdgeSet:
        if bits < 0 or bits >> graph.edge_count:
            raise ValueError("bitmask contains edge indices outside the graph")
        return super().__new__(cls, graph, bits)

    @staticmethod
    def from_indices(graph: Graph, indices: Iterable[int]) -> EdgeSet:
        bits = 0
        for index in indices:
            if not 0 <= index < graph.edge_count:
                raise ValueError(
                    f"edge index {index} out of range for a graph with {graph.edge_count} edges"
                )
            bits |= 1 << index
        return EdgeSet(graph, bits)

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        """Member edge indices in ascending order."""
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)


def _adjacency_cover(graph: Graph, bits: int) -> int:
    # Union of the adjacency masks of the member edges.  An edge never
    # appears in its own mask, so a shared edge alone never makes two
    # subsets adjacent.
    cover = 0
    adjacency = graph.edge_adjacency
    while bits:
        low = bits & -bits
        cover |= adjacency[low.bit_length() - 1]
        bits ^= low
    return cover


def sets_adjacent(g: Graph, s: EdgeSet, t: EdgeSet) -> bool:
    """True when some edge of ``s`` touches a different edge of ``t``."""
    if s.graph != g or t.graph != g:
        raise ValueError("edge sets must belong to the queried graph")
    return bool(_adjacency_cover(g, s.bits) & t.bits)


class WitnessPair(namedtuple("WitnessPair", "S T r")):
    """Two equal-size, distinct, mutually non-adjacent edge subsets.

    Its existence at size ``r`` shows the super line graph of index ``r``
    is not complete.  The defining facts are re-checked on construction so
    an invalid pair cannot be represented.
    """

    __slots__ = ()
    # _replace builds through _make, which would skip the checks in __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, S: EdgeSet, T: EdgeSet, r: int) -> WitnessPair:
        if S.graph != T.graph:
            raise ValueError("witness sets belong to different graphs")
        if S.cardinality != r or T.cardinality != r:
            raise ValueError("witness sets must both contain exactly r edges")
        if S.bits == T.bits:
            raise ValueError("witness sets must be distinct")
        if sets_adjacent(S.graph, S, T):
            raise ValueError("witness sets are adjacent")
        return super().__new__(cls, S, T, r)


class LcResult(namedtuple("LcResult", "r witness_at_r_minus_1")):
    """A line completion number plus, for ``r >= 2``, a witness pair at ``r - 1``."""

    __slots__ = ()
    # _replace builds through _make, which would skip the checks in __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, r: int, witness_at_r_minus_1: WitnessPair | None = None) -> LcResult:
        if witness_at_r_minus_1 is not None and witness_at_r_minus_1.r != r - 1:
            raise ValueError("witness must certify incompleteness at r - 1")
        return super().__new__(cls, r, witness_at_r_minus_1)


def _subsets(g: Graph, r: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Every r-subset of edges in lexicographic order as (indices, bits, cover)."""
    adjacency = g.edge_adjacency
    for indices in itertools.combinations(range(g.edge_count), r):
        bits = 0
        cover = 0
        for e in indices:
            bits |= 1 << e
            cover |= adjacency[e]
        yield indices, bits, cover


def _first_witness(g: Graph, r: int) -> WitnessPair | None:
    """Lexicographically first non-adjacent pair of r-subsets, or ``None``.

    ``None`` means the level is complete.  Subsets stream in lexicographic
    order, so memory stays O(E), and the scan stops at the first subset S
    that has a partner.  Each S is decided in one step: with F the
    complement of S's adjacency cover, a partner is an r-subset of F other
    than S, so one exists iff ``|F| - [S inside F] >= r``.  The partner is
    then built, not searched for.
    """
    full = g.full_edge_mask()
    for indices, bits, cover in _subsets(g, r):
        avail = full & ~cover
        # S lies inside F exactly when no member edge is in S's own cover.
        if avail.bit_count() - (bits & cover == 0) < r:
            continue
        # S is the first subset with any partner, so all its partners come
        # after it: a partner before it would itself have been an earlier
        # hit.  The first r-subset of F is therefore S or S's first
        # partner, and at most two candidates are looked at.
        free = EdgeSet(g, avail).indices()
        partner = next(t for t in itertools.combinations(free, r) if t != indices)
        return WitnessPair(EdgeSet(g, bits), EdgeSet.from_indices(g, partner), r)
    return None


def _charge(
    g: Graph, r: int, charged: int, budget: int, last_decided_r: int | None = None
) -> int:
    """Charge level r its C(E, r) subsets on top of ``charged``; refuse it past ``budget``."""
    size = math.comb(g.edge_count, r)
    if charged + size > budget:
        raise BudgetExceededError(
            f"level r = {r} needs {size} subsets; {charged} of the budget of "
            f"{budget} are already charged",
            last_decided_r=last_decided_r,
        )
    return charged + size


def find_nonadjacent_pair(
    g: Graph, r: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> WitnessPair | None:
    """Lexicographically first non-adjacent pair of r-subsets, if any.

    ``None`` means the level is complete.  A level of more than
    ``pair_budget`` subsets is refused with :class:`BudgetExceededError`.
    """
    if not 1 <= r <= g.edge_count:
        raise ValueError(f"subset size {r} out of range 1..{g.edge_count}")
    _charge(g, r, 0, pair_budget)
    return _first_witness(g, r)


def lc_bruteforce(g: Graph, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> LcResult:
    """Least ``r`` whose super line graph is complete, by upward scan.

    Monotonicity of completeness makes the first complete level the
    answer.  For ``r >= 2`` the result carries the witness pair found at
    ``r - 1``.  The levels' charges add up against ``pair_budget``
    (levels 1..E cost 2^E - 1 subsets); the level that would pass it is
    refused with :class:`BudgetExceededError`, whose ``last_decided_r`` is
    the level before it.
    """
    if g.edge_count == 0:
        return LcResult(0)
    charged = 0
    witness = None
    for r in range(1, g.edge_count + 1):
        charged = _charge(g, r, charged, pair_budget, last_decided_r=r - 1)
        hit = _first_witness(g, r)
        if hit is None:
            return LcResult(r, witness)
        witness = hit
    raise AssertionError("the level with a single subset is always complete")


def super_line_graph(
    g: Graph, r: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Materialise the super line graph of index ``r`` with vertex labels.

    Returns ``(graph, labels)``: vertex ``k`` of ``graph`` is the ``k``-th
    r-subset of edge indices in lexicographic order and ``labels[k]`` is
    that subset.  With ``r = 1`` it is the line graph of ``g``: vertex ``k``
    is edge ``k``.  Construction tests every subset pair, so cost grows
    quadratically with the subset count; ``vertex_cap`` bounds it up front.
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
    labels, bitmasks, covers = zip(*_subsets(g, r))
    # Pairs come out as (i < j), unique and in range, so the graph is built
    # directly rather than revalidated by Graph.from_edges.
    pairs: list[tuple[int, int]] = []
    for i, cover in enumerate(covers):
        for j in range(i + 1, subset_count):
            if cover & bitmasks[j]:
                pairs.append((i, j))
    return Graph(subset_count, tuple(pairs)), labels
