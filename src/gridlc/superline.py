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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BudgetExceededError, CapacityError
from .graph import Graph

#: Default cap on subset pairs an enumeration may decide.
DEFAULT_PAIR_BUDGET = 10**9

#: Default cap on the number of subset vertices a super line graph may have.
DEFAULT_VERTEX_CAP = 10**5


@dataclass(frozen=True)
class EdgeSet:
    """A set of edge indices of one particular graph, stored as a bitmask."""

    graph: Graph
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.graph.edge_count:
            raise ValueError("bitmask contains edge indices outside the graph")

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

    def __len__(self) -> int:
        return self.cardinality

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.graph.edge_count and bool(self.bits >> index & 1)

    def __iter__(self):
        return iter(self.indices())


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


@dataclass(frozen=True)
class WitnessPair:
    """Two equal-size, distinct, mutually non-adjacent edge subsets.

    Its existence at size ``r`` shows the super line graph of index ``r``
    is not complete.  The defining facts are re-checked on construction so
    an invalid pair cannot be represented.
    """

    S: EdgeSet
    T: EdgeSet
    r: int

    def __post_init__(self) -> None:
        if self.S.graph != self.T.graph:
            raise ValueError("witness sets belong to different graphs")
        if self.S.cardinality != self.r or self.T.cardinality != self.r:
            raise ValueError("witness sets must both contain exactly r edges")
        if self.S.bits == self.T.bits:
            raise ValueError("witness sets must be distinct")
        if sets_adjacent(self.S.graph, self.S, self.T):
            raise ValueError("witness sets are adjacent")


@dataclass(frozen=True)
class LcResult:
    """A line completion number plus how it was obtained."""

    r: int
    method: str  # "formula" or "brute-force"
    witness_at_r_minus_1: WitnessPair | None = None

    def __post_init__(self) -> None:
        if self.witness_at_r_minus_1 is not None and self.witness_at_r_minus_1.r != self.r - 1:
            raise ValueError("witness must certify incompleteness at r - 1")


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


def _scan_level(
    graph: Graph, r: int, used: int, limit: int
) -> tuple[tuple[int, int] | None, int]:
    """First non-adjacent pair of r-subsets as (s_bits, t_bits), and the budget used.

    The pair is ``None`` when the level is complete.  Subsets stream in
    lexicographic order, so memory stays O(E), and the scan stops at the
    first subset S that has a partner.  Each S is decided in one step: a
    partner exists iff some r-subset other than S fits inside the
    complement of S's adjacency cover, which is a binomial count over the
    complement's size.  The partner is then built, not searched for.  The
    budget counts subset pairs: ``used`` is what earlier levels spent, and
    every outer subset entered is charged its full pair count C(E, r) - i - 1,
    whether or not the shortcut decided it.
    """
    if limit < 1:
        raise ValueError("pair budget must be positive")
    full = graph.full_edge_mask()
    subsets_of_size = [math.comb(k, r) for k in range(graph.edge_count + 1)]
    total = subsets_of_size[-1]
    for i, (indices, bits, cover) in enumerate(_subsets(graph, r)):
        used += total - i - 1
        if used > limit:
            raise BudgetExceededError(f"subset-pair budget of {limit} exhausted")
        avail = full & ~cover
        partners = subsets_of_size[avail.bit_count()]
        if bits & cover == 0:
            partners -= 1  # S itself sits inside its own complement
        if partners <= 0:
            continue
        # S is the first subset with any partner, so all its partners come
        # after it: a partner before it would itself have been an earlier
        # hit.  The first r-subset of the complement is therefore S or S's
        # first partner, and at most two candidates are looked at.
        free = EdgeSet(graph, avail).indices()
        partner = next(t for t in itertools.combinations(free, r) if t != indices)
        return (bits, EdgeSet.from_indices(graph, partner).bits), used
    return None, used


def find_nonadjacent_pair(
    g: Graph, r: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> WitnessPair | None:
    """Lexicographically first non-adjacent pair of r-subsets, if any.

    Returns ``None`` only after the enumeration fully decided every pair;
    running out of budget raises :class:`BudgetExceededError` instead, so
    completeness is never reported unsoundly.
    """
    if not 1 <= r <= g.edge_count:
        raise ValueError(f"subset size {r} out of range 1..{g.edge_count}")
    hit, _ = _scan_level(g, r, 0, pair_budget)
    if hit is None:
        return None
    return WitnessPair(EdgeSet(g, hit[0]), EdgeSet(g, hit[1]), r)


def is_complete_index(g: Graph, r: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> bool:
    """True when every pair of distinct r-subsets of edges is adjacent."""
    return find_nonadjacent_pair(g, r, pair_budget=pair_budget) is None


def lc_bruteforce(g: Graph, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> LcResult:
    """Least ``r`` whose super line graph is complete, by upward scan.

    Monotonicity of completeness makes the first complete level the
    answer.  For ``r >= 2`` the result carries the witness pair found at
    ``r - 1``.  The budget spans the whole scan; exhausting it raises
    :class:`BudgetExceededError` with ``last_decided_r`` set to the last
    level that was fully decided.
    """
    if g.edge_count == 0:
        return LcResult(0, "brute-force", None)
    used = 0
    previous_hit: tuple[int, int] | None = None
    for r in range(1, g.edge_count + 1):
        try:
            hit, used = _scan_level(g, r, used, pair_budget)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"subset-pair budget of {pair_budget} exhausted while deciding r = {r}",
                last_decided_r=r - 1,
            ) from exc
        if hit is None:
            witness = None
            if previous_hit is not None:
                witness = WitnessPair(
                    EdgeSet(g, previous_hit[0]), EdgeSet(g, previous_hit[1]), r - 1
                )
            return LcResult(r, "brute-force", witness)
        previous_hit = hit
    raise AssertionError("the level with a single subset is always complete")


def super_line_graph(
    g: Graph, r: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Materialise the super line graph of index ``r`` with vertex labels.

    Returns ``(graph, labels)``: vertex ``k`` of ``graph`` is the ``k``-th
    r-subset of edge indices in lexicographic order and ``labels[k]`` is
    that subset.  Construction tests every subset pair, so cost grows
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
    pairs: list[tuple[int, int]] = []
    for i, cover in enumerate(covers):
        for j in range(i + 1, subset_count):
            if cover & bitmasks[j]:
                pairs.append((i, j))
    return Graph.from_edges(subset_count, pairs, edge_cap=None), labels
