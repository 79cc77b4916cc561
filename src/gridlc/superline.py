r"""Super line graphs, completeness testing, and the line completion number.

The super line graph of index ``r`` of a graph G has one vertex per
r-element subset of G's edges; two subsets are adjacent when some edge of
one shares an endpoint with a different edge of the other.  The line
completion number lc(G) is the least ``r`` for which that graph is
complete, with lc = 0 for an edgeless graph.

Subset pairs are enumerated lexicographically by sorted edge indices, and
overlapping pairs are included: two distinct subsets may share edges and
still be non-adjacent.  Every search here is a pure function of immutable
inputs.

``lc_bruteforce`` takes lc from the following lemma and scans only level
lc - 1, for the lexicographically first witness pair.

Lemma.  Let G have two vertex-disjoint edges.  Then lc(G) - 1 is the
maximum, over disjoint vertex sets X and Y that each induce at least one
edge, of min(|E[X]|, |E[Y]|) + nu(G - X - Y), where nu is the size of a
maximum matching.  A graph with edges but no two disjoint ones has lc = 1.

(<=) Take a non-adjacent pair S != T of r-subsets and let X = V(S \ T)
and Y = V(T \ S).  An edge of S \ T and an edge of T \ S are different
edges, so they share no endpoint, and X and Y are disjoint.  Each shared
edge touches no other edge of S and T, so the shared edges form a
matching in G - X - Y.  S != T gives |S \ T| = |T \ S| >= 1, so X and Y
each induce an edge, and r <= min(|E[X]|, |E[Y]|) + nu(G - X - Y).

(>=) For any j up to the minimum and any k up to the matching size, j
edges of E[X] plus k matching edges and j edges of E[Y] plus the same k
matching edges are a non-adjacent pair of (j + k)-subsets.  So every
level up to the maximum has a witness, which also proves that
completeness is monotone in ``r``.

The witness walk is budgeted in the adjacency masks it reads, one per
prefix it tries.  A walk that passes the budget raises, so a level is
decided in full or not at all: a cut-short walk reports nothing.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, namedtuple
from collections.abc import Iterable, Iterator

from .errors import DEFAULT_PAIR_BUDGET, DEFAULT_VERTEX_CAP, CapacityError
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


def _first_witness(g: Graph, r: int, budget: int) -> WitnessPair | None:
    """Lexicographically first non-adjacent pair of r-subsets, or ``None``.

    ``None`` means the level is complete.  With F the complement of an
    r-subset S's adjacency cover, S has a partner, an r-subset of F other
    than S, iff ``|F| - [S inside F] >= r``.  An iterative depth-first walk
    over prefixes in lexicographic order stops at the first such S; covers
    only grow, so a prefix P with ``|F_P| < r`` is skipped with its subtree.
    Each prefix tried reads one adjacency mask; a walk that would read more
    than ``budget`` raises :class:`CapacityError`.
    """
    full = g.full_edge_mask()
    adjacency = g.edge_adjacency
    last = g.edge_count - r
    # Depth k: the next edge to try after a k-edge prefix, its bits, its cover.
    after, bits, cover = [0] * r, [0] * r, [0] * r
    k = reads = 0
    while k >= 0:
        e = after[k]
        if e > last + k:
            k -= 1
            continue
        if reads >= budget:
            raise CapacityError(
                f"the witness walk at level r = {r} reads more than the budget "
                f"of {budget} masks"
            )
        reads += 1
        after[k] = e + 1
        b = bits[k] | 1 << e
        c = cover[k] | adjacency[e]
        avail = full & ~c
        # At a leaf, S lies inside F iff no member edge is in S's own cover.
        if avail.bit_count() - (k + 1 == r and b & c == 0) < r:
            continue
        if k + 1 < r:
            k += 1
            after[k], bits[k], cover[k] = e + 1, b, c
            continue
        # Every partner of this first hit S comes after S, or it would have
        # been an earlier hit, so the partner is built, not searched for:
        # the first r-subset of F is S or the first partner.
        indices = EdgeSet(g, b).indices()
        free = EdgeSet(g, avail).indices()
        partner = next(t for t in itertools.combinations(free, r) if t != indices)
        return WitnessPair(EdgeSet(g, b), EdgeSet.from_indices(g, partner), r)
    return None


def find_nonadjacent_pair(
    g: Graph, r: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> WitnessPair | None:
    """Lexicographically first non-adjacent pair of r-subsets, if any.

    ``None`` means the level is complete.  A walk that would read more than
    ``pair_budget`` adjacency masks raises :class:`CapacityError`.
    """
    if not 1 <= r <= g.edge_count:
        raise ValueError(f"subset size {r} out of range 1..{g.edge_count}")
    return _first_witness(g, r, pair_budget)


#: Bytes one step of the lemma DP may hold.  Each key, a (labels, flag)
#: pair with a nonempty bitset, is charged ``_KEY_BYTES`` plus its bitset's
#: bound of (decided + 1) * W bits, at 4 bytes for every 30 bits.  By
#: ``sys.getsizeof`` an entry (its dict slot, its labels int, its pair and
#: the int headers of its nonzero bitsets) takes about 165 bytes: 88 a key
#: when both flags' bitsets are set, as in most grid entries, and 148 when
#: one is, as in every K_10 entry.  The 7x7 grid, the 6x20 grid and K_10
#: are decided; the 181x181 grid and K_12 pass the budget within their
#: first 11 vertices, under 100 MB of RSS each.
_BYTE_BUDGET = 2**26
_KEY_BYTES = 100


# Frontier labels of the lemma DP, two bits per frontier vertex.
_DONE, _REST, _X, _Y = range(4)


def _lemma_lc(g: Graph) -> tuple[int, int]:
    """lc(g) by a frontier DP over the lemma, and the DP's peak key count.

    The vertices that have edges are visited one at a time.  The frontier
    is the set of visited vertices that still have an unvisited neighbour.
    Each step visits the vertex that leaves the smallest frontier, then the
    one with the most visited neighbours, then the one of least degree,
    then the lowest id.  A neighbour of the frontier always wins, so only
    those are ranked while the frontier is nonempty.  Only the id reads the
    numbering, so relabelling the vertices changes the order only among
    vertices that tie on the rest.

    Each frontier vertex is labelled X, Y, rest that may still be matched
    to a later neighbour, or rest that is done (matched already), in a
    2-bit field of the labels int at a fixed offset until it leaves the
    frontier.  Then the field is cleared and the offset freed for reuse: a
    vertex that stays takes the lowest free offset.  All labellings of a
    step share the offsets, so keys stay in bijection with labellings.  An
    edge joins E[X], E[Y] or the matching when its later endpoint is visited.
    The DP keeps one entry per labelling of the frontier: a pair of point
    sets, one for each value of a flag recording that E[X] or E[Y] is
    nonempty; a key is a (labels, flag) pair whose set is nonempty.  The
    set holds the points (a, b) reached by the labellings of the visited
    vertices that end in those labels with that flag, with
    a = |E[X]| + matched and b = |E[Y]| + matched, kept as one int whose
    bit a * W + b is set for each point, W = E + 1.  A move shifts a whole
    set: an X move by nx * W, a Y move by ny, a match by W + 1, rest by 0.
    A move that sets the flag (X with nx > 0, Y with ny > 0) sends the union
    of both sets to the target's flagged set; any other move sends each set
    to the target's set of the same flag.  Sets that reach one key are
    merged with ``|``.  Both a and b count closed edges, so b <= E < W and
    no row runs into the next.
    Every set bit is the point of a real labelling and every labelling's
    point is set, so the largest min(a, b) over the final key is the
    lemma's maximum exactly; a point that another dominates is kept, but
    it cannot raise that maximum, so no pruning is needed.

    The flag does not tell the two sides apart.  A flagged labelling with
    one side empty scores its matched count, a matching of G - u - v for any
    edge uv inside the nonempty side, so at most nu(G) - 1.  The lemma's
    maximum is at least nu(G) - 1 when nu(G) >= 2, with X and Y two edges
    of a maximum matching, so such labellings never raise the answer.  When
    nu(G) <= 1 no labelling has both sides nonempty, every flagged one
    scores 0, and lc = 1 as the lemma says.

    The keys of a step are charged as ``_BYTE_BUDGET`` says, checked after
    each labelling's moves; past the budget the DP raises
    :class:`CapacityError`.  The peak counted is of the same keys.
    """
    if not g.edges:
        return 0, 0
    neighbours: defaultdict[int, list[int]] = defaultdict(list)
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    unvisited = {v: len(adj) for v, adj in neighbours.items()}
    visited: set[int] = set()
    # With no visited neighbour, a vertex ranks by its degree, then its id.
    fresh = iter(sorted(neighbours, key=lambda v: (len(neighbours[v]), v)))

    def rank(v: int) -> tuple[int, int, int, int]:
        degree = len(neighbours[v])
        # The visited neighbours that leave the frontier with v.
        closing = sum(unvisited[u] == 1 for u in neighbours[v] if u in visited)
        return ((unvisited[v] > 0) - closing, unvisited[v] - degree, degree, v)

    width = g.edge_count + 1
    decided = 0
    slot: dict[int, int] = {}  # frontier vertex -> offset of its label's 2 bits
    states = {0: (1, 0)}  # labels -> (bitset without the flag, bitset with it)
    peak = 0
    for step in range(1, len(neighbours) + 1):
        if slot:
            v = min({u for w in slot for u in neighbours[w] if u not in visited}, key=rank)
        else:
            v = next(u for u in fresh if u not in visited)
        visited.add(v)
        earlier = [u for u in neighbours[v] if u in slot]
        for u in neighbours[v]:
            unvisited[u] -= 1
        # A match on earlier vertex u flips its field from rest to done, or
        # nothing when u leaves: its field is cleared and its offset freed.
        reads = [(slot[u], _REST << slot[u] if unvisited[u] else 0) for u in earlier]
        clear = sum(3 << slot.pop(u) for u in earlier if not unvisited[u])
        # v's own label takes the lowest free offset, or none when v has no
        # unvisited neighbour left.
        place = 0
        if unvisited[v]:
            slot[v] = min(set(range(0, 2 * len(slot) + 1, 2)) - set(slot.values()))
            place = 1 << slot[v]
        # A point's a and b count closed edges, so its bit is below
        # (decided + 1) * W: the bitsets this step may hold within the budget.
        decided += len(earlier)
        most = _BYTE_BUDGET // (_KEY_BYTES + (decided + 1) * width // 30 * 4)
        new: dict[int, tuple[int, int]] = {}
        count = 0
        put_x, put_y, put_rest = _X * place, _Y * place, _REST * place
        for labels, (p0, p1) in states.items():
            kept = labels & ~clear
            plain, flagged = (p0, p1), (0, p0 | p1)
            moves = [(kept | put_rest, 0, plain)]
            nx = ny = 0
            for shift, unmatch in reads:
                label = labels >> shift & 3
                if label == _X:
                    nx += 1
                elif label == _Y:
                    ny += 1
                elif label == _REST:
                    moves.append((kept ^ unmatch, width + 1, plain))
            # A move that sets the flag sends both bitsets to the flagged one.
            moves.append((kept | put_x, nx * width, flagged if nx else plain))
            moves.append((kept | put_y, ny, flagged if ny else plain))
            for target, shift, (q0, q1) in moves:
                e0, e1 = new.get(target, (0, 0))
                new[target] = e0 | q0 << shift, e1 | q1 << shift
                count += (not e0 and q0 > 0) + (not e1 and q1 > 0)
            if count > most:
                raise CapacityError(
                    f"the lc dynamic program needs more than {_BYTE_BUDGET} bytes "
                    f"at vertex {step} of {len(neighbours)}"
                )
        peak = max(peak, count)
        states = new
    # Any edge can be X, so the final key with the flag exists.  Row a of
    # its bitset holds the b of its points; the best is min(a, largest b).
    points = states[0][1]
    row = (1 << width) - 1
    best = max(min(a, (points >> a * width & row).bit_length() - 1) for a in range(width))
    return best + 1, peak


def lc_bruteforce(g: Graph, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> LcResult:
    """Least ``r`` whose super line graph is complete, with a witness at ``r - 1``.

    ``r`` comes from the lemma in the module docstring, decided by
    :func:`_lemma_lc`; a DP that passes its byte budget raises
    :class:`CapacityError`.  For ``r >= 2`` level ``r - 1`` is then
    walked, the only level that is, for its lexicographically first
    witness pair.  A walk that would read more than ``pair_budget``
    adjacency masks raises :class:`CapacityError` too: no value is reported
    without its witness.  A walk that finds no witness contradicts the
    lemma DP, a bug in one of the two, and raises ``AssertionError``.
    """
    r, _ = _lemma_lc(g)
    if r <= 1:
        return LcResult(r)
    witness = _first_witness(g, r - 1, pair_budget)
    if witness is None:
        raise AssertionError(f"the lemma gives lc = {r}, but level {r - 1} has no witness pair")
    return LcResult(r, witness)


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
