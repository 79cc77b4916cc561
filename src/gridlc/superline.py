r"""Completeness testing and the line completion number.

The super line graph of index ``r`` of a graph G has one vertex per
r-element subset of G's edges; two subsets are adjacent when some edge of
one shares an endpoint with a different edge of the other.  The line
completion number lc(G) is the least ``r`` for which that graph is
complete, with lc = 0 for an edgeless graph.  This module decides lc;
``EdgeSet`` and ``super_line_graph`` live in :mod:`gridlc.graph`.

Subset pairs are enumerated lexicographically by sorted edge indices, and
overlapping pairs are included: two distinct subsets may share edges and
still be non-adjacent.  Every search here is a pure function of immutable
inputs.

``lc_bruteforce`` takes lc from the following lemma and scans only level
lc - 1, for the lexicographically first witness pair.  A relaxation of the
lemma, confirmed by that scan, decides most graphs with fewer DP states.

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

Relaxation.  Let R be the set of vertices that have an edge and lie in
neither X nor Y.  A matching of G - X - Y pairs off vertices of R, so
nu(G - X - Y) <= floor(|R| / 2).  Let U be 1 plus the maximum, over
disjoint X and Y with E[X] or E[Y] nonempty, of min(|E[X]|, |E[Y]|) +
floor(|R| / 2).  Then U >= lc: with two disjoint edges the maximum ranges
over the lemma's splits and more, and bounds each of their terms; with
edges but no two disjoint ones lc = 1 and X one edge scores at least 0;
with no edge U = lc = 0.  Unlike the lemma's, U's terms do not ask which
rest vertices are matched.

Confirmation.  If level U - 1 has a witness pair, it is incomplete, so by
monotonicity every level below U is, and lc >= U; with U >= lc, lc = U.
The walk that finds that pair is the one that would run at level lc - 1,
so the witness is the same.  A bound that the walk cannot confirm, as on
the star K_1,3 (U = 2, lc = 1), says nothing, and the exact DP decides.

The witness walk is budgeted in the adjacency masks it reads, one per
prefix it tries.  A walk that passes the budget raises, so a level is
decided in full or not at all: a cut-short walk reports nothing.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from collections.abc import Iterator

from . import DEFAULT_PAIR_BUDGET, CapacityError
from .graph import EdgeSet, Graph, _first_touching


def sets_adjacent(g: Graph, s: EdgeSet, t: EdgeSet) -> bool:
    """True when some edge of ``s`` touches a different edge of ``t``."""
    if s.graph != g or t.graph != g:
        raise ValueError("edge sets must belong to the queried graph")
    # A shared edge alone never makes two subsets adjacent.
    return _first_touching(g, s.indices(), t.indices()) is not None


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


def find_nonadjacent_pair(
    g: Graph, r: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> WitnessPair | None:
    """Lexicographically first non-adjacent pair of r-subsets, or ``None``.

    ``None`` means the level is complete.  With F the complement of an
    r-subset S's adjacency cover, S has a partner, an r-subset of F other
    than S, iff ``|F| - [S inside F] >= r``.  An iterative depth-first walk
    over prefixes in lexicographic order stops at the first such S; covers
    only grow, so a prefix P with ``|F_P| < r`` is skipped with its subtree.
    Each prefix tried reads one adjacency mask; a walk that would read more
    than ``pair_budget`` raises :class:`CapacityError`.
    """
    if not 1 <= r <= g.edge_count:
        raise ValueError(f"subset size {r} out of range 1..{g.edge_count}")
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
        if reads >= pair_budget:
            raise CapacityError(
                f"the witness walk at level r = {r} reads more than the budget "
                f"of {pair_budget} masks"
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


#: Bytes one step of the lemma DP may hold.  Each entry is charged
#: ``_ENTRY_BYTES`` plus three bitsets at their bound of (decided + 1) * W
#: bits, at 4 bytes for every 30 bits; an entry holds at most three, so the
#: charge is an upper bound.  By ``sys.getsizeof`` an entry's dict slot, its
#: labels int, its 3-tuple and three 24-byte int headers take 198 to 204
#: bytes at the peaks of 4x4 to 7x7, 6x20 and K_10, the most on K_10.  The
#: 7x7 grid, the 6x20 grid and K_10 (at 0.86 of the budget) are decided; the
#: 181x181 grid and K_12 pass the budget within their first 11 vertices,
#: under 100 MB of RSS each.  The relaxed DP's entries have the same parts
#: and its bitsets the bound ``_lemma_lc`` gives; it decides 8x8 and 7x16,
#: and passes the budget at vertex 37 of 9x9.
_BYTE_BUDGET = 2**26
_ENTRY_BYTES = 205

#: Masks the walk that confirms the relaxed DP's bound may read before
#: ``lc_bruteforce`` falls back to the exact DP.
_CONFIRM_READS = 2**16


# Frontier labels of the lemma DP, two bits per frontier vertex.
_DONE, _REST, _X, _Y = range(4)


def _frontier_steps(g: Graph) -> Iterator[tuple]:
    """The lemma DP's visit, one step at a time, in the order ``_lemma_lc`` gives.

    Each step is ``(v, reads, keep, sigmask, place, ones)``: the vertex
    visited; an ``(offset, rest bit or 0)`` pair for each field of v's
    earlier neighbours, 0 when that neighbour leaves the frontier; the mask
    that clears the leaving fields; the mask of the fields read; v's own
    field's low bit, or 0 when v does not stay; and the low bit of every
    field left on the frontier.
    """
    neighbours: defaultdict[int, list[int]] = defaultdict(list)
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    unvisited = {v: len(adj) for v, adj in neighbours.items()}
    # The sum of a vertex's unvisited neighbours: the one left, once one is.
    left = {v: sum(adj) for v, adj in neighbours.items()}
    # With no visited neighbour, a vertex ranks by its degree, then its id.
    fresh = iter(sorted(neighbours, key=lambda v: (len(neighbours[v]), v)))
    slot: dict[int, int] = {}  # frontier vertex -> offset of its label's 2 bits
    # Each unvisited vertex with a visited neighbour -> its rank, kept as
    # [frontier change, -(visited neighbours), degree, id].  Visiting it adds
    # it to the frontier unless no unvisited neighbour is left, and removes
    # each frontier vertex whose one unvisited neighbour it is.
    near: dict[int, list[int]] = {}
    ones = 0  # the low bit of every frontier field
    for _ in neighbours:
        if near:
            v = min(near.values())[3]
            del near[v]
        else:
            # With the frontier empty, only unvisited vertices have an
            # unvisited neighbour.
            v = next(u for u in fresh if unvisited[u])
        # A match on earlier vertex u flips its field from rest to done, or
        # nothing when u leaves: its field is cleared and its offset freed.
        reads, keep, sigmask = [], -1, 0
        for u in neighbours[v]:
            unvisited[u] -= 1
            left[u] -= v
            if u not in slot:
                rank = near.setdefault(u, [1, 0, len(neighbours[u]), u])
                rank[0] -= not unvisited[u]
                rank[1] -= 1
                continue
            shift = slot[u]
            sigmask |= 3 << shift
            reads.append((shift, _REST << shift if unvisited[u] else 0))
            if not unvisited[u]:
                keep ^= 3 << slot.pop(u)
            elif unvisited[u] == 1:
                near[left[u]][0] -= 1
        ones &= keep
        # v's own field takes the lowest free offset, the lowest clear bit
        # of the used fields, or none when v has no unvisited neighbour left.
        place = ~(3 * ones) & (3 * ones + 1) if unvisited[v] else 0
        if place:
            slot[v] = place.bit_length() - 1
            ones |= place
        if unvisited[v] == 1:
            near[left[v]][0] -= 1
        yield v, reads, keep, sigmask, place, ones


def _lemma_lc(g: Graph, relaxed: bool = False) -> tuple[int, int]:
    """lc(g) by a frontier DP over the lemma, and the DP's peak entry count.

    The vertices that have edges are visited one at a time.  The frontier
    is the set of visited vertices that still have an unvisited neighbour.
    Each step visits the vertex that leaves the smallest frontier, then the
    one with the most visited neighbours, then the one of least degree,
    then the lowest id.  A neighbour of the frontier always wins, so only
    those are ranked while the frontier is nonempty.  Only the id reads the
    numbering, so relabelling the vertices changes the order only among
    vertices that tie on the rest.

    Each frontier vertex is labelled X, Y, rest that may still be matched to
    a later neighbour, or rest that is done (matched already), in a 2-bit
    field of the labels int at a fixed offset until it leaves the frontier.
    Then the field is cleared and the offset freed for reuse: a vertex that
    stays takes the lowest free offset.  ``_frontier_steps`` keeps the
    ranked candidates and a mask of the used fields from step to step,
    updating both from the new vertex's neighbours alone, so the lowest free
    offset is the lowest clear field of that mask.  All labellings of a step
    share the offsets, so a labelling is one int.  An edge joins E[X], E[Y]
    or the matching when its later endpoint is visited.  For each labelling
    L of the frontier the DP tracks two point sets, one for each value of a
    flag recording that E[X] or E[Y] is nonempty.  The set holds the points
    (a, b) reached by the labellings of the visited vertices that end in L
    with that flag, with a = |E[X]| + matched and b = |E[Y]| + matched, kept
    as one int whose bit a * W + b is set for each point, W = E + 1.  A move
    shifts a whole set: an X move by nx * W, a Y move by ny, a match by
    W + 1, rest by 0.  A move that sets the flag (X with nx > 0, Y with
    ny > 0) sends the union of both sets to the target's flagged set; any
    other move sends each set to the target's set of the same flag.  Sets
    that reach one labelling are merged with ``|``.  Both a and b count
    closed edges, so b <= E < W and no row runs into the next.  Every set
    bit is the point of a real labelling and every labelling's point is set,
    so the largest min(a, b) over the final labelling is the lemma's maximum
    exactly; a point that another dominates is kept, but it cannot raise
    that maximum, so no pruning is needed.

    Swapping X and Y maps the labellings that end in L one to one onto those
    that end in mirror(L) = L ^ (L >> 1 & ones), ones the low bit of every
    field, and each point (a, b) to (b, a); DONE and REST stay.  So L and
    mirror(L) share one entry, under the key K = min(L, mirror(L)): a triple
    (p0, p1, q1) of K's unflagged set, K's flagged set, and the transpose of
    K's flagged set.  The invariant is that after each step every entry is
    exactly this, for both labellings: p0 is mirror(K)'s unflagged set too,
    and q1 is mirror(K)'s flagged set.  A key with no X or Y field is its
    own mirror, so its flagged set is symmetric and p1 = q1.  It holds at
    the start, where the one key 0 holds p0 = {(0, 0)} and no flagged
    point.  Three facts carry it through a step:

    - p0 is diagonal.  An unflagged labelling has no X or Y edge, so
      a = b = matched, and p0 is its own transpose.
    - The plain shifts are symmetric.  A rest, a match, and an X or Y move
      with nx = 0 or ny = 0 shift by 0 or W + 1, so each commutes with the
      transpose, and p0 stays diagonal.  A flag-setting X move shifts by
      s = nx * W, and the transpose of (p << s) is (transposed p) << nx.
    - min(a, b) is symmetric, so a labelling and its mirror score alike,
      and the answer read from one orientation is the lemma's maximum.

    The moves of mirror(K) are the mirror images of the moves of K: a move
    of K to T by shift s is matched by one of mirror(K) to mirror(T) by the
    transposed shift.  So the step works out K's moves alone.  For each, T
    gains p0 << s and p1 << s (a plain move), or (p0 | p1) << s flagged
    (one that sets the flag).  By the facts above mirror(T) gains p0 << s
    too, and the transpose of the flagged part: q1 << s, or (p0 | q1) << s'
    with s' the transposed shift, nx for an X move and ny * W for a Y move.
    Both go to the key min(T, mirror(T)) in its orientation: as they are
    when T is the key, swapped when mirror(T) is, and united in both slots
    when T is its own mirror, where the two labellings are one.  Every
    labelling's moves are covered, so the invariant holds after the step.
    The final labelling, with no field left, is its own mirror, and its p1
    holds every flagged point; the answer is read from it.

    The flag does not tell the two sides apart.  A flagged labelling with
    one side empty scores its matched count, a matching of G - u - v for any
    edge uv inside the nonempty side, so at most nu(G) - 1.  The lemma's
    maximum is at least nu(G) - 1 when nu(G) >= 2, with X and Y two edges
    of a maximum matching, so such labellings never raise the answer.  When
    nu(G) <= 1 no labelling has both sides nonempty, every flagged one
    scores 0, and lc = 1 as the lemma says.

    A labelling's moves depend only on the fields of v's earlier
    neighbours, its read signature ``labels & sigmask``.  A move's target is
    the labelling with the leaving fields cleared, plus a delta: v's field
    for a rest, X or Y move, minus u's rest bit for a match on u, or 0 when
    u leaves.  Its mirrored target is the mirrored labelling, so cleared,
    plus the mirrored delta.  A step works out the moves of each signature
    once, as (delta, mirrored delta, shift, transposed shift), split into
    the moves that keep the flag and those that set it, so ``p0 | p1`` is
    built only for a labelling with a move that sets it.  The step keeps
    these in a table only while 4 ** (fields read) <= (keys), so the table
    never outgrows the states.  On a dense step, as on K_10, nearly every
    key has a signature of its own, and the same code works out its moves
    unstored.

    With ``relaxed`` the same loop gives U, the bound of the module
    docstring, and its peak.  No rest vertex is matched, so a rest vertex is
    DONE from its visit: a field holds X, Y or DONE, three values, and the
    move table is kept while 3 ** (fields read) <= (keys).  A
    labelling's point is (a, b) = (2|E[X]| + |R|, 2|E[Y]| + |R|), which
    scores min(a, b) // 2 = min(|E[X]|, |E[Y]|) + floor(|R| / 2).  W is
    E + 1 rounded up to even.  Both a and b have the parity of |R|, and
    b <= 2 (|E[Y]| + floor(|R| / 2)) + 1 <= 2E + 1 < 2W, since the edges at
    R number at least ceil(|R| / 2) and none is in E[Y].  So row a reaches
    into row a + 1, but bit a * W + b has b's parity, which is a's, and the
    points of two adjacent rows never share a bit: each bit is one point.
    An X move shifts by 2 nx W, a Y move by 2 ny, a rest move by W + 1, and
    there is no match move.  The rest move adds 1 to both coordinates, as a
    match does, so it commutes with the transpose; unflagged points have
    a = b = |R|, so p0 stays diagonal, and the mirror argument above holds
    as it stands.  Row a of the final flagged set is read at a's parity,
    below 2W, and U = 1 + max min(a, b) // 2.  A point's bit is below
    (a + 2) * W, with a <= 2 * (decided edges) + (visited vertices) and
    a <= 2E + 1, and that is the bitset bound the byte charge takes.

    Each entry of a step is charged as ``_BYTE_BUDGET`` says, checked
    after each key's moves; past the budget the DP raises
    :class:`CapacityError`.  The peak is the most entries a step holds.
    """
    points, width, peak = _lemma_points(g, relaxed)
    # Any edge can be X, so the final flagged set is nonempty, and with no
    # edge it is empty: the best below is then -1 and lc = 0.  Row a of the
    # bitset holds the b of its points: those below W, or relaxed, those of
    # a's parity below 2W.  The best is min(a, largest b), halved relaxed.
    if relaxed:
        even = (4**width - 1) // 3
        masks = even, even << 1
    else:
        masks = ((1 << width) - 1,) * 2
    best = max(
        min(a, (points >> a * width & masks[a & 1]).bit_length() - 1)
        for a in range(points.bit_length() // width + 1)
    )
    return (best >> relaxed) + 1, peak


def _lemma_points(g: Graph, relaxed: bool = False) -> tuple[int, int, int]:
    """The final flagged bitset of the DP that ``_lemma_lc`` describes, its W, and its peak."""
    width = g.edge_count + 1
    # A closed X or Y edge adds ``edge`` to a point's a or b.  A rest vertex
    # shifts a set by ``rest``: W + 1, one more on both, or 0 when the exact
    # DP leaves it to a match.  Relaxed, it is never matched, so it is DONE.
    if relaxed:
        width += width & 1
        edge, rest, rest_label, kinds = 2, width + 1, _DONE, 3
    else:
        edge, rest, rest_label, kinds = 1, 0, _REST, 4
    decided = 0
    # min(labels, mirror) -> (unflagged points, flagged points, flagged transposed)
    states = {0: (1, 0, 0)}
    peak = 0
    for step, (_, reads, keep, sigmask, place, ones) in enumerate(_frontier_steps(g), 1):
        # The rows a point's bit may reach: a counts closed edges, or twice
        # those plus visited vertices (at most 2E + 1) with b below 2W.
        decided += len(reads)
        rows = min(2 * decided + step, 2 * g.edge_count + 1) + 2 if relaxed else decided + 1
        most = _BYTE_BUDGET // (_ENTRY_BYTES + 3 * (rows * width // 30 * 4))
        new: dict[int, tuple[int, int, int]] = {}
        put_x, put_y, put_rest = _X * place, _Y * place, rest_label * place
        # Read signature -> (moves that keep the flag, moves that set it),
        # each a (delta, mirrored delta, shift, transposed shift) list; kept
        # only while it cannot outgrow states.
        table: dict[int, tuple[list[tuple[int, ...]], list[tuple[int, ...]]]] = {}
        store = kinds ** len(reads) <= len(states)
        for labels, (p0, p1, q1) in states.items():
            sig = labels & sigmask
            moves = table.get(sig)
            if moves is None:
                moves = plain, flagging = [(put_rest, put_rest, rest, rest)], []
                nx = ny = 0
                for shift, unmatch in reads:
                    label = sig >> shift & 3
                    if label == _X:
                        nx += 1
                    elif label == _Y:
                        ny += 1
                    elif label == _REST:
                        plain.append((-unmatch, -unmatch, width + 1, width + 1))
                nx, ny = edge * nx, edge * ny
                (flagging if nx else plain).append((put_x, put_y, nx * width, nx))
                (flagging if ny else plain).append((put_y, put_x, ny, ny * width))
                if store:
                    table[sig] = moves
            kept = labels & keep
            mkept = kept ^ (kept >> 1 & ones)
            plain, flagging = moves
            for delta, mdelta, shift, _ in plain:
                target, mirror = kept + delta, mkept + mdelta
                a, b = p1, q1
                if target > mirror:
                    target, a, b = mirror, q1, p1
                elif target == mirror:
                    a = b = p1 | q1
                a0 = p0
                # A shift by 0 still copies the int, as dear as any shift.
                if shift:
                    a0, a, b = a0 << shift, a << shift, b << shift
                entry = new.get(target)
                if entry is None:
                    new[target] = a0, a, b
                else:
                    e0, e1, f1 = entry
                    new[target] = e0 | a0, e1 | a, f1 | b
            if flagging:
                # A move that sets the flag sends the unflagged points too.
                both, mboth = p0 | p1, p0 | q1
                for delta, mdelta, shift, mshift in flagging:
                    target, mirror = kept + delta, mkept + mdelta
                    a, b = both << shift, mboth << mshift
                    if target > mirror:
                        target, a, b = mirror, b, a
                    elif target == mirror:
                        a = b = a | b
                    e0, e1, f1 = new.get(target, (0, 0, 0))
                    new[target] = e0, e1 | a, f1 | b
            if len(new) > most:
                raise CapacityError(
                    f"the lc dynamic program needs more than {_BYTE_BUDGET} bytes "
                    f"at vertex {step} of {len(set(itertools.chain(*g.edges)))}"
                )
        peak = max(peak, len(new))
        states = new
    return states[0][1], width, peak


def lc_bruteforce(g: Graph, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> LcResult:
    """Least ``r`` whose super line graph is complete, with a witness at ``r - 1``.

    ``r`` comes from the lemma in the module docstring.  The relaxed DP of
    :func:`_lemma_lc` first gives the bound U >= lc; U <= 1 is lc itself,
    and otherwise level U - 1 is walked, reading at most
    ``min(pair_budget, _CONFIRM_READS)`` adjacency masks.  A witness there
    proves lc = U, and it is the lexicographically first witness pair at
    level lc - 1.  If the relaxed DP passes its byte budget, or the walk
    passes its cap or finds no witness, the exact DP decides ``r`` and
    level ``r - 1`` alone is walked within ``pair_budget``.  A DP or walk
    that passes its budget there raises :class:`CapacityError`: no value
    is reported without its witness.  A walk that finds no witness then
    contradicts the exact DP, a bug in one of the two, and raises
    ``AssertionError``.
    """
    try:
        bound, _ = _lemma_lc(g, relaxed=True)
        if bound <= 1:
            return LcResult(bound)
        reads = min(pair_budget, _CONFIRM_READS)
        witness = find_nonadjacent_pair(g, bound - 1, pair_budget=reads)
    except CapacityError:
        witness = None
    if witness is not None:
        return LcResult(bound, witness)
    r, _ = _lemma_lc(g)
    if r <= 1:
        return LcResult(r)
    witness = find_nonadjacent_pair(g, r - 1, pair_budget=pair_budget)
    if witness is None:
        raise AssertionError(f"the lemma gives lc = {r}, but level {r - 1} has no witness pair")
    return LcResult(r, witness)
