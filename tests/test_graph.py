import tracemalloc

import pytest
from hypothesis import given, strategies as st

from gridlc import (
    CapacityError,
    Graph,
    GridSpec,
    grid,
    path,
    super_line_graph,
)
from support import graphs, line_graph_naive, share_endpoint


class TestPath:
    def test_chain_structure(self):
        g = path(5)
        assert g.vertex_count == 5
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_single_vertex(self):
        g = path(1)
        assert g.vertex_count == 1
        assert g.edges == ()

    def test_single_edge(self):
        assert path(2).edges == ((0, 1),)

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError):
            path(0)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(0, 1), (2, 2)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (0, 1)])

    def test_rejects_reversed_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="outside"):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            Graph.from_edges(-1, [])

    def test_normalises_endpoint_order(self):
        g = Graph.from_edges(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 2), (0, 1))

    def test_edge_cap(self):
        with pytest.raises(CapacityError):
            Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], edge_cap=2)

    def test_generators_are_uncapped(self):
        g = grid(GridSpec(70, 70))
        assert g.edge_count == 2 * 70 * 70 - 140

    def test_grid_edge_cap(self):
        assert grid(GridSpec(181, 181)).edge_count == 65_160
        with pytest.raises(CapacityError, match="65884 edges"):
            grid(GridSpec(182, 182))
        assert path(2**16 + 1).edge_count == 2**16
        with pytest.raises(CapacityError, match="65537 edges"):
            path(2**16 + 2)


class TestLazyMasks:
    def test_construction_builds_no_masks(self, covered):
        g = grid(GridSpec(3, 3))
        assert covered == []
        g.edge_adjacency
        assert covered == [g.edges]

    def test_read_masks_leave_value_unchanged(self):
        read, unread = path(4), path(4)
        assert read.edge_adjacency == (0b010, 0b101, 0b010)
        assert read == unread and hash(read) == hash(unread)
        assert {read: 1}[unread] == 1
        assert repr(read) == repr(unread) == "Graph(vertex_count=4, edges=((0, 1), (1, 2), (2, 3)))"

    def test_line_graph_masks_on_first_access(self, diamond, covered):
        lg, _ = super_line_graph(diamond, 1)
        # The one pass covers the input's edges with subsets, not the output's.
        assert covered == [diamond.edges]
        for i in range(lg.edge_count):
            for j in range(lg.edge_count):
                assert bool(lg.edge_adjacency[i] >> j & 1) == share_endpoint(lg.edges[i], lg.edges[j])


class TestGrid:
    @pytest.mark.parametrize(
        "cols,rows", [(6, 4), (4, 6), (1, 1), (1, 5), (5, 1), (2, 2), (3, 3)]
    )
    def test_edges_are_cells_at_distance_one(self, cols, rows):
        g = grid(GridSpec(cols, rows))
        cells = [(v, divmod(v, cols)) for v in range(cols * rows)]
        expected = {
            (u, v)
            for u, (ru, cu) in cells
            for v, (rv, cv) in cells
            if u < v and abs(ru - rv) + abs(cu - cv) == 1
        }
        assert g.vertex_count == cols * rows
        assert len(g.edges) == len(set(g.edges))
        assert set(g.edges) == expected

    def test_square_is_four_cycle(self):
        g = grid(GridSpec(2, 2))
        assert g.vertex_count == 4
        assert g.edges == ((0, 1), (2, 3), (0, 2), (1, 3))
        degrees = [0] * 4
        for u, v in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        assert degrees == [2, 2, 2, 2]

    @pytest.mark.parametrize(
        "cols,rows,vertices,edges",
        [(6, 4, 24, 38), (7, 5, 35, 58), (1, 1, 1, 0), (2, 2, 4, 4)],
    )
    def test_golden_counts(self, cols, rows, vertices, edges):
        g = grid(GridSpec(cols, rows))
        assert g.vertex_count == vertices
        assert g.edge_count == edges

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_count_formulas(self, cols, rows):
        spec = GridSpec(cols, rows)
        g = grid(spec)
        assert g.vertex_count == cols * rows == spec.vertex_count
        assert g.edge_count == 2 * cols * rows - cols - rows == spec.edge_count

    def test_edge_index_numbering_matches_enumeration(self):
        # Horizontal edges first, row-major, then vertical edges, row-major.
        cols, rows = 4, 3
        g = grid(GridSpec(cols, rows))
        for row in range(rows):
            for col in range(cols - 1):
                v = row * cols + col
                assert g.edges[row * (cols - 1) + col] == (v, v + 1)
        for row in range(rows - 1):
            for col in range(cols):
                v = row * cols + col
                assert g.edges[rows * (cols - 1) + row * cols + col] == (v, v + cols)

    @pytest.mark.parametrize("cols,rows", [(2, 5), (3, 4), (6, 4), (7, 5)])
    def test_transpose_has_same_counts_and_degrees(self, cols, rows):
        a = grid(GridSpec(cols, rows))
        b = grid(GridSpec(rows, cols))
        assert a.vertex_count == b.vertex_count
        assert a.edge_count == b.edge_count

        def degree_sequence(g):
            degrees = [0] * g.vertex_count
            for u, v in g.edges:
                degrees[u] += 1
                degrees[v] += 1
            return sorted(degrees)

        assert degree_sequence(a) == degree_sequence(b)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            GridSpec(0, 3)
        with pytest.raises(ValueError):
            GridSpec(3, -1)


class TestEdgeAdjacency:
    def test_path_neighbours(self):
        g = path(5)
        assert g.edge_adjacency[0] >> 1 & 1
        assert not g.edge_adjacency[0] >> 2 & 1

    def test_edge_not_adjacent_to_itself(self):
        g = path(5)
        assert not g.edge_adjacency[1] >> 1 & 1

    @pytest.mark.parametrize(
        "g", [path(10), grid(GridSpec(5, 4)), grid(GridSpec(2, 2))], ids=["path10", "grid5x4", "grid2x2"]
    )
    def test_masks_match_pairwise_endpoint_check(self, g):
        assert g.edge_count <= 40
        for i in range(g.edge_count):
            for j in range(g.edge_count):
                expected = share_endpoint(g.edges[i], g.edges[j])
                assert bool(g.edge_adjacency[i] >> j & 1) == expected

    @given(graphs())
    def test_masks_symmetric_and_irreflexive(self, g):
        for i in range(g.edge_count):
            assert not g.edge_adjacency[i] >> i & 1
            for j in range(g.edge_count):
                assert (g.edge_adjacency[i] >> j & 1) == (g.edge_adjacency[j] >> i & 1)


class TestLineGraph:
    """The line graph is the index-1 super line graph."""

    def test_diamond_golden(self, diamond):
        lg, _ = super_line_graph(diamond, 1)
        assert lg.vertex_count == 5
        assert lg.edge_count == 8

    def test_diamond_exact_edges(self, diamond):
        lg, _ = super_line_graph(diamond, 1)
        assert lg.edges == (
            (0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4),
        )
        assert lg == line_graph_naive(diamond)

    def test_single_edge_gives_one_vertex(self):
        lg, _ = super_line_graph(path(2), 1)
        assert lg.vertex_count == 1
        assert lg.edge_count == 0

    @pytest.mark.parametrize("k", range(2, 9))
    def test_path_line_graph_is_shorter_path(self, k):
        lg, _ = super_line_graph(path(k), 1)
        assert lg.vertex_count == k - 1
        assert lg.edge_count == k - 2
        degrees = [0] * lg.vertex_count
        for u, v in lg.edges:
            degrees[u] += 1
            degrees[v] += 1
        if k == 2:
            assert degrees == [0]
        else:
            assert sorted(degrees) == [1, 1] + [2] * (k - 3)

    @given(graphs(min_edges=1))
    def test_edges_exactly_the_adjacent_pairs(self, g):
        assert super_line_graph(g, 1)[0] == line_graph_naive(g)

    def test_pairs_share_their_vertex_ids(self):
        # The star K_1,600 has the complete line graph K_600, 179,700 edges.
        # Each edge holds a 2-tuple (56 bytes) and its slot in the edge tuple
        # (8 bytes); an int object per pair for j would add 32 more.
        star = Graph.from_edges(601, [(0, leaf) for leaf in range(1, 601)])
        tracemalloc.start()
        try:
            lg, _ = super_line_graph(star, 1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert lg.edge_count == 600 * 599 // 2
        assert held / lg.edge_count < 72
