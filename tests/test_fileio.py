import tracemalloc

import pytest

from gridlc import (
    Graph,
    GridSpec,
    format_edge_list,
    format_label_table,
    grid,
    parse_edge_list,
    path,
    read_edge_list,
    super_line_graph,
    write_edge_list,
)
from support import random_simple_graphs


def edge_list_reference(graph):
    return f"p {graph.vertex_count} {graph.edge_count}\n" + "".join(
        f"{u} {v}\n" for u, v in graph.edges
    )


def label_table_reference(labels):
    lines = [f"{vertex}: " + ",".join(f"e{edge}" for edge in subset) for vertex, subset in enumerate(labels)]
    return "\n".join(lines) + "\n"


FORMAT_CASES = [
    *random_simple_graphs(200, max_edges=16),
    Graph(0, ()),
    Graph(5, ()),
    # Isolated vertices, and endpoints of one and two digits.
    Graph.from_edges(12, [(3, 11), (10, 0), (10, 11)]),
    super_line_graph(grid(GridSpec(3, 3)), 2)[0],
]


def test_format_golden():
    assert format_edge_list(path(3)) == "p 3 2\n0 1\n1 2\n"


def test_round_trip_in_memory(diamond):
    assert parse_edge_list(format_edge_list(diamond)) == diamond


def test_round_trip_via_file(tmp_path):
    g = grid(GridSpec(4, 3))
    target = tmp_path / "grid.edges"
    write_edge_list(g, target)
    assert read_edge_list(target) == g


def test_comments_and_blank_lines_ignored():
    text = "# a graph\n\np 3 2   # header\n0 1\n# middle\n1 2\n"
    assert parse_edge_list(text) == path(3)


def test_missing_header():
    with pytest.raises(ValueError, match="header"):
        parse_edge_list("0 1\n")


def test_bad_header_counts():
    with pytest.raises(ValueError, match="integers"):
        parse_edge_list("p three 2\n0 1\n1 2\n")


def test_edge_count_mismatch():
    with pytest.raises(ValueError, match="promises"):
        parse_edge_list("p 3 2\n0 1\n")


def test_malformed_edge_line():
    with pytest.raises(ValueError, match="<u> <v>"):
        parse_edge_list("p 3 2\n0 1 9\n1 2\n")


def test_duplicate_edges_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_edge_list("p 3 2\n0 1\n1 0\n")


def test_label_table_golden():
    labels = ((0, 1), (0, 2), (1, 2))
    assert format_label_table(labels) == "0: e0,e1\n1: e0,e2\n2: e1,e2\n"


@pytest.mark.parametrize("graph", FORMAT_CASES, ids=range(len(FORMAT_CASES)))
def test_format_matches_per_edge_reference_and_round_trips(graph):
    text = format_edge_list(graph)
    assert text == edge_list_reference(graph)
    assert parse_edge_list(text, edge_cap=None) == graph


def test_format_memory_follows_edges_not_declared_vertices():
    # One edge between the two ends of a million declared vertices: a table
    # made per declared vertex would take tens of MB.
    graph = Graph(10**6, ((0, 999_999),))
    tracemalloc.start()
    try:
        text = format_edge_list(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == "p 1000000 1\n0 999999\n"
    assert peak < 2**20


@pytest.mark.parametrize(
    "labels",
    [
        (),
        ((),),
        super_line_graph(grid(GridSpec(3, 3)), 3)[1],
        super_line_graph(grid(GridSpec(4, 4)), 2)[1],
    ],
    ids=["empty", "empty-subset", "3x3-index-3", "4x4-index-2"],
)
def test_label_table_matches_per_edge_reference(labels):
    assert format_label_table(labels) == label_table_reference(labels)
