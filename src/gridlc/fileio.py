"""Plain-text edge lists and subset label tables.

Edge-list format: UTF-8 lines, ``#`` starts a comment, blank lines are
ignored.  The first non-comment line is ``p <vertex_count> <edge_count>``,
followed by one ``<u> <v>`` pair per line, 0-based.  Writers emit edges in
index order.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from itertools import compress

from . import DEFAULT_EDGE_CAP, DEFAULT_VERTEX_CAP
from .graph import Graph, _selector, _super_line_rows


def format_edge_list(graph: Graph) -> str:
    body = "".join([f"{u} {v}\n" for u, v in graph.edges])
    return f"p {graph.vertex_count} {graph.edge_count}\n" + body


def parse_edge_list(text: str, *, edge_cap: int | None = DEFAULT_EDGE_CAP) -> Graph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 3 or fields[0] != "p":
                raise ValueError(f"line {number}: expected header 'p <vertices> <edges>'")
            try:
                header = (int(fields[1]), int(fields[2]))
            except ValueError:
                raise ValueError(f"line {number}: header counts must be integers") from None
            continue
        if len(fields) != 2:
            raise ValueError(f"line {number}: expected '<u> <v>'")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ValueError(f"line {number}: endpoints must be integers") from None
    if header is None:
        raise ValueError("missing 'p <vertices> <edges>' header")
    vertex_count, edge_count = header
    if len(edges) != edge_count:
        raise ValueError(f"header promises {edge_count} edges, found {len(edges)}")
    return Graph.from_edges(vertex_count, edges, edge_cap=edge_cap)


def read_edge_list(path: str | os.PathLike, *, edge_cap: int | None = DEFAULT_EDGE_CAP) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle.read(), edge_cap=edge_cap)


def write_edge_list(graph: Graph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_edge_list(graph))


def format_label_table(labels: Sequence[Sequence[int]]) -> str:
    """One line per subset vertex: ``<vertex index>: e<i1>,e<i2>,...``."""
    names = {edge: f"e{edge}" for edge in {edge for subset in labels for edge in subset}}
    lines = [
        f"{vertex}: " + ",".join([names[edge] for edge in subset])
        for vertex, subset in enumerate(labels)
    ]
    return "\n".join(lines) + "\n"


def write_label_table(labels: Sequence[Sequence[int]], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_label_table(labels))


def _write_super_line_graph(
    graph: Graph,
    r: int,
    path: str | os.PathLike,
    labels_path: str | os.PathLike,
    *,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> tuple[int, int]:
    """Write the super line graph of index ``r`` and its label table.

    The edge list is byte-identical to ``format_edge_list`` of
    ``super_line_graph(graph, r)[0]`` but streamed one vertex's row at a
    time, with no edge pair built.  Every check, the output directories'
    included, runs before a file is opened.  Returns the vertex and edge
    counts.
    """
    if os.path.realpath(path) == os.path.realpath(labels_path):
        raise ValueError(f"the edge list and the label table would both be written to {path}")
    for target in (path, labels_path):
        folder = os.path.dirname(target) or "."
        if not os.path.isdir(folder):
            raise ValueError(f"cannot write {target}: {folder} is not a directory")
        if os.path.isdir(target):
            raise ValueError(f"cannot write {target}: it is a directory")
    labels, rows = _super_line_rows(graph, r, vertex_cap)
    edge_count = sum(row.bit_count() for row in rows)
    tails = [f"{j}\n" for j in range(len(labels))]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"p {len(labels)} {edge_count}\n")
        for i, row in enumerate(rows):
            if row:
                head = f"{i} "
                handle.write(head + head.join(compress(tails, _selector(row))))
    write_label_table(labels, labels_path)
    return len(labels), edge_count
