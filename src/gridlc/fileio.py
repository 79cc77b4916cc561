"""Plain-text edge lists and subset label tables.

Edge-list format: UTF-8 lines, ``#`` starts a comment, blank lines are
ignored.  The first non-comment line is ``p <vertex_count> <edge_count>``,
followed by one ``<u> <v>`` pair per line, 0-based.  Writers emit edges in
index order.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from .graph import DEFAULT_EDGE_CAP, Graph


def format_edge_list(graph: Graph) -> str:
    lines = [f"p {graph.vertex_count} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


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
    lines = [
        f"{vertex}: " + ",".join(f"e{edge}" for edge in subset)
        for vertex, subset in enumerate(labels)
    ]
    return "\n".join(lines) + "\n"


def write_label_table(labels: Sequence[Sequence[int]], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_label_table(labels))
