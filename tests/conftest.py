import pytest

import gridlc.graph
from gridlc import Graph


@pytest.fixture
def diamond() -> Graph:
    """K_4 minus one edge: 4 vertices, 5 edges."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


@pytest.fixture
def covered(monkeypatch) -> list:
    """The ``edges`` of every cover pass run during the test, in call order."""
    calls = []
    real = gridlc.graph._covers

    def recording(edges, holders):
        calls.append(edges)
        return real(edges, holders)

    monkeypatch.setattr(gridlc.graph, "_covers", recording)
    return calls
