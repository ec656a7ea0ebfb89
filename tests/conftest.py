"""Shared fixtures: named small graphs and session-scoped corpora."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from pmsp import CorpusSpec, Graph, generate_corpus
from pmsp.graph import parse_graph

FIXTURES = Path(__file__).parent / "fixtures"


def graph_from_edges(edges: list[tuple[int, int]], n: int | None = None) -> Graph:
    size = n if n is not None else max(max(e) for e in edges)
    return Graph(size, tuple(edges))


def fixture_graphs() -> list[Graph]:
    """The graphs of the fixture edge lists, up to the 20-vertex system cap."""
    graphs = [parse_graph(f.read_text()) for f in sorted(FIXTURES.glob("*.edges"))]
    return [g for g in graphs if g.n <= 20]


def three_block_graph() -> Graph:
    """K4, K_{2,3}, and K_{3,3} glued at the cut vertices 1 and 4."""
    edges = list(itertools.combinations([1, 2, 3, 4], 2))
    edges += [(u, v) for u in [1, 5, 6] for v in [7, 8]]
    edges += [(u, v) for u in [4, 9, 10] for v in [11, 12, 13]]
    return Graph(13, tuple(edges))


def decorated_even_cycle() -> Graph:
    """C4 with every cycle vertex brought to degree 4 by hanging trees.

    All internal vertices have degree 3 or 4 and all attachment degrees
    are 1 or 3, so the even-cycle Gorenstein case applies with index 4.
    """
    edges = [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (1, 6), (5, 7), (7, 15),
             (7, 16), (5, 8), (2, 9), (2, 10), (3, 11), (3, 12), (12, 13),
             (12, 14), (13, 17), (13, 18), (4, 19), (4, 20), (20, 21), (20, 22)]
    return Graph(22, tuple(edges))


@pytest.fixture(scope="session")
def connected_7():
    """All connected graphs with at most 7 vertices, one per isomorphism class."""
    return list(generate_corpus(CorpusSpec(max_n=7)))


@pytest.fixture(scope="session")
def bipartite_8():
    return list(generate_corpus(CorpusSpec(max_n=8, family="bipartite")))


@pytest.fixture(scope="session")
def pseudotrees_9():
    return list(generate_corpus(CorpusSpec(max_n=9, family="pseudotree")))
