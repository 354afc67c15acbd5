import random
from functools import lru_cache

import pytest

from raagcert import Graph, enumerate_graphs, from_edges, isomorphism


@lru_cache(maxsize=None)
def classes(n: int) -> tuple[Graph, ...]:
    return tuple(enumerate_graphs(n))


@pytest.fixture(scope="session")
def graph_classes():
    return classes


def counted_searches(monkeypatch) -> list[bool]:
    """Count the canonical searches run from now on: one entry per search,
    True iff a shared_searches() scope was open."""
    searches = []
    search = isomorphism._canonical_search

    def counted_search(g):
        searches.append(isomorphism._stores is not None)
        return search(g)

    monkeypatch.setattr(isomorphism, "_canonical_search", counted_search)
    return searches


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return from_edges(n, edges)


@pytest.fixture
def make_random_graph():
    return random_graph


@pytest.fixture
def fig_mba_5_4_3() -> Graph:
    # five-cycle with the two chords 1-3 and 2-4; the lone vertex of
    # non-maximal degree is 0
    return from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)])


@pytest.fixture
def fig_mba_7_5_4() -> Graph:
    # two adjacent low-degree vertices 0 and 1 hang off a dense 5-vertex core:
    # vertices 2..6 induce a complete graph minus the edges 2-3 and 2-6
    edges = [(0, 1), (0, 2), (0, 6), (1, 2), (1, 3)]
    edges += [(3, 4), (4, 5), (5, 6), (2, 4), (3, 5), (4, 6), (5, 2), (3, 6)]
    return from_edges(7, edges)


@pytest.fixture
def split_mba_8() -> Graph:
    # (8, 6, 5) max-by-abelian graph whose two non-maximal vertices 0 and 1
    # have links {1,2,3,4} and {0,5,6,7} partitioning the vertices, with the
    # cross pair 4-7 missing, so it is not a join
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7),
             (4, 2), (4, 3), (4, 5), (4, 6), (7, 5), (7, 6), (7, 2), (7, 3),
             (2, 5), (2, 6), (3, 5), (3, 6)]
    return from_edges(8, edges)
