"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed, so one seed always
yields the same requests.  Requests are CLI argument lists plus the graph6
text fed on stdin (``None`` when the request names a builtin).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from raagcert.graphs import Graph, compose, complete_multipartite_graph, from_edges, to_graph6

# The README's builtin descriptors at sizes up to 10; present for every seed.
# complete and edgeless stop at 9 vertices: canonical serialization of their
# 10-vertex forms takes about 13 s each, more than a whole run, while at 9
# vertices the same factorial search still costs about 1.3 s, a hundred times
# a typical request.
BUILTINS = (
    [f"cycle:{n}" for n in range(4, 11)]
    + [f"complete:{n}" for n in (1, 2, 3, 5, 7, 9)]
    + [f"edgeless:{n}" for n in (2, 3, 5, 7, 9)]
    + [f"complete_multipartite:{parts}" for parts in
       ("2,2", "3,3", "2,2,2", "1,2,3", "2,3,4", "3,3,3", "5,5", "2,2,2,2,2")]
    + ["petersen"]
)

FAMILIES = ("gnp", "join", "union", "multipartite", "threshold", "mba_n1", "mba_n2")
FAMILY_SIZES = (8, 12, 16, 24, 32, 48, 64)
# Cap on twin classes (blocks of mutually interchangeable vertices) in the
# threshold and multipartite families.  The canonical-labelling search is
# factorial in a twin class, so without the cap one seed's family cost can be
# 30 times another's; the fixed builtins edgeless:9 and complete:9 carry that
# worst case in every run instead.
MAX_TWINS = 6
RANKS_N = 6
RANKS_UPTO = 5


@dataclass(frozen=True)
class Request:
    """One ``raagcert`` invocation: its argument list and its stdin text."""

    label: str
    argv: tuple[str, ...]
    stdin: Optional[str] = None
    n: int = 0
    complete: bool = False


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def _gnp(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def _shuffled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _split(rng: random.Random, n: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _removed_edges(rng: random.Random, m: int, cycles: int,
                   links: list[set[int]]) -> Optional[set[tuple[int, int]]]:
    """Edges to delete from the complete graph on m vertices: a circulant of
    ``cycles`` distinct shifts (2-regular each) plus a perfect matching on each
    even-sized link, all pairwise disjoint; None when a matching collides."""
    edges = {
        (min(i, (i + shift) % m), max(i, (i + shift) % m))
        for shift in rng.sample(range(1, (m - 1) // 2 + 1), cycles)
        for i in range(m)
    }
    for link in links:
        order = list(link)
        rng.shuffle(order)
        for a, b in zip(order[::2], order[1::2]):
            pair = (min(a, b), max(a, b))
            if pair in edges:
                return None
            edges.add(pair)
    return edges


def _mba(rng: random.Random, n: int, low: int) -> Graph:
    """Max-by-abelian graph with ``low`` (1 or 2) vertices of non-maximal degree.

    The m = n - low high vertices form the complete graph minus a random
    circulant, a regular core of degree d.  Each low vertex joins an even-sized
    set of at most six high vertices, which then lose a perfect matching among
    themselves, so every high vertex stays at degree d, above the degrees of
    the low vertices, which form a clique.
    """
    m = n - low
    most = min((m - 1) // 4, (m - 3 - low) // 2)
    cycles = rng.randint(min(1, most), most)
    degree = m - 1 - 2 * cycles
    while True:
        links = [set(rng.sample(range(m), 2 * rng.randint(1, min(3, (degree - low) // 2))))
                 for _ in range(low)]
        removed = _removed_edges(rng, m, cycles, links)
        if removed is None:
            continue
        edges = [(u, v) for u in range(m) for v in range(u + 1, m) if (u, v) not in removed]
        for i, link in enumerate(links):
            edges += [(m + i, u) for u in link]
        if low == 2:
            edges.append((m, m + 1))
        return from_edges(n, edges)


def _threshold(rng: random.Random, n: int) -> Graph:
    """Threshold graph: each new vertex is isolated or dominating, with at most
    ``MAX_TWINS`` consecutive vertices of one kind."""
    rows = [0]
    run = 1
    dominating = False
    for v in range(1, n):
        if run >= MAX_TWINS or rng.random() < 0.5:
            dominating = not dominating
            run = 0
        run += 1
        if dominating:
            rows = [row | 1 << v for row in rows] + [(1 << v) - 1]
        else:
            rows.append(0)
    return Graph(n, tuple(rows))


def _parts(rng: random.Random, n: int) -> list[int]:
    """Block sizes between 1 and ``MAX_TWINS`` summing to n, at least two blocks."""
    parts: list[int] = []
    while sum(parts) < n:
        parts.append(min(rng.randint(1, MAX_TWINS), n - sum(parts)))
    return parts


def family_graph(rng: random.Random, family: str, n: int) -> Graph:
    if family == "gnp":
        g = _gnp(rng, n, rng.uniform(0.15, 0.85))
    elif family in ("join", "union"):
        a, b = _split(rng, n, 2)
        mode = "simplicial_join" if family == "join" else "disjoint_union"
        g = compose(_gnp(rng, a, rng.uniform(0.2, 0.8)), _gnp(rng, b, rng.uniform(0.2, 0.8)), mode)
    elif family == "multipartite":
        g = complete_multipartite_graph(_parts(rng, n))
    elif family == "threshold":
        g = _threshold(rng, n)
    elif family == "mba_n1":
        g = _mba(rng, n, 1)
    elif family == "mba_n2":
        g = _mba(rng, n, 2)
    else:
        raise ValueError(f"unknown family {family!r}")
    return _shuffled(rng, g)


def certify_requests(seed: int, families: int) -> list[Request]:
    """The builtins, then ``families`` structured family graphs cycling through
    every (family, size) pair in a fixed order, so the mix is seed-independent
    and only the structure inside each family is drawn from the seed."""
    from raagcert.cli import parse_builtin

    out = []
    for spec in BUILTINS:
        g = parse_builtin(spec)
        out.append(Request(spec, ("certify", "--builtin", spec), None, g.n, g.is_complete()))
    rng = _rng(seed, "certify")
    grid = [(f, n) for n in FAMILY_SIZES for f in FAMILIES]
    for i in range(families):
        family, n = grid[i % len(grid)]
        g = family_graph(rng, family, n)
        out.append(Request(f"{family}:{n}", ("certify", "--input", "-"), to_graph6(g), g.n,
                           g.is_complete()))
    return out


def ranks_requests(seed: int, count: int) -> list[Request]:
    """``count`` distinct labelled graphs on six vertices, each edge present with
    probability 1/2; distinct so no request reuses another's cached words."""
    rng = _rng(seed, "ranks")
    seen: set[str] = set()
    out = []
    while len(out) < count:
        g6 = to_graph6(_gnp(rng, RANKS_N, 0.5))
        if g6 in seen:
            continue
        seen.add(g6)
        out.append(Request(g6, ("ranks", "--upto", str(RANKS_UPTO), "--input", "-"), g6, RANKS_N))
    return out
