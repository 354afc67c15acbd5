"""Structured graph families for tests: small-degree regular graphs, strongly
regular graphs with lambda < k-1 and mu < k, the split max-by-abelian
family, and seeded families on 11 to 64 vertices, above the
canonical-labelling budget."""

import random

from raagcert import (
    Graph,
    complement,
    complete_multipartite_graph,
    compose,
    cycle_graph,
    from_edges,
)

LARGE_SIZES = (11, 14, 20, 32, 64)
# twin classes stay this small: canonical labelling of a certificate's
# children is factorial in them
MAX_TWINS = 6


def disjoint_union(graphs) -> Graph:
    out = graphs[0]
    for g in graphs[1:]:
        out = compose(out, g, "disjoint_union")
    return out


def cycle_union(lengths) -> Graph:
    return disjoint_union([cycle_graph(m) for m in lengths])


def matching(pairs: int) -> Graph:
    return from_edges(2 * pairs, [(2 * i, 2 * i + 1) for i in range(pairs)])


def cocktail_party(pairs: int) -> Graph:
    return complete_multipartite_graph([2] * pairs)


def small_degree_regular() -> list[Graph]:
    """Regular non-complete graphs of degree 1, 2, n-2 or n-3, up to 64
    vertices: matchings, cycles and unions of cycles, cocktail-party graphs,
    and the complements of cycles and of unions of cycles."""
    unions = [(3, 3), (4, 4), (3, 4), (3, 5), (5, 5), (4, 5, 6), (3, 3, 3), (5, 7, 9, 11),
              (20, 21, 23)]
    out = [matching(p) for p in (2, 3, 8, 32)]
    out += [cycle_graph(n) for n in (4, 5, 7, 12, 33, 64)]
    out += [cycle_union(lengths) for lengths in unions]
    out += [cocktail_party(p) for p in (2, 3, 5, 16, 32)]
    out += [complement(cycle_graph(n)) for n in (5, 6, 9, 20, 64)]
    out += [complement(cycle_union(lengths)) for lengths in unions]
    return out


def paley(q: int) -> Graph:
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(u, v) for u in range(q) for v in range(u + 1, q)
                          if (v - u) % q in squares])


def clebsch() -> Graph:
    # the folded 5-cube: 4-bit words, adjacent when they differ in one bit or all four
    return from_edges(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                           if bin(u ^ v).count("1") in (1, 4)])


def shrikhande() -> Graph:
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return from_edges(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                           if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps])


def rook(m: int) -> Graph:
    # K_m box K_m: the cells of an m-by-m board, adjacent in a shared row or column
    return from_edges(m * m, [(u, v) for u in range(m * m) for v in range(u + 1, m * m)
                              if u // m == v // m or u % m == v % m])


def srg_without_twins() -> list[Graph]:
    """Strongly regular graphs with lambda < k-1 and mu < k."""
    return [paley(13), clebsch(), shrikhande(), rook(3), rook(4), rook(5)]


def split_mba(k: int) -> Graph:
    """Max-by-abelian graph on 4k + 2 vertices: two adjacent low vertices 0
    and 1, whose links partition the vertices, and sides A (linked to 0) and
    B (linked to 1) of k twin pairs each.  Every edge within and across the
    sides is present except those inside a pair and between the i-th pairs
    of A and of B."""
    n = 4 * k + 2
    # vertex v of a side is in pair (v - 2) // 2, on side A for pairs below k
    pair = {v: (v - 2) // 2 for v in range(2, n)}
    edges = [(0, 1)] + [(0 if pair[v] < k else 1, v) for v in pair]
    edges += [(u, v) for u in pair for v in pair if u < v
              and pair[u] != pair[v] and pair[v] - pair[u] != k]
    return from_edges(n, edges)


def split_family() -> list[Graph]:
    """``split_mba(k)`` for k = 3..10, on 14 to 42 vertices."""
    return [split_mba(k) for k in range(3, 11)]


def cycle_blow_up(m: int, t: int) -> Graph:
    """C_m with every vertex replaced by t pairwise non-adjacent twins."""
    return from_edges(m * t, [(u, v) for u in range(m * t) for v in range(u + 1, m * t)
                              if (v // t - u // t) % m in (1, m - 1)])


def _gnp(rng: random.Random, n: int) -> Graph:
    p = rng.uniform(0.2, 0.8)
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


def _threshold(rng: random.Random, n: int) -> Graph:
    """Each new vertex is isolated or dominating, at most ``MAX_TWINS`` in a row alike."""
    rows, run, dominating = [0], 1, False
    for v in range(1, n):
        if run >= MAX_TWINS or rng.random() < 0.5:
            dominating, run = not dominating, 0
        run += 1
        if dominating:
            rows = [row | 1 << v for row in rows] + [(1 << v) - 1]
        else:
            rows.append(0)
    return Graph(n, tuple(rows))


def _multipartite(rng: random.Random, n: int) -> Graph:
    parts: list[int] = []
    while sum(parts) < n:
        parts.append(min(rng.randint(1, MAX_TWINS), n - sum(parts)))
    return complete_multipartite_graph(parts)


def _max_by_abelian(rng: random.Random, n: int, low: int) -> Graph:
    """Max-by-abelian graph with ``low`` vertices of non-maximal degree, so
    k = n - low.  The m = n - low high vertices form K_m minus the cycle C_m;
    each low vertex joins four of them, which then lose a perfect matching,
    so every high vertex keeps degree m - 3, above the low vertices' 4 or 5."""
    m = n - low
    cycle = {(i, i + 1) for i in range(m - 1)} | {(0, m - 1)}
    while True:
        order = rng.sample(range(m), 4 * low)
        matched = {(min(a, b), max(a, b)) for a, b in zip(order[::2], order[1::2])}
        if not matched & cycle:
            break
    removed = cycle | matched
    edges = [(u, v) for u in range(m) for v in range(u + 1, m) if (u, v) not in removed]
    edges += [(m + i, v) for i in range(low) for v in order[4 * i:4 * i + 4]]
    if low == 2:
        edges.append((m, m + 1))
    return from_edges(n, edges)


def large_families(seed: int) -> list[tuple[str, Graph]]:
    """Seeded graphs on 11 to 64 vertices, each relabelled at random: joins
    and disjoint unions of random graphs, threshold graphs, complete
    multipartite graphs, max-by-abelian graphs with k in {n-1, n-2}, and twin
    blow-ups of cycles, which the rules cannot decide."""
    rng = random.Random(seed)
    out = []
    for n in LARGE_SIZES:
        a = rng.randint(1, n - 1)
        out.append(("join", compose(_gnp(rng, a), _gnp(rng, n - a), "simplicial_join")))
        out.append(("union", compose(_gnp(rng, a), _gnp(rng, n - a), "disjoint_union")))
        out.append(("threshold", _threshold(rng, n)))
        out.append(("multipartite", _multipartite(rng, n)))
        out.append(("mba_n1", _max_by_abelian(rng, n, 1)))
        out.append(("mba_n2", _max_by_abelian(rng, n, 2)))
    out += [("blow_up", cycle_blow_up(m, t)) for m, t in ((7, 2), (5, 3), (11, 2), (9, 4))]
    shuffled = []
    for name, g in out:
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled.append((name, g.relabel(perm)))
    return shuffled
