"""The automorphism search that ``raagcert.isomorphism`` replaced by the
canonical search's generators, kept only as an oracle for them.

``automorphisms`` backtracks over vertex images, mapping each vertex only into
its class under an iterated degree/neighbour-colour refinement, and lists every
automorphism.  ``vertex_orbits`` and ``orbit_least_masks`` sweep vertices and
vertex masks through that full list.
"""

from raagcert import Graph


def refined_colors(g: Graph) -> tuple[int, ...]:
    """Stable vertex colouring: start from degrees, refine by neighbour colour multisets."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        keys = []
        for v in range(g.n):
            neigh = sorted(colors[w] for w in range(g.n) if g.rows[v] >> w & 1)
            keys.append((colors[v], tuple(neigh)))
        ranking = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [ranking[key] for key in keys]
        if new == colors:
            return tuple(colors)
        colors = new


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex bijections, sorted by image tuple."""
    n = g.n
    colors = refined_colors(g)
    rows = g.rows
    image = [-1] * n
    used = [False] * n
    found = []

    def extend(v: int) -> None:
        if v == n:
            found.append(tuple(image))
            return
        for u in range(n):
            if used[u] or colors[u] != colors[v]:
                continue
            ok = True
            for w in range(v):
                if (rows[v] >> w & 1) != (rows[u] >> image[w] & 1):
                    ok = False
                    break
            if ok:
                image[v] = u
                used[u] = True
                extend(v + 1)
                used[u] = False
        image[v] = -1

    extend(0)
    found.sort()
    return found


def vertex_orbits(g: Graph, auts) -> tuple[int, ...]:
    """Bit mask of each vertex's orbit: its images under every automorphism in ``auts``."""
    return tuple(sum({1 << a[v] for a in auts}) for v in range(g.n))


def orbit_least_masks(g: Graph, auts) -> list[int]:
    """The least vertex mask of each orbit of the group ``auts`` on vertex masks, ascending."""
    bit_images = [[1 << v for v in a] for a in auts]
    covered = bytearray(1 << g.n)
    least = []
    for mask in range(1 << g.n):
        if covered[mask]:
            continue
        least.append(mask)
        members = [v for v in range(g.n) if mask >> v & 1]
        for images in bit_images:
            covered[sum(images[v] for v in members)] = 1
    return least
