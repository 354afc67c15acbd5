"""Independent correctness oracles for the benchmark's outputs."""

from __future__ import annotations

from collections import Counter

from raagcert.graphs import Graph


def clique_counts(g: Graph) -> list[int]:
    """c[j] = number of j-vertex cliques, with c[0] = 1."""
    counts = [1] + [0] * g.n

    def grow(size: int, candidates: int) -> None:
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            counts[size + 1] += 1
            grow(size + 1, candidates & g.rows[v])

    grow(0, (1 << g.n) - 1)
    return counts


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def clique_polynomial_ranks(g: Graph, upto: int) -> list[int]:
    """Ranks phi_1..phi_upto of the graded lower-central pieces from the identity
    prod_k (1 - t^k)^phi_k = P(-t), P(t) = sum_j (#j-cliques) t^j.

    Writing P(-t) = prod_i (1 - r_i t), the clique counts are the elementary
    symmetric functions of the r_i; Newton's identities give the power sums p_m,
    and sum over k | m of k phi_k = p_m, which Moebius inversion solves.
    """
    e = clique_counts(g) + [0] * upto
    p = [0] * (upto + 1)
    for m in range(1, upto + 1):
        total = (-1) ** (m - 1) * m * e[m]
        for i in range(1, m):
            total += (-1) ** (i - 1) * e[i] * p[m - i]
        p[m] = total
    ranks = []
    for m in range(1, upto + 1):
        s = sum(_mobius(m // d) * p[d] for d in range(1, m + 1) if m % d == 0)
        if s % m:
            raise ArithmeticError(f"non-integral rank at length {m}")
        ranks.append(s // m)
    return ranks


def certificate_shape(node: dict) -> tuple[Counter[str], int]:
    """Rule counts over every node of a serialized certificate, and its depth."""
    rules: Counter[str] = Counter()
    depth = 0
    stack = [(node, 1)]
    while stack:
        current, level = stack.pop()
        rules[current["rule"]] += 1
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in current["children"])
    return rules, depth
