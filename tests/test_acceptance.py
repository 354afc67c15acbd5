"""Acceptance battery: one test per criterion, each at its exact tolerance.

Every test prints a single pass line (visible with ``pytest -s`` or in the
captured output section); a failed assertion marks the criterion failed.
"""

import itertools
import json
import math
import random

from sympy import divisors, mobius

from raagcert import (
    SignedAut,
    characteristic_closures,
    complement,
    complete_graph,
    complete_multipartite_graph,
    compose,
    dominates,
    edgeless_graph,
    eigenvalue_witness_report,
    enumerate_lyndon,
    from_graph6,
    has_eigenvalue_one,
    induced,
    induced_matrix,
    is_characteristic_vertex_set,
    is_transvection_free_graph,
    mba_parameters,
    petersen_graph,
)
from raagcert.cli import main as cli_main
from raagcert.isomorphism import automorphisms, canonical_form

from conftest import classes, random_graph
from families import srg_without_twins
from graph_oracle import srg_parameters
from matrix_oracle import cyclic_shift, det_identity_minus
from trace_oracle import closed_form_lyndon


def _report(line: str) -> None:
    print(line)


def test_criterion_1_exhaustive_seven_vertex_sweep(tmp_path):
    out = tmp_path / "sweep.jsonl"
    code = cli_main(["enumerate", "--max-n", "7", "--certify", "--out", str(out)])
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    summary = lines[-1]["summary"]
    rows = lines[:-1]

    assert code == 0, "exit status must signal zero UNDECIDED verdicts"
    assert summary["classes"] == 1252
    assert summary.get("UNDECIDED", 0) == 0
    assert summary["NOT_RINF_ABELIAN"] == 7
    assert summary["RINF"] == 1245
    complete_rows = [r for r in rows if r["verdict"] == "NOT_RINF_ABELIAN"]
    assert sorted(from_graph6(r["graph6"]).n for r in complete_rows) == list(range(1, 8))
    assert all(from_graph6(r["graph6"]).is_complete() for r in complete_rows)
    assert all(r["verdict"] == "RINF" for r in rows if r not in complete_rows)
    _report("criterion 1 (seven-vertex sweep: 1245 RINF, 7 abelian, 0 undecided): PASS")


def test_criterion_2_lyndon_closed_forms():
    pool = [g for n in range(1, 6) for g in classes(n)]
    assert len(pool) == 52
    rng = random.Random(0xC0FFEE)
    pool += [random_graph(rng, rng.choice((6, 7))) for _ in range(200)]
    for g in pool:
        for length in (1, 2, 3):
            assert closed_form_lyndon(g, length) == enumerate_lyndon(g, length)
    _report("criterion 2 (closed-form Lyndon traces, lengths 1-3, 252 graphs): PASS")


def test_criterion_3_rank_two_law():
    for n in range(1, 8):
        for g in classes(n):
            assert len(enumerate_lyndon(g, 2)) == n * (n - 1) // 2 - g.edge_count
    _report("criterion 3 (degree-2 rank equals non-edge count, all classes to 7): PASS")


def test_criterion_4_free_lie_ranks():
    def necklaces(alphabet, length):
        return sum(int(mobius(d)) * alphabet ** (length // d) for d in divisors(length)) // length

    for n in (2, 3):
        g = edgeless_graph(n)
        for length in range(1, 6):
            assert len(enumerate_lyndon(g, length)) == necklaces(n, length)
    _report("criterion 4 (free-group ranks match the necklace oracle): PASS")


def test_criterion_5_signed_automorphism_witnesses():
    scanned = 0
    for n in range(1, 7):
        for g in classes(n):
            if g.is_complete():
                continue
            report = eigenvalue_witness_report(g)
            assert report.failures == (), f"witness missing on {g!r}"
            assert sorted(report.level_counts) == [1, 2, 3]
            assert sum(report.level_counts.values()) == report.total
            scanned += report.total
    # complement check: inverting every generator of a complete graph fixes
    # nothing on the abelianization
    for n in range(1, 5):
        g = complete_graph(n)
        flip = SignedAut(tuple(range(n)), (-1,) * n)
        assert det_identity_minus(induced_matrix(g, flip, 1)) == 2**n
    _report(
        f"criterion 5 (eigenvalue witnesses for {scanned} signed automorphisms, "
        "levels 1-3, zero failures): PASS"
    )


def test_criterion_6_signed_cycle_determinants():
    rng = random.Random(20260811)
    for _ in range(1000):
        k = rng.randint(1, 12)
        signs = [rng.choice((-1, 1)) for _ in range(k)]
        shift = cyclic_shift(signs)
        assert det_identity_minus(shift) == 1 - math.prod(signs)
        assert has_eigenvalue_one(shift) == (math.prod(signs) == 1)
    _report("criterion 6 (cyclic-shift determinant identity, 1000 random sign vectors): PASS")


def test_criterion_7_srg_trichotomy():
    # Paley(13), Clebsch, Shrikhande and the rook graphs K_m box K_m, m = 3, 4, 5,
    # have lambda < k-1 and mu < k
    cases = [petersen_graph()] + srg_without_twins()
    cases += [complete_multipartite_graph([m] * p) for m in (2, 3) for p in (2, 3)]
    found = 0
    for n in range(2, 8):
        for g in classes(n):
            if srg_parameters(g) is not None:
                cases.append(g)
                found += 1
    assert found > 0
    for g in cases:
        params = srg_parameters(g)
        assert params is not None
        n, k, lam, mu = params
        assert (n - k - 1) * mu == k * (k - lam - 1)
        branches = [lam == k - 1, mu == k and lam != k - 1,
                    lam < k - 1 and mu < k]
        assert sum(branches) == 1, "exactly one trichotomy branch"
        if branches[0]:
            comps = g.components()
            assert len(comps) == n // (k + 1)
            assert all(induced(g, c).is_complete() for c in comps)
        elif branches[1]:
            assert canonical_form(g) == canonical_form(
                complete_multipartite_graph([n - k] * (n // (n - k))))
        else:
            assert is_transvection_free_graph(g)
    _report(f"criterion 7 (strongly regular trichotomy over {len(cases)} graphs): PASS")


def test_criterion_8_mba_constraints():
    found = set()
    for n in range(1, 8):
        for g in classes(n):
            params = mba_parameters(g)
            if params is None:
                continue
            n_, k, d = params
            found.add(params)
            assert n_ >= 5
            assert n_ < 2 * k
            assert k + d >= n_ + 1
            assert d * (2 * k - n_) <= n_ * (2 * k - n_) - k
            edges = g.edge_count
            assert n_ * (n_ - 1) // 2 - k * (n_ - d - 1) <= edges
            assert 2 * edges <= n_ * (d - 1) + k
            if k == (n_ + 2) // 2:  # smallest admissible count of max-degree vertices
                assert n_ % 2 == 0
    for expected in ((5, 4, 3), (6, 4, 4), (7, 5, 4)):
        assert expected in found
    _report(f"criterion 8 (max-by-abelian constraint battery, {len(found)} parameter triples): PASS")


def test_criterion_9_characteristic_set_properties():
    rng = random.Random(9157)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 7))
        v = rng.randrange(g.n)
        s = characteristic_closures(g)[v]
        assert is_characteristic_vertex_set(g, s)
        for perm in automorphisms(g):
            assert {perm[u] for u in s} == set(s)
        for u in s:
            for w in range(g.n):
                if w != u and dominates(g, u, w):
                    assert w in s

    transvection_free = [
        g for n in range(2, 7) for g in classes(n) if is_transvection_free_graph(g)
    ]
    assert transvection_free, "some transvection-free graphs exist below 7 vertices"
    for g in transvection_free:
        assert is_transvection_free_graph(complement(g))
    for a, b in itertools.product(transvection_free, repeat=2):
        assert is_transvection_free_graph(compose(a, b, "disjoint_union"))
        assert is_transvection_free_graph(compose(a, b, "simplicial_join"))
    _report(
        "criterion 9 (500 characteristic closures; transvection-freeness closed "
        f"under complement, union and join over {len(transvection_free)} graphs): PASS"
    )
