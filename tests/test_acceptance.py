"""Acceptance gate: every contract criterion, one pass/fail line each.

Each test prints `[PASS] criterion NN ...` (visible with pytest -s; under
plain pytest the -v test line itself is the per-criterion line).  Results
are exact — no tolerances — and each criterion enforces its time limit.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from hatlab import (
    AxisPartition,
    HallViolator,
    PointSet,
    build_graph,
    canonicalize,
    certificate_blade_check,
    certificate_disjointness_check,
    certificate_random_loss_check,
    complete_sum_strategy,
    correct_guess_counts,
    coverability_sweep,
    coverable,
    coverable_bruteforce,
    cube_mask,
    cube_pair_overlap,
    cube_triple_two_intersection_size,
    assemble_windmill_strategy,
    difference_disjoint_family,
    four_cubes_two_intersection_sweep,
    is_difference_disjoint,
    k22_certificate_search,
    max_solvable_set_search,
    noncoverable_construction,
    numerically_coverable,
    parity_counting_check,
    parity_set_strategy,
    prism_cover_impossible,
    product_certificate_parity,
    product_certificate_residue,
    residue_counting_check,
    solvable_interval_set,
    square_two_intersection_minima,
    strategy_from_bipartite_partitions,
    subgraph_lift,
    three_cubes_min_two_intersection,
    two_intersection,
    verify_strategy,
    vertex_cover_bound,
)
from hatlab.cli import main
from hatlab.cover import is_valid_axis_partition


class Criterion:
    """Times a criterion body, prints its pass/fail line, enforces limits."""

    def __init__(self, number: int, title: str, limit_s: float):
        self.number = number
        self.title = title
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.limit_s
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {self.number:02d} "
              f"{self.title} ({elapsed:.2f}s, limit {self.limit_s:g}s)")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} overran its {self.limit_s:g}s limit "
                f"({elapsed:.2f}s)")
        return False


def test_criterion_01_complete_graph_baseline():
    with Criterion(1, "complete-graph sum strategies, exactly one correct", 1.0):
        for n in range(1, 6):
            g = build_graph("complete", n)
            s = complete_sum_strategy(n, n)
            report = verify_strategy(g, n, s)
            assert report.wins and report.assignments_checked == n**n
            assert set(correct_guess_counts(g, n, s).tolist()) == {1}


def test_criterion_02_coverability_examples():
    with Criterion(2, "[2]^2 coverable, [2]x[3] not, valid certificates", 1.0):
        square = PointSet.of(2, itertools.product(range(2), range(2)))
        part = coverable(square)
        assert isinstance(part, AxisPartition)
        assert is_valid_axis_partition(square, part)

        rect = PointSet.of(2, itertools.product(range(2), range(3)))
        violator = coverable(rect)
        assert isinstance(violator, HallViolator)
        assert not numerically_coverable(violator.subset)
        assert set(violator.subset.points) <= set(rect.points)


def test_criterion_03_plane_threshold_both_sides():
    with Criterion(3, "all 53130 5-sets in [5]^2 coverable, a 6-set is not", 10.0):
        sweep = coverability_sweep(2, "exhaustive")
        assert sweep.ok
        assert sweep.sets_checked == 53130 and sweep.set_size == 5
        six = noncoverable_construction(2)
        assert len(six.points) == 6
        assert isinstance(coverable(six), HallViolator)


def test_criterion_04_33_point_set():
    with Criterion(4, "3-d construction has 33 points and fails matching", 1.0):
        s = noncoverable_construction(3)
        assert len(s.points) == 33
        assert isinstance(coverable(s), HallViolator)


def test_criterion_05_matching_oracle_equivalence():
    with Criterion(5, "matching vs brute force on 10^4 random sets", 60.0):
        rng = random.Random(0)
        for _ in range(10**4):
            d = rng.randrange(1, 4)
            spread = rng.choice([2, 3, 4])
            size = rng.randrange(1, min(10, spread**d + 1))
            pts = set()
            while len(pts) < size:
                pts.add(tuple(rng.randrange(spread) for _ in range(d)))
            s = PointSet.of(d, pts)
            fast = isinstance(coverable(s), AxisPartition)
            assert fast == coverable_bruteforce(s)


def test_criterion_06_cube_sweeps():
    with Criterion(6, "grid-cube sweeps: 20 / no quadruple violations / prisms", 120.0):
        t0 = time.perf_counter()
        assert three_cubes_min_two_intersection() == 20
        assert time.perf_counter() - t0 < 5.0

        t0 = time.perf_counter()
        assert square_two_intersection_minima() == (4, 8, 12)
        assert time.perf_counter() - t0 < 1.0

        t0 = time.perf_counter()
        sweep = four_cubes_two_intersection_sweep()
        assert sweep.ok and sweep.quadruples == 64**4
        assert time.perf_counter() - t0 < 120.0

        t0 = time.perf_counter()
        assert prism_cover_impossible()
        assert time.perf_counter() - t0 < 120.0


def test_criterion_07_cube_closed_forms():
    with Criterion(7, "closed forms match enumeration on 10^4 triples", 5.0):
        rng = random.Random(0)
        for _ in range(10**4):
            pts = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(3)]
            masks = [cube_mask(p) for p in pts]
            for a, b in itertools.combinations(range(3), 2):
                d = sum(x != y for x, y in zip(pts[a], pts[b]))
                want = (masks[a] & masks[b]).bit_count()
                assert cube_pair_overlap(pts[a], pts[b]) == want == 3 ** (3 - d) * 2**d
            assert cube_triple_two_intersection_size(*pts) == \
                two_intersection(masks).bit_count()


def test_criterion_08_bipartite_lower_bounds():
    with Criterion(8, "K_{2,2} certificate wins 81, lift wins 729 on K_{3,3}", 60.0):
        p_parts, q_parts = k22_certificate_search()
        strat = strategy_from_bipartite_partitions(2, 3, [p_parts, q_parts])
        h = build_graph("complete_bipartite", 2, 2)
        rep = verify_strategy(h, 3, strat)
        assert rep.wins and rep.assignments_checked == 81

        g = build_graph("complete_bipartite", 3, 3)
        lifted = subgraph_lift(h, strat, {0: 0, 1: 1, 2: 3, 3: 4}, g, 3)
        rep = verify_strategy(g, 3, lifted)
        assert rep.wins and rep.assignments_checked == 729


def test_criterion_09_windmill_parity_family():
    with Criterion(9, "W_{3,2} wins all 1024; W_{4,3} wins all 6^10", 120.0):
        small = product_certificate_parity(3, 2)
        g = build_graph("windmill", 3, 2)
        rep = verify_strategy(g, 4, assemble_windmill_strategy(small))
        assert rep.wins and rep.assignments_checked == 1024

        big = product_certificate_parity(4, 3)
        g = build_graph("windmill", 4, 3)
        rep = verify_strategy(g, 6, assemble_windmill_strategy(big))
        assert rep.wins and rep.assignments_checked == 6**10


def test_criterion_10_windmill_residue_family():
    with Criterion(10, "residue certificates: exhaustive small, sampled W_{5,3}", 120.0):
        for d, n in ((2, 2), (3, 1)):
            cert = product_certificate_residue(d, n)
            g = build_graph("windmill", cert.k, cert.n)
            rep = verify_strategy(g, cert.q, assemble_windmill_strategy(cert))
            assert rep.wins and rep.assignments_checked == cert.q**g.n_vertices

        w53 = product_certificate_residue(2, 3)
        assert (w53.k, w53.n, w53.q) == (5, 3, 8)
        assert certificate_disjointness_check(w53)
        assert certificate_blade_check(w53)
        assert certificate_random_loss_check(w53, 10**6, seed=0) == 0


def test_criterion_11_interval_sets_and_max_search():
    with Criterion(11, "interval sets sized n*q^(n-1); exact maxima 4 and 6", 60.0):
        for n, q in ((2, 3), (2, 5), (3, 4)):
            solvable, strat = solvable_interval_set(n, q)
            assert len(solvable) == n * q ** (n - 1)
            g = build_graph("complete", n)
            assert verify_strategy(g, q, strat, restriction=solvable.members).wins
        assert max_solvable_set_search(2, 2) == 4 == 2 * 2
        assert max_solvable_set_search(2, 3) == 6 == 2 * 3


def test_criterion_12_parity_and_difference_families():
    with Criterion(12, "parity halves solvable; families d^n <= 4096 disjoint", 30.0):
        for k in (2, 3, 4):
            q = 2 * k - 2
            g = build_graph("complete", k - 1)
            for side in ("odd", "even"):
                solvable, strat = parity_set_strategy(k, side)
                assert len(solvable) == q ** (k - 1) // 2
                assert verify_strategy(g, q, strat,
                                       restriction=solvable.members).wins
        checked = 0
        for d in range(2, 4097):
            n = 1
            while d**n <= 4096:
                fam = difference_disjoint_family(d, n)
                assert is_difference_disjoint(fam.sets, fam.modulus)
                checked += 1
                n += 1
        assert checked > 4000


def test_criterion_13_counting_inequalities():
    with Criterion(13, "counting inequalities in exact arithmetic", 1.0):
        assert all(parity_counting_check(k) for k in range(2, 7))
        assert all(residue_counting_check(d, n)
                   for d in range(2, 6) for n in range(1, 6))


def test_criterion_14_vertex_cover_bound_books():
    with Criterion(14, "book-graph bound equals 1 + sum of i^i", 5.0):
        for d in (1, 2, 3):
            want = 1 + sum(i**i for i in range(1, d + 1))
            for n in range(1, 7):
                assert vertex_cover_bound(build_graph("book", d, n)) == want


def test_criterion_15_determinism(capsys):
    with Criterion(15, "same seed, any thread count: identical reports", 60.0):
        # library level: thread count must not affect any report field
        g = build_graph("windmill", 3, 2)
        strat = assemble_windmill_strategy(product_certificate_parity(3, 2))
        outcomes = {
            (r.wins, r.counterexample, r.assignments_checked)
            for r in (verify_strategy(g, 4, strat, threads=t) for t in (1, 2, 4, 8))
        }
        assert len(outcomes) == 1

        # seeded sweeps repeat exactly
        a = coverability_sweep(3, "random", trials=200, seed=7)
        b = coverability_sweep(3, "random", trials=200, seed=7)
        assert (a.sets_checked, a.failures) == (b.sets_checked, b.failures)
        cert = product_certificate_residue(2, 3)
        assert certificate_random_loss_check(cert, 10**4, seed=5) == \
            certificate_random_loss_check(cert, 10**4, seed=5)

        # CLI level: byte-identical reports modulo the elapsed_ms field
        def cli_reports(threads: str) -> list[bytes]:
            code = main(["lemma", "windmill", "-k", "3", "-n", "2",
                         "--threads", threads, "--seed", "0"])
            assert code == 0
            lines = capsys.readouterr().out.splitlines()
            stripped = []
            for line in lines:
                rec = json.loads(line)
                del rec["elapsed_ms"]
                stripped.append(json.dumps(rec, sort_keys=True).encode())
            return stripped

        assert cli_reports("1") == cli_reports("4")
