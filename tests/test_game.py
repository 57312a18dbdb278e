"""Core game mechanics: strategies, verification, search, lifts.

The reference oracle below replays the game with plain Python loops and no
shared code with the vectorized verifier — any disagreement means one of
them misreads the conventions.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hatlab.game as game_module
from hatlab import (
    InfeasibleError,
    ParameterError,
    ResidueSet,
    SearchOutcome,
    SolvableSet,
    Strategy,
    assemble_windmill_strategy,
    build_graph,
    complete_sum_strategy,
    correct_guess_counts,
    custom_graph,
    max_solvable_set_search,
    minimum_vertex_cover_size,
    product_certificate_parity,
    read_assignment_set,
    read_strategy_file,
    search_strategy,
    solvable_interval_set,
    strategy_guesses,
    subgraph_lift,
    sum_target_strategy,
    verify_strategy,
    vertex_cover_bound,
    write_assignment_set,
    write_strategy_file,
)


# --- reference oracle (kept deliberately dumb) -----------------------------


def oracle_guesses(g, q, tables, assignment):
    """Replay the table convention by hand: ascending neighbors, the
    smallest neighbor is the least significant base-q digit."""
    out = []
    for v in range(g.n_vertices):
        neighbors = sorted(u for u in range(g.n_vertices) if u in g.adjacency[v])
        idx = 0
        for rank, u in enumerate(neighbors):
            idx += assignment[u] * q**rank
        out.append(int(tables[v][idx]))
    return tuple(out)


def oracle_verify(g, q, tables, restriction=None):
    """Returns (wins, first_losing_assignment_or_None, n_losses)."""
    space = (sorted(restriction) if restriction is not None
             else itertools.product(range(q), repeat=g.n_vertices))
    first = None
    losses = 0
    for assignment in space:
        guesses = oracle_guesses(g, q, tables, assignment)
        if not any(gu == c for gu, c in zip(guesses, assignment)):
            losses += 1
            if first is None:
                first = tuple(assignment)
    return losses == 0, first, losses


def random_tables(g, q, rng):
    return [[rng.randrange(q) for _ in range(q ** g.degree(v))]
            for v in range(g.n_vertices)]


# --- graphs ----------------------------------------------------------------


def test_build_graph_families():
    k5 = build_graph("complete", 5)
    assert k5.n_vertices == 5
    assert len(k5.edges) == 10

    b = build_graph("complete_bipartite", 2, 3)
    assert b.n_vertices == 5
    assert len(b.edges) == 6
    assert b.adjacency[0] == (2, 3, 4)

    w = build_graph("windmill", 3, 2)
    assert w.n_vertices == 5
    # blades {1,2} and {3,4}, all joined to the axle 0
    assert w.adjacency[0] == (1, 2, 3, 4)
    assert w.adjacency[1] == (0, 2) and w.adjacency[3] == (0, 4)

    book = build_graph("book", 2, 3)
    assert book.n_vertices == 5
    assert len(book.edges) == 1 + 2 * 3


def test_build_graph_rejects_bad_params():
    with pytest.raises(ParameterError):
        build_graph("complete", 0)
    with pytest.raises(ParameterError):
        build_graph("windmill", 1, 2)
    with pytest.raises(ParameterError):
        build_graph("nonsense", 3)
    with pytest.raises(ParameterError):
        custom_graph(2, [(0, 2)])
    with pytest.raises(ParameterError):
        custom_graph(2, [(1, 1)])
    with pytest.raises(ParameterError):
        custom_graph(-3, [])


@pytest.mark.parametrize("family,params", [
    ("complete", (6,)), ("complete_bipartite", (3, 4)), ("book", (3, 2)),
    ("book", (1, 4)), ("windmill", (4, 3)), ("windmill", (2, 5)),
])
def test_graph_caps_count_edges_exactly(monkeypatch, family, params):
    g = build_graph(family, *params)
    monkeypatch.setattr(game_module, "MAX_EDGES", len(g.edges))
    monkeypatch.setattr(game_module, "MAX_VERTICES", g.n_vertices)
    assert build_graph(family, *params) == g
    monkeypatch.setattr(game_module, "MAX_EDGES", len(g.edges) - 1)
    with pytest.raises(InfeasibleError):
        build_graph(family, *params)
    monkeypatch.setattr(game_module, "MAX_EDGES", len(g.edges))
    monkeypatch.setattr(game_module, "MAX_VERTICES", g.n_vertices - 1)
    with pytest.raises(InfeasibleError):
        build_graph(family, *params)


def test_oversized_graphs_are_refused():
    for family, params in (("complete", (10**6,)), ("book", (2, 10**6)),
                           ("windmill", (3, 10**6))):
        with pytest.raises(InfeasibleError):
            build_graph(family, *params)
    with pytest.raises(InfeasibleError):
        custom_graph(10**9, [])


# --- verification conventions ----------------------------------------------


def test_sum_strategy_exactly_one_correct():
    for n in range(1, 6):
        g = build_graph("complete", n)
        s = complete_sum_strategy(n, n)
        report = verify_strategy(g, n, s)
        assert report.wins and report.assignments_checked == n**n
        counts = correct_guess_counts(g, n, s)
        assert set(counts.tolist()) == {1}


def test_counterexample_is_lexicographically_least():
    # all-zero guesses on K_2 lose exactly on assignments with no zeros
    g = build_graph("complete", 2)
    s = Strategy.from_lists(3, [[0, 0, 0], [0, 0, 0]])
    report = verify_strategy(g, 3, s)
    assert not report.wins
    assert report.counterexample == (1, 1)
    # position of (1,1) in lex order is 1*3+1 = 4, so 5 assignments touched
    assert report.assignments_checked == 5


def test_assignments_checked_independent_of_threads():
    g = build_graph("complete", 3)
    s = Strategy.from_lists(4, [[0] * 16] * 3)
    reports = [verify_strategy(g, 4, s, threads=t) for t in (1, 2, 4)]
    assert len({(r.wins, r.counterexample, r.assignments_checked) for r in reports}) == 1


def test_verify_rejects_malformed_strategies():
    g = build_graph("complete", 2)
    with pytest.raises(ParameterError):
        verify_strategy(g, 3, Strategy.from_lists(2, [[0, 0], [0, 0]]))
    with pytest.raises(ParameterError):
        verify_strategy(g, 2, Strategy.from_lists(2, [[0, 0, 0], [0, 0]]))
    with pytest.raises(ParameterError):
        verify_strategy(g, 2, Strategy.from_lists(2, [[0, 2], [0, 0]]))


def test_verify_budget_refusal():
    g = build_graph("complete", 5)
    s = complete_sum_strategy(5, 5)
    with pytest.raises(InfeasibleError) as exc:
        verify_strategy(g, 5, s, budget=100)
    assert exc.value.required == 5**5


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_matches_oracle_on_random_strategies(data):
    family = data.draw(st.sampled_from(["complete", "complete_bipartite", "windmill", "path"]))
    if family == "complete":
        g = build_graph("complete", data.draw(st.integers(1, 4)))
    elif family == "complete_bipartite":
        g = build_graph("complete_bipartite", data.draw(st.integers(1, 2)),
                        data.draw(st.integers(1, 3)))
    elif family == "windmill":
        g = build_graph("windmill", 2, data.draw(st.integers(1, 3)))
    else:
        n = data.draw(st.integers(2, 4))
        g = custom_graph(n, [(i, i + 1) for i in range(n - 1)])
    q = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**31))
    tables = random_tables(g, q, random.Random(seed))

    want_wins, want_first, _ = oracle_verify(g, q, tables)
    report = verify_strategy(g, q, Strategy.from_lists(q, tables))
    assert report.wins == want_wins
    assert report.counterexample == want_first


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_restricted_verify_matches_oracle(data):
    g = build_graph("complete", data.draw(st.integers(2, 3)))
    q = data.draw(st.integers(2, 3))
    rng = random.Random(data.draw(st.integers(0, 2**31)))
    tables = random_tables(g, q, rng)
    everything = list(itertools.product(range(q), repeat=g.n_vertices))
    restriction = frozenset(a for a in everything if rng.random() < 0.5)
    if not restriction:
        restriction = frozenset({everything[0]})

    want_wins, want_first, _ = oracle_verify(g, q, tables, restriction)
    report = verify_strategy(g, q, Strategy.from_lists(q, tables),
                             restriction=restriction)
    assert report.wins == want_wins
    assert report.counterexample == want_first
    assert report.assignments_checked <= len(restriction)


def test_strategy_guesses_matches_oracle():
    g = build_graph("complete_bipartite", 2, 2)
    rng = random.Random(7)
    tables = random_tables(g, 3, rng)
    s = Strategy.from_lists(3, tables)
    for assignment in itertools.product(range(3), repeat=4):
        assert strategy_guesses(g, 3, s, assignment) == \
            oracle_guesses(g, 3, tables, assignment)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_table_cells_match_strategy_guesses(data):
    n = data.draw(st.integers(0, 5))
    pairs = list(itertools.combinations(range(n), 2))
    g = custom_graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    q = data.draw(st.integers(1, 4))
    s = Strategy.from_lists(q, random_tables(g, q, random.Random(data.draw(st.integers(0, 2**31)))))
    rows = np.array(list(itertools.product(range(q), repeat=n)), dtype=np.int64).reshape(q**n, n)
    cells = game_module._table_cells(g, q, rows)
    assert cells.shape == (q**n, n) and cells.dtype == np.int64
    for row, cell in zip(rows, cells):
        got = tuple(int(s.tables[v][cell[v]]) for v in range(n))
        assert got == strategy_guesses(g, q, s, tuple(row.tolist()))


# --- broadcast kernel against the scalar path -------------------------------
#
# DEFAULT_CHUNK is shrunk so that tiny spaces split into many chunks; the
# expected values come from strategy_guesses, one assignment at a time.


def scalar_scan(g, q, s, space=None):
    """(counterexample, assignments_checked) of the scan, from strategy_guesses."""
    space = sorted(space) if space is not None else \
        itertools.product(range(q), repeat=g.n_vertices)
    checked = 0
    for checked, a in enumerate(space, 1):
        if not any(x == c for x, c in zip(strategy_guesses(g, q, s, a), a)):
            return tuple(a), checked
    return None, checked


def scalar_counts(g, q, s, space):
    return [sum(x == c for x, c in zip(strategy_guesses(g, q, s, a), a)) for a in space]


def planted_losses(n, targets):
    """The K_n sum strategy (q=n, exactly one correct guesser everywhere),
    with the one correct guess at each target switched to a wrong color."""
    tables = complete_sum_strategy(n, n).table_lists()
    for target in targets:
        v = sum(target) % n
        others = target[:v] + target[v + 1:]
        idx = sum(c * n**j for j, c in enumerate(others))
        tables[v][idx] = (target[v] + 1) % n
    return Strategy.from_lists(n, tables)


def test_kernel_chunking_splits_leading_coordinates(monkeypatch):
    monkeypatch.setattr(game_module, "DEFAULT_CHUNK", 16)
    assert game_module._leading_axes(4, 4) == 2   # 16 chunks of 4^2 cells
    assert game_module._leading_axes(3, 3) == 1   # 3 chunks of 3^2 cells
    assert game_module._leading_axes(2, 3) == 0   # one chunk
    assert game_module._leading_axes(5, 0) == 0


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("chunk", [16, 64, 10**6])
def test_planted_losses_at_chunk_boundaries(monkeypatch, chunk, threads):
    monkeypatch.setattr(game_module, "DEFAULT_CHUNK", chunk)
    n = q = 4
    g = build_graph("complete", n)
    cells = q ** (n - game_module._leading_axes(q, n))
    space = list(itertools.product(range(q), repeat=n))
    positions = {0, len(space) - 1}
    for boundary in range(cells, len(space), cells):
        positions |= {boundary - 1, boundary, boundary + 1}
    for pos in sorted(positions & set(range(len(space)))):
        s = planted_losses(n, [space[pos]])
        assert scalar_scan(g, q, s) == (space[pos], pos + 1)
        report = verify_strategy(g, q, s, threads=threads)
        assert (report.wins, report.counterexample, report.assignments_checked) == \
            (False, space[pos], pos + 1)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_least_of_two_planted_losses_wins_the_race(monkeypatch, threads):
    # the later loss sits in an early-finishing chunk; the report still names
    # the earlier one
    monkeypatch.setattr(game_module, "DEFAULT_CHUNK", 4)
    g = build_graph("complete", 4)
    first, second = (3, 3, 2, 1), (0, 1, 2, 0)
    s = planted_losses(4, [first, second])
    want = scalar_scan(g, 4, s)
    assert want[0] == second
    report = verify_strategy(g, 4, s, threads=threads)
    assert (report.counterexample, report.assignments_checked) == want


def random_graph(data, max_n):
    n = data.draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return custom_graph(n, edges)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_matches_scalar_scan_on_random_graphs(data):
    g = random_graph(data, 5)
    q = data.draw(st.integers(1, 3))
    tables = random_tables(g, q, random.Random(data.draw(st.integers(0, 2**31))))
    if data.draw(st.booleans()):  # mostly-losing tables make early losses
        tables = [[0] * len(t) for t in tables]
    s = Strategy.from_lists(q, tables)
    want_cex, want_checked = scalar_scan(g, q, s)
    space = list(itertools.product(range(q), repeat=g.n_vertices))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(game_module, "DEFAULT_CHUNK", data.draw(st.sampled_from([1, 2, 5, 10**6])))
        for threads in (1, 2, 4):
            report = verify_strategy(g, q, s, threads=threads)
            assert report.counterexample == want_cex
            assert report.wins == (want_cex is None)
            assert report.assignments_checked == want_checked
        assert correct_guess_counts(g, q, s).tolist() == scalar_counts(g, q, s, space)

    rng = random.Random(data.draw(st.integers(0, 2**31)))
    subset = [a for a in space if rng.random() < 0.4]
    report = verify_strategy(g, q, s, restriction=subset)
    want_cex, want_checked = scalar_scan(g, q, s, subset)
    assert (report.counterexample, report.assignments_checked) == (want_cex, want_checked)
    assert correct_guess_counts(g, q, s, restriction=subset).tolist() == \
        scalar_counts(g, q, s, sorted(subset))


def direct_c_order(t, q, k):
    # the direct copy's bytes; .copy keeps the 0-d shape that ascontiguousarray widens to (1,)
    return t.reshape((q,) * k).T.copy(order="C")


def star(k):
    return custom_graph(k + 1, [(0, leaf) for leaf in range(1, k + 1)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_blocked_guess_tensors_match_the_direct_copy(data):
    # small blocks split even small tables into several partial blocks
    rows = data.draw(st.sampled_from([1, 7, 64, 1 << 13]))
    cols = data.draw(st.sampled_from([1, 3, 64]))
    q = data.draw(st.integers(1, 7))
    # at most 2^12 column blocks, counted with one high digit (the fewest
    # `_c_order_table` takes), so that small blocks meet only small tables
    k = data.draw(st.sampled_from([k for k in range(10) if q**k <= 1 << 20
                                   and -(-q ** (k - min(k, 1)) // cols) <= 1 << 12]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = star(k)  # vertex 0 sees all k leaves
    s = Strategy.from_lists(q, [rng.integers(0, q, q**k)] + [rng.integers(0, q, q)] * k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(game_module, "_BLOCK_ROWS", rows)
        mp.setattr(game_module, "_BLOCK_COLS", cols)
        axle = game_module._guess_tensors(g, s)[0]
    want = direct_c_order(s.tables[0], q, k)
    assert axle.flags.c_contiguous and axle.shape == want.shape and axle.dtype == want.dtype
    assert axle.tobytes() == want.tobytes()
    for _ in range(20):
        a = tuple(int(c) for c in rng.integers(0, q, k + 1))
        assert axle[a[1:]] == strategy_guesses(g, q, s, a)[0]


def test_blocked_guess_tensor_of_the_w43_axle():
    g = build_graph("windmill", 4, 3)
    s = assemble_windmill_strategy(product_certificate_parity(4, 3))
    axle = s.tables[0]
    assert g.degree(0) == 9
    assert game_module._guess_tensors(g, s)[0].tobytes() == direct_c_order(axle, 6, 9).tobytes()


@pytest.mark.parametrize("counts", [False, True])
def test_budget_refusal_comes_before_the_guess_tensors(monkeypatch, counts):
    def no_tensors(g, s):
        raise AssertionError("guess tensors built for a refused sweep")

    monkeypatch.setattr(game_module, "_guess_tensors", no_tensors)
    g, q = build_graph("complete", 5), 5
    check = correct_guess_counts if counts else verify_strategy
    with pytest.raises(InfeasibleError) as exc:
        check(g, q, complete_sum_strategy(5, q), budget=100)
    assert exc.value.required == q**5


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_restricted_verify_sorts_members_keeping_duplicates(data):
    g = random_graph(data, 4)
    q = data.draw(st.integers(1, 3))
    tables = random_tables(g, q, random.Random(data.draw(st.integers(0, 2**31))))
    if data.draw(st.booleans()):
        tables = [[0] * len(t) for t in tables]
    s = Strategy.from_lists(q, tables)
    space = list(itertools.product(range(q), repeat=g.n_vertices))
    members = data.draw(st.lists(st.sampled_from(space), max_size=30))
    in_order = sorted(members)
    assert verify_strategy(g, q, s, restriction=members) == \
        verify_strategy(g, q, s, restriction=in_order)
    report = verify_strategy(g, q, s, restriction=members)
    if members:  # duplicates count once per copy, as the scalar scan counts them
        assert (report.counterexample, report.assignments_checked) == \
            scalar_scan(g, q, s, members)
    assert correct_guess_counts(g, q, s, restriction=members).tolist() == \
        scalar_counts(g, q, s, in_order)


def test_restriction_colors_past_int64_are_parameter_errors():
    g = build_graph("complete", 2)
    s = complete_sum_strategy(2, 2)
    for bad in [(0, 2**64), (-(2**70), 0), (0, 2), (-1, 0)]:
        with pytest.raises(ParameterError):
            verify_strategy(g, 2, s, restriction=[(0, 0), bad])


@pytest.mark.parametrize("chunk", [1, 3, 10**6])
def test_kernel_with_an_isolated_vertex(monkeypatch, chunk):
    monkeypatch.setattr(game_module, "DEFAULT_CHUNK", chunk)
    g = custom_graph(4, [(0, 1), (1, 3)])  # vertex 2 sees nobody
    assert g.degree(2) == 0
    space = list(itertools.product(range(3), repeat=4))
    for seed in range(20):
        tables = random_tables(g, 3, random.Random(seed))
        s = Strategy.from_lists(3, tables)
        report = verify_strategy(g, 3, s, threads=2)
        assert (report.counterexample, report.assignments_checked) == scalar_scan(g, 3, s)
        assert correct_guess_counts(g, 3, s).tolist() == scalar_counts(g, 3, s, space)
    # the isolated vertex guessing 1 wins exactly where c_2 = 1
    s = Strategy.from_lists(3, [[0] * 3, [0] * 9, [1], [0] * 3])
    assert correct_guess_counts(g, 3, s).tolist() == scalar_counts(g, 3, s, space)


def test_kernel_with_one_color():
    for n in range(1, 5):
        g = build_graph("complete", n)
        s = Strategy.from_lists(1, [[0]] * n)
        assert verify_strategy(g, 1, s) == verify_strategy(g, 1, s, restriction=[(0,) * n])
        report = verify_strategy(g, 1, s)
        assert (report.wins, report.counterexample, report.assignments_checked) == (True, None, 1)
        assert correct_guess_counts(g, 1, s).tolist() == [n]


def test_zero_vertex_graph():
    # one assignment, (), and nobody to guess it
    g = custom_graph(0, [])
    for q in (1, 2, 5):
        s = Strategy.from_lists(q, [])
        for report in (verify_strategy(g, q, s), verify_strategy(g, q, s, restriction=[()])):
            assert (report.wins, report.counterexample, report.assignments_checked) == \
                (False, (), 1)
        assert correct_guess_counts(g, q, s).tolist() == [0]
        assert correct_guess_counts(g, q, s, restriction=[()]).tolist() == [0]
    assert search_strategy(g, 2).proven_unwinnable


def test_kernel_refuses_more_than_64_axes():
    # numpy arrays have at most 64 axes: a degree-69 guess tensor, or a
    # 70-axis chunk of [1]^70, is infeasible rather than a numpy ValueError
    k70 = build_graph("complete", 70)
    s = Strategy.from_lists(1, [[0]] * 70)
    for call in (lambda: verify_strategy(k70, 1, s),
                 lambda: verify_strategy(k70, 1, s, restriction=[(0,) * 70]),
                 lambda: correct_guess_counts(k70, 1, s)):
        with pytest.raises(InfeasibleError):
            call()
    empty = custom_graph(70, [])
    for call in (lambda: verify_strategy(empty, 1, s),
                 lambda: correct_guess_counts(empty, 1, s)):
        with pytest.raises(InfeasibleError):
            call()
    # without a chunk, tensors over neighbor axes only still fit
    assert verify_strategy(empty, 1, s, restriction=[(0,) * 70]).wins


def test_verify_rejects_negative_guesses():
    g = build_graph("complete", 2)
    s = Strategy(2, (np.array([0, -1]), np.array([0, 0])))
    with pytest.raises(ParameterError):
        verify_strategy(g, 2, s)


# --- solvable sets ----------------------------------------------------------


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (3, 4)])
def test_interval_set_size_and_win(n, q):
    solvable, strat = solvable_interval_set(n, q)
    assert len(solvable) == n * q ** (n - 1)
    g = build_graph("complete", n)
    assert verify_strategy(g, q, strat, restriction=solvable.members).wins


def test_interval_set_loses_outside_itself():
    solvable, strat = solvable_interval_set(2, 3)
    g = build_graph("complete", 2)
    outside = frozenset(itertools.product(range(3), repeat=2)) - solvable.members
    report = verify_strategy(g, 3, strat, restriction=outside)
    assert not report.wins


def test_solvable_set_is_a_c_order_mask():
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 2] = mask[2, 1] = True
    a = SolvableSet(2, 3, mask)
    assert a.members == frozenset({(0, 2), (2, 1)}) and len(a) == 2
    assert a == SolvableSet(2, 3, mask.copy())
    assert a != SolvableSet(2, 3, mask.T.copy())
    assert a != SolvableSet(1, 9, mask.reshape(9))
    for bad in (mask.reshape(9), mask.astype(np.uint8), np.zeros((3, 4), dtype=bool)):
        with pytest.raises(ParameterError):
            SolvableSet(2, 3, bad)
    # the vectorised interval set against enumeration
    for n, q in ((1, 1), (2, 3), (3, 4)):
        got = solvable_interval_set(n, q)[0].members
        assert got == {x for x in itertools.product(range(q), repeat=n) if sum(x) % q < n}


def test_residue_set_is_a_mask_over_z_m():
    mask = np.zeros(8, dtype=bool)
    mask[[0, 5]] = True
    a = ResidueSet(8, mask)
    assert a.members == frozenset({0, 5}) and len(a) == 2
    assert a.translate(1).members == frozenset({1, 6})
    assert np.array_equal(a.translate(-5).mask, np.roll(mask, 3))
    with pytest.raises(AttributeError):
        a.members = frozenset()  # read-only: derived from the mask
    for bad in (mask[:7], np.zeros(9, dtype=bool), mask.astype(np.uint8),
                mask.reshape(2, 4), frozenset({0, 5})):
        with pytest.raises(ParameterError):
            ResidueSet(8, bad)
    with pytest.raises(ParameterError):
        ResidueSet(0, np.zeros(0, dtype=bool))


def test_max_solvable_set_search_small():
    assert max_solvable_set_search(2, 2) == 4
    assert max_solvable_set_search(2, 3) == 6
    with pytest.raises(InfeasibleError):
        max_solvable_set_search(3, 4)


def test_sum_target_strategy_splits_targets():
    # two players, q=5, targets {0, 3}: whoever owns the true total wins
    strat = sum_target_strategy(2, 5, [0, 3])
    g = build_graph("complete", 2)
    members = frozenset(a for a in itertools.product(range(5), repeat=2)
                        if sum(a) % 5 in (0, 3))
    assert verify_strategy(g, 5, strat, restriction=members).wins


# moduli on both sides of every unsigned dtype edge: 2 * modulus passes 255
# at 128, the modulus itself at 256, and 2 * modulus passes 65535 at 32768
DTYPE_EDGE_MODULI = [1, 2, 3, 127, 128, 129, 255, 256, 257, 32767, 32768, 32769]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_digit_sums_match_enumeration(data):
    q, m = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 4))
    values = data.draw(st.lists(st.integers(0, 10**6), min_size=q, max_size=q))
    modulus = data.draw(st.sampled_from(DTYPE_EDGE_MODULI))
    got = game_module._digit_sums(np.array(values), m, modulus)
    want = [sum(values[c] for c in combo) % modulus
            for combo in itertools.product(range(q), repeat=m)]
    assert got.dtype == np.min_scalar_type(2 * modulus)
    assert got.tolist() == want


def int64_digit_sums(q, m):
    """Every digit sum of [q]^m in C order, as int64, by np.indices."""
    return np.indices((q,) * m, dtype=np.int64).reshape(m, q**m).sum(axis=0)


def int64_sum_tables(m, q, targets):
    digit_sum = int64_digit_sums(q, m - 1)
    return [((t - digit_sum) % q).astype(np.min_scalar_type(q - 1)) for t in targets]


def same_arrays(got, want):
    return len(got) == len(want) and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("q", [*range(2, 10), 128, 129, 200])
def test_sum_target_tables_match_an_int64_reference(q):
    for m in (1, 2, 3):
        targets = [(5 * i + 3) % q for i in range(m)]
        assert same_arrays(sum_target_strategy(m, q, targets).tables,
                           int64_sum_tables(m, q, targets))


@pytest.mark.parametrize("n, q", [(1, 1), (1, 4), (2, 3), (3, 5), (4, 4), (2, 128), (2, 129),
                                  (2, 200), (2, 257)])
def test_solvable_interval_set_matches_an_int64_reference(n, q):
    solvable, strat = solvable_interval_set(n, q)
    want = (int64_digit_sums(q, n) % q < n).reshape((q,) * n)
    assert same_arrays([solvable.mask], [want])
    assert same_arrays(strat.tables, int64_sum_tables(n, q, range(n)))


def test_k8_sum_strategy_stays_within_32_mb():
    """The eight 8^7-entry uint8 tables take 16 MiB; building them through
    residues in uint8 keeps every temporary near their size."""
    tracemalloc.start()
    try:
        complete_sum_strategy(8, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# --- search -----------------------------------------------------------------


def chronological_search(g, q, budget):
    """Reference oracle: the chronological backtracking search that the
    clause-propagating `search_strategy` replaced.

    Assignments are scanned in lexicographic order; each uncovered assignment
    branches on which vertex is designated to guess it correctly (open
    vertices ascending), which pins one table cell.  A node is one pin.
    """
    n = g.n_vertices
    rows = list(itertools.product(range(q), repeat=n))
    cells = [[sum(a[u] * q**j for j, u in enumerate(g.adjacency[v])) for v in range(n)]
             for a in rows]
    partial = [[-1] * (q ** g.degree(v)) for v in range(n)]
    nodes = 0
    stack = []  # [assignment, open vertices, branches tried]
    a = 0
    while a < len(rows):
        for t, c, x in zip(partial, cells[a], rows[a]):
            if t[c] == x:  # a pinned cell already covers assignment a
                a += 1
                break
        else:
            stack.append([a, [v for v, (t, c) in enumerate(zip(partial, cells[a])) if t[c] == -1], 0])
            while stack:  # pin the top frame's next branch, popping exhausted frames
                frame = stack[-1]
                b, open_vertices, tried = frame
                if tried:
                    v = open_vertices[tried - 1]
                    partial[v][cells[b][v]] = -1
                if tried == len(open_vertices):
                    stack.pop()
                    continue
                nodes += 1
                if nodes > budget:
                    return SearchOutcome(None, False, nodes)
                v = open_vertices[tried]
                partial[v][cells[b][v]] = rows[b][v]
                frame[2] = tried + 1
                a = b + 1
                break
            else:
                return SearchOutcome(None, True, nodes)
    strat = Strategy.from_lists(q, [[max(x, 0) for x in t] for t in partial])
    assert verify_strategy(g, q, strat).wins
    return SearchOutcome(strat, False, nodes)


def test_search_finds_and_refutes():
    g = build_graph("complete", 2)
    found = search_strategy(g, 2)
    assert found.strategy is not None
    assert verify_strategy(g, 2, found.strategy).wins

    refuted = search_strategy(g, 3)
    assert refuted.strategy is None and refuted.proven_unwinnable

    tripped = search_strategy(build_graph("complete", 3), 3, budget=2)
    assert tripped.strategy is None and not tripped.proven_unwinnable


# Every tree on 2 to 5 vertices, one labelling each.
TREES = [
    (2, [(0, 1)]),
    (3, [(0, 1), (1, 2)]),
    (4, [(0, 1), (1, 2), (2, 3)]),
    (4, [(0, 1), (0, 2), (0, 3)]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    (5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
]


def test_search_agrees_with_known_numbers():
    # HG(K_n) = n: found at q = n, proven unwinnable at q = n + 1
    for n in (1, 2, 3, 4):
        g = build_graph("complete", n)
        assert search_strategy(g, n).strategy is not None
        assert search_strategy(g, n + 1).proven_unwinnable
    # trees have HG 2 (Butler et al. 2008)
    for n, edges in TREES:
        assert search_strategy(custom_graph(n, edges), 2).strategy is not None
        assert search_strategy(custom_graph(n, edges), 3).proven_unwinnable
    # C_4 wins at q=3 but not at q=4 (Szczechla 2017); so do the paw and the
    # diamond, which hold a triangle
    for label in ("C4", "paw", "diamond"):
        g = custom_graph(*PIN_GRAPHS[label])
        assert search_strategy(g, 3).strategy is not None
        assert search_strategy(g, 4).proven_unwinnable


# Pinned outcomes: (graph, q, budget, nodes_explored, proven_unwinnable,
# sha256 of the found tables' JSON or None).  SEARCH_PINS hold the reference
# oracle; any change to its assignment order, branch order or node count
# moves one of them.
PIN_GRAPHS = {
    "K2": (2, [(0, 1)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "K3": (3, [(0, 1), (0, 2), (1, 2)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "K13": (4, [(0, 1), (0, 2), (0, 3)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "paw": (4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "diamond": (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "K4": (4, list(itertools.combinations(range(4), 2))),
}
SEARCH_PINS = [
    ("K2", 2, 200000, 6, False, "c1b92cfd1182059c03f2934cec0ee71e1df9f08ff9f53dec0f3e468e62a0626c"),
    ("P3", 2, 200000, 8, False, "705732d641c107e146127180ab3935e57e5f4d0a2cc7f372826c8c15d24ffafb"),
    ("K3", 2, 200000, 10, False, "c3a936eb14deca8707f8cbbbaaab81df0d4fec430530dad783f98e91023fc7d3"),
    ("P4", 2, 200000, 10, False, "3593d103495e7f4d99c425dddfe8cf552b142b013c99744066389f13b17a8600"),
    ("K13", 2, 200000, 28, False, "7defc559c8074d6e0cede29ce58652e4bad0f807391bd0b24b902f68c34128c6"),
    ("C4", 2, 200000, 12, False, "365553666a8f811cc0f41607f7a225d7877c8c4eb403a3ae29e14c4f1d53a199"),
    ("paw", 2, 200000, 12, False, "255c149e4ae52297d4ebd6c016a422b084378fd0ccf046f6a8bbfc2cf5e3d645"),
    ("diamond", 2, 200000, 14, False,
     "255b7b4c1e89b3fa193583681a00ab41ac9d030e66b5840c33a513c8776c6d7c"),
    ("K4", 2, 200000, 18, False, "8341b9a2f0af1d0f188d1cc0c33c0be79897fb559ae3247c3c264c6a8154383c"),
    ("K2", 3, 200000, 16, True, None),
    ("P3", 3, 200000, 2116, True, None),
    ("K3", 3, 200000, 107793, False,
     "0937f4e205ecf8b787f92c7a71065df109e7418c34095b3b70bfad45e9766e63"),
    ("diamond", 3, 200000, 107872, False,
     "3a7a6257af5263d6e343e85eca90c4ad49b3d1dad76dd6fc7de7af7fc6d1e35b"),
    ("C4", 3, 5000, 5001, False, None),  # budget exhausted
]
# `search_strategy` on the same 14 cases, then the rest of the benchmark's
# nine searches (K2 q=2, K2 q=3, K3 q=3 and P3 q=3 are among the 14).
CLAUSE_SEARCH_PINS = [
    ("K2", 2, 200000, 0, False, "c1b92cfd1182059c03f2934cec0ee71e1df9f08ff9f53dec0f3e468e62a0626c"),
    ("P3", 2, 200000, 3, False, "c32547f5e9435c122952b6651eb68047909a4c56e15080f9e85a57077cbd78f7"),
    ("K3", 2, 200000, 7, False, "c1e9663d5aac63b3a3bda6db936c00d30e6d622fa9e0340e8bd4ff5cb8613fb4"),
    ("P4", 2, 200000, 6, False, "1b064c806646d7268c1623f0941f6cc51bd98dad4a0611b6d259bec500ec54b2"),
    ("K13", 2, 200000, 7, False, "dbbea96b54d8fa206f0b45d90326a66b59b5390deaa3404a3056c3a6775ad950"),
    ("C4", 2, 200000, 7, False, "bc0d0d73718348de91e333ef8d9a453958dcc0568544c76b488507eda6597b85"),
    ("paw", 2, 200000, 8, False, "9b4151b7860f6871133fee12de9713e9b989bf1dd74528a015def9d3f9a61458"),
    ("diamond", 2, 200000, 10, False,
     "2c547eb65948231cd0d2357d808d702a6bd55d5b6dbcd08c4dad74aa85ba965a"),
    ("K4", 2, 200000, 15, False, "3be9fc177b048166fbb2059e2f8a9c498c4f882672f824e417f4de98ad3e0468"),
    ("K2", 3, 200000, 0, True, None),
    ("P3", 3, 200000, 0, True, None),
    ("K3", 3, 200000, 24, False, "cbb3a538b122283561e24271fc32b9e29a214ae2463e86e2c21072961d89e7fc"),
    ("diamond", 3, 200000, 36, False,
     "8df424d0b10f938d105420eb0916391373740e462bac5e86b62e9ca0b471c515"),
    ("C4", 3, 5000, 5001, False, None),  # budget exhausted
    ("K3", 4, 200000, 0, True, None),
    ("K13", 3, 200000, 150, True, None),
    ("C4", 3, 200000, 5873, False, "bbd0b3eb4f0b01805e59c6c1a5a39484c9d1a041bc6ff9f6240f365f9ea43274"),
    ("C4", 4, 200000, 0, True, None),
    ("K4", 4, 200000, 304, False, "cdf5bc9b38c06da7342a99bdbe4bf5cd05bbb949259c5a44cd1923b26fe2a1f4"),
]


def pinned_outcome(search, label, q, budget):
    outcome = search(custom_graph(*PIN_GRAPHS[label]), q, budget=budget)
    tables = None if outcome.strategy is None else outcome.strategy.table_lists()
    got = None if tables is None else hashlib.sha256(json.dumps(tables).encode()).hexdigest()
    return outcome.nodes_explored, outcome.proven_unwinnable, got


@pytest.mark.parametrize("label, q, budget, nodes, proven, digest", SEARCH_PINS,
                         ids=[f"{p[0]}-q{p[1]}-b{p[2]}" for p in SEARCH_PINS])
def test_search_outcomes_are_pinned(label, q, budget, nodes, proven, digest):
    got = pinned_outcome(chronological_search, label, q, budget)
    assert got == (nodes, proven, digest)


@pytest.mark.parametrize("label, q, budget, nodes, proven, digest", CLAUSE_SEARCH_PINS,
                         ids=[f"{p[0]}-q{p[1]}-b{p[2]}" for p in CLAUSE_SEARCH_PINS])
def test_clause_search_outcomes_are_pinned(label, q, budget, nodes, proven, digest):
    assert pinned_outcome(search_strategy, label, q, budget) == (nodes, proven, digest)


def canonical_edges(n, edges):
    """The smallest sorted edge tuple over all relabellings of the n
    vertices: one key per isomorphism class."""
    return min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
               for p in itertools.permutations(range(n)))


# HG is a graph invariant, so the oracle runs once per isomorphism class, on
# its first labelling.  Within 110k nodes it decides every class except at
# n=4, q=3, where it decides 7 of the 11; the other 4 exhaust the budget.
ORACLE_BUDGET = 110_000
ORACLE_DECIDED = {(4, 3): 7}
GRAPH_CLASSES = (1, 1, 2, 4, 11)  # graphs on n vertices up to isomorphism


@pytest.mark.parametrize("q", (2, 3), ids=lambda q: f"q{q}")
@pytest.mark.parametrize("n", range(5), ids=lambda n: f"n{n}")
def test_search_verdicts_match_the_oracle(n, q):
    """Every labelled graph on n vertices: the clause search decides it and
    agrees with the oracle's verdict on its isomorphism class wherever the
    oracle decides that class within its budget; how many classes that is is
    pinned, so no comparison drops out unseen."""
    pairs = list(itertools.combinations(range(n), 2))
    verdicts = {}  # class -> the oracle's proven_unwinnable, None if undecided
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        edges = list(itertools.compress(pairs, chosen))
        g = custom_graph(n, edges)
        outcome = search_strategy(g, q, budget=200_000)
        assert outcome.strategy is not None or outcome.proven_unwinnable
        key = canonical_edges(n, edges)
        if key not in verdicts:
            reference = chronological_search(g, q, ORACLE_BUDGET)
            known = reference.strategy is not None or reference.proven_unwinnable
            verdicts[key] = reference.proven_unwinnable if known else None
        if verdicts[key] is not None:
            assert outcome.proven_unwinnable == verdicts[key], g.edges
    assert len(verdicts) == GRAPH_CLASSES[n]
    decided = sum(v is not None for v in verdicts.values())
    assert decided == ORACLE_DECIDED.get((n, q), len(verdicts))


@functools.cache
def found_strategy(label, q):
    return search_strategy(custom_graph(*PIN_GRAPHS[label]), q).strategy


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabelling_colours_on_an_independent_set_keeps_a_win(data):
    """The lemma behind the search's symmetry breaking: permute the colours
    of every vertex v in an independent set I (v guesses sigma_v of its old
    guess, its neighbours read v's colour through sigma_v^-1) and a winning
    strategy still wins."""
    label, q = data.draw(st.sampled_from([("K3", 3), ("C4", 3), ("paw", 3),
                                          ("diamond", 3), ("K4", 2), ("P4", 2)]))
    g, s = custom_graph(*PIN_GRAPHS[label]), found_strategy(label, q)
    independent = []
    for v in data.draw(st.lists(st.integers(0, g.n_vertices - 1), unique=True)):
        if not set(g.adjacency[v]) & set(independent):
            independent.append(v)
    sigma = {v: np.array(data.draw(st.permutations(range(q)))) for v in independent}
    tables = []
    for v, nbrs in enumerate(g.adjacency):
        context = np.arange(q ** len(nbrs))
        old = np.zeros_like(context)
        for j, u in enumerate(nbrs):
            digit = context // q**j % q
            old += (np.argsort(sigma[u])[digit] if u in sigma else digit) * q**j
        guess = s.tables[v][old]
        tables.append(sigma[v][guess] if v in sigma else guess)
    assert verify_strategy(g, q, Strategy.from_lists(q, tables)).wins


def test_search_leaves_the_recursion_limit_alone():
    before = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        assert search_strategy(build_graph("complete", 3), 3).strategy is not None
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


def test_search_refuses_games_past_the_assignment_cap():
    # the cap admits every search in the tests and the benchmark (at most 5^4)
    assert game_module.MAX_SEARCH_ASSIGNMENTS == 2**16
    # fixing every vertex's guess to 0 leaves the all-ones assignment lost
    assert search_strategy(custom_graph(16, []), 2, budget=10) == SearchOutcome(None, True, 0)
    with pytest.raises(InfeasibleError) as exc:
        search_strategy(custom_graph(17, []), 2, budget=10)
    assert exc.value.required == 2**17
    assert str(exc.value) == "2^17 assignments exceed the search cap 65536"


def test_refusals_name_huge_spaces_as_powers():
    """Past Python's 4300-digit limit the space is reported as the text q^n,
    which the message and a JSON report can both hold."""
    q, n = 10**12, 447
    edgeless = custom_graph(n, [])
    zeros = Strategy.from_lists(q, [[0]] * n)
    refusals = [
        lambda: search_strategy(build_graph("complete", n), q),
        lambda: verify_strategy(edgeless, q, zeros),
        lambda: correct_guess_counts(edgeless, q, zeros),
    ]
    for refuse in refusals:
        with pytest.raises(InfeasibleError) as exc:
            refuse()
        assert exc.value.required == f"{q}^{n}"
        assert str(exc.value).startswith(f"{q}^{n} assignments exceed")
    with pytest.raises(InfeasibleError) as exc:
        max_solvable_set_search(n, q)
    assert exc.value.required == f"{q}^({n}*{q}^{n - 1})"


# --- lifting ----------------------------------------------------------------


def test_subgraph_lift_keeps_winning():
    h = build_graph("complete", 2)
    s = complete_sum_strategy(2, 2)
    g = build_graph("complete", 4)
    lifted = subgraph_lift(h, s, {0: 1, 1: 3}, g, 2)
    assert verify_strategy(g, 2, lifted).wins


def test_subgraph_lift_validates_embedding():
    h = build_graph("complete", 2)
    s = complete_sum_strategy(2, 2)
    g = build_graph("complete_bipartite", 2, 2)
    # 0 and 1 are both left vertices: not an edge, embedding invalid
    with pytest.raises(ParameterError):
        subgraph_lift(h, s, {0: 0, 1: 1}, g, 2)
    with pytest.raises(ParameterError):
        subgraph_lift(h, s, {0: 0, 1: 0}, g, 2)


# --- vertex covers ----------------------------------------------------------


def test_minimum_vertex_cover_exact():
    assert minimum_vertex_cover_size(build_graph("complete", 4)) == 3
    assert minimum_vertex_cover_size(build_graph("complete_bipartite", 2, 5)) == 2
    assert minimum_vertex_cover_size(build_graph("windmill", 3, 3)) == 4
    # book(d, n): the d-clique spine covers everything
    assert minimum_vertex_cover_size(build_graph("book", 3, 4)) == 3


def test_vertex_cover_bound_books():
    expected = {1: 2, 2: 1 + 1 + 4, 3: 1 + 1 + 4 + 27}
    for d, want in expected.items():
        for n in range(1, 7):
            assert vertex_cover_bound(build_graph("book", d, n)) == want


# --- files ------------------------------------------------------------------


def test_strategy_file_round_trip(tmp_path):
    g = build_graph("windmill", 3, 2)
    _, strat = solvable_interval_set(2, 4)  # wrong shape on purpose below
    s = complete_sum_strategy(3, 3)
    g3 = build_graph("complete", 3)
    path = tmp_path / "s.json"
    write_strategy_file(str(path), g3, s)
    got_g, got_q, got_s = read_strategy_file(str(path))
    assert (got_g.family, got_g.params, got_q) == ("complete", (3,), 3)
    assert got_s.table_lists() == s.table_lists()

    bad = tmp_path / "bad.json"
    bad.write_text('{"graph": {"family": "complete", "params": [3]}, "q": 3, "tables": [[0]]}')
    with pytest.raises(ParameterError):
        read_strategy_file(str(bad))


def test_assignment_set_round_trip(tmp_path):
    members = [(0, 1), (2, 2), (1, 0)]
    path = tmp_path / "a.json"
    write_assignment_set(str(path), 3, 2, members)
    q, n, got = read_assignment_set(str(path))
    assert (q, n) == (3, 2)
    assert got == tuple(sorted(members))
