"""Coverability of finite point sets: matching vs. the exponential oracle."""

from __future__ import annotations

import collections
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hatlab.cover as cover_module
from hatlab import (
    AxisPartition,
    HallViolator,
    InfeasibleError,
    ParameterError,
    PointSet,
    canonicalize,
    coverability_sweep,
    coverable,
    coverable_bruteforce,
    loomis_whitney_check,
    noncoverable_construction,
    numerically_coverable,
    projection,
    read_point_set,
    write_point_set,
)
from hatlab import cover
from hatlab.cover import _coverable_mask, is_valid_axis_partition


def grid(*ranges):
    return PointSet.of(len(ranges), itertools.product(*(range(r) for r in ranges)))


def random_point_set(rng, d, size, spread=4):
    size = min(size, spread**d)  # can't have more distinct points than cells
    pts = set()
    while len(pts) < size:
        pts.add(tuple(rng.randrange(spread) for _ in range(d)))
    return PointSet.of(d, pts)


def coverable_d2(points) -> bool:
    """Closed form for d = 2, independent of matching and of the kernel.

    Point (x, y) is an edge between the line x = const and the line y = const.
    An axis partition gives every edge one of its two endpoints, no endpoint
    twice, and such a choice exists exactly when no connected component of
    this bipartite graph has more edges than vertices.
    """
    parent: dict = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y in points:
        parent[find(("x", x))] = find(("y", y))
    edges = collections.Counter(find(("x", x)) for x, _ in points)
    vertices = collections.Counter(find(v) for v in parent)
    return all(edges[root] <= vertices[root] for root in edges)


def subsets_of_grid(side, d, k):
    """Every k-subset of [side]^d as an (N, k, d) array, in lexicographic order."""
    cells = list(itertools.product(range(side), repeat=d))
    return np.array(list(itertools.combinations(cells, k)), dtype=np.int64).reshape(-1, k, d)


point_sets = st.builds(
    random_point_set,
    st.integers(0, 2**31).map(random.Random),
    st.integers(1, 3),
    st.integers(1, 8),
)


def test_two_by_two_coverable():
    result = coverable(grid(2, 2))
    assert isinstance(result, AxisPartition)
    assert is_valid_axis_partition(grid(2, 2), result)


def test_two_by_three_not_coverable():
    s = grid(2, 3)
    result = coverable(s)
    assert isinstance(result, HallViolator)
    assert not numerically_coverable(result.subset)
    # the violator really is a subset
    assert set(result.subset.points) <= set(s.points)
    assert not coverable_bruteforce(s)


def test_single_points_and_lines():
    assert isinstance(coverable(PointSet.of(2, [(5, 9)])), AxisPartition)
    # a line of t points in dimension 1 is coverable iff t <= 1... no:
    # one class per axis, d=1 means one class, which holds at most one
    # point of the single line through them
    assert isinstance(coverable(PointSet.of(1, [(3,)])), AxisPartition)
    assert isinstance(coverable(PointSet.of(1, [(3,), (4,)])), HallViolator)


@settings(max_examples=150, deadline=None)
@given(point_sets)
def test_matching_agrees_with_bruteforce(s):
    got = isinstance(coverable(s), AxisPartition)
    assert got == coverable_bruteforce(s)


@settings(max_examples=150, deadline=None)
@given(point_sets)
def test_partition_and_violator_are_valid_certificates(s):
    result = coverable(s)
    if isinstance(result, AxisPartition):
        assert is_valid_axis_partition(s, result)
    else:
        assert not numerically_coverable(result.subset)
        assert set(result.subset.points) <= set(s.points)


@settings(max_examples=100, deadline=None)
@given(point_sets)
def test_coverable_implies_numerically_coverable(s):
    if isinstance(coverable(s), AxisPartition):
        assert numerically_coverable(s)


@settings(max_examples=100, deadline=None)
@given(point_sets)
def test_canonicalize_preserves_coverability(s):
    c = canonicalize(s)
    assert len(c.points) == len(s.points)
    assert canonicalize(c) == c
    assert isinstance(coverable(c), type(coverable(s)))


@settings(max_examples=100, deadline=None)
@given(point_sets)
def test_loomis_whitney(s):
    assert loomis_whitney_check(s)


def test_projection_drops_one_axis():
    s = PointSet.of(2, [(0, 0), (0, 1), (1, 1)])
    assert set(projection(s, 1).points) == {(0,), (1,)}
    assert set(projection(s, 2).points) == {(0,), (1,)}
    with pytest.raises(ParameterError):
        projection(s, 3)


def test_noncoverable_construction_sizes():
    assert len(noncoverable_construction(1).points) == 2
    assert len(noncoverable_construction(2).points) == 6
    assert len(noncoverable_construction(3).points) == 33
    assert len(noncoverable_construction(4).points) == 289
    with pytest.raises(InfeasibleError):
        noncoverable_construction(6)


def test_bruteforce_refusal_names_huge_spaces():
    with pytest.raises(InfeasibleError) as exc:
        coverable_bruteforce(PointSet.of(2, [(0, 0), (1, 1), (2, 2)]), budget=4)
    assert exc.value.required == 8
    # 3^9100 has 4342 digits, past what Python prints
    with pytest.raises(InfeasibleError) as exc:
        coverable_bruteforce(PointSet.of(3, [(i, 0, 0) for i in range(9100)]))
    assert exc.value.required == "3^9100"
    assert str(exc.value).startswith("3^9100 class assignments exceed budget")


def test_noncoverable_construction_fails_matching():
    for d in (1, 2, 3):
        s = noncoverable_construction(d)
        result = coverable(s)
        assert isinstance(result, HallViolator)
        assert not numerically_coverable(result.subset)


def test_noncoverable_two_is_the_smallest_possible():
    # the d=2 construction is [2]x[3] up to relabeling, and no 5-point
    # 2-d set can fail (the exhaustive sweep says so)
    s = canonicalize(noncoverable_construction(2))
    assert set(s.points) == set(grid(2, 3).points) or \
        set(s.points) == set(grid(3, 2).points)
    rep = coverability_sweep(2, "exhaustive")
    assert rep.ok and rep.sets_checked == 53130


@pytest.mark.parametrize("k, noncoverable", [(5, 0), (6, 48), (7, 768)])
def test_kernel_matches_matching_on_every_small_grid_set(k, noncoverable):
    # 4368, 8008 and 11440 sets; the 2x3 subgrids are among the failures
    points = subsets_of_grid(4, 2, k)
    got = _coverable_mask(points)
    want = [isinstance(coverable(PointSet.of(2, p.tolist())), AxisPartition) for p in points]
    assert got.tolist() == want
    assert np.count_nonzero(~got) == noncoverable


def test_kernel_in_one_and_three_dimensions():
    for k in (1, 2, 3):
        points = subsets_of_grid(3, 1, k)
        assert _coverable_mask(points).tolist() == [k == 1] * len(points)
    rng = np.random.default_rng(5)
    points = np.array([rng.choice(27, 6, replace=False) for _ in range(200)])
    points = np.stack(np.unravel_index(np.sort(points), (3, 3, 3)), axis=-1)
    want = [isinstance(coverable(PointSet.of(3, p.tolist())), AxisPartition) for p in points]
    assert _coverable_mask(points).tolist() == want


@settings(max_examples=100, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=12))
def test_closed_form_agrees_with_bruteforce_and_kernel(cells):
    s = PointSet.of(2, cells)
    want = coverable_d2(s.points)
    assert coverable_bruteforce(s) == want
    assert _coverable_mask(np.array([s.points])).tolist() == [want]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_noncoverable_construction_is_critical(d):
    # the construction has 1 + sum_{i<=d} i^i points, so every deletion
    # leaves a set of the size the h-lower lemma speaks about
    s = noncoverable_construction(d)
    assert len(s) == 1 + sum(i**i for i in range(1, d + 1))
    for p in s.points:
        rest = PointSet.of(d, (q for q in s.points if q != p))
        assert isinstance(coverable(rest), AxisPartition)


def test_exhaustive_sweep_reports_failures_in_lexicographic_order(monkeypatch):
    # no five-point set fails, so plant failures: every set from (0, 0) to (4, 4)
    monkeypatch.setattr(cover, "_coverable_mask", lambda points: ~(
        (points[:, 0] == 0).all(axis=1) & (points[:, -1] == 4).all(axis=1)))
    rep = coverability_sweep(2, "exhaustive")
    cells = itertools.product(range(5), repeat=2)
    want = [PointSet.of(2, c) for c in itertools.combinations(cells, 5)
            if c[0] == (0, 0) and c[-1] == (4, 4)]
    assert rep.sets_checked == 53130 and not rep.ok
    assert list(rep.failures) == want and len(want) == 1771


def test_coverability_sweep_random_mode_is_seeded():
    a = coverability_sweep(3, "random", trials=50, seed=11)
    b = coverability_sweep(3, "random", trials=50, seed=11)
    assert (a.sets_checked, a.failures) == (b.sets_checked, b.failures)
    assert a.ok
    with pytest.raises(InfeasibleError):
        coverability_sweep(3, "exhaustive")


@pytest.mark.parametrize("d, error", [(7, InfeasibleError), (8, InfeasibleError),
                                      (9, ParameterError)])
def test_random_sweep_refuses_before_drawing(monkeypatch, d, error):
    """d = 7 and 8 ask for 873,612 and 17,650,828 points, past MAX_POINTS."""
    def no_draws(*args):
        raise AssertionError("the sweep drew points before refusing")

    monkeypatch.setattr(cover_module.random, "Random", no_draws)
    with pytest.raises(error):
        coverability_sweep(d, "random", trials=1)


def test_point_set_validation():
    with pytest.raises(ParameterError):
        PointSet.of(2, [(0, 1, 2)])
    with pytest.raises(ParameterError):
        PointSet.of(2, [(0, -1)])
    with pytest.raises(ParameterError):
        PointSet.of(9, [tuple(range(9))])


def test_point_set_file_round_trip(tmp_path):
    s = noncoverable_construction(2)
    path = tmp_path / "pts.json"
    write_point_set(str(path), s)
    assert read_point_set(str(path)) == s
