"""Bitmask lemmas on the 4x4x4 grid and the bipartite certificate search."""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatlab import (
    CUBE_MASKS,
    InfeasibleError,
    ParameterError,
    PartitionConditionError,
    PartitionTuple,
    build_graph,
    check_partition_condition,
    cube_mask,
    cube_pair_overlap,
    cube_triple_overlap,
    cube_triple_two_intersection_size,
    four_cubes_two_intersection_sweep,
    grid_cube_masks,
    k22_certificate_search,
    prism_cover_impossible,
    read_partition_file,
    square_two_intersection_minima,
    strategy_from_bipartite_partitions,
    three_cubes_min_two_intersection,
    two_intersection,
    verify_strategy,
    write_partition_file,
)
from hatlab import cube
from hatlab.cube import (
    FULL_MASK,
    SQUARE_MASKS,
    FourCubeSweepReport,
    all_prisms_233,
    cell_coords,
    cell_index,
    hex_to_mask,
    mask_to_hex,
    prism_mask,
)

cells = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


def mask_cells(mask):
    return {i for i in range(64) if mask >> i & 1}


def test_cell_indexing_round_trip():
    for i in range(64):
        assert cell_index(*cell_coords(i)) == i


def test_cube_masks_shape():
    assert len(CUBE_MASKS) == 64
    assert len(set(CUBE_MASKS)) == 64
    for p, mask in zip(itertools.product(range(4), repeat=3), CUBE_MASKS):
        assert mask == cube_mask(tuple(reversed(p)))
    # a cube avoids exactly its center's coordinates
    c = cube_mask((1, 2, 3))
    assert c.bit_count() == 27
    assert all(x != 1 and y != 2 and z != 3
               for x, y, z in (cell_coords(i) for i in mask_cells(c)))


@given(cells)
def test_hamming_ball_is_cube_complement(p):
    ball = FULL_MASK & ~cube_mask(p)
    assert ball.bit_count() == 37
    px, py, pz = p
    for i in mask_cells(ball):
        x, y, z = cell_coords(i)
        assert x == px or y == py or z == pz


def enumerate_two_intersection(masks):
    counts = [0] * 64
    for m in masks:
        for i in mask_cells(m):
            counts[i] += 1
    return sum(1 << i for i in range(64) if counts[i] >= 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(cells, min_size=2, max_size=5))
def test_two_intersection_matches_enumeration(points):
    masks = [cube_mask(p) for p in points]
    assert two_intersection(masks) == enumerate_two_intersection(masks)


@settings(max_examples=200, deadline=None)
@given(cells, cells)
def test_pair_overlap_closed_form(p1, p2):
    want = (cube_mask(p1) & cube_mask(p2)).bit_count()
    assert cube_pair_overlap(p1, p2) == want
    d = sum(a != b for a, b in zip(p1, p2))
    assert want == 3 ** (3 - d) * 2**d


@settings(max_examples=200, deadline=None)
@given(cells, cells, cells)
def test_triple_closed_forms(p1, p2, p3):
    triple = (cube_mask(p1) & cube_mask(p2) & cube_mask(p3)).bit_count()
    assert cube_triple_overlap(p1, p2, p3) == triple
    size = two_intersection([cube_mask(p) for p in (p1, p2, p3)]).bit_count()
    assert cube_triple_two_intersection_size(p1, p2, p3) == size


def test_three_cubes_minimum():
    assert three_cubes_min_two_intersection() == 20
    # one witness: centers differing in every coordinate pairwise
    size = cube_triple_two_intersection_size((0, 0, 0), (1, 1, 1), (0, 0, 1))
    assert size >= 20


def test_square_minima():
    assert square_two_intersection_minima() == (4, 8, 12)


def test_general_grid_masks():
    squares = grid_cube_masks(3, 2)
    assert len(squares) == 9
    assert all(m.bit_count() == 4 for m in squares)
    with pytest.raises(InfeasibleError):
        grid_cube_masks(200, 3)
    # entry a is {x : x_t != a_t for all t}, cell x and center a numbered sum(x_t * q**t)
    for q, m in [(2, 1), (3, 2), (4, 2), (4, 3)]:
        points = [tuple(c // q**t % q for t in range(m)) for c in range(q**m)]
        want = [sum(1 << c for c, x in enumerate(points)
                    if all(xt != at for xt, at in zip(x, a))) for a in points]
        assert grid_cube_masks(q, m) == want


def test_prisms():
    prisms = all_prisms_233()
    assert len(prisms) == 288
    assert len(set(prisms)) == 288
    assert all(p.bit_count() == 2 * 3 * 3 for p in prisms)
    m = prism_mask([0, 1], [0, 1, 2], [1, 2, 3])
    assert m in prisms


def test_four_cube_violations_come_in_lexicographic_order(monkeypatch):
    # with the cube-minus-point class emptied, each of its members is a violation
    monkeypatch.setattr(cube, "_CUBE_MINUS_POINT_SET", frozenset())
    rep = four_cubes_two_intersection_sweep()
    assert not rep.ok and rep.cube_minus_point == 0
    assert len(rep.violations) == 41472
    order = [tuple(cell_index(*c) for c in quad) for quad in rep.violations]
    assert order == sorted(set(order))
    for quad in (rep.violations[0], rep.violations[-1]):
        t = two_intersection([cube_mask(c) for c in quad])
        assert t.bit_count() == 26
        assert any(t & ~c == 0 and (c & ~t).bit_count() == 1 for c in CUBE_MASKS)


# --- the sweeps run up to translation ---------------------------------------


@functools.cache
def translations(m):
    """The translations of [4]^m as cell permutations: row t sends cell c to c + t."""
    digits = [[c // 4**i % 4 for i in range(m)] for c in range(4**m)]
    return np.array([[sum((a + b) % 4 * 4**i for i, (a, b) in enumerate(zip(dt, dc)))
                      for dc in digits] for dt in digits])


def translate(masks, perm):
    """Each mask with its bit c moved to bit perm[c]."""
    index = np.arange(len(perm), dtype=np.uint64)
    bits = np.array(masks, dtype=np.uint64)[:, None] >> index & np.uint64(1)
    return np.bitwise_or.reduce(bits << perm.astype(np.uint64), axis=1).tolist()


@pytest.mark.parametrize("m, family", [
    (3, CUBE_MASKS),
    (3, sorted(cube._CUBE_MINUS_POINT_SET)),
    (3, all_prisms_233()),
    (2, SQUARE_MASKS),
], ids=["cubes", "cubes-minus-a-cell", "prisms", "squares"])
def test_every_translation_maps_the_family_onto_itself(m, family):
    # the quotient sweeps are exact only for families closed under translation
    for perm in translations(m):
        assert set(translate(family, perm)) == set(family)


@settings(max_examples=100, deadline=None)
@given(st.lists(cells, min_size=2, max_size=4), cells)
def test_translation_keeps_the_two_intersection(points, t):
    moved = [tuple((a + b) % 4 for a, b in zip(p, t)) for p in points]
    before = two_intersection([cube_mask(p) for p in points])
    after = two_intersection([cube_mask(p) for p in moved])
    assert after.bit_count() == before.bit_count()
    assert translate([before], translations(3)[cell_index(*t)]) == [after]


# the full ordered sweeps, oracles for the sweeps up to translation


def four_cubes_sweep_reference():
    """All 64^4 ordered quadruples, one first cube at a time."""
    cube_sorted = np.array(sorted(cube._CUBE_SET), dtype=np.uint64)
    cmp_sorted = np.array(sorted(cube._CUBE_MINUS_POINT_SET), dtype=np.uint64)
    above = exact_cube = minus_point = 0
    violations = []
    for i in range(64):
        t4 = cube._fold(np.ix_(cube._CUBES[i:i + 1], cube._CUBES, cube._CUBES, cube._CUBES))[1]
        small = np.bitwise_count(t4) <= 29
        above += int(t4.size - np.count_nonzero(small))
        vals = t4[small]
        is_cube = np.isin(vals, cube_sorted)
        is_cmp = np.isin(vals, cmp_sorted)
        exact_cube += int(np.count_nonzero(is_cube))
        minus_point += int(np.count_nonzero(is_cmp))
        for _, j, k, l in np.argwhere(small)[~(is_cube | is_cmp)]:
            violations.append(tuple(cell_coords(int(c)) for c in (i, j, k, l)))
    return FourCubeSweepReport(64**4, above, exact_cube, minus_point, tuple(violations))


@pytest.mark.parametrize("emptied", [False, True], ids=["as-is", "no-cube-minus-point"])
def test_four_cube_sweep_matches_the_full_sweep(monkeypatch, emptied):
    if emptied:  # every cube minus a cell becomes a violation: 41472, in order
        monkeypatch.setattr(cube, "_CUBE_MINUS_POINT_SET", frozenset())
    assert four_cubes_two_intersection_sweep() == four_cubes_sweep_reference()


def test_three_and_square_minima_match_the_full_sweeps():
    cubes = cube._CUBES
    assert three_cubes_min_two_intersection() == int(
        np.bitwise_count(cube._fold(np.ix_(cubes, cubes, cubes))[1]).min())
    sq = np.array(SQUARE_MASKS, dtype=np.uint64)
    distinct = sq[list(itertools.permutations(range(len(sq)), 4))].T
    assert square_two_intersection_minima() == tuple(
        int(np.bitwise_count(cube._fold(family)[1]).min())
        for family in (np.ix_(sq, sq), np.ix_(sq, sq, sq), distinct))


def prism_cover_reference():
    """Every 64^3 x |prisms| combination, each OR table at most 64^3 masks."""
    prisms = np.array(cube.all_prisms_233(), dtype=np.uint64)
    unions = cube._fold(np.ix_(cube._CUBES, cube._CUBES, cube._CUBES))[0].ravel()
    step = unions.size // prisms.size
    return not any(((unions[s:s + step, None] | prisms) == FULL_MASK).any()
                   for s in range(0, unions.size, step))


# three cubes and a 2x4x4 slab can cover: cubes centred at (0,0,0), (0,1,1), (0,2,2) and x <= 1
SLABS = tuple(prism_mask(*[pair if t == axis else range(4) for t in range(3)])
              for axis in range(3) for pair in itertools.combinations(range(4), 2))


@pytest.mark.parametrize("family", [None, SLABS], ids=["prisms", "slabs"])
def test_prism_cover_matches_the_full_sweep(monkeypatch, family):
    if family is not None:
        monkeypatch.setattr(cube, "all_prisms_233", lambda: family)
    assert prism_cover_impossible() == prism_cover_reference() == (family is None)


# --- bipartite partitions ---------------------------------------------------


@functools.cache
def k22_certificate():
    return k22_certificate_search()


def test_k22_certificate_wins_everything():
    p_parts, q_parts = k22_certificate_search()
    strat = strategy_from_bipartite_partitions(2, 3, [p_parts, q_parts])
    g = build_graph("complete_bipartite", 2, 2)
    report = verify_strategy(g, 3, strat)
    assert report.wins and report.assignments_checked == 81


def test_partition_condition_on_search_result():
    p_parts, q_parts = k22_certificate_search()
    full = (1 << 9) - 1
    for parts in (p_parts, q_parts):
        assert sum(p.bit_count() for p in parts) == 9
        assert parts[0] | parts[1] | parts[2] == full


def test_bipartite_partition_validation():
    full = (1 << 9) - 1
    with pytest.raises(ParameterError):
        strategy_from_bipartite_partitions(2, 3, [[full, 0, 0]])
    with pytest.raises(ParameterError):
        strategy_from_bipartite_partitions(2, 3, [[full, 0, 0], [full, 0, 1]])
    with pytest.raises(ParameterError):
        strategy_from_bipartite_partitions(2, 3, [[full, 0], [full, 0, 0]])


def bipartite_strategy_reference(m, q, partitions):
    """The per-code center loop: guess tables, or the first combo with no cube."""
    cells = q**m
    cubes = grid_cube_masks(q, m)
    centers = []
    for code in range(cells):
        combo = tuple(code // q**j % q for j in range(m))
        union = 0
        for j, i in enumerate(combo):
            union |= partitions[j][i]
        center = next((a for a in range(cells) if cubes[a] & ~union == 0), None)
        if center is None:
            return combo
        centers.append(center)
    dt = np.min_scalar_type(q - 1)
    left = [[a // q**t % q for a in centers] for t in range(m)]
    right = [[next(i for i, p in enumerate(parts) if p >> b & 1) for b in range(cells)]
             for parts in partitions]
    return [(dt, table) for table in left + right]


def bipartite_strategy_outcome(m, q, partitions):
    """(dtype, entries) per guess table, or the combo the construction refused."""
    try:
        tables = strategy_from_bipartite_partitions(m, q, partitions).tables
    except PartitionConditionError as exc:
        return exc.combo
    return [(t.dtype, t.tolist()) for t in tables]


def parts_from_colors(colors, q):
    return [sum(1 << i for i, c in enumerate(colors) if c == part) for part in range(q)]


# (2,9) and (7,2) have 81 and 128 cells: masks past 64 cells are object arrays,
# and (7,2) splits the centres into two containment tables
@pytest.mark.parametrize("m,q", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 9), (7, 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bipartite_strategy_matches_reference(m, q, data):
    colorings = st.lists(st.integers(0, q - 1), min_size=q**m, max_size=q**m)
    partitions = [parts_from_colors(data.draw(colorings), q) for _ in range(m)]
    assert (bipartite_strategy_outcome(m, q, partitions)
            == bipartite_strategy_reference(m, q, partitions))


@pytest.mark.parametrize("m,q,valid", [(2, 32, False), (10, 2, True)])
def test_bipartite_strategy_stops_at_the_first_union_without_a_cube(monkeypatch, m, q, valid):
    # past 64 cells the containment runs in chunks; against one full evaluation
    rng = random.Random(5)
    partitions = [parts_from_colors([rng.randrange(q) for _ in range(q**m)], q)
                  for _ in range(m)]
    parts = np.array(partitions, dtype=object)
    unions = cube._fold(np.ix_(*parts[::-1]))[0].ravel()
    full = cube._cube_centres(unions, np.array(grid_cube_masks(q, m), dtype=object))
    assert bool((full >= 0).all()) == valid
    calls, centres = [], cube._cube_centres
    monkeypatch.setattr(cube, "_cube_centres", lambda u, c: calls.append(len(u)) or centres(u, c))
    if valid:
        tables = strategy_from_bipartite_partitions(m, q, partitions).tables
        assert [t.tolist() for t in tables[:m]] == [(full // q**t % q).tolist() for t in range(m)]
        assert sum(calls) == q**m
    else:
        with pytest.raises(PartitionConditionError) as exc:
            strategy_from_bipartite_partitions(m, q, partitions)
        code = int(np.argmax(full < 0))
        assert exc.value.combo == tuple(code // q**j % q for j in range(m))
        # the scan ends with the chunk that holds the failing union
        assert sum(calls) == (code // calls[0] + 1) * calls[0] < q**m


permutations3 = st.lists(st.permutations(range(3)), min_size=2, max_size=2)


@settings(max_examples=40, deadline=None)
@given(axes=st.permutations(range(2)), values=permutations3, relabel=permutations3,
       swap=st.booleans())
def test_bipartite_strategy_matches_reference_on_k22_images(axes, values, relabel, swap):
    # grid symmetries and part relabellings keep the K_{2,2} certificate valid
    def image(parts, order):
        out = [0, 0, 0]
        for i, part in enumerate(parts):
            for c in range(9):
                x = (c % 3, c // 3)
                y = [values[t][x[axes[t]]] for t in range(2)]
                out[order[i]] |= (part >> c & 1) << (y[0] + 3 * y[1])
        return out

    partitions = [image(parts, order) for parts, order in zip(k22_certificate(), relabel)]
    if swap:
        partitions.reverse()
    got = bipartite_strategy_outcome(2, 3, partitions)
    assert isinstance(got, list)
    assert got == bipartite_strategy_reference(2, 3, partitions)


def test_partition_tuple_validation():
    quads = grid_cube_masks(4, 3)[:4]
    with pytest.raises(ParameterError):
        PartitionTuple(tuple(quads))  # overlapping, not a partition
    cols = [sum(1 << i for i in range(64) if i % 4 == r) for r in range(4)]
    p = PartitionTuple(tuple(cols))
    assert check_partition_condition(p, p, p) in (True, False)


def partition_condition_reference(p, q, r):
    for pi in p.parts:
        for qj in q.parts:
            for rk in r.parts:
                hole = FULL_MASK & ~(pi | qj | rk)
                if not any(c & hole == 0 for c in CUBE_MASKS):
                    return False
    return True


def partitions_from_colors(colors):
    return PartitionTuple(tuple(parts_from_colors(colors, 4)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=64, max_size=64),
                min_size=3, max_size=3))
def test_partition_condition_matches_reference(colorings):
    p, q, r = (partitions_from_colors(c) for c in colorings)
    assert check_partition_condition(p, q, r) == partition_condition_reference(p, q, r)


def test_partition_condition_needs_every_union():
    # 37 of the 64 unions are the whole grid, the other 27 are empty
    p = PartitionTuple((FULL_MASK, 0, 0, 0))
    assert partition_condition_reference(p, p, p) is False
    assert check_partition_condition(p, p, p) is False


@given(st.integers(0, FULL_MASK))
def test_mask_hex_round_trip(mask):
    assert hex_to_mask(mask_to_hex(mask)) == mask


@pytest.mark.parametrize("text", [["f"] * 16, "\uff11" * 16, b"f" * 16, "f" * 15 + "g"],
                         ids=["list", "fullwidth-digits", "bytes", "non-hex"])
def test_hex_to_mask_takes_only_ascii_hex_strings(text):
    with pytest.raises(ParameterError):
        hex_to_mask(text)


def test_partition_file_rejects_undecodable_bytes(undecodable_file):
    with pytest.raises(ParameterError):
        read_partition_file(undecodable_file)


def test_partition_file_round_trip(tmp_path):
    cols = [sum(1 << i for i in range(64) if i % 4 == r) for r in range(4)]
    p = PartitionTuple(tuple(cols))
    path = tmp_path / "p.json"
    write_partition_file(str(path), p)
    assert read_partition_file(str(path)) == p
