"""Exact combinatorics of combinatorial cubes in the 4x4x4 grid.

Cells of [4]^3 are numbered x + 4y + 16z and cell sets are 64-bit masks, so
every sweep below is a few integer ops per configuration.  A *cube* here is
a 3x3x3 combinatorial cube: the product of the three 3-element sets avoiding
one forbidden value per axis; its complement is the radius-2 Hamming ball
around the forbidden point.  The *two-intersection* of a family is the set
of cells lying in at least two members (by index, so duplicates count).

Every sweep folds whole families at once with `_fold`: uint64 mask arrays,
one broadcast axis per family member (the axes of ``np.ix_``).  The
bipartite constructions find the product cubes inside such unions with
`_cube_centres`.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InfeasibleError, ParameterError, PartitionConditionError
from .game import Strategy

FULL_MASK = (1 << 64) - 1

Cell = tuple[int, int, int]


def cell_index(x: int, y: int, z: int) -> int:
    if not (0 <= x < 4 and 0 <= y < 4 and 0 <= z < 4):
        raise ParameterError(f"cell ({x},{y},{z}) outside [4]^3")
    return x + 4 * y + 16 * z


def cell_coords(i: int) -> Cell:
    if not 0 <= i < 64:
        raise ParameterError(f"cell index {i} outside 0..63")
    return (i % 4, i // 4 % 4, i // 16)


def grid_cube_masks(q: int, m: int) -> list[int]:
    """Mask of the (q-1)^m cube avoiding each center, for cells of [q]^m.

    Cell (x_1..x_m) has linear index sum(x_t * q**t); entry a of the result
    is the set {x : x_t != a_t for all t}.
    """
    cells = q**m
    if cells > 1 << 14:
        raise InfeasibleError(f"grid with {cells} cells is beyond mask support")
    avoid = [[0] * q for _ in range(m)]
    for c in range(cells):
        for t in range(m):
            xt = c // q**t % q
            for v in range(q):
                if xt != v:
                    avoid[t][v] |= 1 << c
    out = []
    for a in range(cells):
        mask = (1 << cells) - 1
        for t in range(m):
            mask &= avoid[t][a // q**t % q]
        out.append(mask)
    return out


CUBE_MASKS: tuple[int, ...] = tuple(grid_cube_masks(4, 3))
_CUBES = np.array(CUBE_MASKS, dtype=np.uint64)
_CUBE_SET = frozenset(CUBE_MASKS)
_CUBE_MINUS_POINT_SET = frozenset(
    c & ~(1 << b) for c in CUBE_MASKS for b in range(64) if c >> b & 1)


def cube_mask(p: Cell) -> int:
    """The 3x3x3 cube avoiding p's coordinates on every axis (27 cells)."""
    return CUBE_MASKS[cell_index(*p)]


def hamming_ball(p: Cell) -> int:
    """Cells within Hamming distance 2 of p: the cube's 37-cell complement."""
    return FULL_MASK & ~cube_mask(p)


def _fold(masks):
    """(union, two-fold intersection) of a family of masks.

    Members are Python ints or uint64 arrays that broadcast together; the
    results have the broadcast shape, one entry per configuration.
    """
    once = twice = 0
    for m in masks:
        twice = twice | (once & m)
        once = once | m
    return once, twice


def two_intersection(masks: Sequence[int]) -> int:
    """Cells contained in at least two masks of the family (by index)."""
    masks = tuple(masks)
    if not all(0 <= m <= FULL_MASK for m in masks):
        raise ParameterError("masks must be 64-bit cell sets")
    return _fold(masks)[1]


# closed forms for cube families, used as independent oracles in tests


def cube_pair_overlap(p1: Cell, p2: Cell) -> int:
    """|C(p1) ∩ C(p2)| = 3^(3-d) * 2^d with d the Hamming distance."""
    d = sum(a != b for a, b in zip(p1, p2))
    return 3 ** (3 - d) * 2**d


def cube_triple_overlap(p1: Cell, p2: Cell, p3: Cell) -> int:
    """|C(p1) ∩ C(p2) ∩ C(p3)| = prod_t (4 - x_t), x_t distinct values on axis t."""
    prod = 1
    for t in range(3):
        prod *= 4 - len({p1[t], p2[t], p3[t]})
    return prod


def cube_triple_two_intersection_size(p1: Cell, p2: Cell, p3: Cell) -> int:
    pairs = (cube_pair_overlap(p1, p2) + cube_pair_overlap(p1, p3)
             + cube_pair_overlap(p2, p3))
    return pairs - 2 * cube_triple_overlap(p1, p2, p3)


# ---------------------------------------------------------------------------
# sweeps


def three_cubes_min_two_intersection() -> int:
    """Minimum |two-intersection| over all ordered cube triples (expect 20)."""
    return int(np.bitwise_count(_fold(np.ix_(_CUBES, _CUBES, _CUBES))[1]).min())


@dataclass(frozen=True)
class FourCubeSweepReport:
    quadruples: int
    above_29: int
    exact_cube: int
    cube_minus_point: int
    violations: tuple[tuple[Cell, Cell, Cell, Cell], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def four_cubes_two_intersection_sweep() -> FourCubeSweepReport:
    """Sweep all 64^4 cube quadruples: any two-intersection of size <= 29
    must be a full cube or a cube minus one cell."""
    cube_sorted = np.array(sorted(_CUBE_SET), dtype=np.uint64)
    cmp_sorted = np.array(sorted(_CUBE_MINUS_POINT_SET), dtype=np.uint64)

    above = 0
    exact_cube = 0
    minus_point = 0
    violations: list[tuple[Cell, Cell, Cell, Cell]] = []
    for i in range(64):  # one first cube per call keeps each array at 64^3 masks
        t4 = _fold(np.ix_(_CUBES[i:i + 1], _CUBES, _CUBES, _CUBES))[1]
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


def is_cube_or_cube_minus_point(mask: int) -> bool:
    return mask in _CUBE_SET or mask in _CUBE_MINUS_POINT_SET


# the 4x4 square analogue, cells numbered x + 4y


SQUARE_MASKS: tuple[int, ...] = tuple(grid_cube_masks(4, 2))


def square_two_intersection_minima() -> tuple[int, int, int]:
    """(pair, triple, distinct-quadruple) minima of |two-intersection| for
    3x3 squares in [4]^2; expect (4, 8, 12)."""
    sq = np.array(SQUARE_MASKS, dtype=np.uint64)
    # streamed, not listed: 43680 index tuples would linger in the heap and raise peak RSS
    rows = itertools.chain.from_iterable(itertools.permutations(range(len(sq)), 4))
    distinct = sq[np.fromiter(rows, np.intp).reshape(-1, 4)].T
    return tuple(int(np.bitwise_count(_fold(family)[1]).min())
                 for family in (np.ix_(sq, sq), np.ix_(sq, sq, sq), distinct))


# ---------------------------------------------------------------------------
# prisms


def prism_mask(xs: Iterable[int], ys: Iterable[int], zs: Iterable[int]) -> int:
    """Product-set mask: all cells with x in xs, y in ys, z in zs."""
    mask = 0
    for x in xs:
        for y in ys:
            for z in zs:
                mask |= 1 << cell_index(x, y, z)
    return mask


def all_prisms_233() -> tuple[int, ...]:
    """Every 2x3x3 combinatorial prism: one 2-subset axis, two 3-subset axes.

    3 orientations x C(4,2) x 4 x 4 = 288 prisms.
    """
    twos = list(itertools.combinations(range(4), 2))
    threes = [tuple(v for v in range(4) if v != skip) for skip in range(4)]
    prisms = []
    for orient in range(3):
        sides: list[list[tuple[int, ...]]] = [list(threes), list(threes), list(threes)]
        sides[orient] = list(twos)
        for a in sides[0]:
            for b in sides[1]:
                for c in sides[2]:
                    prisms.append(prism_mask(a, b, c))
    return tuple(prisms)


def prism_cover_impossible() -> bool:
    """No three cubes plus one 2x3x3 prism cover [4]^3 (checks every
    64^3 x 288 combination)."""
    prisms = np.array(all_prisms_233(), dtype=np.uint64)
    unions = _fold(np.ix_(_CUBES, _CUBES, _CUBES))[0].ravel()
    step = unions.size // prisms.size  # each chunk's OR table holds <= 64^3 masks
    return not any(((unions[s:s + step, None] | prisms) == FULL_MASK).any()
                   for s in range(0, unions.size, step))


# ---------------------------------------------------------------------------
# partitions of [4]^3 and bipartite strategies


def _check_partition(parts: Sequence[int], cells: int, what: str) -> None:
    """Raise ParameterError unless parts are disjoint cell sets covering [cells]."""
    full = (1 << cells) - 1
    if not all(0 <= p <= full for p in parts):
        raise ParameterError(f"{what} has an out-of-grid part")
    union = functools.reduce(operator.or_, parts, 0)
    if union != full or sum(p.bit_count() for p in parts) != cells:
        raise ParameterError(f"{what} does not partition the {cells}-cell grid")


def _cube_centres(unions, cubes) -> np.ndarray:
    """Per union (any shape), the least centre a with cubes[a] inside it, or -1."""
    inside = (unions[..., None] & cubes) == cubes
    return np.where(inside.any(-1), inside.argmax(-1), -1)


@dataclass(frozen=True)
class PartitionTuple:
    """Ordered partition of [4]^3 into four 64-bit parts (one per color)."""

    parts: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.parts) != 4:
            raise ParameterError("partition tuple needs exactly 4 parts")
        _check_partition(self.parts, 64, "partition tuple")


def check_partition_condition(p: PartitionTuple, q: PartitionTuple, r: PartitionTuple) -> bool:
    """Does every union P_i | Q_j | R_k contain a full 3x3x3 cube?"""
    union = _fold(np.ix_(*(np.array(t.parts, dtype=np.uint64) for t in (p, q, r))))[0]
    return bool((_cube_centres(union, _CUBES) >= 0).all())


def strategy_from_bipartite_partitions(
    m: int, q: int, partitions: Sequence[Sequence[int]]
) -> Strategy:
    """Build a K_{m,m} strategy from m q-part partitions of the left color grid.

    Right vertex m+j guesses the class of the observed left coloring under
    partitions[j].  For that to be beatable, every choice of one part per
    partition must union to a superset of some (q-1)^m product cube; the
    complement then sits inside the Hamming ball of the cube's center, so
    left vertex t guesses coordinate t of that center.  If every right
    vertex is wrong, the left coloring avoids all chosen parts, lands in the
    ball, and shares a coordinate with the center — some left vertex wins.

    Cell indexing of the left grid: coloring (c_0..c_{m-1}) is cell
    sum(c_t * q**t), matching the guess-table convention.  Masks are uint64
    up to 64 cells and Python ints (object arrays) beyond.
    """
    if m < 1 or q < 2:
        raise ParameterError("need m >= 1 and q >= 2")
    if len(partitions) != m:
        raise ParameterError(f"need {m} partitions, got {len(partitions)}")
    cells = q**m
    for j, parts in enumerate(partitions):
        if len(parts) != q:
            raise ParameterError(f"partition {j} has {len(parts)} parts, expected {q}")
        _check_partition(parts, cells, f"partition {j}")
    mask_dt = np.uint64 if cells <= 64 else object
    parts = np.array(partitions, dtype=mask_dt)
    cubes = np.array(grid_cube_masks(q, m), dtype=mask_dt)

    # one ball center per choice of parts: axes reversed, so the C-order flat
    # index of the union of parts (c_0..c_{m-1}) is sum(c_j * q**j)
    unions = _fold(np.ix_(*parts[::-1]))[0].ravel()
    step = max(1, (1 << 13) // cells)  # each containment table holds <= 2^13 pairs
    centres = np.concatenate([_cube_centres(unions[s:s + step], cubes)
                              for s in range(0, cells, step)])
    if (centres < 0).any():
        code = int(np.argmax(centres < 0))
        combo = tuple(code // q**j % q for j in range(m))
        raise PartitionConditionError(f"parts {combo} union to no product cube", combo)

    dt = np.min_scalar_type(q - 1)
    cell_ids = np.arange(cells).astype(mask_dt)
    # left vertices guess the center's t-th coordinate, right ones their part
    left = [(centres // q**t % q).astype(dt) for t in range(m)]
    right = [((row[:, None] >> cell_ids) & 1).argmax(0).astype(dt) for row in parts]
    return Strategy(q, tuple(left + right))


def k22_certificate_search() -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Exhaust 3^9 x 3^9 pairs of 3-part partitions of the 3x3 grid.

    Accepts a pair when every P_i | Q_j contains a 2x2 combinatorial square;
    returns the lexicographically first valid pair (codes compare as the
    tuple of per-cell class digits, cell 0 most significant).  The result
    feeds strategy_from_bipartite_partitions(2, 3, ...).
    """
    digits = np.arange(3**9) // 3 ** np.arange(8, -1, -1)[:, None] % 3  # (cell, code)
    part_masks = (1 << np.arange(9)) @ (digits == np.arange(3)[:, None, None])  # (part, code)
    squares = np.array(grid_cube_masks(3, 2), dtype=np.uint64)
    covers = _cube_centres(np.arange(512, dtype=np.uint64), squares) >= 0
    # compatible[pm, code]: pm joined with each part of Q = code contains a square
    compatible = np.empty((512, 3**9), dtype=bool)
    for pm in range(512):
        np.logical_and.reduce(covers[pm | part_masks], out=compatible[pm])
    for p in zip(*part_masks.tolist()):
        if not all(p):
            continue  # an empty part would need two disjoint squares in 9 cells
        hits = np.flatnonzero(compatible[p[0]] & compatible[p[1]] & compatible[p[2]])
        if hits.size:
            return p, tuple(part_masks[:, hits[0]].tolist())
    raise ParameterError("no valid partition pair exists")  # pragma: no cover


# ---------------------------------------------------------------------------
# serialization: 16 hex digits, nibble t holding cells 4t..4t+3


def mask_to_hex(mask: int) -> str:
    if not 0 <= mask <= FULL_MASK:
        raise ParameterError("mask out of 64-bit range")
    return "".join(format(mask >> 4 * t & 0xF, "x") for t in range(16))


def hex_to_mask(s: str) -> int:
    if not (isinstance(s, str) and re.fullmatch("[0-9a-fA-F]{16}", s)):
        raise ParameterError(f"cell-set hex string must be 16 ASCII hex digits, got {s!r}")
    return sum(int(c, 16) << 4 * t for t, c in enumerate(s))


def write_partition_file(path: str, p: PartitionTuple) -> None:
    with open(path, "w") as fh:
        json.dump({"parts": [mask_to_hex(x) for x in p.parts]}, fh)
        fh.write("\n")


def read_partition_file(path: str) -> PartitionTuple:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        parts = tuple(hex_to_mask(h) for h in payload["parts"])
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed partition file {path}: {exc}") from exc
    return PartitionTuple(parts)  # type: ignore[arg-type]
