"""Coverability of finite point sets in N^d.

A set S is *coverable* when it splits into classes S_1, ..., S_d such that
class i contains at most one point of any line parallel to axis i —
equivalently, the points of S_i have pairwise distinct projections along
axis i.  Matching points against the lines through them decides this
exactly; the numeric relaxation (sum of projection sizes >= |S|, for every
subset) is the Hall-style obstruction.

Axes are 1-based in the public API, matching the usual subscript notation.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (HatLabError, InfeasibleError, ParameterError, file_int, file_rows, read_json,
                     refuse_power, write_json)

MAX_DIMENSION = 8
MAX_POINTS = 10**5
MAX_COORD = 2**31 - 1
DEFAULT_BRUTEFORCE_BUDGET = 10**8

Point = tuple[int, ...]


@dataclass(frozen=True)
class PointSet:
    """Duplicate-free, sorted set of integer points in N^d."""

    d: int
    points: tuple[Point, ...]

    @classmethod
    def of(cls, d: int, points: Iterable[Iterable[int]]) -> "PointSet":
        if not 0 <= d <= MAX_DIMENSION:
            raise ParameterError(f"dimension {d} outside 0..{MAX_DIMENSION}")
        norm = sorted({tuple(int(c) for c in p) for p in points})
        for p in norm:
            if len(p) != d:
                raise ParameterError(f"point {p} has {len(p)} coordinates, expected {d}")
            if any(c < 0 or c > MAX_COORD for c in p):
                raise ParameterError(f"point {p} has a coordinate outside 0..{MAX_COORD}")
        if len(norm) > MAX_POINTS:
            raise InfeasibleError(f"{len(norm)} points exceed the {MAX_POINTS} cap")
        return cls(d, tuple(norm))

    def __len__(self) -> int:
        return len(self.points)


def projection(s: PointSet, i: int) -> PointSet:
    """Delete coordinate i (1-based) and deduplicate."""
    if not 1 <= i <= s.d:
        raise ParameterError(f"axis {i} outside 1..{s.d}")
    return PointSet.of(s.d - 1, (p[: i - 1] + p[i:] for p in s.points))


def numerically_coverable(s: PointSet) -> bool:
    """sum_i |pi_i(S)| >= |S| — necessary for coverability, checked exactly."""
    if s.d < 1:
        raise ParameterError("need dimension >= 1")
    return sum(len(projection(s, i)) for i in range(1, s.d + 1)) >= len(s)


@dataclass
class AxisPartition:
    """Witness of coverability: axis class (1-based) for every point."""

    classes: dict[Point, int]


@dataclass(frozen=True)
class HallViolator:
    """Witness of non-coverability: a subset with too few lines through it."""

    subset: PointSet


def is_valid_axis_partition(s: PointSet, part: AxisPartition) -> bool:
    if set(part.classes) != set(s.points):
        return False
    seen: dict[tuple[int, Point], None] = {}
    for p, axis in part.classes.items():
        if not 1 <= axis <= s.d:
            return False
        key = (axis, p[: axis - 1] + p[axis:])
        if key in seen:
            return False
        seen[key] = None
    return True


def coverable(s: PointSet) -> AxisPartition | HallViolator:
    """Decide coverability by point-vs-line matching.

    A perfect matching of points to distinct lines (each point to a line
    through it) yields an AxisPartition; when some point cannot be matched,
    the alternating-reachability set of that failed augmentation is returned
    as a HallViolator — its lines are exactly the visited ones, one fewer
    than its points.
    """
    if s.d < 1:
        raise ParameterError("need dimension >= 1")
    pts = s.points
    m = len(pts)

    line_ids: dict[tuple[int, Point], int] = {}
    incident: list[list[int]] = []
    for p in pts:
        lids = []
        for axis in range(s.d):
            key = (axis, p[:axis] + p[axis + 1:])
            lid = line_ids.setdefault(key, len(line_ids))
            lids.append(lid)
        incident.append(lids)

    match_line = [-1] * len(line_ids)  # line id -> point index
    match_point = [-1] * m             # point index -> line id
    unmatched = []
    for pi in range(m):
        for lid in incident[pi]:
            if match_line[lid] == -1:
                match_line[lid] = pi
                match_point[pi] = lid
                break
        else:
            unmatched.append(pi)

    axis_of = {lid: key[0] for key, lid in line_ids.items()}

    for p0 in unmatched:
        visited: set[int] = set()
        if not _augment(p0, incident, match_line, match_point, visited):
            # Koenig-style certificate: the failed tree's points beat its lines.
            bad = {pts[p0]} | {pts[match_line[lid]] for lid in visited}
            return HallViolator(PointSet.of(s.d, bad))

    classes = {pts[pi]: axis_of[match_point[pi]] + 1 for pi in range(m)}
    return AxisPartition(classes)


def _augment(p0, incident, match_line, match_point, visited) -> bool:
    """One Kuhn augmentation, iterative so deep alternating paths are safe."""
    stack: list[list] = [[p0, iter(incident[p0]), -1]]
    while stack:
        frame = stack[-1]
        pi, it = frame[0], frame[1]
        pushed = False
        for lid in it:
            if lid in visited:
                continue
            visited.add(lid)
            owner = match_line[lid]
            if owner == -1:
                match_line[lid] = pi
                match_point[pi] = lid
                for fr in stack[:-1]:
                    match_line[fr[2]] = fr[0]
                    match_point[fr[0]] = fr[2]
                return True
            frame[2] = lid
            stack.append([owner, iter(incident[owner]), -1])
            pushed = True
            break
        if not pushed:
            stack.pop()
    return False


def coverable_bruteforce(s: PointSet, *, budget: int = DEFAULT_BRUTEFORCE_BUDGET) -> bool:
    """Independent oracle: exhaust axis-class assignments directly.

    Walks the d^|S| assignment tree point by point, abandoning a branch as
    soon as two points of one class share a line.  Same verdict as
    coverable(), computed with none of its machinery.
    """
    if s.d < 1:
        raise ParameterError("need dimension >= 1")
    refuse_power(s.d, len(s), budget, "class assignments exceed budget")
    pts = s.points
    used: list[set[Point]] = [set() for _ in range(s.d)]

    def assign(i: int) -> bool:
        if i == len(pts):
            return True
        p = pts[i]
        for axis in range(s.d):
            proj = p[:axis] + p[axis + 1:]
            if proj not in used[axis]:
                used[axis].add(proj)
                if assign(i + 1):
                    return True
                used[axis].remove(proj)
        return False

    return assign(0)


def canonicalize(s: PointSet) -> PointSet:
    """Compress each axis to the ranks of its occurring values.

    Lines, and therefore coverability verdicts, are preserved: two points
    share a line parallel to axis i exactly when they agree everywhere else,
    and agreement is unchanged by a per-axis order isomorphism.
    """
    if s.d < 1:
        raise ParameterError("need dimension >= 1")
    rank = []
    for axis in range(s.d):
        values = sorted({p[axis] for p in s.points})
        rank.append({v: r for r, v in enumerate(values)})
    return PointSet.of(s.d, (tuple(rank[a][p[a]] for a in range(s.d)) for p in s.points))


def noncoverable_construction(d: int) -> PointSet:
    """Smallest-known non-coverable set in N^d: 1 + sum_{i<=d} i^i points.

    Base case {0, 1} on the line; the step glues the full [d]^d grid to a
    copy of the (d-1)-dimensional construction placed in the hyperplane
    x_d = d, just past the grid's face.
    """
    if d < 1:
        raise ParameterError("need d >= 1")
    if d > 5:
        raise InfeasibleError("construction verified for d <= 5 only")
    s = _noncoverable(d)
    result = coverable(s)
    if not isinstance(result, HallViolator):  # pragma: no cover - sanity net
        raise HatLabError("construction unexpectedly coverable; this is a bug")
    return s


def _noncoverable(d: int) -> PointSet:
    if d == 1:
        return PointSet.of(1, [(0,), (1,)])
    inner = _noncoverable(d - 1)
    mins = [min(p[a] for p in inner.points) for a in range(d - 1)]
    shifted = [tuple(c - m for c, m in zip(p, mins)) + (d,) for p in inner.points]
    grid = itertools.product(range(d), repeat=d)
    return PointSet.of(d, list(grid) + shifted)


@dataclass(frozen=True)
class CoverSweepReport:
    d: int
    mode: str
    set_size: int
    sets_checked: int
    failures: tuple[PointSet, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def coverability_sweep(
    d: int, mode: str, trials: int = 10**4, seed: int = 0
) -> CoverSweepReport:
    """Check that every size-(sum i^i) set in the canonical grid is coverable.

    Canonicalization maps any t-point set into [t]^d, so sweeping canonical
    grids covers all coverability classes of that size.  Exhaustive mode
    enumerates every t-subset of [t]^d (feasible for d <= 2); random mode
    samples `trials` seeded sets.
    """
    if not 1 <= d <= MAX_DIMENSION:
        raise ParameterError(f"dimension {d} outside 1..{MAX_DIMENSION}")
    if trials < 0:
        raise ParameterError(f"trials must be >= 0, got {trials}")
    t = sum(i**i for i in range(1, d + 1))
    if mode == "exhaustive":
        if d > 2:
            raise InfeasibleError(
                f"exhaustive sweep needs C({t**d},{t}) checks; use random mode for d={d}")
        # every t-subset of the t^d cells, as C-order cell indices in lexicographic order
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(t**d), t)),
            dtype=np.int16, count=math.comb(t**d, t) * t).reshape(-1, t)
        points = np.stack([combos // t ** (d - 1 - k) % t for k in range(d)], axis=2)
        ok = _coverable_mask(points)
        failures = tuple(PointSet.of(d, points[i].tolist()) for i in np.flatnonzero(~ok))
        return CoverSweepReport(d, mode, t, len(combos), failures)
    if mode == "random":
        if t > MAX_POINTS:  # refused before drawing, as PointSet.of would refuse the sets
            raise InfeasibleError(f"{t} points exceed the {MAX_POINTS} cap")
        rng = random.Random(seed)
        failures: list[PointSet] = []
        for _ in range(trials):
            pts: set[Point] = set()
            while len(pts) < t:
                pts.add(tuple(rng.randrange(t) for _ in range(d)))
            s = PointSet.of(d, pts)
            if isinstance(coverable(s), HallViolator):
                failures.append(s)
        return CoverSweepReport(d, mode, t, trials, tuple(failures))
    raise ParameterError(f"unknown sweep mode {mode!r}")


def _coverable_mask(points: np.ndarray) -> np.ndarray:
    """Coverability of N sets of t points at once; `points` is an (N, t, d)
    array of non-negative integers.

    Each point gets one line id per axis: axis * side^(d-1) plus the C-order
    code of its projection along that axis, with side = 1 + the largest
    coordinate.  A set is coverable exactly when some axis-class assignment
    gives its points pairwise distinct line ids, so this is the definition
    evaluated over all d^t assignments, in integers; keep t small.
    """
    n, t, d = points.shape
    side = int(points.max(initial=0)) + 1
    lines = side ** (d - 1)
    # holds every line id, and every projection coordinate and place value
    dtype = np.min_scalar_type(d * lines)
    pts = points.astype(dtype)
    place = (side ** np.arange(d - 2, -1, -1)).astype(dtype)  # C-order place values
    ids = np.stack([
        axis * lines + (np.delete(pts, axis, axis=2) * place).sum(axis=2, dtype=dtype)
        for axis in range(d)], axis=2)
    rows = np.arange(t)
    undecided = np.arange(n)  # sets no assignment tried so far covers
    for classes in itertools.product(range(d), repeat=t):
        chosen = np.sort(ids[undecided[:, None], rows, classes], axis=1)
        undecided = undecided[(chosen[:, 1:] == chosen[:, :-1]).any(axis=1)]
    mask = np.ones(n, dtype=bool)
    mask[undecided] = False
    return mask


def loomis_whitney_check(s: PointSet) -> bool:
    """|S|^(d-1) <= prod_i |pi_i(S)|, in exact integers."""
    if s.d < 1:
        raise ParameterError("need dimension >= 1")
    prod = 1
    for i in range(1, s.d + 1):
        prod *= len(projection(s, i))
    return len(s) ** (s.d - 1) <= prod


# ---------------------------------------------------------------------------
# file format


def write_point_set(path: str, s: PointSet) -> None:
    write_json(path, {"d": s.d, "points": [list(p) for p in s.points]})


def read_point_set(path: str) -> PointSet:
    return read_json(path, "point-set file", lambda payload: PointSet.of(
        file_int(payload["d"], "d"), file_rows(payload["points"], "point", MAX_COORD + 1)))
