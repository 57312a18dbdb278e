"""Hat-guessing games on finite graphs: strategies, verification, search.

An adversary places a color from [q] = {0, ..., q-1} on every vertex of a
graph; the player on each vertex sees only its neighbors' colors and submits
one guess for its own color.  The players win an assignment when at least
one guess is correct, and a strategy *wins* when it wins every assignment
(optionally restricted to an explicit assignment set).

Conventions, fixed across the package:

* Guess tables are dense.  Vertex v with neighbors u_1 < ... < u_k indexes
  its table by sum(c_{u_j} * q**(j-1)) — the smallest neighbor is the least
  significant digit.  `_table_cells` computes these cells for explicit
  assignment rows; every vectorised evaluation outside the full sweep
  reads them.
* Assignments are tuples (c_0, ..., c_{n-1}) enumerated in lexicographic
  order, so a reported counterexample is the lexicographically least losing
  assignment and reports do not depend on chunking or thread count.
* The verifier sees the assignment space as the C-order tensor [q]^n, axis
  v holding c_v; C order is the lexicographic order.  Each table becomes a
  guess tensor with size q on its neighbors' axes and 1 elsewhere, "v
  guesses right" is that tensor compared with the colors on axis v, and
  broadcasting ORs (or, for counts, sums) these over [q]^n, one chunk of
  fixed leading coordinates at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (InfeasibleError, ParameterError, file_int, file_rows, power_past, read_json,
                     refuse_power, write_json)
from .sweep import run_chunks

ColorAssignment = tuple[int, ...]

DEFAULT_ASSIGNMENT_BUDGET = 10**9
DEFAULT_SEARCH_BUDGET = 10**6
MAX_SEARCH_ASSIGNMENTS = 1 << 16  # larger games are refused before the search allocates
DEFAULT_STRATEGY_SPACE_BUDGET = 10**8
DEFAULT_CHUNK = 1 << 19  # cells of [q]^n per verification work item
MAX_AXES = 64  # numpy's limit on the dimensions of one array
MAX_VERTICES = 10**4  # graphs past either cap are refused before they are built
MAX_EDGES = 10**5


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with a family tag for serialization."""

    family: str
    params: tuple[int, ...]
    n_vertices: int
    adjacency: tuple[tuple[int, ...], ...]  # sorted neighbor tuples

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n_vertices) for v in self.adjacency[u] if u < v]


def _graph_from_edges(family: str, params: tuple[int, ...], n: int, n_edges: int,
                      edges: Iterable[tuple[int, int]]) -> Graph:
    """`n_edges` is the length of `edges`, so the caps hold before it is walked."""
    if n > MAX_VERTICES or n_edges > MAX_EDGES:
        raise InfeasibleError(
            f"{family} graph has {n} vertices and {n_edges} edges; "
            f"the caps are {MAX_VERTICES} and {MAX_EDGES}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise ParameterError(f"loop at vertex {u} not allowed")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(family, params, n, tuple(tuple(sorted(s)) for s in nbrs))


def build_graph(family: str, *params: int) -> Graph:
    """Construct a graph from a family tag and integer parameters.

    complete:n | complete_bipartite:m,n | book:d,n (K_d spine, n pages each
    adjacent to the whole spine) | windmill:k,n (n copies of K_k glued at
    vertex 0, the axle).
    """
    params = tuple(int(p) for p in params)
    if family == "complete":
        (n,) = _arity(family, params, 1)
        if n < 1:
            raise ParameterError("complete graph needs n >= 1")
        return _graph_from_edges(family, params, n, n * (n - 1) // 2,
                                 itertools.combinations(range(n), 2))
    if family == "complete_bipartite":
        m, n = _arity(family, params, 2)
        if m < 1 or n < 1:
            raise ParameterError("complete bipartite graph needs m, n >= 1")
        edges = ((u, m + v) for u in range(m) for v in range(n))
        return _graph_from_edges(family, params, m + n, m * n, edges)
    if family == "book":
        d, n = _arity(family, params, 2)
        if d < 1 or n < 0:
            raise ParameterError("book graph needs d >= 1, n >= 0")
        edges = itertools.chain(itertools.combinations(range(d), 2),
                                ((s, d + p) for p in range(n) for s in range(d)))
        return _graph_from_edges(family, params, d + n, d * (d - 1) // 2 + d * n, edges)
    if family == "windmill":
        k, n = _arity(family, params, 2)
        if k < 2 or n < 1:
            raise ParameterError("windmill graph needs k >= 2, n >= 1")
        # each blade with the axle is a K_k
        edges = itertools.chain.from_iterable(
            itertools.combinations((0, *range(1 + b * (k - 1), 1 + (b + 1) * (k - 1))), 2)
            for b in range(n))
        return _graph_from_edges(family, params, 1 + n * (k - 1), n * k * (k - 1) // 2, edges)
    raise ParameterError(f"unknown graph family {family!r}")


def _arity(family: str, params: tuple[int, ...], k: int) -> tuple[int, ...]:
    if len(params) != k:
        raise ParameterError(f"{family} expects {k} parameter(s), got {len(params)}")
    return params


def custom_graph(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    """Arbitrary graph; params encode (n, u1, v1, u2, v2, ...) for round-trips."""
    if n < 0:
        raise ParameterError("custom graph needs n >= 0")
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    params = (n,) + tuple(itertools.chain.from_iterable(edges))
    return _graph_from_edges("custom", params, n, len(edges), edges)


def _graph_from_spec(family: str, params: Sequence[int]) -> Graph:
    if family == "custom":
        if not params:
            raise ParameterError("custom graph spec needs at least the vertex count")
        n, rest = params[0], params[1:]
        if len(rest) % 2:
            raise ParameterError("custom graph edge list must have even length")
        return custom_graph(n, list(zip(rest[::2], rest[1::2])))
    return build_graph(family, *params)


# ---------------------------------------------------------------------------
# strategies


@dataclass(eq=False)
class Strategy:
    """Dense per-vertex guess tables for a q-color game."""

    q: int
    tables: tuple[np.ndarray, ...]

    @classmethod
    def from_lists(cls, q: int, tables: Sequence[Sequence[int]]) -> "Strategy":
        return cls(q, tuple(np.asarray(t, dtype=_guess_dtype(q)) for t in tables))

    def table_lists(self) -> list[list[int]]:
        return [t.astype(int).tolist() for t in self.tables]


@dataclass(frozen=True)
class VerificationReport:
    wins: bool
    counterexample: ColorAssignment | None
    assignments_checked: int


@dataclass(frozen=True, eq=False)
class SolvableSet:
    """Assignment set of a complete graph on which some strategy always wins.

    `mask` is a bool tensor of shape (q,)*n in C order: mask[c_0, ..., c_{n-1}]
    holds when (c_0, ..., c_{n-1}) is a member, the layout of [q]^n that the
    verifier uses.
    """

    n: int
    q: int
    mask: np.ndarray

    def __post_init__(self) -> None:
        if self.mask.dtype != bool or self.mask.shape != (self.q,) * self.n:
            raise ParameterError(
                f"mask must be a bool tensor of shape {(self.q,) * self.n}, "
                f"got {self.mask.dtype} {self.mask.shape}")

    @property
    def members(self) -> frozenset[ColorAssignment]:
        return frozenset(map(tuple, np.argwhere(self.mask).tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolvableSet):
            return NotImplemented
        return (self.n, self.q) == (other.n, other.q) and np.array_equal(self.mask, other.mask)


def _guess_dtype(q: int) -> np.dtype:
    """The smallest unsigned dtype that holds every colour of [q]."""
    return np.min_scalar_type(max(q - 1, 1))


def _digit_sums(values: np.ndarray, m: int, modulus: int) -> np.ndarray:
    """sum_j values[c_j] mod `modulus` for every (c_0, ..., c_{m-1}) in [q]^m,
    flat in C order, in the smallest unsigned dtype that holds 2 * modulus:
    each step adds two residues and reduces, so no sum outgrows it."""
    dt = np.min_scalar_type(2 * modulus)
    step = (values % modulus).astype(dt)
    total = np.zeros(1, dtype=dt)
    for _ in range(m):
        total = np.add.outer(total, step).ravel()
        total %= modulus
    return total


def _check_strategy_shape(g: Graph, q: int, s: Strategy) -> None:
    if q < 1:
        raise ParameterError("q must be >= 1")
    if s.q != q:
        raise ParameterError(f"strategy was built for q={s.q}, game uses q={q}")
    if len(s.tables) != g.n_vertices:
        raise ParameterError(
            f"strategy has {len(s.tables)} tables for a {g.n_vertices}-vertex graph")
    for v in range(g.n_vertices):
        want = q ** g.degree(v)
        if len(s.tables[v]) != want:
            raise ParameterError(
                f"vertex {v}: table has {len(s.tables[v])} entries, expected {want}")
        t = s.tables[v]
        if len(t) and (int(t.min()) < 0 or int(t.max()) >= q):
            raise ParameterError(f"vertex {v}: guess out of color range [{q}]")


def _axes_guard(axes: int, what: str) -> None:
    if axes > MAX_AXES:
        raise InfeasibleError(f"{what} needs {axes} tensor axes; numpy supports {MAX_AXES}")


def _guess_tensors(g: Graph, s: Strategy) -> list[np.ndarray]:
    """Every vertex's table as a C-order tensor with one size-q axis per neighbor.

    C order makes the last axis of reshape((q,)*k) the least significant
    digit, i.e. the smallest neighbor; transposing puts the axes in
    ascending vertex order.  Each table is copied once into that order, so
    that sweeping [q]^n in C order reads it sequentially.  numpy copies a
    many-axis transpose in a cache-hostile order; per uint8 table on a
    2-core Xeon, numpy's copy against `_c_order_table`'s blocked one: 6^9
    (the W_{4,3} axle) 81-129 against 14-18 ms, 8^7 (K_8) 9.2-12.5 against
    2.9-3.8 ms, 7^6 (K_7) 0.20-0.22 against 0.15-0.16 ms; a 6^3 blade
    costs 10-18 us against 1-3 us, under 0.5 ms over all of `lemma all`.
    The copies stay on the calling thread: pool threads allocate from
    glibc's per-thread arenas, which raised peak RSS by ~10 MB, and two
    threads copied no faster.
    """
    _axes_guard(max(map(len, g.adjacency), default=0), "a guess tensor")
    return [_c_order_table(t, s.q, g.degree(v)) for v, t in enumerate(s.tables)]


_BLOCK_ROWS, _BLOCK_COLS = 1 << 11, 64  # 128 KiB of uint8; 8192 rows added 0.85 MB peak RSS


def _c_order_table(t: np.ndarray, q: int, k: int) -> np.ndarray:
    """`t.reshape((q,)*k).T` in C order: each cell's k base-q digits reversed.

    Cell high*q**(k-h) + low, split at h high digits, moves to
    rev(low)*q**h + rev(high): blocks of low-digit columns are gathered in
    reversed row order, transposed in cache and written to their rows.
    """
    h = min(k, 1)
    while h < k - 1 and q ** (h + 1) <= _BLOCK_ROWS:
        h += 1
    rev_high, rev_low = (np.arange(q**m).reshape((q,) * m).T.ravel() for m in (h, k - h))
    src, out = t.reshape(q**h, -1), np.empty(t.size, dtype=t.dtype)
    dst = out.reshape(-1, q**h)
    for c in range(0, src.shape[1], _BLOCK_COLS):
        dst[rev_low[c:c + _BLOCK_COLS]] = np.take(src[:, c:c + _BLOCK_COLS], rev_high, axis=0).T
    return out.reshape((q,) * k)


def _chunk_hits(g: Graph, guesses: list[np.ndarray], q: int,
                prefix: ColorAssignment) -> Iterator[np.ndarray]:
    """Per vertex, "v guesses its own color" on the chunk of [q]^n whose
    leading coordinates are `prefix`: a tensor over the n - len(prefix) free
    axes, size q on v's free neighbors (and on v itself) and 1 elsewhere."""
    p, n = len(prefix), g.n_vertices
    colors = np.arange(q, dtype=_guess_dtype(q))
    for v, t in enumerate(guesses):
        nbrs = g.adjacency[v]
        t = t[tuple(prefix[u] for u in nbrs if u < p)]
        t = t.reshape([q if a in nbrs else 1 for a in range(p, n)])
        own = prefix[v] if v < p else colors.reshape([q if a == v else 1 for a in range(p, n)])
        yield t == own


def _table_cells(g: Graph, q: int, rows: np.ndarray) -> np.ndarray:
    """The cell of every vertex's table that each assignment row selects:
    column v of the (N, n) int64 result is sum_j rows[:, u_j] * q**j over v's
    neighbors u_0 < u_1 < ...  Like the guess tensors it takes at most
    MAX_AXES digits, so restricted and full checks refuse the same strategies.
    """
    _axes_guard(max(map(len, g.adjacency), default=0), "a guess table")
    cells = np.zeros((len(rows), g.n_vertices), dtype=np.int64, order="F")
    for v, nbrs in enumerate(g.adjacency):
        for u in reversed(nbrs):  # Horner: the smallest neighbor ends least significant
            cells[:, v] *= q
            cells[:, v] += rows[:, u]
    return cells


def _lex_rows(q: int, n: int) -> np.ndarray:
    """All q**n assignments as int64 rows in lexicographic order, by integer
    division (np.indices would stop at numpy's 64 axes)."""
    return np.arange(q**n, dtype=np.int64)[:, None] // q ** np.arange(n - 1, -1, -1) % q


def _member_hits(g: Graph, s: Strategy, mat: np.ndarray) -> Iterator[np.ndarray]:
    """Per vertex, "v guesses its own color" on each row of an assignment matrix."""
    cells = _table_cells(g, s.q, mat)
    for v, t in enumerate(s.tables):
        yield t[cells[:, v]] == mat[:, v]


def _any_hit(hits: Iterable[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Boolean tensor of `shape`: does some vertex guess its own color."""
    # bool OR is slow when one side broadcasts along a long inner axis; the
    # same bytes OR-ed as uint8 are not.
    won = np.zeros(shape, dtype=np.uint8)
    for hit in hits:
        won |= hit.view(np.uint8)
    return won.view(bool)


def _leading_axes(q: int, n: int) -> int:
    """How many leading coordinates a chunk fixes to stay within DEFAULT_CHUNK cells."""
    p = 0
    while p < n and q ** (n - p) > DEFAULT_CHUNK:
        p += 1
    return p


def _restriction_matrix(g: Graph, q: int, restriction: Iterable[ColorAssignment]) -> np.ndarray:
    """The members as int64 rows in lexicographic order, duplicates kept."""
    members, n = list(restriction), g.n_vertices
    bad = next((a for a in members if len(a) != n), None)
    if bad is not None:
        raise ParameterError(f"assignment {bad} has length {len(bad)}, expected {n}")
    try:
        mat = np.array(members, dtype=np.int64).reshape(len(members), n)
    except OverflowError as exc:
        raise ParameterError(f"an assignment uses colors outside [{q}]") from exc
    if ((mat < 0) | (mat >= q)).any():
        raise ParameterError(f"an assignment uses colors outside [{q}]")
    # np.lexsort sorts by its last key first; a zeros key lets n = 0 sort too
    return mat[np.lexsort(np.vstack([mat.T[::-1], np.zeros((1, len(mat)), np.int64)]))]


def verify_strategy(
    g: Graph,
    q: int,
    s: Strategy,
    restriction: Iterable[ColorAssignment] | None = None,
    *,
    budget: int = DEFAULT_ASSIGNMENT_BUDGET,
    threads: int | None = None,
) -> VerificationReport:
    """Check a strategy against every adversary assignment.

    Full q**n sweeps beyond `budget` raise InfeasibleError.  On a loss the
    counterexample is the lexicographically least losing assignment and
    assignments_checked is its 1-based position in the scan; on a win it is
    the size of the space (or restriction).
    """
    _check_strategy_shape(g, q, s)
    n = g.n_vertices

    if restriction is not None:
        mat = _restriction_matrix(g, q, restriction)
        if len(mat) == 0:
            return VerificationReport(True, None, 0)
        won = _any_hit(_member_hits(g, s, mat), (len(mat),))
        if won.all():
            return VerificationReport(True, None, len(mat))
        first = int(np.argmin(won))
        return VerificationReport(False, tuple(int(c) for c in mat[first]), first + 1)

    refuse_power(q, n, budget, "assignments exceed budget")
    guesses = _guess_tensors(g, s)
    total = q**n
    p = _leading_axes(q, n)
    _axes_guard(n - p, "a chunk")
    cells = q ** (n - p)

    def work(chunk: int) -> int | None:
        prefix = _decode_assignment(chunk, q, p)
        won = _any_hit(_chunk_hits(g, guesses, q, prefix), (q,) * (n - p))
        return None if won.all() else chunk * cells + int(np.argmin(won))

    for res in run_chunks(work, range(q**p), threads):
        if res is not None:
            return VerificationReport(False, _decode_assignment(res, q, n), res + 1)
    return VerificationReport(True, None, total)


def _decode_assignment(index: int, q: int, n: int) -> ColorAssignment:
    return tuple(index // q ** (n - 1 - v) % q for v in range(n))


def correct_guess_counts(
    g: Graph,
    q: int,
    s: Strategy,
    restriction: Iterable[ColorAssignment] | None = None,
    *,
    budget: int = 10**7,
) -> np.ndarray:
    """Number of correct guessers per assignment (lexicographic order)."""
    _check_strategy_shape(g, q, s)
    n = g.n_vertices
    if restriction is not None:
        mat = _restriction_matrix(g, q, restriction)
        counts, hits = np.zeros(len(mat), dtype=np.int64), _member_hits(g, s, mat)
    else:
        refuse_power(q, n, budget, "assignments exceed budget")
        guesses = _guess_tensors(g, s)
        _axes_guard(n, "the count tensor")
        counts, hits = np.zeros((q,) * n, dtype=np.int64), _chunk_hits(g, guesses, q, ())
    for hit in hits:
        counts += hit
    return counts.ravel()


def strategy_guesses(g: Graph, q: int, s: Strategy, assignment: ColorAssignment) -> tuple[int, ...]:
    """Every vertex's guess on one assignment (scalar path, for spot checks)."""
    _check_strategy_shape(g, q, s)
    if len(assignment) != g.n_vertices:
        raise ParameterError("assignment length does not match vertex count")
    out = []
    for v in range(g.n_vertices):
        idx = 0
        mul = 1
        for u in g.adjacency[v]:
            idx += assignment[u] * mul
            mul *= q
        out.append(int(s.tables[v][idx]))
    return tuple(out)


# ---------------------------------------------------------------------------
# sum strategies on complete graphs


def sum_target_strategy(m: int, q: int, targets: Sequence[int]) -> Strategy:
    """On K_m with q colors, vertex i guesses so the total is targets[i] mod q."""
    if m < 1:
        raise ParameterError("need at least one player")
    if len(targets) != m:
        raise ParameterError(f"need {m} targets, got {len(targets)}")
    if any(not (0 <= t < q) for t in targets):
        raise ParameterError("targets must be residues in [q]")
    residue = _digit_sums(np.arange(q), m - 1, q)  # symmetric, so in any digit order
    # a Python int t keeps t + q - residue non-negative in the residues' unsigned dtype
    tables = tuple(((int(t) + q - residue) % q).astype(_guess_dtype(q), copy=False)
                   for t in targets)
    return Strategy(q, tables)


def complete_sum_strategy(n: int, q: int) -> Strategy:
    """The K_n strategy where player i forces total sum ≡ i (mod n); needs q = n."""
    if q != n:
        raise ParameterError(f"sum strategy needs q = n (got n={n}, q={q})")
    return sum_target_strategy(n, q, list(range(n)))


def solvable_interval_set(n: int, q: int) -> tuple[SolvableSet, Strategy]:
    """Largest-possible solvable set on K_n with q >= n colors: sums in [n]."""
    if not 1 <= n <= q:
        raise ParameterError(f"need 1 <= n <= q (got n={n}, q={q})")
    mask = (_digit_sums(np.arange(q), n, q) < n).reshape((q,) * n)
    return SolvableSet(n, q, mask), sum_target_strategy(n, q, list(range(n)))


def max_solvable_set_search(
    n: int, q: int, *, budget: int = DEFAULT_STRATEGY_SPACE_BUDGET
) -> int:
    """Exact maximum number of assignments any strategy tuple wins on K_n.

    Brute force over all (q**(q**(n-1)))**n strategy tuples; only practical
    for tiny n, q — anything larger raises InfeasibleError.
    """
    if n < 1 or q < 1:
        raise ParameterError("need n >= 1 and q >= 1")
    if power_past(q, n - 1, budget):  # then q**(n * q**(n-1)) is past it too
        space = f"{q}^({n}*{q}^{n - 1})"
        raise InfeasibleError(f"{space} strategy tuples exceed budget {budget}", required=space)
    table_size = q ** (n - 1)
    refuse_power(q, n * table_size, budget, "strategy tuples exceed budget")

    rows = _lex_rows(q, n)
    # per assignment and player: (table index, own color)
    cells = _table_cells(build_graph("complete", n), q, rows)
    keyed = [list(zip(c, r)) for c, r in zip(cells.tolist(), rows.tolist())]

    best = 0
    all_tables = list(itertools.product(range(q), repeat=table_size))
    for combo in itertools.product(all_tables, repeat=n):
        won = 0
        for row in keyed:
            if any(combo[i][idx] == own for i, (idx, own) in enumerate(row)):
                won += 1
        if won > best:
            best = won
            if best == len(keyed):
                break
    return best


# ---------------------------------------------------------------------------
# exhaustive strategy search


@dataclass(frozen=True)
class SearchOutcome:
    strategy: Strategy | None
    proven_unwinnable: bool
    nodes_explored: int


def _relabelling_set(g: Graph) -> list[int]:
    """The greedy lowest-index independent set of g."""
    chosen: list[int] = []
    for v, nbrs in enumerate(g.adjacency):
        if not set(nbrs).intersection(chosen):
            chosen.append(v)
    return chosen


def search_strategy(g: Graph, q: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchOutcome:
    """Complete search for a winning strategy by clause propagation.

    Assignment a is the clause "some vertex v has t_v[cell_v(a)] = a_v": one
    literal per vertex, on the table cells of `_table_cells`.  Every cell
    keeps a bitmask of the values still allowed; a literal is false once its
    value leaves the mask and true once the mask holds that value alone.  A
    node is one decision.  The search takes the unsatisfied clause with the
    fewest open literals (the lowest assignment on ties) and, of those
    literals, the one whose value covers the most unsatisfied clauses (the
    lowest vertex on ties), cell = x; it tries cell = x, then cell != x.
    Unit propagation follows every decision (a clause with one open literal
    makes it true), and a trail undoes both.  The search is complete:
    exhausting it proves that no winning strategy exists.  Two sound prunes
    cut it short.

    Capacity (Hall) bound.  A cell takes one value, so it satisfies at most
    cap = max over its allowed x of the unsatisfied clauses holding the
    literal (cell, x).  Every winning completion therefore maps each
    unsatisfied clause to an open cell of its own, at most cap clauses to a
    cell; a node where no such b-matching saturates the unsatisfied clauses
    fails.  The matching lives across nodes: a step unmatches the clauses it
    satisfies or whose matched literal it falsifies and sheds load past a
    shrunk capacity, while undoing only raises capacities, so every node
    augments from its unmatched clauses alone.  At the root the capacities
    sum to n * q**(n-1), so the bound implies the counting bound
    n * q**(n-1) >= q**n.

    Colour relabelling.  Let I be an independent set and sigma_v a
    permutation of [q] for each v in I.  Replace t_v by sigma_v o t_v for v
    in I, and let every u outside I read each neighbour w in I through
    sigma_w^-1.  Map a to a' with a'_v = sigma_v(a_v) on I and a'_u = a_u
    elsewhere.  On a', v in I sees only vertices outside I, whose colours did
    not move, so it guesses right exactly when t_v was right on a; u outside
    I sees the context it saw on a and keeps its colour.  So the new strategy
    wins a' exactly when the old one wins a, and a -> a' is a bijection of
    [q]^n: winning is kept.  The neighbours of v in I lie outside I, so the
    relabelling keeps v's all-zero context in place, and sigma_v swapping
    t_v(0, ..., 0) with 0 makes that guess 0.  Fixing t_v(0, ..., 0) = 0 on
    the greedy lowest-index independent set therefore keeps some winning
    strategy whenever one exists.

    `budget` bounds the decisions; running out is reported as neither found
    nor proven (strategy=None, proven_unwinnable False).  Games of more than
    MAX_SEARCH_ASSIGNMENTS assignments raise InfeasibleError before anything
    is allocated.  A strategy found is checked by `verify_strategy`.
    """
    n = g.n_vertices
    if q < 1:
        raise ParameterError("q must be >= 1")
    refuse_power(q, n, MAX_SEARCH_ASSIGNMENTS, "assignments exceed the search cap")
    rows = _lex_rows(q, n)
    offsets = [0, *itertools.accumulate(q ** g.degree(v) for v in range(n))]
    n_cells, total = offsets[-1], len(rows)
    cell_arr = _table_cells(g, q, rows) + np.array(offsets[:-1], dtype=np.int64)
    lit_arr = cell_arr * q + rows  # literal (cell, value) as cell * q + value
    cells, colors, lits = cell_arr.tolist(), rows.tolist(), lit_arr.tolist()
    order = (np.argsort(lit_arr, axis=None, kind="stable") // max(n, 1)).tolist()
    ends = np.cumsum(np.bincount(lit_arr.ravel(), minlength=n_cells * q)).tolist()
    occ = [order[lo:hi] for lo, hi in zip([0, *ends], ends)]  # clauses holding a literal

    dom = [(1 << q) - 1] * n_cells
    big = n + 1
    score = [n] * total  # open literals of a clause, plus `big` per true literal
    unsat = [len(c) for c in occ]  # unsatisfied clauses holding each literal
    mate, load = [-1] * total, [0] * n_cells
    held: list[set[int]] = [set() for _ in range(n_cells)]  # clauses matched to a cell
    free = set(range(total))  # unsatisfied clauses without a match
    trail: list[int] = []  # lit for a value removed, ~lit for a literal made true
    units: list[int] = []
    dirty: list[int] = []  # cells whose capacity may have shrunk

    def unmatch(a: int) -> None:
        k = mate[a]
        mate[a] = -1
        load[k] -= 1
        held[k].discard(a)
        free.add(a)

    def satisfy(lit: int) -> None:
        trail.append(~lit)
        for a in occ[lit]:
            if score[a] < big:  # newly satisfied
                for l in lits[a]:
                    unsat[l] -= 1
                dirty.extend(cells[a])
                if mate[a] >= 0:
                    unmatch(a)
                free.discard(a)
            score[a] += big

    def remove(lit: int) -> bool:
        """Disallow one value of a cell; False once a clause has no literal left."""
        k = lit // q
        m = dom[k] = dom[k] & ~(1 << lit - k * q)
        trail.append(lit)
        ok = True
        for a in occ[lit]:
            s = score[a] = score[a] - 1
            if s < 2:
                if s:
                    units.append(a)
                else:
                    ok = False
            if mate[a] == k:
                unmatch(a)
        dirty.append(k)
        if not m & (m - 1):
            satisfy(k * q + m.bit_length() - 1)
        return ok

    def assign(lit: int) -> bool:
        k = lit // q
        m = dom[k] & ~(1 << lit - k * q)
        while m:
            low = m & -m
            if not remove(k * q + low.bit_length() - 1):
                return False
            m ^= low
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            lit = trail.pop()
            if lit >= 0:
                k = lit // q
                dom[k] |= 1 << lit - k * q
                for a in occ[lit]:
                    score[a] += 1
                continue
            for a in occ[~lit]:
                score[a] -= big
                if score[a] < big:
                    for l in lits[a]:
                        unsat[l] += 1
                    free.add(a)

    def open_literals(a: int) -> Iterator[int]:
        return (l for l, k, x in zip(lits[a], cells[a], colors[a]) if dom[k] >> x & 1)

    def propagate() -> bool:
        while units:
            a = units.pop()
            if score[a] == 1 and not assign(next(open_literals(a))):
                return False
        return True

    def capacity(k: int) -> int:
        m, best = dom[k], 0
        while m:
            low = m & -m
            best = max(best, unsat[k * q + low.bit_length() - 1])
            m ^= low
        return best

    def augment(root: int, caps: dict[int, int]) -> bool:
        """Breadth-first search for an augmenting path from an unmatched
        clause; `caps` memoizes capacities, which hold still meanwhile."""
        via: dict[int, int] = {}  # cell -> the clause that reached it
        queue = [root]
        for b in queue:
            full = []
            for k, x in zip(cells[b], colors[b]):
                if k in via or k == mate[b] or not dom[k] >> x & 1:
                    continue
                via[k] = b
                if k not in caps:
                    caps[k] = capacity(k)
                if load[k] < caps[k]:
                    load[k] += 1
                    while b >= 0:  # move each clause on the path to the next cell
                        old, mate[b] = mate[b], k
                        held[k].add(b)
                        if old >= 0:
                            held[old].discard(b)
                        k, b = old, via.get(old, -1)
                    return True
                full.append(k)
            for k in full:
                queue.extend(held[k])
        return False

    def saturate() -> bool:
        """Repair the matching; False when no b-matching saturates the clauses."""
        caps: dict[int, int] = {}
        for k in dirty:
            if load[k] and k not in caps:
                caps[k] = capacity(k)
                for _ in range(load[k] - caps[k]):
                    unmatch(next(iter(held[k])))
        dirty.clear()
        for a in sorted(free):
            if not augment(a, caps):
                return False
            free.discard(a)
        return True

    units.extend(a for a in range(total) if score[a] == 1)
    if q == 1:  # every cell holds its one value
        for k in range(n_cells):
            satisfy(k)
    # t_v(0, ..., 0) = 0 on the relabelling set; the clause of a graph
    # without vertices has no literal and fails the first matching
    ok = all(assign(offsets[v] * q) for v in _relabelling_set(g))
    nodes = 0
    stack: list[tuple[int, int]] = []  # (trail mark, lit) per decision; ~lit on its second branch
    while True:
        ok = ok and propagate() and saturate()
        if ok:
            best = min(score)
            if best >= big:
                break
            lit = max(open_literals(score.index(best)), key=unsat.__getitem__)
            stack.append((len(trail), lit))
        else:
            units.clear()
            dirty.clear()
            while stack and stack[-1][1] < 0:
                stack.pop()
            if not stack:
                return SearchOutcome(None, True, nodes)
            mark, lit = stack.pop()
            undo(mark)
            lit = ~lit
            stack.append((mark, lit))
        nodes += 1
        if nodes > budget:
            return SearchOutcome(None, False, nodes)
        ok = assign(lit) if lit >= 0 else remove(~lit)

    tables = [[(m & -m).bit_length() - 1 for m in dom[lo:hi]]
              for lo, hi in zip(offsets, offsets[1:])]
    strat = Strategy.from_lists(q, tables)
    report = verify_strategy(g, q, strat, budget=max(total, DEFAULT_ASSIGNMENT_BUDGET))
    if not report.wins:  # pragma: no cover - guards the search itself
        raise AssertionError("search produced a losing strategy; this is a bug")
    return SearchOutcome(strat, False, nodes)


# ---------------------------------------------------------------------------
# lifting along subgraph embeddings


def subgraph_lift(h: Graph, s: Strategy, embedding: Mapping[int, int], g: Graph, q: int) -> Strategy:
    """Lift a winning strategy along an injective, adjacency-preserving map.

    Embedded vertices ignore neighbors outside the image; everyone else
    guesses 0.  The lift wins on g whenever s wins on h, because the image
    players see exactly what they saw on h.
    """
    _check_strategy_shape(h, q, s)
    emb = {int(v): int(embedding[v]) for v in range(h.n_vertices)}
    if len(set(emb.values())) != len(emb):
        raise ParameterError("embedding is not injective")
    for gv in emb.values():
        if not 0 <= gv < g.n_vertices:
            raise ParameterError(f"embedded vertex {gv} outside host graph")
    for u in range(h.n_vertices):
        for v in h.adjacency[u]:
            if emb[v] not in g.adjacency[emb[u]]:
                raise ParameterError(
                    f"embedding does not preserve edge ({u},{v})")

    dt = _guess_dtype(q)
    tables: list[np.ndarray] = [None] * g.n_vertices  # type: ignore[list-item]
    image = {gv: hv for hv, gv in emb.items()}
    for gv in range(g.n_vertices):
        gn = g.adjacency[gv]
        if gv not in image:
            tables[gv] = np.zeros(q ** len(gn), dtype=dt)
            continue
        hv = image[gv]
        pos_in_gn = {u: t for t, u in enumerate(gn)}
        idx = np.arange(q ** len(gn), dtype=np.int64)
        h_idx = np.zeros(len(idx), dtype=np.int64)
        for r, hu in enumerate(h.adjacency[hv]):
            p = pos_in_gn[emb[hu]]
            h_idx += ((idx // q**p) % q) * q**r
        tables[gv] = s.tables[hv][h_idx].astype(dt)
    return Strategy(q, tuple(tables))


# ---------------------------------------------------------------------------
# vertex-cover upper bound


def minimum_vertex_cover_size(g: Graph) -> int:
    """Exact minimum vertex cover, branch-and-bound on an uncovered edge."""
    if g.n_vertices > 20:
        raise InfeasibleError("exact vertex cover supported for n <= 20 only")
    edges = g.edges

    best = g.n_vertices

    def branch(edges: list[tuple[int, int]], depth: int) -> None:
        nonlocal best
        if depth >= best:
            return
        if not edges:
            best = depth
            return
        u, v = edges[0]
        branch([e for e in edges if u not in e], depth + 1)
        branch([e for e in edges if v not in e], depth + 1)

    branch(edges, 0)
    return best


def vertex_cover_bound(g: Graph) -> int:
    """Upper bound 1 + sum_{i=1}^{tau} i^i on the winning color count."""
    tau = minimum_vertex_cover_size(g)
    return 1 + sum(i**i for i in range(1, tau + 1))


# ---------------------------------------------------------------------------
# file formats


def write_strategy_file(path: str, g: Graph, s: Strategy) -> None:
    write_json(path, {
        "graph": {"family": g.family, "params": list(g.params)},
        "q": s.q,
        "tables": s.table_lists(),
    })


def read_strategy_file(path: str) -> tuple[Graph, int, Strategy]:
    def parse(payload: dict) -> tuple[Graph, int, Strategy]:
        params = [file_int(p, "graph parameter") for p in payload["graph"]["params"]]
        g = _graph_from_spec(payload["graph"]["family"], params)
        q = file_int(payload["q"], "q")
        s = Strategy.from_lists(q, file_rows(payload["tables"], "guess table", q))
        _check_strategy_shape(g, q, s)
        return g, q, s

    return read_json(path, "strategy file", parse)


def write_assignment_set(path: str, q: int, n: int, members: Iterable[ColorAssignment]) -> None:
    write_json(path, {"q": q, "n": n, "members": [list(a) for a in sorted(members)]})


def read_assignment_set(path: str) -> tuple[int, int, tuple[ColorAssignment, ...]]:
    def parse(payload: dict) -> tuple[int, int, tuple[ColorAssignment, ...]]:
        q, n = file_int(payload["q"], "q"), file_int(payload["n"], "n")
        if not 0 <= n <= MAX_VERTICES:
            raise ParameterError(f"n must lie in 0..{MAX_VERTICES}, got {n}")
        members = file_rows(payload["members"], "assignment", q, n)
        return q, n, tuple(map(tuple, members.tolist()))

    return read_json(path, "assignment-set file", parse)
