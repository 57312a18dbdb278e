"""The benchmark's two workloads: seeded inputs, the timed calls into
hatlab, and the oracle that checks every verdict.

A workload object has three steps.  `setup(seed, threads, scratch)` builds
the inputs; its time counts in setup_s.  `run()` is the timed phase and
calls only hatlab's public entry points: `hatlab.cli.main` and the
documented library functions, always looked up on the module at call time
so that the traced run's wrappers see them.  `check()` turns what `run()`
got back into one `Op` per operation.  An operation fails on a wrong
verdict, an exception, a missing or malformed JSON report, or an exit code
outside the CLI's 0/1/2/3 contract.

Ground truth comes from the mathematics, not from earlier runs: published
hat-guessing numbers for the searches, closed forms for the lemma payloads,
and the scalar `game.strategy_guesses` (independent of the verifier kernel)
for every counterexample and every found strategy.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from hatlab import cli, game, windmill

EXIT_CODES = (0, 1, 2, 3)


@dataclass
class Op:
    """One checked operation.  `budgeted` marks the node-budgeted searches;
    `decided` is False when one of them ended without a verdict."""

    name: str
    ok: bool
    reason: str = ""
    decided: bool = True
    budgeted: bool = False


@dataclass
class Outcome:
    ops: list[Op]

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    @property
    def decided_ratio(self) -> float | None:
        """Decided share of the budgeted searches; None without any."""
        pool = [op for op in self.ops if op.budgeted]
        return sum(op.decided for op in pool) / len(pool) if pool else None


@dataclass
class CliRun:
    argv: list[str]
    code: int | None = None
    stdout: str = ""
    error: str | None = None


def run_cli(argv: list[str]) -> CliRun:
    """`hatlab.cli.main` in this process, stdout captured."""
    out = io.StringIO()
    run = CliRun(argv)
    try:
        with contextlib.redirect_stdout(out):
            run.code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        run.code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the CLI promises a report, never a traceback
        run.error = f"{type(exc).__name__}: {exc}"
    run.stdout = out.getvalue()
    return run


def parse_reports(run: CliRun) -> list[dict | None]:
    """One entry per stdout line: the report, or None when it is not one."""
    reports: list[dict | None] = []
    for line in run.stdout.splitlines():
        try:
            rep = json.loads(line)
        except json.JSONDecodeError:
            reports.append(None)
            continue
        ok = (isinstance(rep, dict) and {"status", "payload", "elapsed_ms"} <= rep.keys()
              and isinstance(rep["payload"], dict))
        reports.append(rep if ok else None)
    return reports


def contract_error(run: CliRun) -> str | None:
    if run.error is not None:
        return f"raised {run.error}"
    if run.code not in EXIT_CODES:
        return f"exit code {run.code!r} outside the 0/1/2/3 contract"
    return None


def check_reports(run: CliRun, expected: list[tuple[str, Callable[[dict], bool]]],
                  want_code: int = 0) -> list[Op]:
    """Every line must be a `verified` report whose payload passes its check."""
    reports = parse_reports(run)
    broken = contract_error(run)
    if broken is None and run.code != want_code:
        broken = f"exit code {run.code}, expected {want_code}"
    if broken is None and len(reports) != len(expected):
        broken = f"{len(reports)} reports, expected {len(expected)}"
    ops = []
    for i, (name, holds) in enumerate(expected):
        rep = reports[i] if i < len(reports) else None
        if broken is not None:
            ops.append(Op(name, False, broken))
        elif rep is None:
            ops.append(Op(name, False, "missing or malformed report"))
        elif rep["status"] != "verified":
            ops.append(Op(name, False, f"status {rep['status']}"))
        elif not _holds(holds, rep["payload"]):
            ops.append(Op(name, False, f"payload mismatch: {json.dumps(rep['payload'])[:300]}"))
        else:
            ops.append(Op(name, True))
    return ops


def _holds(pred: Callable[[dict], bool], payload: dict) -> bool:
    try:
        return bool(pred(payload))
    except (KeyError, TypeError, ValueError):
        return False


def correct_guessers(g, q: int, s, assignment: tuple[int, ...]) -> list[int]:
    guesses = game.strategy_guesses(g, q, s, assignment)
    return [v for v in range(g.n_vertices) if guesses[v] == assignment[v]]


def _sum_of_powers(d: int) -> int:
    """1^1 + ... + d^d: the h-lower set size; one more is the smallest
    non-coverable set."""
    return sum(i**i for i in range(1, d + 1))


def _families_up_to(cap: int) -> int:
    """Number of (d, n) with d >= 2, n >= 1 and d^n <= cap."""
    return sum(1 for d in range(2, cap + 1) for n in range(1, cap.bit_length() + 1)
               if d**n <= cap)


# ---------------------------------------------------------------------------
# lemma-all


def lemma_all_expected() -> list[tuple[str, Callable[[dict], bool]]]:
    def windmill_ok(k: int, n: int, q: int) -> Callable[[dict], bool]:
        return lambda p: (p["lemma"] == "windmill" and (p["k"], p["n"], p["q"]) == (k, n, q)
                          and p["route"] == "exhaustive" and p["wins"] is True
                          and p["assignments_checked"] == q ** (1 + (k - 1) * n))

    def parity_ok(k: int) -> Callable[[dict], bool]:
        q = 2 * k - 2
        return lambda p: (p["lemma"] == "parity" and p["k"] == k and p["q"] == q
                          and p["half_size"] == q ** (k - 1) // 2 and p["odd_wins"] is True
                          and p["even_wins"] is True and p["sizes_match"] is True)

    def noncoverable_ok(d: int) -> Callable[[dict], bool]:
        return lambda p: (p["lemma"] == "noncoverable" and p["d"] == d
                          and p["size"] == _sum_of_powers(d) + 1 and p["noncoverable"] is True)

    expected = [
        ("three-cubes", lambda p: p["lemma"] == "three-cubes" and p["minimum"] == 20),
        ("four-cubes", lambda p: (p["lemma"] == "four-cubes" and p["quadruples"] == 64**4
                                  and p["violations"] == []
                                  and p["above_29"] + p["exact_cube"] + p["cube_minus_point"]
                                  == 64**4)),
        ("square-minima", lambda p: (p["lemma"] == "square-minima"
                                     and (p["pair"], p["triple"], p["quadruple"]) == (4, 8, 12))),
        ("prism-cover", lambda p: p["lemma"] == "prism-cover" and p["impossible"] is True),
        ("h-lower-d2", lambda p: (p["lemma"] == "h-lower" and p["d"] == 2
                                  and p["mode"] == "exhaustive" and p["set_size"] == _sum_of_powers(2)
                                  and p["sets_checked"] == math.comb(25, 5)
                                  and p["failures"] == [])),
    ]
    expected += [(f"noncoverable-d{d}", noncoverable_ok(d)) for d in range(1, 5)]
    expected.append(("difference-disjoint", lambda p: (
        p["lemma"] == "difference-disjoint" and p["max_modulus"] == 4096
        and p["families"] == _families_up_to(4096) and p["failures"] == [])))
    expected += [(f"parity-k{k}", parity_ok(k)) for k in (2, 3, 4)]
    expected += [("windmill-3,2", windmill_ok(3, 2, 4)), ("windmill-4,3", windmill_ok(4, 3, 6))]
    return expected


class LemmaAll:
    """`hatlab lemma all`: the headline suite, every module, seed-independent."""

    name = "lemma-all"
    measures_sweep = True

    def setup(self, seed: int, threads: int, scratch: Path) -> None:
        self.argv = ["lemma", "all", "--seed", str(seed), "--threads", str(threads)]

    def run(self) -> None:
        self.result = run_cli(self.argv)

    def check(self) -> Outcome:
        return Outcome(check_reports(self.result, lemma_all_expected()))


# ---------------------------------------------------------------------------
# verify-search


def decode(index: int, q: int, n: int) -> tuple[int, ...]:
    """Assignment at a lexicographic position, c_0 most significant."""
    return tuple(index // q ** (n - 1 - v) % q for v in range(n))


def encode(assignment: tuple[int, ...], q: int) -> int:
    index = 0
    for c in assignment:
        index = index * q + c
    return index


def check_loss(name: str, g, q: int, s, report, want: tuple[int, ...] | None = None) -> Op:
    """A reported counterexample must lose under the scalar evaluator, sit at
    position `assignments_checked`, and, when known, be the planted one."""
    cex = None if report.counterexample is None else tuple(report.counterexample)
    if report.wins or cex is None:
        return Op(name, False, "reported a win for a losing strategy")
    if want is not None and cex != want:
        return Op(name, False, f"counterexample {cex}, expected {want}")
    if encode(cex, q) + 1 != report.assignments_checked:
        return Op(name, False, f"counterexample {cex} is not at position "
                               f"{report.assignments_checked}")
    if correct_guessers(g, q, s, cex):
        return Op(name, False, f"counterexample {cex} is won by the strategy")
    return Op(name, True)


def check_win(name: str, report, space: int) -> Op:
    if not report.wins or report.counterexample is not None:
        return Op(name, False, f"reported a loss at {report.counterexample}")
    if report.assignments_checked != space:
        return Op(name, False, f"checked {report.assignments_checked} of {space}")
    return Op(name, True)


def attempt(fn: Callable, *args, **kwargs) -> Any:
    """Call a library entry point; an exception becomes the result."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation by check()
        return exc


def plant_axle_loss(g, s, rng: random.Random, centre: float):
    """One-cell perturbation of a winning windmill strategy that loses at a
    seeded position within 1/64 of the space around `centre` (a share).

    Draws positions there until one holds an assignment that only the axle
    (vertex 0, adjacent to every other vertex) guesses right, then changes
    the axle's guess in exactly that context.  That assignment is then the
    only losing one, so it is the counterexample the verifier must report.
    """
    q, n = s.q, g.n_vertices
    lo, hi = int(q**n * (centre - 1 / 64)), int(q**n * (centre + 1 / 64))
    a = decode(rng.randrange(lo, hi), q, n)
    while correct_guessers(g, q, s, a) != [0]:
        a = decode(rng.randrange(lo, hi), q, n)
    cell = sum(a[u] * q**j for j, u in enumerate(g.adjacency[0]))
    axle = s.tables[0].copy()
    axle[cell] = (int(axle[cell]) + 1 + rng.randrange(q - 1)) % q
    return game.Strategy(q, (axle,) + tuple(s.tables[1:])), a


W43_SPACE = 6**10

SEARCH_BUDGET = 200_000

# (label, vertex count, edges, published hat-guessing number): HG(K_n) = n;
# trees have HG 2 (Butler et al. 2008); C_4 wins at q=3, not at q=4
# (Szczechla 2017).
SEARCH_GRAPHS = {
    "K2": (2, [(0, 1)], 2),
    "K3": (3, [(0, 1), (0, 2), (1, 2)], 3),
    "K4": (4, list(itertools.combinations(range(4), 2)), 4),
    "P3": (3, [(0, 1), (1, 2)], 2),
    "K13": (4, [(0, 1), (0, 2), (0, 3)], 2),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)], 3),
}
SEARCH_CASES = [("K2", 2), ("K2", 3), ("K3", 3), ("K3", 4), ("P3", 3), ("K13", 3),
                ("C4", 3), ("C4", 4), ("K4", 4)]


@dataclass
class SearchCase:
    label: str
    q: int
    n: int
    edges: list[tuple[int, int]]
    winnable: bool
    path: Path
    result: CliRun = field(default_factory=lambda: CliRun([]))

    @property
    def spec(self) -> str:
        flat = itertools.chain.from_iterable(self.edges)
        return "custom:" + ",".join(str(x) for x in (self.n, *flat))


def relabelled(label: str, q: int, rng: random.Random, path: Path) -> SearchCase:
    n, edges, hg = SEARCH_GRAPHS[label]
    perm = list(range(n))
    rng.shuffle(perm)
    moved = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
    return SearchCase(label, q, n, moved, q <= hg, path)


def check_search(case: SearchCase) -> Op:
    """Exit 3, budget exhausted, is an undecided case, not a failure."""
    name = f"search-{case.label}-q{case.q}"
    run = case.result
    broken = contract_error(run)
    reports = parse_reports(run)
    if broken is None and (len(reports) != 1 or reports[0] is None):
        broken = "missing or malformed report"
    if broken is not None:
        return Op(name, False, broken, decided=False, budgeted=True)
    status, p = reports[0]["status"], reports[0]["payload"]
    if run.code == 3 and status == "infeasible":
        return Op(name, True, "budget exhausted", decided=False, budgeted=True)
    if run.code == 1 and status == "falsified" and p.get("proven_unwinnable") is True:
        if case.winnable:
            return Op(name, False, "proved a winnable game unwinnable", budgeted=True)
        return Op(name, True, budgeted=True)
    if run.code == 0 and status == "verified" and p.get("found") is True:
        if not case.winnable:
            return Op(name, False, "found a strategy for an unwinnable game", budgeted=True)
        return _check_found(name, case)
    return Op(name, False, f"exit {run.code} with status {status}", budgeted=True)


def _check_found(name: str, case: SearchCase) -> Op:
    try:
        g, q, s = game.read_strategy_file(str(case.path))
    except (OSError, ValueError) as exc:
        return Op(name, False, f"unreadable strategy file: {exc}", budgeted=True)
    if q != case.q or sorted(g.edges) != case.edges:
        return Op(name, False, "strategy file is for another game", budgeted=True)
    for a in itertools.product(range(q), repeat=g.n_vertices):
        if not correct_guessers(g, q, s, a):
            return Op(name, False, f"found strategy loses at {a}", budgeted=True)
    return Op(name, True, budgeted=True)


class VerifySearch:
    """The verifier kernel and the sweep pool from the library (a windmill
    win, a dense K_8 win, four seeded early-exit losses, K_7 guess counts),
    then budgeted strategy searches on seeded relabellings."""

    name = "verify-search"
    measures_sweep = False

    def setup(self, seed: int, threads: int, scratch: Path) -> None:
        rng = random.Random(seed)
        self.threads = threads
        self.g_w = game.build_graph("windmill", 4, 3)
        self.w43 = windmill.assemble_windmill_strategy(windmill.product_certificate_parity(4, 3))
        self.g8, self.k8 = game.build_graph("complete", 8), game.complete_sum_strategy(8, 8)
        self.g7, self.k7 = game.build_graph("complete", 7), game.complete_sum_strategy(7, 7)
        # the losses sit near 1/16, 3/16, 5/16 and 7/16 of the space, so
        # together their early exits scan about one space on every seed
        self.losses = [plant_axle_loss(self.g_w, self.w43, rng, (2 * i + 1) / 16)
                       for i in range(4)]
        self.count_samples = [rng.randrange(7**7) for _ in range(200)]
        self.cases = []
        for i, (label, q) in enumerate(SEARCH_CASES):
            path = scratch / f"search-{i}.json"
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            self.cases.append(relabelled(label, q, rng, path))

    def run(self) -> None:
        t = self.threads
        self.reports = [
            attempt(game.verify_strategy, self.g_w, 6, self.w43, threads=t),
            attempt(game.verify_strategy, self.g8, 8, self.k8, threads=t),
        ]
        self.reports += [attempt(game.verify_strategy, self.g_w, 6, s, threads=t)
                         for s, _ in self.losses]
        self.counts = attempt(game.correct_guess_counts, self.g7, 7, self.k7)
        for c in self.cases:
            c.result = run_cli(["search", "-g", c.spec, "-q", str(c.q),
                                "--budget", str(SEARCH_BUDGET), "--threads", str(t),
                                "-o", str(c.path)])

    def check(self) -> Outcome:
        ops = []
        cases = [("verify-w43-win", lambda r: check_win("verify-w43-win", r, W43_SPACE)),
                 ("verify-k8-win", lambda r: check_win("verify-k8-win", r, 8**8))]
        for i, (s, a) in enumerate(self.losses):
            name = f"verify-w43-loss{i}"
            cases.append((name, lambda r, name=name, s=s, a=a:
                          check_loss(name, self.g_w, 6, s, r, want=a)))
        for (name, judge), rep in zip(cases, self.reports):
            if isinstance(rep, Exception):
                ops.append(Op(name, False, f"raised {rep!r}"))
            else:
                ops.append(judge(rep))
        ops.append(self._check_counts())
        ops += [check_search(c) for c in self.cases]
        return Outcome(ops)

    def _check_counts(self) -> Op:
        name = "counts-k7"
        c = self.counts
        if isinstance(c, Exception):
            return Op(name, False, f"raised {c!r}")
        if len(c) != 7**7 or not bool((c == 1).all()):
            # the sum strategy on K_n with q = n has exactly one right guesser
            return Op(name, False, "not exactly one correct guesser everywhere")
        for i in self.count_samples:
            if len(correct_guessers(self.g7, 7, self.k7, decode(i, 7, 7))) != c[i]:
                return Op(name, False, f"count at {i} disagrees with the scalar path")
        return Op(name, True)


WORKLOADS = {w.name: w for w in (LemmaAll, VerifySearch)}
