"""Command-line front end: constructions, verification, and lemma sweeps.

Every run prints one JSON report per line on stdout — nothing else — with
fields status/payload/elapsed_ms, and exits 0 (verified), 1 (falsified),
2 (usage or error, or stdout closed by its reader), or 3 (infeasible under
the budget).  Each verb returns its one (status, payload) report; `_run`
alone times and prints the reports and picks the exit code.  A rejected
command line is an error like any other: one `error` report and exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import cover, cube, game, windmill
from .errors import HatLabError, InfeasibleError, ParameterError

EXIT_VERIFIED = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

_STATUS_EXIT = {
    "verified": EXIT_VERIFIED,
    "falsified": EXIT_FALSIFIED,
    "error": EXIT_USAGE,
    "infeasible": EXIT_INFEASIBLE,
}


def parse_graph_spec(text: str) -> game.Graph:
    """family:comma-separated-ints, e.g. complete:4, windmill:3,2,
    custom:3,0,1,1,2 (vertex count then edge endpoints)."""
    family, _, rest = text.partition(":")
    try:
        params = [int(tok) for tok in rest.split(",")] if rest else []
    except ValueError:
        raise ParameterError(f"bad graph spec {text!r}: parameters must be integers")
    return game._graph_from_spec(family, params)


def graph_spec_string(g: game.Graph) -> str:
    return g.family + ":" + ",".join(str(p) for p in g.params)


def _json_fallback(value):
    # numpy scalars leak into payloads from vectorized sweeps
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serializable: {value!r}")


def _emit(status: str, payload: dict, started: float) -> int:
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    line = json.dumps({"status": status, "payload": payload, "elapsed_ms": elapsed_ms},
                      default=_json_fallback)
    print(line, flush=True)
    return _STATUS_EXIT[status]


def _verify_fields(rep: game.VerificationReport) -> dict:
    """The payload fields of a verify report: the win, the count checked
    and the counterexample of a loss."""
    fields = {"wins": rep.wins, "assignments_checked": rep.assignments_checked}
    if rep.counterexample is not None:
        fields["counterexample"] = list(rep.counterexample)
    return fields


def _resolve_budget(value: int | None, fallback: int) -> int:
    if value is None:
        env = os.environ.get("HATLAB_BUDGET")
        if env is None:
            return fallback
        try:
            value = int(env)
        except ValueError:
            raise ParameterError(f"HATLAB_BUDGET must be an integer, got {env!r}")
    if value < 0:
        raise ParameterError(f"budget must be non-negative, got {value}")
    return value


# ---------------------------------------------------------------------------
# lemma items — each returns (holds, payload)

LemmaResult = tuple[bool, dict]


def _lemma_three_cubes(args: argparse.Namespace) -> LemmaResult:
    minimum = cube.three_cubes_min_two_intersection()
    return minimum == 20, {"minimum": minimum}


def _lemma_four_cubes(args: argparse.Namespace) -> LemmaResult:
    rep = cube.four_cubes_two_intersection_sweep()
    payload = {
        "quadruples": rep.quadruples,
        "above_29": rep.above_29,
        "exact_cube": rep.exact_cube,
        "cube_minus_point": rep.cube_minus_point,
        "violations": [[list(c) for c in quad] for quad in rep.violations],
    }
    return rep.ok, payload


def _lemma_square_minima(args: argparse.Namespace) -> LemmaResult:
    minima = cube.square_two_intersection_minima()
    return minima == (4, 8, 12), {"pair": minima[0], "triple": minima[1], "quadruple": minima[2]}


def _lemma_prism_cover(args: argparse.Namespace) -> LemmaResult:
    ok = cube.prism_cover_impossible()
    return ok, {"impossible": ok}


def _lemma_h_lower(args: argparse.Namespace) -> LemmaResult:
    mode = "exhaustive" if args.d <= 2 else "random"
    rep = cover.coverability_sweep(args.d, mode, trials=args.trials, seed=args.seed)
    payload = {
        "d": rep.d,
        "mode": rep.mode,
        "set_size": rep.set_size,
        "sets_checked": rep.sets_checked,
        "failures": [[list(p) for p in s.points] for s in rep.failures],
    }
    return rep.ok, payload


def _lemma_noncoverable(args: argparse.Namespace) -> LemmaResult:
    if args.d is None:
        raise ParameterError("noncoverable needs -d")
    # raises if its own matching check unexpectedly finds a cover
    s = cover.noncoverable_construction(args.d)
    return True, {"d": args.d, "size": len(s.points), "noncoverable": True}


def _lemma_difference_disjoint(args: argparse.Namespace) -> LemmaResult:
    d, n = args.d, args.n
    if d is not None and n is not None:
        fam = windmill.difference_disjoint_family(d, n)
        disjoint = windmill.is_difference_disjoint(fam.sets, fam.modulus)
        worst = windmill.translate_intersection_max(fam.sets, fam.modulus, args.trials,
                                                    seed=args.seed)
        payload = {"d": d, "n": n, "modulus": fam.modulus,
                   "set_sizes": [len(s) for s in fam.sets], "disjoint": disjoint,
                   "translate_intersection_max": worst}
        return disjoint and worst <= 1, payload
    if d is not None or n is not None:
        raise ParameterError("give both -d and -n, or neither for the full sweep")
    # sweep every family with modulus d^n up to the cap
    cap = 4096
    families = 0
    bad: list[list[int]] = []
    for d in range(2, cap + 1):
        n = 1
        while d**n <= cap:
            fam = windmill.difference_disjoint_family(d, n)
            if not windmill.is_difference_disjoint(fam.sets, fam.modulus):
                bad.append([d, n])
            families += 1
            n += 1
    return not bad, {"max_modulus": cap, "families": families, "failures": bad}


def _lemma_parity(args: argparse.Namespace) -> LemmaResult:
    if args.k is None:
        raise ParameterError("parity needs -k")
    k = args.k
    q = 2 * k - 2
    g = game.build_graph("complete", k - 1)
    sizes_ok = True
    wins = {}
    for side in ("odd", "even"):
        solvable, strat = windmill.parity_set_strategy(k, side)
        sizes_ok &= len(solvable) == q ** (k - 1) // 2
        wins[side] = game.verify_strategy(g, q, strat, restriction=solvable.members).wins
    payload = {"k": k, "q": q, "half_size": q ** (k - 1) // 2,
               "odd_wins": wins["odd"], "even_wins": wins["even"],
               "sizes_match": sizes_ok}
    return sizes_ok and wins["odd"] and wins["even"], payload


def _certificate_family(args: argparse.Namespace) -> str:
    """`counting` and `windmill` check the parity family (q = 2k-2) when
    given -k and the residue family (q = d^n) when given -d; any other
    command line is refused rather than half read."""
    if (args.k is None) == (args.d is None):
        raise ParameterError(f"lemma {args.name} takes exactly one of -k (parity) and -d (residue)")
    family = "parity" if args.k is not None else "residue"
    reads_n = family == "residue" or args.name == "windmill"
    if (args.n is not None) != reads_n:
        raise ParameterError(f"lemma {args.name} -{'k' if family == 'parity' else 'd'} "
                             + ("needs -n" if reads_n else "does not read -n"))
    return family


def _lemma_counting(args: argparse.Namespace) -> LemmaResult:
    mode = _certificate_family(args)
    if mode == "parity":
        params, holds = {"k": args.k}, windmill.parity_counting_check(args.k)
    else:
        params, holds = {"d": args.d, "n": args.n}, windmill.residue_counting_check(args.d, args.n)
    return holds, {"mode": mode, **params, "holds": holds}


def _parity_windmill(k: int, n: int) -> tuple[game.Graph, windmill.ProductCertificate]:
    # the graph first: its caps refuse a huge windmill before a certificate is built
    return game.build_graph("windmill", k, n), windmill.product_certificate_parity(k, n)


def _residue_windmill(d: int, n: int) -> tuple[game.Graph, windmill.ProductCertificate]:
    cert = windmill.product_certificate_residue(d, n)
    return game.build_graph("windmill", cert.k, cert.n), cert


def _lemma_windmill(args: argparse.Namespace) -> LemmaResult:
    g, cert = (_parity_windmill(args.k, args.n) if _certificate_family(args) == "parity"
               else _residue_windmill(args.d, args.n))
    budget = _resolve_budget(args.budget, game.DEFAULT_ASSIGNMENT_BUDGET)
    payload: dict = {"k": cert.k, "n": cert.n, "q": cert.q,
                     "graph": graph_spec_string(g)}
    space = cert.q**g.n_vertices
    if space <= budget:
        strat = windmill.assemble_windmill_strategy(cert)
        rep = game.verify_strategy(g, cert.q, strat, budget=budget,
                                   threads=args.threads)
        payload.update(route="exhaustive", **_verify_fields(rep))
        return rep.wins, payload
    # too big to enumerate: check the certificate itself, then sample
    disjoint = windmill.certificate_disjointness_check(cert)
    blades = windmill.certificate_blade_check(cert)
    losses = windmill.certificate_random_loss_check(cert, args.trials, seed=args.seed)
    payload.update(route="certificate", products_disjoint=disjoint,
                   blades_win=blades, sampled=args.trials, losses=losses)
    return disjoint and blades and losses == 0, payload


_LEMMA_HANDLERS = {
    "three-cubes": _lemma_three_cubes, "four-cubes": _lemma_four_cubes,
    "square-minima": _lemma_square_minima, "prism-cover": _lemma_prism_cover,
    "h-lower": _lemma_h_lower, "noncoverable": _lemma_noncoverable,
    "difference-disjoint": _lemma_difference_disjoint, "parity": _lemma_parity,
    "counting": _lemma_counting, "windmill": _lemma_windmill,
}


# `lemma all`: every lemma at fixed parameters, each line parsed as if given alone
_LEMMA_ALL = (
    "three-cubes", "four-cubes", "square-minima", "prism-cover", "h-lower -d 2",
    "noncoverable -d 1", "noncoverable -d 2", "noncoverable -d 3", "noncoverable -d 4",
    "difference-disjoint", "parity -k 2", "parity -k 3", "parity -k 4",
    "windmill -k 3 -n 2", "windmill -k 4 -n 3")


def cmd_lemma(args: argparse.Namespace) -> tuple[str, dict]:
    holds, payload = _LEMMA_HANDLERS[args.name](args)
    return "verified" if holds else "falsified", {"lemma": args.name, **payload}


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args: argparse.Namespace) -> tuple[str, dict]:
    name, out = args.name, args.output
    if name == "sum":
        if args.n is None:
            raise ParameterError("construct sum needs -n")
        g = game.build_graph("complete", args.n)
        game.write_strategy_file(out, g, game.complete_sum_strategy(args.n, args.n))
        payload = {"written": out, "graph": graph_spec_string(g), "q": args.n}
    elif name in ("windmill-2k2", "windmill-dn"):
        parity = name == "windmill-2k2"
        if args.n is None or (args.k if parity else args.d) is None:
            raise ParameterError(f"construct {name} needs -{'k' if parity else 'd'} and -n")
        g, cert = _parity_windmill(args.k, args.n) if parity else _residue_windmill(args.d, args.n)
        payload = {"graph": graph_spec_string(g), "q": cert.q, "k": cert.k, "n": cert.n}
        if args.certificate:
            windmill.write_certificate_file(out, cert)
            payload.update(written=out, kind="certificate")
        else:
            game.write_strategy_file(out, g, windmill.assemble_windmill_strategy(cert))
            payload.update(written=out, kind="strategy")
    elif name == "k22":
        p_parts, q_parts = cube.k22_certificate_search()
        strat = cube.strategy_from_bipartite_partitions(2, 3, [p_parts, q_parts])
        g = game.build_graph("complete_bipartite", 2, 2)
        game.write_strategy_file(out, g, strat)
        payload = {
            "written": out,
            "graph": graph_spec_string(g),
            "q": 3,
            "partition_p": [cube.mask_to_hex(m) for m in p_parts],
            "partition_q": [cube.mask_to_hex(m) for m in q_parts],
        }
    else:  # noncoverable, the last of the parser's choices
        if args.d is None:
            raise ParameterError("construct noncoverable needs -d")
        s = cover.noncoverable_construction(args.d)
        cover.write_point_set(out, s)
        payload = {"written": out, "d": args.d, "size": len(s.points)}
    return "verified", payload


# ---------------------------------------------------------------------------
# verify / cover / search


def cmd_verify(args: argparse.Namespace) -> tuple[str, dict]:
    g = parse_graph_spec(args.graph)
    file_graph, file_q, strat = game.read_strategy_file(args.strategy)
    if (file_graph.family, file_graph.params) != (g.family, g.params):
        raise ParameterError(
            f"strategy file is for {graph_spec_string(file_graph)}, not {args.graph}")
    if file_q != args.q:
        raise ParameterError(f"strategy file has q={file_q}, not {args.q}")
    restriction = None
    if args.restriction is not None:
        rq, rn, members = game.read_assignment_set(args.restriction)
        if rq != args.q or rn != g.n_vertices:
            raise ParameterError(
                f"restriction file is shaped (q={rq}, n={rn}), "
                f"expected (q={args.q}, n={g.n_vertices})")
        restriction = members
    budget = _resolve_budget(args.budget, game.DEFAULT_ASSIGNMENT_BUDGET)
    rep = game.verify_strategy(g, args.q, strat, restriction=restriction,
                               budget=budget, threads=args.threads)
    payload = {"graph": args.graph, "q": args.q, **_verify_fields(rep)}
    return "verified" if rep.wins else "falsified", payload


def cmd_cover(args: argparse.Namespace) -> tuple[str, dict]:
    s = cover.read_point_set(args.file)
    result = cover.coverable(s)
    if isinstance(result, cover.AxisPartition):
        classes = sorted((list(p), i) for p, i in result.classes.items())
        payload = {"coverable": True,
                   "classes": [[p, i] for p, i in classes]}
        status = "verified"
    else:
        payload = {"coverable": False,
                   "violator": [list(p) for p in sorted(result.subset.points)]}
        status = "falsified"
    if args.bruteforce:
        budget = _resolve_budget(args.budget, cover.DEFAULT_BRUTEFORCE_BUDGET)
        oracle = cover.coverable_bruteforce(s, budget=budget)
        payload["bruteforce_agrees"] = oracle == (status == "verified")
        if not payload["bruteforce_agrees"]:
            status = "error"
    return status, payload


def cmd_search(args: argparse.Namespace) -> tuple[str, dict]:
    g = parse_graph_spec(args.graph)
    budget = _resolve_budget(args.budget, game.DEFAULT_SEARCH_BUDGET)
    outcome = game.search_strategy(g, args.q, budget=budget)
    payload: dict = {"graph": args.graph, "q": args.q,
                     "nodes_explored": outcome.nodes_explored}
    if outcome.strategy is not None:
        if args.output is not None:
            game.write_strategy_file(args.output, g, outcome.strategy)
            payload["written"] = args.output
        payload["found"] = True
        return "verified", payload
    if outcome.proven_unwinnable:
        payload.update(found=False, proven_unwinnable=True)
        return "falsified", payload
    raise InfeasibleError(f"search budget {budget} exhausted", required=budget + 1)


# ---------------------------------------------------------------------------
# argument parsing


# every option of a lemma or a construction; verify, cover and search take some limits
_OPTIONS = {
    "-o/--output": dict(required=True, help="output file"),
    "-d": dict(type=int, help="dimension / digit base (the residue family, q = d^n)"),
    "-n": dict(type=int, help="blade count / exponent"),
    "-k": dict(type=int, help="clique size (the parity family, q = 2k-2)"),
    "--certificate": dict(action="store_true", help="write the product certificate"),
    "--seed": dict(type=int, default=0, help="seed for randomized sweeps (default 0)"),
    "--budget": dict(type=int, help="override operation budget (or set HATLAB_BUDGET)"),
    "--threads": dict(type=int, help="cap worker threads (default: cores, at most 8)"),
    "--trials": dict(type=int, default=1000, help="trials of the sampled checks (default 1000)"),
}

# each lemma and construction, with the options it reads
_NAMES = {
    "lemma": {
        "three-cubes": "", "four-cubes": "", "square-minima": "", "prism-cover": "",
        "h-lower": "-d --seed --trials", "noncoverable": "-d",
        "difference-disjoint": "-d -n --seed --trials", "parity": "-k",
        "counting": "-k -d -n", "windmill": "-k -d -n --seed --budget --threads --trials",
        # no item of `all` samples, so --seed has no effect there; perfbench passes it
        "all": "--seed --budget --threads",
    },
    "construct": {
        "sum": "-o/--output -n", "windmill-2k2": "-o/--output -k -n --certificate",
        "windmill-dn": "-o/--output -d -n --certificate", "k22": "-o/--output",
        "noncoverable": "-o/--output -d",
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # `_run` reports a rejected command line
        raise ParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hatlab",
                     description="Hat-guessing strategies on graphs: build, verify, sweep.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_options(p: argparse.ArgumentParser, flags: str) -> None:
        for flag in flags.split():
            p.add_argument(*flag.split("/"), **_OPTIONS[flag])

    for verb, help_text in (("lemma", "run a finite lemma check"),
                            ("construct", "build an object and write it to a file")):
        names = sub.add_parser(verb, help=help_text).add_subparsers(dest="name", required=True)
        for name, flags in _NAMES[verb].items():
            add_options(names.add_parser(name), flags)
        if verb == "lemma":
            names.choices["h-lower"].set_defaults(d=2)

    p_ver = sub.add_parser("verify", help="check a strategy file against every assignment")
    p_ver.add_argument("-g", "--graph", required=True, help="graph spec, e.g. windmill:3,2")
    p_ver.add_argument("-q", type=int, required=True, help="number of colors")
    p_ver.add_argument("-s", "--strategy", required=True, help="strategy file")
    p_ver.add_argument("--restriction", default=None,
                       help="assignment-set file restricting the adversary")
    add_options(p_ver, "--budget --threads")

    p_cov = sub.add_parser("cover", help="test a point-set file for coverability")
    p_cov.add_argument("--file", required=True, help="point-set file")
    p_cov.add_argument("--bruteforce", action="store_true",
                       help="cross-check against the exponential oracle")
    add_options(p_cov, "--budget")

    p_sea = sub.add_parser("search", help="exhaustive strategy search on a small graph")
    p_sea.add_argument("-g", "--graph", required=True)
    p_sea.add_argument("-q", type=int, required=True)
    p_sea.add_argument("-o", "--output", default=None, help="write any found strategy here")
    # --threads has no effect: a searchable game is verified as one chunk
    add_options(p_sea, "--budget --threads")

    return parser


_VERB_HANDLERS = {
    "lemma": cmd_lemma,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "cover": cmd_cover,
    "search": cmd_search,
}


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # the reader closed stdout: stop with exit 2, and point stdout at
        # devnull so that the interpreter's final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


def _run(argv: list[str] | None) -> int:
    """Print the report of each command line, the fifteen of `lemma all`
    included, as it comes, each timed from the end of the one before, and
    exit with the worst; an error, a rejected command line too, ends the run
    with its own report and exit code."""
    parser = build_parser()
    started = time.perf_counter()
    worst = EXIT_VERIFIED
    try:
        args = parser.parse_args(argv)
        # refuse bad limits before any report of `lemma all` is printed
        if "budget" in args:
            _resolve_budget(args.budget, 0)
        threads = getattr(args, "threads", None)
        if threads is not None and threads < 1:
            raise ParameterError(f"--threads must be at least 1, got {threads}")
        runs = [args]
        if args.verb == "lemma" and args.name == "all":
            # fifteen lemma command lines, each with the limits given to `all`
            runs = [parser.parse_args(["lemma", *line.split()]) for line in _LEMMA_ALL]
            for run in runs:
                vars(run).update({k: v for k, v in vars(args).items() if k in run and k != "name"})
        for run in runs:
            worst = max(worst, _emit(*_VERB_HANDLERS[run.verb](run), started))
            started = time.perf_counter()
        return worst
    except InfeasibleError as exc:
        payload = {"message": str(exc)}
        if exc.required is not None:
            payload["required"] = exc.required
        return _emit("infeasible", payload, started)
    except (HatLabError, OSError) as exc:
        return _emit("error", {"message": str(exc)}, started)


if __name__ == "__main__":
    sys.exit(main())
