"""Command-line front end: constructions, verification, and lemma sweeps.

Every run prints one JSON report per line on stdout — nothing else — with
fields status/payload/elapsed_ms, and exits 0 (verified), 1 (falsified),
2 (usage or error, or stdout closed by its reader), or 3 (infeasible under
the budget).
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
# lemma items — each returns (status, payload)

LemmaResult = tuple[str, dict]


def _lemma_three_cubes(args: argparse.Namespace) -> LemmaResult:
    minimum = cube.three_cubes_min_two_intersection()
    return ("verified" if minimum == 20 else "falsified", {"minimum": minimum})


def _lemma_four_cubes(args: argparse.Namespace) -> LemmaResult:
    rep = cube.four_cubes_two_intersection_sweep()
    payload = {
        "quadruples": rep.quadruples,
        "above_29": rep.above_29,
        "exact_cube": rep.exact_cube,
        "cube_minus_point": rep.cube_minus_point,
        "violations": [[list(c) for c in quad] for quad in rep.violations],
    }
    return ("verified" if rep.ok else "falsified", payload)


def _lemma_square_minima(args: argparse.Namespace) -> LemmaResult:
    minima = cube.square_two_intersection_minima()
    payload = {"pair": minima[0], "triple": minima[1], "quadruple": minima[2]}
    return ("verified" if minima == (4, 8, 12) else "falsified", payload)


def _lemma_prism_cover(args: argparse.Namespace) -> LemmaResult:
    ok = cube.prism_cover_impossible()
    return ("verified" if ok else "falsified", {"impossible": ok})


def _lemma_h_lower(args: argparse.Namespace) -> LemmaResult:
    d = 2 if args.d is None else args.d
    mode = args.mode or ("exhaustive" if d <= 2 else "random")
    rep = cover.coverability_sweep(d, mode, trials=args.trials, seed=args.seed)
    payload = {
        "d": rep.d,
        "mode": rep.mode,
        "set_size": rep.set_size,
        "sets_checked": rep.sets_checked,
        "failures": [[list(p) for p in s] for s in rep.failures],
    }
    return ("verified" if rep.ok else "falsified", payload)


def _lemma_noncoverable(args: argparse.Namespace) -> LemmaResult:
    if args.d is None:
        raise ParameterError("noncoverable needs -d")
    # raises if its own matching check unexpectedly finds a cover
    s = cover.noncoverable_construction(args.d)
    return ("verified", {"d": args.d, "size": len(s.points), "noncoverable": True})


def _difference_disjoint_one(d: int, n: int, trials: int, seed: int) -> tuple[bool, dict]:
    fam = windmill.difference_disjoint_family(d, n)
    disjoint = windmill.is_difference_disjoint(fam.sets, fam.modulus)
    worst = windmill.translate_intersection_max(fam.sets, fam.modulus, trials, seed=seed)
    payload = {
        "d": d,
        "n": n,
        "modulus": fam.modulus,
        "set_sizes": [len(s) for s in fam.sets],
        "disjoint": disjoint,
        "translate_intersection_max": worst,
    }
    return disjoint and worst <= 1, payload


def _lemma_difference_disjoint(args: argparse.Namespace) -> LemmaResult:
    if args.d is not None and args.n is not None:
        ok, payload = _difference_disjoint_one(args.d, args.n, args.trials, args.seed)
        return ("verified" if ok else "falsified", payload)
    if args.d is not None or args.n is not None:
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
    payload = {"max_modulus": cap, "families": families, "failures": bad}
    return ("verified" if not bad else "falsified", payload)


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
    ok = sizes_ok and wins["odd"] and wins["even"]
    return ("verified" if ok else "falsified", payload)


def _lemma_counting(args: argparse.Namespace) -> LemmaResult:
    mode = args.mode or ("parity" if args.k is not None else "residue")
    if mode == "parity":
        if args.k is None:
            raise ParameterError("counting --mode parity needs -k")
        holds = windmill.parity_counting_check(args.k)
        return ("verified" if holds else "falsified",
                {"mode": "parity", "k": args.k, "holds": holds})
    if mode != "residue":
        raise ParameterError(f"unknown counting mode {mode!r}")
    if args.d is None or args.n is None:
        raise ParameterError("counting --mode residue needs -d and -n")
    holds = windmill.residue_counting_check(args.d, args.n)
    return ("verified" if holds else "falsified",
            {"mode": "residue", "d": args.d, "n": args.n, "holds": holds})


def _windmill_certificate(args: argparse.Namespace) -> windmill.ProductCertificate:
    mode = args.mode or ("residue" if args.d is not None else "parity")
    if mode == "parity":
        if args.k is None or args.n is None:
            raise ParameterError("windmill --mode parity needs -k and -n")
        return windmill.product_certificate_parity(args.k, args.n)
    if mode != "residue":
        raise ParameterError(f"unknown windmill mode {mode!r}")
    if args.d is None or args.n is None:
        raise ParameterError("windmill --mode residue needs -d and -n")
    return windmill.product_certificate_residue(args.d, args.n)


def _lemma_windmill(args: argparse.Namespace) -> LemmaResult:
    cert = _windmill_certificate(args)
    budget = _resolve_budget(args.budget, game.DEFAULT_ASSIGNMENT_BUDGET)
    g = game.build_graph("windmill", cert.k, cert.n)
    payload: dict = {"k": cert.k, "n": cert.n, "q": cert.q,
                     "graph": graph_spec_string(g)}
    space = cert.q**g.n_vertices
    if space <= budget:
        strat = windmill.assemble_windmill_strategy(cert)
        rep = game.verify_strategy(g, cert.q, strat, budget=budget,
                                   threads=args.threads)
        payload.update(route="exhaustive", wins=rep.wins,
                       assignments_checked=rep.assignments_checked)
        if rep.counterexample is not None:
            payload["counterexample"] = list(rep.counterexample)
        return ("verified" if rep.wins else "falsified", payload)
    # too big to enumerate: check the certificate itself, then sample
    disjoint = windmill.certificate_disjointness_check(cert)
    blades = windmill.certificate_blade_check(cert)
    losses = windmill.certificate_random_loss_check(cert, args.trials, seed=args.seed)
    payload.update(route="certificate", products_disjoint=disjoint,
                   blades_win=blades, sampled=args.trials, losses=losses)
    ok = disjoint and blades and losses == 0
    return ("verified" if ok else "falsified", payload)


_LEMMA_HANDLERS = {
    "three-cubes": _lemma_three_cubes,
    "four-cubes": _lemma_four_cubes,
    "square-minima": _lemma_square_minima,
    "prism-cover": _lemma_prism_cover,
    "h-lower": _lemma_h_lower,
    "noncoverable": _lemma_noncoverable,
    "difference-disjoint": _lemma_difference_disjoint,
    "parity": _lemma_parity,
    "counting": _lemma_counting,
    "windmill": _lemma_windmill,
}


def _lemma_all_plan(args: argparse.Namespace) -> list[tuple[str, argparse.Namespace]]:
    def ns(**kw) -> argparse.Namespace:
        base = dict(d=None, n=None, k=None, mode=None, trials=args.trials,
                    seed=args.seed, budget=args.budget, threads=args.threads)
        base.update(kw)
        return argparse.Namespace(**base)

    plan = [
        ("three-cubes", ns()),
        ("four-cubes", ns()),
        ("square-minima", ns()),
        ("prism-cover", ns()),
        ("h-lower", ns(d=2, mode="exhaustive")),
    ]
    plan += [("noncoverable", ns(d=d)) for d in range(1, 5)]
    plan.append(("difference-disjoint", ns()))
    plan += [("parity", ns(k=k)) for k in (2, 3, 4)]
    plan += [
        ("windmill", ns(mode="parity", k=3, n=2)),
        ("windmill", ns(mode="parity", k=4, n=3)),
    ]
    return plan


def cmd_lemma(args: argparse.Namespace) -> int:
    if args.name == "all":
        worst = EXIT_VERIFIED
        for name, sub in _lemma_all_plan(args):
            started = time.perf_counter()
            status, payload = _LEMMA_HANDLERS[name](sub)
            payload = {"lemma": name, **payload}
            worst = max(worst, _emit(status, payload, started))
        return worst
    started = time.perf_counter()
    status, payload = _LEMMA_HANDLERS[args.name](args)
    return _emit(status, {"lemma": args.name, **payload}, started)


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    name = args.name
    if name == "sum":
        if args.n is None:
            raise ParameterError("construct sum needs -n")
        g = game.build_graph("complete", args.n)
        strat = game.complete_sum_strategy(args.n, args.n)
        game.write_strategy_file(args.output, g, strat)
        payload = {"written": args.output, "graph": graph_spec_string(g), "q": args.n}
        return _emit("verified", payload, started)

    if name in ("windmill-2k2", "windmill-dn"):
        mode = "parity" if name == "windmill-2k2" else "residue"
        sub = argparse.Namespace(mode=mode, k=args.k, d=args.d, n=args.n)
        cert = _windmill_certificate(sub)
        g = game.build_graph("windmill", cert.k, cert.n)
        payload = {"graph": graph_spec_string(g), "q": cert.q,
                   "k": cert.k, "n": cert.n}
        if args.certificate:
            windmill.write_certificate_file(args.output, cert)
            payload.update(written=args.output, kind="certificate")
        else:
            strat = windmill.assemble_windmill_strategy(cert)
            game.write_strategy_file(args.output, g, strat)
            payload.update(written=args.output, kind="strategy")
        return _emit("verified", payload, started)

    if name == "k22":
        p_parts, q_parts = cube.k22_certificate_search()
        strat = cube.strategy_from_bipartite_partitions(2, 3, [p_parts, q_parts])
        g = game.build_graph("complete_bipartite", 2, 2)
        game.write_strategy_file(args.output, g, strat)
        payload = {
            "written": args.output,
            "graph": graph_spec_string(g),
            "q": 3,
            "partition_p": [cube.mask_to_hex(m) for m in p_parts],
            "partition_q": [cube.mask_to_hex(m) for m in q_parts],
        }
        return _emit("verified", payload, started)

    if name == "noncoverable":
        if args.d is None:
            raise ParameterError("construct noncoverable needs -d")
        s = cover.noncoverable_construction(args.d)
        cover.write_point_set(args.output, s)
        payload = {"written": args.output, "d": args.d, "size": len(s.points)}
        return _emit("verified", payload, started)

    raise ParameterError(f"unknown construction {name!r}")


# ---------------------------------------------------------------------------
# verify / cover / search


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
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
    payload: dict = {
        "graph": args.graph,
        "q": args.q,
        "wins": rep.wins,
        "assignments_checked": rep.assignments_checked,
    }
    if rep.counterexample is not None:
        payload["counterexample"] = list(rep.counterexample)
    return _emit("verified" if rep.wins else "falsified", payload, started)


def cmd_cover(args: argparse.Namespace) -> int:
    started = time.perf_counter()
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
            return _emit("error", payload, started)
    return _emit(status, payload, started)


def cmd_search(args: argparse.Namespace) -> int:
    started = time.perf_counter()
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
        return _emit("verified", payload, started)
    if outcome.proven_unwinnable:
        payload.update(found=False, proven_unwinnable=True)
        return _emit("falsified", payload, started)
    raise InfeasibleError(f"search budget {budget} exhausted", required=budget + 1)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatlab",
        description="Hat-guessing strategies on graphs: build, verify, sweep.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser, *, trials: int = 1000) -> None:
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized sweeps (default 0)")
        p.add_argument("--budget", type=int, default=None,
                       help="override operation budget (or set HATLAB_BUDGET)")
        p.add_argument("--threads", type=int, default=None,
                       help="cap worker threads (default: all cores)")
        p.add_argument("--trials", type=int, default=trials,
                       help=f"random trials where applicable (default {trials})")

    p_lemma = sub.add_parser("lemma", help="run a finite lemma check")
    p_lemma.add_argument("name", choices=sorted(_LEMMA_HANDLERS) + ["all"])
    p_lemma.add_argument("-d", type=int, default=None, help="dimension / digit base")
    p_lemma.add_argument("-n", type=int, default=None, help="blade count / exponent")
    p_lemma.add_argument("-k", type=int, default=None, help="clique size")
    p_lemma.add_argument("--mode", default=None,
                         help="h-lower: exhaustive|random; counting/windmill: parity|residue")
    add_common(p_lemma)

    p_con = sub.add_parser("construct", help="build an object and write it to a file")
    p_con.add_argument("name",
                       choices=["sum", "windmill-2k2", "windmill-dn", "k22", "noncoverable"])
    p_con.add_argument("-o", "--output", required=True, help="output file")
    p_con.add_argument("-d", type=int, default=None)
    p_con.add_argument("-n", type=int, default=None)
    p_con.add_argument("-k", type=int, default=None)
    p_con.add_argument("--certificate", action="store_true",
                       help="windmill: write the product certificate instead of tables")
    add_common(p_con)

    p_ver = sub.add_parser("verify", help="check a strategy file against every assignment")
    p_ver.add_argument("-g", "--graph", required=True, help="graph spec, e.g. windmill:3,2")
    p_ver.add_argument("-q", type=int, required=True, help="number of colors")
    p_ver.add_argument("-s", "--strategy", required=True, help="strategy file")
    p_ver.add_argument("--restriction", default=None,
                       help="assignment-set file restricting the adversary")
    add_common(p_ver)

    p_cov = sub.add_parser("cover", help="test a point-set file for coverability")
    p_cov.add_argument("--file", required=True, help="point-set file")
    p_cov.add_argument("--bruteforce", action="store_true",
                       help="cross-check against the exponential oracle")
    add_common(p_cov)

    p_sea = sub.add_parser("search", help="exhaustive strategy search on a small graph")
    p_sea.add_argument("-g", "--graph", required=True)
    p_sea.add_argument("-q", type=int, required=True)
    p_sea.add_argument("-o", "--output", default=None, help="write any found strategy here")
    add_common(p_sea)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        # refuse bad limits before any report of `lemma all` is printed
        _resolve_budget(args.budget, 0)
        if args.threads is not None and args.threads < 1:
            raise ParameterError(f"--threads must be at least 1, got {args.threads}")
        return _VERB_HANDLERS[args.verb](args)
    except InfeasibleError as exc:
        payload = {"message": str(exc)}
        if exc.required is not None:
            payload["required"] = exc.required
        return _emit("infeasible", payload, started)
    except (HatLabError, OSError, json.JSONDecodeError) as exc:
        return _emit("error", {"message": str(exc)}, started)


if __name__ == "__main__":
    sys.exit(main())
