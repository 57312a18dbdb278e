"""Self-test of the benchmark's verdict checks: a wrong verdict must count as
a failed operation.  Run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest

import tracing
import workloads as wl
from hatlab import game
from worker import layer_metric

# the payloads `hatlab lemma all` prints when every lemma holds
GOOD_LEMMA_ALL = [
    {"lemma": "three-cubes", "minimum": 20},
    {"lemma": "four-cubes", "quadruples": 16777216, "above_29": 16636608,
     "exact_cube": 99136, "cube_minus_point": 41472, "violations": []},
    {"lemma": "square-minima", "pair": 4, "triple": 8, "quadruple": 12},
    {"lemma": "prism-cover", "impossible": True},
    {"lemma": "h-lower", "d": 2, "mode": "exhaustive", "set_size": 5,
     "sets_checked": 53130, "failures": []},
    *({"lemma": "noncoverable", "d": d, "size": s, "noncoverable": True}
      for d, s in ((1, 2), (2, 6), (3, 33), (4, 289))),
    {"lemma": "difference-disjoint", "max_modulus": 4096, "families": 4194, "failures": []},
    *({"lemma": "parity", "k": k, "q": 2 * k - 2, "half_size": h, "odd_wins": True,
       "even_wins": True, "sizes_match": True} for k, h in ((2, 1), (3, 8), (4, 108))),
    {"lemma": "windmill", "k": 3, "n": 2, "q": 4, "graph": "windmill:3,2",
     "route": "exhaustive", "wins": True, "assignments_checked": 1024},
    {"lemma": "windmill", "k": 4, "n": 3, "q": 6, "graph": "windmill:4,3",
     "route": "exhaustive", "wins": True, "assignments_checked": 60466176},
]


def lemma_all_run(payloads, code=0, status="verified") -> wl.CliRun:
    lines = [json.dumps({"status": status, "payload": p, "elapsed_ms": 1}) for p in payloads]
    return wl.CliRun(["lemma", "all"], code, "\n".join(lines) + "\n")


def failed(ops) -> list[str]:
    return [op.name for op in ops if not op.ok]


def test_correct_lemma_all_passes():
    assert failed(wl.check_reports(lemma_all_run(GOOD_LEMMA_ALL), wl.lemma_all_expected())) == []


def test_wrong_lemma_verdict_counts_as_failed():
    bad = [dict(p) for p in GOOD_LEMMA_ALL]
    bad[0]["minimum"] = 19
    bad[-1]["assignments_checked"] -= 1
    ops = wl.check_reports(lemma_all_run(bad), wl.lemma_all_expected())
    assert failed(ops) == ["three-cubes", "windmill-4,3"]


@pytest.mark.parametrize("run", [
    lemma_all_run(GOOD_LEMMA_ALL, code=5),            # outside the exit contract
    lemma_all_run(GOOD_LEMMA_ALL, code=1),            # exit code disagrees with reports
    lemma_all_run(GOOD_LEMMA_ALL[:-1]),               # a report is missing
    wl.CliRun(["lemma", "all"], None, "", "OverflowError: boom"),
])
def test_broken_contract_fails_every_operation(run):
    ops = wl.check_reports(run, wl.lemma_all_expected())
    assert len(failed(ops)) == len(GOOD_LEMMA_ALL)


def test_malformed_line_fails_its_operation():
    run = lemma_all_run(GOOD_LEMMA_ALL)
    lines = run.stdout.splitlines()
    lines[3] = "{not json"
    run.stdout = "\n".join(lines)
    assert failed(wl.check_reports(run, wl.lemma_all_expected())) == ["prism-cover"]


def search_case(label, q, code, status, payload, tmp_path) -> wl.SearchCase:
    case = wl.relabelled(label, q, random.Random(0), tmp_path / "s.json")
    line = json.dumps({"status": status, "payload": payload, "elapsed_ms": 1})
    case.result = wl.CliRun([], code, line + "\n")
    return case


def test_search_verdicts_against_published_values(tmp_path):
    # C_4 wins at q=3 (Szczechla), so "proven unwinnable" is a wrong verdict
    op = wl.check_search(search_case("C4", 3, 1, "falsified",
                         {"found": False, "proven_unwinnable": True}, tmp_path))
    assert not op.ok
    # HG(K_2) = 2, so a strategy for q=3 cannot exist
    op = wl.check_search(search_case("K2", 3, 0, "verified", {"found": True}, tmp_path))
    assert not op.ok
    # running out of budget is undecided, not failed
    op = wl.check_search(search_case("K4", 4, 3, "infeasible", {"message": "x"}, tmp_path))
    assert op.ok and not op.decided


def test_found_strategy_is_rechecked(tmp_path):
    case = search_case("K2", 2, 0, "verified", {"found": True}, tmp_path)
    g = game.custom_graph(2, case.edges)
    game.write_strategy_file(str(case.path), g, game.Strategy.from_lists(2, [[0, 1], [0, 1]]))
    op = wl.check_search(case)  # both guess the other's colour: loses at (0, 1)
    assert not op.ok and "loses" in op.reason
    game.write_strategy_file(str(case.path), g, game.complete_sum_strategy(2, 2))
    assert wl.check_search(case).ok


def test_counterexample_checks():
    g = game.build_graph("complete", 2)
    s = game.Strategy.from_lists(2, [[0, 1], [0, 1]])  # loses at (0, 1) and (1, 0)
    good = game.VerificationReport(False, (0, 1), 2)
    assert wl.check_loss("x", g, 2, s, good).ok
    assert not wl.check_loss("x", g, 2, s, good, want=(1, 0)).ok
    assert not wl.check_loss("x", g, 2, s, game.VerificationReport(False, (0, 1), 3)).ok
    assert not wl.check_loss("x", g, 2, s, game.VerificationReport(False, (0, 0), 1)).ok
    assert not wl.check_loss("x", g, 2, s, game.VerificationReport(True, None, 4)).ok


def test_planted_loss_is_the_only_loss():
    g = game.build_graph("complete", 4)  # vertex 0 sees every other vertex
    s = game.complete_sum_strategy(4, 4)
    bad, a = wl.plant_axle_loss(g, s, random.Random(5), 0.5)
    report = game.verify_strategy(g, 4, bad)
    assert wl.check_loss("x", g, 4, bad, report, want=a).ok
    assert abs(wl.encode(a, 4) / 4**4 - 0.5) <= 1 / 64


def test_per_layer_names_resolve_to_wrapped_functions():
    import hatlab.cli, hatlab.cover, hatlab.cube, hatlab.sweep, hatlab.windmill

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modules = [game, hatlab.sweep, hatlab.windmill, hatlab.cover, hatlab.cube, hatlab.cli]
    rec = tracing.Recorder()
    rec.install(modules)
    try:
        wrapped = {f"{m.__name__.rpartition('.')[2]}.{a}" for m, a, _ in rec._saved}
    finally:
        rec.uninstall()
    extra = {"sweep.speedup", "cli.overhead_s", "trace.overhead_s", "error_rate"}
    for m in spec["per_layer"]:
        if m["name"] not in extra:
            assert m["name"].rpartition(".")[0] in wrapped, m["name"]
        assert layer_metric(m["name"], rec, dict.fromkeys(extra, 0.0)) == 0.0


def test_recorder_self_time_and_restore():
    rec = tracing.Recorder()
    original = game.verify_strategy
    rec.install([game])
    try:
        g = game.build_graph("complete", 3)
        game.search_strategy(g, 3, budget=10**6)  # calls verify_strategy on success
    finally:
        rec.uninstall()
    assert game.verify_strategy is original
    assert rec.calls["game.search_strategy"] == 1
    assert rec.calls["game.verify_strategy"] == 1
    assert rec.work_count("game.verify_strategy", "assignments") == 27
    search = rec.busy_s["game.search_strategy"]
    assert rec.self_s["game.search_strategy"] < search
    assert rec.work_count("game.search_strategy", "nodes") > 0
