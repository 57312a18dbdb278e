"""CLI surface: exit codes, JSON report lines, file round trips."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hatlab import PointSet, VerificationReport, write_point_set
from hatlab.cli import main, parse_graph_spec
from hatlab.cube import FourCubeSweepReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    reports = [json.loads(line) for line in out.splitlines()]
    return code, reports


def strip_elapsed(reports):
    return [{"status": r["status"], "payload": r["payload"]} for r in reports]


def test_graph_spec_grammar():
    g = parse_graph_spec("windmill:3,2")
    assert (g.family, g.params, g.n_vertices) == ("windmill", (3, 2), 5)
    assert parse_graph_spec("complete:4").n_vertices == 4
    assert parse_graph_spec("custom:3,0,1,1,2").adjacency == ((1,), (0, 2), (1,))
    for bad in ("windmill", "complete:x", "complete:", "martian:3"):
        with pytest.raises(Exception):
            parse_graph_spec(bad)


def test_every_report_is_one_json_line(capsys):
    code, reports = run(capsys, "lemma", "parity", "-k", "3")
    assert code == 0
    assert len(reports) == 1
    assert set(reports[0]) == {"status", "payload", "elapsed_ms"}
    assert reports[0]["status"] == "verified"


def test_lemma_exit_codes(capsys):
    code, reports = run(capsys, "lemma", "three-cubes")
    assert code == 0 and reports[0]["payload"]["minimum"] == 20

    code, reports = run(capsys, "lemma", "counting", "-d", "3", "-n", "2")
    assert code == 0 and reports[0]["payload"]["holds"] is True


# every lemma that can fail, with the library check it calls made to fail
FALSIFIED_LEMMAS = [
    (["three-cubes"], "hatlab.cube.three_cubes_min_two_intersection", lambda: 19),
    (["four-cubes"], "hatlab.cube.four_cubes_two_intersection_sweep",
     lambda: FourCubeSweepReport(1, 0, 0, 0, (((0, 0, 0),) * 4,))),
    (["square-minima"], "hatlab.cube.square_two_intersection_minima", lambda: (4, 8, 11)),
    (["prism-cover"], "hatlab.cube.prism_cover_impossible", lambda: False),
    (["h-lower", "-d", "1"], "hatlab.cover._coverable_mask",
     lambda points: np.zeros(len(points), dtype=bool)),
    (["difference-disjoint", "-d", "2", "-n", "3"], "hatlab.windmill.is_difference_disjoint",
     lambda sets, modulus: False),
    (["parity", "-k", "3"], "hatlab.game.verify_strategy",
     lambda *args, **kwargs: VerificationReport(False, (0, 0), 1)),
    (["counting", "-d", "3", "-n", "2"], "hatlab.windmill.residue_counting_check",
     lambda d, n: False),
    (["windmill", "-d", "2", "-n", "3", "--trials", "10"],
     "hatlab.windmill.certificate_blade_check", lambda cert: False),
]


@pytest.mark.parametrize("argv, target, failing", FALSIFIED_LEMMAS,
                         ids=[case[0][0] for case in FALSIFIED_LEMMAS])
def test_a_failed_lemma_check_is_one_falsified_report(capsys, monkeypatch, argv, target,
                                                      failing):
    monkeypatch.setattr(target, failing)
    code = main(["lemma", *argv])
    out, err = capsys.readouterr()
    reports = [json.loads(line) for line in out.splitlines()]
    assert code == 1
    assert [r["status"] for r in reports] == ["falsified"]
    assert reports[0]["payload"]["lemma"] == argv[0]
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["-d", "2", "-n", "18"],
    ["-d", "3", "-n", "100000"],
    ["-k", "2000"],
    ["-k", "10000000"],
], ids=["residue-2-18", "residue-3-100000", "parity-2000", "parity-1e7"])
def test_counting_past_its_cap_is_refused_at_once(capsys, argv):
    started = time.perf_counter()
    code, reports = run(capsys, "lemma", "counting", *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert len(reports) == 1 and reports[0]["status"] == "infeasible"
    assert reports[0]["payload"]["required"] > 0


def test_python_dash_m_runs_the_cli():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "hatlab", "lemma", "three-cubes"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["payload"] == {"lemma": "three-cubes", "minimum": 20}


def test_closed_stdout_stops_quietly():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.Popen([sys.executable, "-m", "hatlab", "lemma", "all"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(proc.stdout.readline())["status"] == "verified"
    proc.stdout.close()  # the next report hits a closed pipe
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert stderr == b""


def test_construct_verify_round_trip(capsys, tmp_path):
    out = str(tmp_path / "w32.json")
    code, reports = run(capsys, "construct", "windmill-2k2",
                        "-k", "3", "-n", "2", "-o", out)
    assert code == 0 and reports[0]["payload"]["written"] == out

    code, reports = run(capsys, "verify", "-g", "windmill:3,2", "-q", "4", "-s", out)
    assert code == 0
    assert reports[0]["payload"]["wins"] is True
    assert reports[0]["payload"]["assignments_checked"] == 1024


def test_verify_mismatched_graph_is_usage_error(capsys, tmp_path):
    out = str(tmp_path / "k3.json")
    assert run(capsys, "construct", "sum", "-n", "3", "-o", out)[0] == 0
    code, reports = run(capsys, "verify", "-g", "complete:4", "-q", "3", "-s", out)
    assert code == 2 and reports[0]["status"] == "error"
    code, reports = run(capsys, "verify", "-g", "complete:3", "-q", "4", "-s", out)
    assert code == 2 and reports[0]["status"] == "error"


def test_falsified_verify_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "graph": {"family": "complete", "params": [2]},
        "q": 2,
        "tables": [[0, 0], [0, 0]],
    }))
    code, reports = run(capsys, "verify", "-g", "complete:2", "-q", "2",
                        "-s", str(bad))
    assert code == 1
    assert reports[0]["status"] == "falsified"
    assert reports[0]["payload"]["counterexample"] == [1, 1]


def test_cover_verbs(capsys, tmp_path):
    good = tmp_path / "g.json"
    write_point_set(str(good), PointSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)]))
    code, reports = run(capsys, "cover", "--file", str(good), "--bruteforce")
    assert code == 0
    assert reports[0]["payload"]["coverable"] is True
    assert reports[0]["payload"]["bruteforce_agrees"] is True

    bad = tmp_path / "b.json"
    write_point_set(str(bad), PointSet.of(2, [(x, y) for x in range(2) for y in range(3)]))
    code, reports = run(capsys, "cover", "--file", str(bad))
    assert code == 1
    assert reports[0]["status"] == "falsified"
    assert len(reports[0]["payload"]["violator"]) == 6


def test_search_exit_codes(capsys, tmp_path):
    out = str(tmp_path / "found.json")
    code, reports = run(capsys, "search", "-g", "complete:2", "-q", "2", "-o", out)
    assert code == 0 and reports[0]["payload"]["found"] is True
    code, reports = run(capsys, "verify", "-g", "complete:2", "-q", "2", "-s", out)
    assert code == 0

    code, reports = run(capsys, "search", "-g", "complete:2", "-q", "3")
    assert code == 1 and reports[0]["payload"]["proven_unwinnable"] is True

    code, reports = run(capsys, "search", "-g", "complete:3", "-q", "3",
                        "--budget", "4")
    assert code == 3 and reports[0]["status"] == "infeasible"


@pytest.mark.parametrize("spec, q, required", [
    ("complete:12", 12, 12**12),
    ("complete:9", 9, 9**9),
    # q^n has about 5400 digits, past what Python prints: the report names it
    ("complete:447", 10**12, f"{10**12}^447"),
], ids=["complete:12-12", "complete:9-9", "complete:447-1e12"])
def test_oversized_searches_are_refused_before_allocating(capsys, spec, q, required):
    started = time.perf_counter()
    code = main(["search", "-g", spec, "-q", str(q), "--budget", "10"])
    assert time.perf_counter() - started < 1.0
    out, err = capsys.readouterr()
    assert code == 3 and err == ""
    (line,) = out.splitlines()
    report = json.loads(line)
    assert report["status"] == "infeasible" and report["payload"]["required"] == required


def test_budget_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("HATLAB_BUDGET", "4")
    code, reports = run(capsys, "search", "-g", "complete:3", "-q", "3")
    assert code == 3
    monkeypatch.setenv("HATLAB_BUDGET", "not-a-number")
    code, reports = run(capsys, "search", "-g", "complete:3", "-q", "3")
    assert code == 2 and reports[0]["status"] == "error"


def test_usage_errors_exit_two(capsys):
    code, reports = run(capsys, "lemma", "no-such-lemma")
    assert code == 2 and [r["status"] for r in reports] == ["error"]
    code, reports = run(capsys, "verify", "-g", "complete:2", "-q", "2",
                        "-s", "/nonexistent/file.json")
    assert code == 2 and reports[0]["status"] == "error"
    for argv, fault in ((["-k", "3"], "needs -n"), ([], "exactly one of -k")):
        code, reports = run(capsys, "lemma", "windmill", *argv)
        assert code == 2 and fault in reports[0]["payload"]["message"]


# the graph caps refuse a parity windmill before its certificate is built
@pytest.mark.parametrize("argv", [
    ["lemma", "windmill", "-k", "3", "-n", "300000", "--trials", "1"],
    ["construct", "windmill-2k2", "-k", "3", "-n", "300000"],
], ids=["lemma", "construct"])
def test_a_parity_windmill_past_the_graph_caps_is_refused_at_once(capsys, tmp_path, argv):
    if argv[0] == "construct":
        argv = [*argv, "-o", str(tmp_path / "f.json")]
    started = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - started < 0.25
    out, err = capsys.readouterr()
    assert code == 3 and err == ""
    assert [json.loads(line)["status"] for line in out.splitlines()] == ["infeasible"]


def test_windmill_lemma_routes(capsys):
    code, reports = run(capsys, "lemma", "windmill", "-d", "2", "-n", "2")
    assert code == 0
    assert reports[0]["payload"]["route"] == "exhaustive"
    assert reports[0]["payload"]["assignments_checked"] == 4**5

    code, reports = run(capsys, "lemma", "windmill", "-d", "2", "-n", "3", "--budget", "10000",
                        "--trials", "5000")
    assert code == 0
    payload = reports[0]["payload"]
    assert payload["route"] == "certificate"
    assert payload["products_disjoint"] and payload["blades_win"]
    assert payload["losses"] == 0


def test_reports_deterministic_across_threads_and_reruns(capsys):
    baseline = None
    for threads in ("1", "4"):
        code, reports = run(capsys, "lemma", "windmill", "-k", "3", "-n", "2",
                            "--threads", threads)
        assert code == 0
        stripped = strip_elapsed(reports)
        if baseline is None:
            baseline = stripped
        assert stripped == baseline
    # seeded random sweeps repeat exactly too
    runs = [strip_elapsed(run(capsys, "lemma", "h-lower", "-d", "3", "--trials", "40",
                              "--seed", "9")[1]) for _ in range(2)]
    assert runs[0] == runs[1]


# --- malformed input files: exit 2 and one JSON line, whatever is wrong ------

SCALAR_NOT_AN_INT = st.one_of(
    st.floats(), st.booleans(), st.none(), st.text(max_size=3),
    st.dictionaries(st.text(max_size=1), st.integers(0, 1), max_size=1))
NOT_AN_INT = st.one_of(SCALAR_NOT_AN_INT, st.lists(st.integers(0, 1), max_size=2))


def bad_color(q):
    return st.one_of(NOT_AN_INT, st.integers(max_value=-1), st.integers(min_value=q),
                     st.just(-1), st.just(300), st.just(2**64))


GOOD_STRATEGY = {"graph": {"family": "complete", "params": [2]}, "q": 2,
                 "tables": [[0, 1], [1, 0]]}
GOOD_RESTRICTION = {"q": 2, "n": 2, "members": [[0, 1], [1, 1]]}
GOOD_POINTS = {"d": 2, "points": [[0, 1], [1, 0]]}


@st.composite
def broken(draw, good, where):
    """`good` with one value at a drawn path replaced by `draw(where[path])`."""
    payload = json.loads(json.dumps(good))
    path = draw(st.sampled_from(sorted(where)))
    node = payload
    for key in path[:-1]:
        node = node[key]
    if draw(st.booleans()) and path[-1] in node and isinstance(path[-1], str):
        del node[path[-1]]
    else:
        node[path[-1]] = draw(where[path])
    return payload


STRATEGY_FAULTS = {
    ("tables", 0, 1): bad_color(2),
    ("tables", 1, 0): bad_color(2),
    ("tables", 1): st.one_of(SCALAR_NOT_AN_INT, st.lists(bad_color(2), min_size=2, max_size=2),
                             st.lists(st.integers(0, 1), max_size=3).filter(lambda t: len(t) != 2)),
    ("tables",): st.one_of(st.text(max_size=3), st.integers(), st.none(), st.floats()),
    ("q",): NOT_AN_INT,
    ("graph", "params", 0): NOT_AN_INT,
    ("graph", "params"): st.one_of(st.text(min_size=1, max_size=3), st.integers()),
    ("graph",): st.one_of(st.text(max_size=3), st.integers(), st.none()),
}
RESTRICTION_FAULTS = {
    ("members", 0, 0): bad_color(2),
    ("members", 1, 1): bad_color(2),
    ("members", 1): st.one_of(SCALAR_NOT_AN_INT,
                              st.lists(st.integers(0, 1), min_size=3, max_size=3)),
    ("members",): st.one_of(st.text(min_size=1, max_size=3), st.integers(), st.none()),
    ("q",): NOT_AN_INT,
    ("n",): NOT_AN_INT,
}
POINT_FAULTS = {
    ("points", 0, 0): st.one_of(NOT_AN_INT, st.integers(max_value=-1)),
    ("points", 1, 1): st.one_of(NOT_AN_INT, st.integers(max_value=-1)),
    ("points", 1): st.one_of(st.integers(), st.none(), st.floats(),
                             st.lists(st.integers(0, 1), min_size=3, max_size=3)),
    ("points",): st.one_of(st.integers(), st.none(), st.floats()),
    ("d",): NOT_AN_INT,
}


def assert_one_error_line(capsys, argv):
    code, reports = run(capsys, *argv)
    assert code == 2
    assert len(reports) == 1 and reports[0]["status"] == "error"


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(payload=broken(GOOD_STRATEGY, STRATEGY_FAULTS))
def test_malformed_strategy_files_exit_two(capsys, tmp_path, payload):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    assert_one_error_line(capsys, ["verify", "-g", "complete:2", "-q", "2", "-s", str(path)])


@FUZZ
@given(payload=broken(GOOD_RESTRICTION, RESTRICTION_FAULTS))
def test_malformed_assignment_sets_exit_two(capsys, tmp_path, payload):
    strategy, restriction = tmp_path / "s.json", tmp_path / "r.json"
    strategy.write_text(json.dumps(GOOD_STRATEGY))
    restriction.write_text(json.dumps(payload))
    assert_one_error_line(capsys, ["verify", "-g", "complete:2", "-q", "2",
                                   "-s", str(strategy), "--restriction", str(restriction)])


@FUZZ
@given(payload=broken(GOOD_POINTS, POINT_FAULTS))
def test_malformed_point_sets_exit_two(capsys, tmp_path, payload):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    assert_one_error_line(capsys, ["cover", "--file", str(path)])


def test_good_fuzz_seeds_are_accepted(capsys, tmp_path):
    strategy, restriction, points = (tmp_path / f for f in ("s.json", "r.json", "p.json"))
    strategy.write_text(json.dumps(GOOD_STRATEGY))
    restriction.write_text(json.dumps(GOOD_RESTRICTION))
    points.write_text(json.dumps(GOOD_POINTS))
    assert run(capsys, "verify", "-g", "complete:2", "-q", "2", "-s", str(strategy),
               "--restriction", str(restriction))[0] == 0
    assert run(capsys, "cover", "--file", str(points))[0] == 0


@pytest.mark.parametrize("role", ["strategy", "restriction", "points"])
def test_undecodable_files_exit_two(capsys, tmp_path, undecodable_file, role):
    strategy, restriction = tmp_path / "s.json", tmp_path / "r.json"
    strategy.write_text(json.dumps(GOOD_STRATEGY))
    restriction.write_text(json.dumps(GOOD_RESTRICTION))
    verify = ["verify", "-g", "complete:2", "-q", "2", "-s"]
    argv = {"strategy": [*verify, undecodable_file],
            "restriction": [*verify, str(strategy), "--restriction", undecodable_file],
            "points": ["cover", "--file", undecodable_file]}[role]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["status"] == "error"


@pytest.mark.parametrize("entry", [-1, 300, 1.5, "1", True])
def test_bad_table_entries_are_usage_errors(capsys, tmp_path, entry):
    path = tmp_path / "s.json"
    payload = json.loads(json.dumps(GOOD_STRATEGY))
    payload["tables"][0][1] = entry
    path.write_text(json.dumps(payload))
    assert_one_error_line(capsys, ["verify", "-g", "complete:2", "-q", "2", "-s", str(path)])


def test_numpy_axis_cap_is_infeasible(capsys, tmp_path):
    # 70 one-entry tables at q=1: each guess tensor would need 69 axes
    path = tmp_path / "k70.json"
    path.write_text(json.dumps({"graph": {"family": "complete", "params": [70]},
                                "q": 1, "tables": [[0]] * 70}))
    code, reports = run(capsys, "verify", "-g", "complete:70", "-q", "1", "-s", str(path))
    assert code == 3
    assert len(reports) == 1 and reports[0]["status"] == "infeasible"


WINDMILL_32 = ["lemma", "windmill", "-k", "3", "-n", "2"]


@pytest.mark.parametrize("argv, budget_env, fault", [
    (["lemma", "parity"], None, "needs -k"),
    (["lemma", "noncoverable"], None, "needs -d"),
    (["lemma", "windmill", "-d", "2", "-n", "3", "--trials", "-1"], None, "trials"),
    (["lemma", "difference-disjoint", "-d", "2", "-n", "3", "--trials", "-1"], None, "trials"),
    (["lemma", "h-lower", "-d", "3", "--trials", "-1"], None, "trials"),
    (["search", "-g", "custom:-3", "-q", "2"], None, "n >= 0"),
    ([*WINDMILL_32, "--budget", "-1"], None, "budget"),
    (WINDMILL_32, "-3", "budget"),
    (["search", "-g", "complete:2", "-q", "2", "--budget", "-5"], None, "budget"),
    (["lemma", "all", "--budget", "-1"], None, "budget"),
    ([*WINDMILL_32, "--threads", "0"], None, "--threads"),
    ([*WINDMILL_32, "--threads", "-1"], None, "--threads"),
], ids=["parity-no-k", "noncoverable-no-d", "windmill-trials", "residues-trials",
        "h-lower-trials", "negative-vertex-count", "negative-budget", "negative-budget-env",
        "negative-search-budget", "negative-budget-lemma-all", "zero-threads",
        "negative-threads"])
def test_missing_or_negative_parameters_exit_two(capsys, monkeypatch, argv, budget_env, fault):
    if budget_env is not None:
        monkeypatch.setenv("HATLAB_BUDGET", budget_env)
    code, reports = run(capsys, *argv)
    assert code == 2
    assert len(reports) == 1 and reports[0]["status"] == "error"
    assert fault in reports[0]["payload"]["message"]


# each lemma and construction as a valid command line, and the options it does not read
UNREAD_OPTIONS = [
    *((["lemma", name], "-d -n -k --mode --seed --budget --threads --trials")
      for name in ("three-cubes", "four-cubes", "square-minima", "prism-cover")),
    (["lemma", "h-lower", "-d", "1"], "-n -k --mode --budget --threads"),
    (["lemma", "noncoverable", "-d", "1"], "-n -k --mode --seed --budget --threads --trials"),
    (["lemma", "difference-disjoint", "-d", "2", "-n", "2"], "-k --mode --budget --threads"),
    (["lemma", "parity", "-k", "2"], "-d -n --mode --seed --budget --threads --trials"),
    (["lemma", "counting", "-d", "3", "-n", "2"], "-k --mode --seed --budget --threads --trials"),
    (["lemma", "windmill", "-k", "3", "-n", "2"], "-d --mode"),
    (["lemma", "all"], "-d -n -k --mode --trials"),
    (["construct", "sum", "-n", "3"], "-d -k --certificate"),
    (["construct", "windmill-2k2", "-k", "3", "-n", "2"], "-d"),
    (["construct", "windmill-dn", "-d", "2", "-n", "2"], "-k"),
    (["construct", "k22"], "-d -n -k --certificate"),
    (["construct", "noncoverable", "-d", "1"], "-n -k --certificate"),
]
VALID_VALUE = {"-d": ["2"], "-n": ["2"], "-k": ["3"], "--mode": ["parity"], "--seed": ["1"],
               "--budget": ["100"], "--threads": ["1"], "--trials": ["10"], "--certificate": []}
REJECTED = [argv + [flag, *VALID_VALUE[flag]]
            for argv, flags in UNREAD_OPTIONS for flag in flags.split()]
# each names its certificate family twice, or not at all, or gives an option
# the family does not read: one error, never a report on half the command line
CONTRADICTORY = [
    ["lemma", "windmill", "-k", "5", "-d", "2", "-n", "2"],
    ["lemma", "counting", "-k", "3", "-d", "2", "-n", "2"],
    ["lemma", "counting", "-k", "3", "-n", "2"],
    ["lemma", "windmill", "-k", "3", "-n", "2", "-d", "7"],
    ["lemma", "windmill", "-n", "2"],
    ["lemma", "counting"],
]


@pytest.mark.parametrize("argv", [
    *REJECTED,
    *CONTRADICTORY,
    ["lemma", "all", "-d", "9", "--mode", "bogus", "-k", "99"],
    [],
    ["construct", "sum", "-n", "3", "--seed", "1"],
], ids=[" ".join(argv) for argv in REJECTED + CONTRADICTORY]
    + ["all-d9-bogus-k99", "no-verb", "sum-seed"])
def test_a_rejected_command_line_is_one_error_report(capsys, tmp_path, argv):
    if argv[:1] == ["construct"]:
        argv = [*argv[:2], "-o", str(tmp_path / "f.json"), *argv[2:]]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert [json.loads(line)["status"] for line in out.splitlines()] == ["error"]


@pytest.mark.parametrize("argv", [
    ["lemma", "difference-disjoint", "-d", "3", "-n", "10000"],
    ["lemma", "windmill", "-d", "3", "-n", "10000"],
    ["construct", "windmill-dn", "-d", "3", "-n", "10000"],
], ids=["difference-disjoint", "windmill", "construct"])
def test_a_modulus_past_the_int_to_str_limit_is_refused_at_once(capsys, tmp_path, argv):
    if argv[:1] == ["construct"]:
        argv = [*argv[:2], "-o", str(tmp_path / "f.json"), *argv[2:]]
    started = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - started < 1.0
    out, err = capsys.readouterr()
    assert code == 3 and err == ""
    (line,) = out.splitlines()
    assert json.loads(line)["status"] == "infeasible"


@pytest.mark.parametrize("d", ["7", "8"])
def test_h_lower_past_the_point_cap_exits_three_at_once(capsys, d):
    started = time.perf_counter()
    code, reports = run(capsys, "lemma", "h-lower", "-d", d, "--trials", "1")
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert len(reports) == 1 and reports[0]["status"] == "infeasible"


LEMMA_ALL_PAYLOADS = [
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


def test_lemma_all_payloads_are_pinned(capsys):
    # the same pins at one and two threads: no report depends on the count
    for threads in ("1", "2"):
        code, reports = run(capsys, "lemma", "all", "--threads", threads)
        assert code == 0
        assert len(reports) == 15
        assert all(r["status"] == "verified" for r in reports)
        assert [r["payload"] for r in reports] == LEMMA_ALL_PAYLOADS


@pytest.mark.parametrize("spec", ["complete:100000", "complete_bipartite:100000,100000"])
def test_oversized_graphs_are_refused_before_building(capsys, tmp_path, spec):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    started = time.perf_counter()
    code, reports = run(capsys, "verify", "-g", spec, "-q", "2", "-s", str(empty))
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert len(reports) == 1 and reports[0]["status"] == "infeasible"
