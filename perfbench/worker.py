"""One iteration of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --threads T \
        --scratch DIR [--trace FILE] [--setup-only]

`perfbench/run.py` starts this with PYTHONPATH pointing at the checkout's
`src/`.  It imports hatlab, builds the workload's inputs, runs the timed
phase, checks every verdict and prints one JSON line.  The workload starts
no thread or process beyond hatlab's own `--threads` pool.

With --trace the public functions of hatlab's modules are wrapped (see
tracing.py) through set-up and the timed phase, the spans are written to
FILE, and the line carries the per-layer metrics named in BENCHMARK.json.
With --setup-only it stops after set-up, so that run.py can sample setup_s.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SPEEDUP_PAIRS = 3


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def sweep_speedup(threads: int) -> float:
    """The K_8, q=8 sum strategy (8^8 assignments) verified at threads=1 over
    the same at `threads`: the thread pool's gain.  The pool earns its place
    only while this stays above 1.

    One warm-up verify first, then SPEEDUP_PAIRS timed pairs whose order
    alternates (threads first, then 1 first, ...), so that neither side
    takes the warm-up or a steady drift of the machine.  The median ratio.
    """
    from hatlab import game

    g, s = game.build_graph("complete", 8), game.complete_sum_strategy(8, 8)
    game.verify_strategy(g, 8, s, threads=threads)
    ratios = []
    for i in range(SPEEDUP_PAIRS):
        seconds = {}
        for t in ((threads, 1) if i % 2 == 0 else (1, threads)):
            start = time.perf_counter()
            game.verify_strategy(g, 8, s, threads=t)
            seconds[t] = time.perf_counter() - start
        ratios.append(seconds[1] / seconds[threads])
    return statistics.median(ratios)


def layer_metric(name: str, rec, extra: dict[str, float]) -> float:
    """Resolve a per-layer metric name: <module>.<function>.<field>, where the
    field is self_s, calls, <work>_per_s or a work count, or one of `extra`."""
    if name in extra:
        return extra[name]
    function, _, fld = name.rpartition(".")
    if fld == "self_s":
        return rec.self_s.get(function, 0.0)
    if fld == "calls":
        return float(rec.calls.get(function, 0))
    if fld.endswith("_per_s"):
        return rec.rate(function, fld[: -len("_per_s")])
    return float(rec.work_count(function, fld))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--scratch", type=Path, required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import numpy
    import hatlab
    from hatlab import cli, cover, cube, game, sweep, windmill
    import workloads

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        rec.install([game, sweep, windmill, cover, cube, cli])

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, args.threads, args.scratch)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end, "hatlab_file": hatlab.__file__}))
        return 0

    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    wl.run()
    wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        rec.uninstall()

    outcome = wl.check()
    result = {
        "setup_end": setup_end,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "decided_ratio": outcome.decided_ratio,
        "attempted": len(outcome.ops),
        "failed": outcome.failed,
        "failures": [{"op": op.name, "reason": op.reason} for op in outcome.ops if not op.ok],
        "numpy": numpy.__version__,
        "hatlab_file": hatlab.__file__,
    }
    if rec is not None:
        extra = {
            "sweep.speedup": sweep_speedup(args.threads) if wl.measures_sweep else 0.0,
            "cli.overhead_s": rec.layer_self_s("cli"),
            "trace.overhead_s": rec.overhead_s,
            "error_rate": outcome.failed / len(outcome.ops),
        }
        spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
        result["layers"] = {m["name"]: layer_metric(m["name"], rec, extra)
                            for m in spec["per_layer"]}
        rec.write(args.trace, {"workload": args.workload, "seed": args.seed,
                               "threads": args.threads, "wall_s": wall_s})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
