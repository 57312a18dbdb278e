"""hatlab's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is taken from the checkout's
`src/` (nothing is installed); without it the benchmark exits 2 and prints
no result.  Workloads, metrics and bounds are declared in BENCHMARK.json;
perfbench/README.md says why each workload is there and which metric each
layer should move.

Untraced (--trace 0): fresh worker processes (perfbench/worker.py) run the
workload back to back until their timed phases add up to --seconds, give or
take half an iteration, and at least once.  Each reports wall and CPU time
of its timed phase, its peak RSS and its set-up time (interpreter start,
`import hatlab` and input generation, measured from just before the process
is started).  Set-up-only workers, run between the timed ones in step with
the timed seconds, bring set-up to SETUP_SAMPLES samples spread over the
whole run.  Every metric is the median over the samples.  decided_ratio
reads NOT_MEASURED on a workload without budgeted searches.

Traced (--trace 1): one worker with recording wrappers gives the per-layer
metrics; its spans go to .bench_build/perfbench/.

The last line of stdout is the result: correct, attempted, failed and the
metrics.  The line before it records the seed, the environment and every
sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_SAMPLES = 11
NOT_MEASURED = 1.0  # never 0, so that a bound relative to it is defined
DEADLINE_S = 165.0  # the whole run must end within 180 s


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, threads: int, deadline: float,
          *extra: str) -> dict:
    """Run one worker; its JSON line, with setup_s measured from here."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--threads", str(threads), "--scratch", str(SCRATCH), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise WorkerFailed(f"{workload} worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise WorkerFailed(f"{workload} worker printed no result: {lines[-1][:200]}") from None
    if Path(out["hatlab_file"]).resolve().parents[1] != SRC.resolve():
        raise WorkerFailed(f"hatlab was imported from {out['hatlab_file']}, not {SRC}")
    out["setup_s"] = out["setup_end"] - started
    out["elapsed_s"] = time.monotonic() - started
    return out


def environment() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "machine": platform.machine(), "commit": commit, "src_lines": lines,
            "src_sha256": digest.hexdigest()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "hatlab" / "__init__.py").is_file():
        print(f"perfbench: no hatlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(parents=True, exist_ok=True)
    threads = len(os.sched_getaffinity(0))
    deadline = time.monotonic() + DEADLINE_S
    samples: list[dict] = []
    setups: list[float] = []
    errors: list[str] = []
    attempted = failed = 0

    def worker(*extra: str) -> dict | None:
        nonlocal attempted, failed
        try:
            return spawn(args.workload, args.seed, threads, deadline, *extra)
        except WorkerFailed as exc:
            errors.append(str(exc))
            attempted += 1
            failed += 1
            return None

    def sample_setup(upto: int) -> None:
        while len(setups) < upto and time.monotonic() + 2 * max(setups, default=1) < deadline:
            out = worker("--setup-only")
            if out is None:
                return
            setups.append(out["setup_s"])

    if args.trace:
        trace_file = SCRATCH / f"trace-{args.workload}-seed{args.seed}.jsonl"
        out = worker("--trace", str(trace_file))
        if out is not None:
            samples.append(out)
            setups.append(out["setup_s"])
    else:
        timed = 0.0
        sample_setup(2)
        while not samples or timed < args.seconds - statistics.median(
                s["wall_s"] for s in samples) / 2:
            out = worker()
            if out is None:
                break
            samples.append(out)
            setups.append(out["setup_s"])
            timed += out["wall_s"]
            sample_setup(round(SETUP_SAMPLES * min(1.0, timed / args.seconds)))
            if time.monotonic() + out["elapsed_s"] > deadline:
                break
        if samples:
            sample_setup(SETUP_SAMPLES)

    for s in samples:
        attempted += s["attempted"]
        failed += s["failed"]
        errors += [f"{f['op']}: {f['reason']}" for f in s["failures"]]
    for e in errors:
        print(f"perfbench: FAILED {e}", file=sys.stderr)

    env = environment()
    if samples:
        env["numpy"] = samples[0]["numpy"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "threads": threads, "env": env, "setup_samples": setups,
                      "samples": samples}))
    if not samples:
        return 1

    med = statistics.median
    if args.trace:
        declared = spec["per_layer"]
        values = samples[0]["layers"]
    else:
        declared = spec["end_to_end"]
        values = {
            "wall_s": med(s["wall_s"] for s in samples),
            "setup_s": med(setups),
            "cpu_s": med(s["cpu_s"] for s in samples),
            "peak_rss_mb": med(s["peak_rss_mb"] for s in samples),
            "decided_ratio": NOT_MEASURED if samples[0]["decided_ratio"] is None
            else med(s["decided_ratio"] for s in samples),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
