"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1-10] [--traced-seed N]
                                  [--out perfbench/baseline.json]

For each workload this runs `perfbench/run.py` once per seed (untraced, at
BENCHMARK.json's run_seconds) and, with --traced-seed, once traced.  For
each end-to-end metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, next to a third of the metric's bound, the level below which the
benchmark counts as steady.  With --out the summary is merged into that
file, replacing only the workloads that were run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    env = None
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            record, result = run_once(workload, seed, spec["run_seconds"], 0)
            env = record["env"]
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + f" failed={result['failed']}/{result['attempted']}", flush=True)
        entry: dict = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in results])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"  {name:18s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound/3 {bound / 3:.4f}  {flag}", flush=True)
        if args.traced_seed is not None:
            _, traced = run_once(workload, args.traced_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {"seed": args.traced_seed,
                                  **{k: v["value"] for k, v in traced["metrics"].items()}}
        summary[workload] = entry

    if args.out is not None:
        data = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
        data["env"] = env
        data["run_seconds"] = spec["run_seconds"]
        data["workloads"].update(summary)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
