#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

    python3 benchmarks/baseline.py [--seeds 10] [--workload gp_paper ...] [--write]

For every workload it runs ``run.py`` once per seed, untraced, and
prints each end-to-end metric's median, quartiles (``statistics.quantiles``
with n=4) and the interquartile spread as a share of the median, next
to the metric's bound from ``BENCHMARK.json``; then the same for the
raw median epoch wall time, the per-command CLI medians and
``error_rate`` from the run records. With
``--write`` it also makes one traced run per workload and stores
everything in ``benchmarks/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's record: its JSON result plus the report ``run.py`` saved."""
    subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    record = BENCH_DIR / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--write", action="store_true")
    args = p.parse_args()
    out: dict = {"seconds": args.seconds, "workloads": {}}
    worst = 0.0
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        results = [run_once(name, s, args.seconds, 0)
                   for s in range(args.first_seed, args.first_seed + args.seeds)]
        entry = {"failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results), "end_to_end": {},
                 "reported": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            s = summarise(values)
            entry["end_to_end"][metric] = {**s, "unit": results[0]["metrics"][metric]["unit"]}
            if metric != "setup_s":
                worst = max(worst, s["spread"] / bound)
            print(f"{name:14s} {metric:14s} median {s['median']:10.5g}  q1 {s['q1']:10.5g}  "
                  f"q3 {s['q3']:10.5g}  spread {s['spread']:7.2%}  bound {bound:.0%}", flush=True)
        reported = {"error_rate": [r["failed"] / r["attempted"] for r in results]}
        for key in ("wall", "cli"):
            for metric in results[0].get(key, {}):
                reported[metric] = [r[key][metric]["value"] for r in results]
        for metric, values in reported.items():
            s = summarise(values)
            entry["reported"][metric] = s
            print(f"{name:14s} {metric:14s} median {s['median']:10.5g}  q1 {s['q1']:10.5g}  "
                  f"q3 {s['q3']:10.5g}  spread {s['spread']:7.2%}", flush=True)
        if args.write:
            entry["traced"] = {k: m["value"] for k, m in
                               run_once(name, args.first_seed, args.seconds, 1)["metrics"].items()}
        out["workloads"][name] = entry
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.write:
        (BENCH_DIR / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
