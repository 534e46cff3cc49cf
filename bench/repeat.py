#!/usr/bin/env python3
"""Run one workload at several seeds and report each metric's median and spread.

    python3 bench/repeat.py --workload census --seeds 1:10 [--trace 0] [--seconds 32] [--out FILE]

Runs bench/run.py once per seed, one run at a time, and reads the JSON
object each run prints last.  For every metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median.
--out writes the same summary, with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if ":" in text:
        lo, hi = (int(x) for x in text.split(":"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1:10"))
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result.update(seed=seed, run_s=elapsed)
        runs.append(result)
        print(f"seed {seed}: {elapsed:.1f} s, failed {result['failed']}/{result['attempted']}", flush=True)

    names = list(runs[0]["metrics"])
    summary = {
        "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
        "run_s": summarise([r["run_s"] for r in runs]),
        "failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
        "metrics": {n: {"unit": runs[0]["metrics"][n]["unit"],
                        **summarise([r["metrics"][n]["value"] for r in runs])} for n in names},
    }
    for n, s in summary["metrics"].items():
        print(f"{n:36s} median {s['median']:12.6g} {s['unit']:6s} q1 {s['q1']:12.6g} "
              f"q3 {s['q3']:12.6g} spread {s['spread']:.4f}")
    print(f"run time per seed: median {summary['run_s']['median']:.1f} s, max {max(summary['run_s']['values']):.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
