"""Run the benchmark once per seed and report each metric's median and spread.

    python3 bench/spread.py --workload classify --seeds 1 2 3 4 5 --seconds 30
    python3 bench/spread.py --workload analysis --seeds 1 2 --seconds 30 --trace 1 --out runs.json

Runs are sequential, each in a fresh interpreter.  The spread of a metric is
the distance between its first and third quartile (``statistics.quantiles``
with n=4) as a share of its median.  ``--out`` keeps every run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        summary[name] = {**summarize([r["metrics"][name]["value"] for r in runs]), "unit": first["unit"]}
        s = summary[name]
        print(f"  {name:<48} median {s['median']:>12.6f} {s['unit']:<6} q1 {s['q1']:.6f} q3 {s['q3']:.6f}"
              f" spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
