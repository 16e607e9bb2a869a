"""Record a baseline: run every workload over several seeds and summarise.

    python3 perfbench/baseline.py --seeds 11-20 --seconds 40 --out perfbench/BASELINE.json

Each (workload, seed) is one `run.py --trace 0` run in a fresh process; the
summary gives, per end-to-end metric, the median and quartiles of the run
medians, their spread ((q3 - q1) / median) and the largest deviation of a
single run from the median (|value - median| / median).  One `--trace 1`
run per workload (on the first seed) adds the traced layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--out")
    args = p.parse_args()

    seeds = _seeds(args.seeds)
    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "notes": [
            "times are medians of fresh-process repetitions in one run; the figures "
            "below are the median and quartiles of those run medians over the seeds",
            "n > 2 workers is not run: on 2 cores it measures oversubscription, not scaling",
        ],
        "seeds": seeds,
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for workload in ("grid-seq", "lanes-pipe2", "checker-tcp2"):
        runs = []
        for seed in seeds:
            result = _run(workload, seed, args.seconds, 0)
            runs.append({m: v["value"] for m, v in result["metrics"].items()})
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        summary = {}
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            worst = max(abs(v - med) for v in values) / med
            summary[metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                "max_deviation": worst, "runs": len(values),
            }
            print(f"  {workload} {metric}: median {med:.6g} spread {(q3 - q1) / med:.4f} "
                  f"max deviation {worst:.4f}", flush=True)
        traced = _run(workload, seeds[0], args.seconds, 1)
        doc["workloads"][workload] = {
            "end_to_end": summary,
            "runs": runs,
            "layers": {m: v["value"] for m, v in traced["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
