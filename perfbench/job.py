"""One repetition of a workload, run in a fresh process by run.py.

Loads the scenario file, runs it through the public API, writes the merged
dump, and prints one JSON line with its timings, its peak resident set and
the run's conservation error.  With --trace-dir the entry points are wrapped
(see spans.py) and every process writes its spans into that directory.

    python3 perfbench/job.py --scenario S.json --mode seq|local|tcp \
        [--partition P.txt] [--partition-seed N] --steps N --dump OUT.csv \
        [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import ctmdist  # noqa: E402
from ctmdist import partition, runner  # noqa: E402

from spans import StepClock, Tracer  # noqa: E402

WORKERS = 2  # one per core of a 2-core machine; more would oversubscribe it


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", choices=("seq", "local", "tcp"), required=True)
    p.add_argument("--partition")
    p.add_argument("--partition-seed", type=int, default=0)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dump", required=True)
    p.add_argument("--trace-dir")
    args = p.parse_args()

    clock = StepClock()
    clock.install()
    tracer = None
    if args.trace_dir:
        tracer = Tracer(args.trace_dir)
        tracer.install()

    t_start = time.perf_counter()
    scenario = ctmdist.load_scenario(args.scenario)
    if args.mode == "seq":
        result = ctmdist.run_sequential(scenario, steps=args.steps)
    elif args.mode == "local":
        result = ctmdist.run_distributed(
            scenario,
            WORKERS,
            transport="local",
            seed=args.partition_seed,
            steps=args.steps,
        )
    else:
        node_partition = partition.load_partition(args.partition, scenario)
        subs = ctmdist.build_subnetworks(scenario, node_partition)
        result = ctmdist.run_distributed(subs=subs, transport="tcp", steps=args.steps)
    runner.write_dump(result.rows, args.dump)
    t_end = time.perf_counter()
    if tracer is not None:
        tracer.flush()

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(
        json.dumps(
            {
                "pid": os.getpid(),
                "t_start": t_start,
                "t_end": t_end,
                "t_step0": clock.last_start(),
                "peak_rss_kb": rss_kb,
                "conservation_max_abs_error": result.metrics["conservation_max_abs_error"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
