"""Time the set-up of a distributed run on a generated grid, for each worker
count, in one process: no worker is forked.

    python3 tools/setup_scaling.py --rows 80 --cols 80 --n 2,256,1024 [--repeat 3]

Standard library only.  For each n it prints one JSON record with the
seconds of `partition_nodes` (seed 0, the cut acceptance criterion 7
times), `build_subnetworks` and `build_metagraph` over
`generate_grid(rows, cols)`, and the max and the sum over fragments of the
`Engine` build and of the decoder maps (each fragment's send and receive
map for every neighbour), which is what each worker pays before its
handshake.  The collector is paused throughout, as in a run.  With
`--repeat K` every figure is the median of K timings.
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from ctmdist.engine import Engine  # noqa: E402
from ctmdist.gridgen import generate_grid  # noqa: E402
from ctmdist.partition import (  # noqa: E402
    build_decoder_map,
    build_metagraph,
    build_receive_map,
    build_subnetworks,
    partition_nodes,
)
from ctmdist.scenario import collector_paused  # noqa: E402


def _seconds(fn, *args):
    """(result, seconds) of one call."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _fragment_maps(sub):
    for nb in sub.neighbors():
        build_decoder_map(sub, nb)
        build_receive_map(sub, nb)


@collector_paused()
def time_setup(scenario, n: int) -> dict[str, float]:
    """Seconds of each set-up stage for `n` workers, once."""
    partition, t_partition = _seconds(partition_nodes, scenario, n, 0)
    subs, t_subnetworks = _seconds(build_subnetworks, scenario, partition)
    _metagraph, t_metagraph = _seconds(build_metagraph, subs)
    engines = [_seconds(Engine, sub.fragment)[1] for sub in subs]
    maps = [_seconds(_fragment_maps, sub)[1] for sub in subs]
    return {
        "partition_nodes_s": t_partition,
        "build_subnetworks_s": t_subnetworks,
        "build_metagraph_s": t_metagraph,
        "engine_init_s.max": max(engines),
        "engine_init_s.sum": sum(engines),
        "decoder_maps_s.max": max(maps),
        "decoder_maps_s.sum": sum(maps),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--n", required=True, help="comma-separated worker counts")
    p.add_argument("--repeat", type=int, default=1, help="timings per figure; the median is shown")
    args = p.parse_args(argv)
    scenario = generate_grid(args.rows, args.cols)
    for n in (int(x) for x in args.n.split(",")):
        runs = [time_setup(scenario, n) for _ in range(args.repeat)]
        record = {"rows": args.rows, "cols": args.cols, "n": n, "repeat": args.repeat}
        for key in runs[0]:
            record[key] = round(statistics.median(run[key] for run in runs), 4)
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
