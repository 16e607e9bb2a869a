"""The benchmark's trace wraps program names from outside; each must exist,
and each that a worker calls must stay on its path.

`perfbench/spans.py` patches every (owner, attribute) in its `TARGETS` when
`perfbench/run.py --trace 1` runs.  A refactor that removes or renames one
of them breaks the traced benchmark, so it fails here first.  A refactor
that leaves a name in place but stops calling it leaves its layer reading
0, so the step loop's names are counted on a live run here too.  The
module is only imported, never installed.
"""

import importlib.util
import os
from collections import Counter

from ctmdist import comm, engine, runner
from ctmdist.partition import build_subnetworks, partition_nodes

from conftest import lanes_grid
from support import run_in_threads

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")

# names a worker run in a thread never calls: the parent's set-up and
# merge, the dump that perfbench's job writes and a TCP worker's connect
# (the counted owners leave out `PipeDuplex`, which no channel is)
NOT_IN_A_WORKER = {
    "partition_nodes",
    "build_subnetworks",
    "build_metagraph",
    "merge_states",
    "write_dump",
    "tcp_connect_channels",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    for owner, attr, name in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"
        assert name in spans.METRIC_OF


def test_worker_calls_every_traced_name(monkeypatch):
    # two workers run in threads of this process on socketpair ends, with
    # a counting wrapper on every engine, runner and comm name the trace
    # wraps, as `Tracer.install` puts its own
    traced = load_spans().TARGETS
    assert NOT_IN_A_WORKER <= {name for _owner, _attr, name in traced}
    targets = [
        (owner, attr, name)
        for owner, attr, name in traced
        if owner in (engine, engine.Engine, runner, comm.SocketDuplex)
        and name not in NOT_IN_A_WORKER
    ]
    calls = Counter()
    decoded = []  # (nonzero values given, entries returned) per decode call

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            if name == "decode":
                decoded.append((sum(1 for v in args[1] if v), len(result)))
            return result

        return wrapper

    for owner, attr, name in targets:
        monkeypatch.setattr(owner, attr, counting(getattr(owner, attr), name))
    scenario = lanes_grid()
    subs = build_subnetworks(scenario, partition_nodes(scenario, 2, seed=0))
    run_in_threads(subs, 40, dump_every=20)
    assert sorted(name for name in {t[2] for t in targets} if not calls[name]) == []
    assert sum(given for given, _ in decoded) > 0
    assert all(given == returned for given, returned in decoded)
