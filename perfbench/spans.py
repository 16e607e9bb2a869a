"""Spans around the program's public entry points, recorded from outside.

`Tracer.install()` replaces module attributes and class methods of ctmdist
with wrappers that record a span per call: (name, start, end, parent span,
step).  Nothing per cell is wrapped.  Forked workers reset their copy of the
recorder after the fork and write their spans to `<out_dir>/spans-<pid>`
(marshal, which is quick to write while the parent waits to join) when the
worker process exits; the job process writes its own file with `flush()`.  All processes share the monotonic `perf_counter` clock, so spans
of different processes can be laid on one timeline.

`StepClock` is the only hook the untraced run installs: it notes when each
engine starts step 0, which ends the run's set-up.
"""

from __future__ import annotations

import marshal
import mmap
import multiprocessing.util
import os
import struct
import time
from collections import Counter

import ctmdist
from ctmdist import comm, engine, partition, runner, scenario

# span name -> the layer metric its self time counts toward
METRIC_OF = {
    "load_scenario": "scenario.load_s",
    "load_partition": "partition.load_partition_s",
    "partition_nodes": "partition.partition_nodes_s",
    "build_subnetworks": "partition.build_subnetworks_s",
    "build_metagraph": "partition.build_metagraph_s",
    "build_decoder_map": "partition.decoder_maps_s",
    "build_receive_map": "partition.decoder_maps_s",
    "Engine.__init__": "engine.init_s",
    "Engine.phase_a": "engine.phase_a_s",
    "Engine.apply_lane_changes": "engine.lane_changes_s",
    "Engine.compute_connection_demands": "engine.connection_demands_s",
    "resolve_node_flows": "engine.node_model_s",
    "Engine.phase_b": "engine.phase_b_s",
    "Engine.boundary_records": "engine.boundary_records_s",
    "Engine.state_rows": "engine.state_rows_s",
    "tcp_connect_channels": "comm.connect_s",
    "establish": "comm.establish_s",
    "encode": "comm.encode_s",
    "decode": "comm.decode_s",
    "exchange": "comm.exchange_s",
    "send_frame": "comm.send_s",
    "recv_frame": "comm.recv_s",
    "merge_states": "runner.merge_s",
    "write_dump": "runner.dump_s",
}

# (owner, attribute, span name).  The runner resolves these names through
# its own module globals at call time, so patching them there reaches the
# forked workers too.
TARGETS = [
    (ctmdist, "load_scenario", "load_scenario"),
    (partition, "load_partition", "load_partition"),
    (ctmdist, "build_subnetworks", "build_subnetworks"),
    (runner, "write_dump", "write_dump"),
    (runner, "partition_nodes", "partition_nodes"),
    (runner, "build_subnetworks", "build_subnetworks"),
    (runner, "build_metagraph", "build_metagraph"),
    (runner, "build_decoder_map", "build_decoder_map"),
    (runner, "build_receive_map", "build_receive_map"),
    (runner, "encode", "encode"),
    (runner, "decode", "decode"),
    (runner, "exchange", "exchange"),
    (runner, "establish", "establish"),
    (runner, "tcp_connect_channels", "tcp_connect_channels"),
    (runner, "merge_states", "merge_states"),
    (engine, "resolve_node_flows", "resolve_node_flows"),
    (engine.Engine, "__init__", "Engine.__init__"),
    (engine.Engine, "phase_a", "Engine.phase_a"),
    (engine.Engine, "phase_b", "Engine.phase_b"),
    (engine.Engine, "apply_lane_changes", "Engine.apply_lane_changes"),
    (engine.Engine, "compute_connection_demands", "Engine.compute_connection_demands"),
    (engine.Engine, "boundary_records", "Engine.boundary_records"),
    (engine.Engine, "state_rows", "Engine.state_rows"),
    (comm.PipeDuplex, "send_frame", "send_frame"),
    (comm.PipeDuplex, "recv_frame", "recv_frame"),
    (comm.SocketDuplex, "send_frame", "send_frame"),
    (comm.SocketDuplex, "recv_frame", "recv_frame"),
]

_MAX_WORKERS = 64


def _worker_index(scn: scenario.Scenario) -> int:
    return scn.subnetwork.index if scn.subnetwork is not None else 0


class StepClock:
    """perf_counter reading at which each engine began step 0, kept in an
    anonymous shared mapping so forked workers' readings reach the parent."""

    def __init__(self):
        self.buf = mmap.mmap(-1, 8 * _MAX_WORKERS)

    def install(self) -> None:
        original = engine.Engine.phase_a
        buf = self.buf

        def phase_a(eng, step):
            if step == 0:
                struct.pack_into("<d", buf, 8 * _worker_index(eng.scenario), time.perf_counter())
            return original(eng, step)

        engine.Engine.phase_a = phase_a

    def last_start(self) -> float:
        """When the last engine started step 0; 0.0 if none did."""
        return max(struct.unpack_from(f"<{_MAX_WORKERS}d", self.buf))


class Tracer:
    """In-memory span and count recorder of one process; see the module
    docstring."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.worker = 0
        self.step = -1
        # [name, start, end, parent index or -1, step]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active: list[tuple[int, int]] = []  # (step, active link count)

    def _after_fork(self) -> None:
        self._reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=10)

    def flush(self) -> None:
        doc = {
            "pid": self.pid,
            "worker": self.worker,
            "spans": self.spans,
            "counts": dict(self.counts),
            "active": self.active,
        }
        with open(os.path.join(self.out_dir, f"spans-{self.pid}"), "wb") as f:
            marshal.dump(doc, f)

    def _wrap(self, fn, name):
        tracer = self
        count_result = _RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, tracer.step]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            tracer.counts[name] += 1
            if count_result is not None:
                count_result(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))
        # step and worker bookkeeping sits outside the spans it labels
        traced_init = engine.Engine.__init__
        traced_phase_a = engine.Engine.phase_a
        tracer = self

        def init(eng, scn, owned_nodes=None):
            tracer.worker = _worker_index(scn)
            traced_init(eng, scn, owned_nodes)

        def phase_a(eng, step):
            tracer.step = step
            tracer.active.append((step, len(eng.active)))
            return traced_phase_a(eng, step)

        engine.Engine.__init__ = init
        engine.Engine.phase_a = phase_a


def _count_send(tracer: Tracer, args, result) -> None:
    if tracer.step >= 0:
        tracer.counts["comm.frames"] += 1
        tracer.counts["comm.bytes"] += len(args[1])


def _count_decode(tracer: Tracer, args, records) -> None:
    # every encoded frame is decoded once, and decode keeps only the
    # nonzero slots, so no extra pass over the slots is needed
    tracer.counts["comm.values"] += len(args[1])
    tracer.counts["comm.nonzero"] += len(records)


def _count_decoder(tracer: Tracer, args, decoder) -> None:
    tracer.counts["partition.slots"] += decoder.message_length


def _count_metagraph(tracer: Tracer, args, metagraph) -> None:
    tracer.counts["partition.overlap_links"] += sum(len(v) for v in metagraph.edges.values())


def _count_rows(tracer: Tracer, args, rows) -> None:
    tracer.counts["engine.dump_rows"] += len(rows)


_RESULT_COUNTS = {
    "send_frame": _count_send,
    "decode": _count_decode,
    "build_decoder_map": _count_decoder,
    "build_metagraph": _count_metagraph,
    "Engine.state_rows": _count_rows,
}


# ---------------------------------------------------------------------------
# the layer table of one traced job
# ---------------------------------------------------------------------------

# layers timed in the job process itself
PARENT_METRICS = (
    "scenario.load_s",
    "partition.load_partition_s",
    "partition.partition_nodes_s",
    "partition.build_subnetworks_s",
    "partition.build_metagraph_s",
    "runner.merge_s",
    "runner.dump_s",
)
# layers timed in each worker (the job process itself in a sequential run)
WORKER_METRICS = (
    "partition.decoder_maps_s",
    "engine.init_s",
    "engine.phase_a_s",
    "engine.lane_changes_s",
    "engine.connection_demands_s",
    "engine.node_model_s",
    "engine.phase_b_s",
    "engine.boundary_records_s",
    "engine.state_rows_s",
    "comm.connect_s",
    "comm.establish_s",
    "comm.encode_s",
    "comm.decode_s",
    "comm.exchange_s",
    "comm.send_s",
    "comm.recv_s",
)
# exact counts; each must repeat between runs of one seed
COUNT_METRICS = (
    "partition.slots",
    "partition.overlap_links",
    "comm.frames",
    "comm.bytes_per_step",
    "comm.nonzero_ratio",
    "engine.lane_change_calls",
    "engine.node_model_calls",
    "engine.dump_rows",
    "engine.active_links_mean",
)

_RATIOS = ("comm.nonzero_ratio", "runner.imbalance", "trace.accounted", "trace.overhead")
# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    **{m: "s" for m in PARENT_METRICS},
    **{f"{m}.{agg}": "s" for m in WORKER_METRICS for agg in ("max", "sum")},
    "runner.other_s": "s",
    **{m: "count" for m in COUNT_METRICS if m not in _RATIOS},
    **{m: "ratio" for m in _RATIOS},
}
PER_LAYER_UNITS["comm.bytes_per_step"] = "B/step"


def self_times(spans: list[list]) -> Counter:
    """Layer metric -> summed self time (duration minus child spans)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, step in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, parent, step) in enumerate(spans):
        metric = METRIC_OF[name]
        if step < 0 and name in ("send_frame", "recv_frame"):
            metric = "comm.establish_s"  # handshake frames
        out[metric] += (end - start) - child[i]
    return out


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_table(trace_dir: str, job_pid: int, t_start: float, t_end: float, steps: int) -> dict:
    """Per-layer metrics of one traced job from the span files in
    `trace_dir`.  Worker layers are reported as `.max` and `.sum` over
    workers.  `runner.other_s` is the wall not covered by any span of any
    process (fork, join, pipe set-up); `trace.accounted` is the job
    process's self times plus those of the busiest worker plus
    `runner.other_s`, over the wall."""
    docs = []
    for fname in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, fname), "rb") as f:
            docs.append(marshal.load(f))
    parent = next(d for d in docs if d["pid"] == job_pid)
    workers = [d for d in docs if d is not parent] or [parent]
    selfs = {id(d): self_times(d["spans"]) for d in docs}
    wall = t_end - t_start

    table: dict[str, float] = {}
    for m in PARENT_METRICS:
        table[m] = selfs[id(parent)][m]
    for m in WORKER_METRICS:
        values = [selfs[id(w)][m] for w in workers]
        table[m + ".max"] = max(values)
        table[m + ".sum"] = sum(values)

    tops = [(s[1], s[2]) for d in docs for s in d["spans"] if s[3] < 0]
    other = wall - covered(tops, t_start, t_end)
    table["runner.other_s"] = other
    busiest = max(workers, key=lambda w: sum(selfs[id(w)].values()))
    accounted = sum(selfs[id(parent)].values()) + other
    if busiest is not parent:
        accounted += sum(selfs[id(busiest)].values())
    table["trace.accounted"] = accounted / wall
    engine_time = [
        sum(v for k, v in selfs[id(w)].items() if k.startswith("engine.")) for w in workers
    ]
    table["runner.imbalance"] = max(engine_time) / (sum(engine_time) / len(engine_time))

    counts: Counter = Counter()
    active_by_step: Counter = Counter()
    for d in docs:
        counts.update(d["counts"])
        for step, n_active in d["active"]:
            active_by_step[step] += n_active
    table["partition.slots"] = counts["partition.slots"]
    table["partition.overlap_links"] = counts["partition.overlap_links"]
    table["comm.frames"] = counts["comm.frames"]
    table["comm.bytes_per_step"] = counts["comm.bytes"] / steps
    table["comm.nonzero_ratio"] = (
        counts["comm.nonzero"] / counts["comm.values"] if counts["comm.values"] else 0.0
    )
    table["engine.lane_change_calls"] = counts["Engine.apply_lane_changes"]
    table["engine.node_model_calls"] = counts["resolve_node_flows"]
    table["engine.dump_rows"] = counts["engine.dump_rows"]
    table["engine.active_links_mean"] = sum(active_by_step.values()) / steps
    return table
