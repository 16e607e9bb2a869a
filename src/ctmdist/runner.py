"""Run orchestration: sequential and distributed execution, state dumps,
conservation metrics, timing breakdown, and the scaling benchmark.

Every mode drives the same per-step loop: phase A, encode, exchange, decode,
phase B.  A sequential run is the loop with zero channels.  A worker binds
each channel to its engine (`Engine.bind_channel`) before the handshake, so
phase A writes the flows of the links it shares straight into the messages
that `encode` turns into payloads, and `decode` pairs the received doubles
with the engine's receive table.  Distributed workers are forked processes
that exchange frames over one stream socket per metagraph edge, a
socketpair in local mode and a TCP connection in tcp mode (see `comm`).
The parent merges their authoritative state rows, which must be bitwise
identical to a sequential run's dump.  A worker starts from its fragment
and one connected duplex per neighbor, and nothing else: it derives its
decoder maps and engine keys from the fragment.  Decoder files never reach the runner; `cli` compares them with
the derived maps where it reads them (`comm.check_decoder_maps`).  Every
worker runs `run_worker`: a forked local worker on socketpair ends, and a
forked or joined TCP worker on the duplexes `connect_tcp_worker` returns.
A forked worker is a function that `run_distributed` defines for the run:
it closes over the run's sockets, listeners, roster and settings, and is
handed only its fragment and its result pipe.  Fragments supplied by the
caller must make one partition (`_check_fragments`): as everywhere else, a
link's role follows from which fragment owns its end nodes, so the check
reads `owned_nodes`, never the role lists.

Set-up and the loop run with the cyclic garbage collector paused
(`scenario.collector_paused`, which puts back the state it found): parsing
a scenario; a sequential run's engine build and loop; a distributed run's
partition, fragments, fork and merge in the parent, and each worker's
engine, decoder maps, handshake and loop.  That is safe because none of
these stages makes a reference cycle: reference counting frees every
step's plan, messages and demand entries and every set-up temporary
(`tests/test_runner.py::TestCollectorPause` checks each stage).  A pause
does not skip the young-generation pass over what it allocated: that pass
runs as the pause ends, at its first allocation after it.  For a parse
that is the parse's own return, inside set-up and not after step 0; for a
sequential run's engine it is after the last step.  Forked workers inherit
the paused collector and never collect, so they leave the copy-on-write
pages of the heap they inherit alone.  No process is frozen (`gc.freeze()`).

A worker reports through its result pipe.  It sends a `CtmError` as
itself, so the caller gets the worker's class, message and exit code, and
any other exception as a `CtmError` holding the traceback.  The first
failure read ends the run: the parent terminates the other workers, then
names the worker whose missing result it read first or, after an error, a
worker that died by itself (one it did not stop, or whose exit code is not
its `SIGTERM`), since that death caused its neighbors' errors.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
import socket
import time
import traceback
from dataclasses import dataclass, field
from itertools import zip_longest
from multiprocessing.connection import wait

from .comm import (
    DEFAULT_TIMEOUT,
    NeighborChannel,
    SocketDuplex,
    decode,
    encode,
    establish,
    exchange,
    tcp_connect_channels,
    tcp_listener,
)
from .engine import Engine
from .errors import CtmError, InternalAssertion, ProtocolError, ScenarioError
from .partition import (
    Subnetwork,
    build_decoder_map,
    build_metagraph,
    build_receive_map,
    build_subnetworks,
    partition_nodes,
)
from .scenario import Scenario, collector_paused

CONSERVATION_TOL = 1e-9
DUMP_HEADER = "step,link,lane_group,cell,vehicle_type,next_link,vehicles"
DEFAULT_DUMP_EVERY = 10
DEAD = ("dead",)  # the outcome of a worker that exited without a result

# dump row: (step, link, lane_group, cell, vehicle_type, next_link, vehicles)
Row = tuple[int, int, int, int, int, int, float]


@dataclass
class WorkerReport:
    index: int
    setup_s: float
    compute_s: float
    comm_times: list[float] = field(default_factory=list)

    def timing(self) -> dict:
        comm_total = sum(self.comm_times)
        return {
            "index": self.index,
            "setup_s": self.setup_s,
            "compute_s": self.compute_s,
            "comm": {
                "total_s": comm_total,
                "min_s": min(self.comm_times) if self.comm_times else 0.0,
                "mean_s": comm_total / len(self.comm_times) if self.comm_times else 0.0,
                "max_s": max(self.comm_times) if self.comm_times else 0.0,
            },
            "total_s": self.setup_s + self.compute_s + comm_total,
        }


@dataclass
class RunResult:
    rows: list[Row]
    metrics: dict
    timing: dict


def _simulate(
    engine: Engine,
    channels: list[NeighborChannel],
    tables: list[list],
    steps: int,
    dump_every: int | None,
    timeout: float,
    report: WorkerReport,
) -> tuple[list[Row], dict]:
    """The per-step loop shared by every execution mode; its callers run it
    inside their collector pause.  `channels` come in ascending neighbor
    order, as `_worker_channels` builds them, each with its receive table
    in `tables`."""
    rows: list[Row] = []
    per_step = {"in_network": [], "entered_cum": [], "exited_cum": [], "queued": []}
    entered_cum = 0.0
    exited_cum = 0.0
    for step in range(steps):
        t0 = time.perf_counter()
        plan = engine.phase_a(step)
        outbox = {}
        for ch in channels:
            outbox[ch.remote] = encode(engine.boundary_records(plan, ch.remote))
        t1 = time.perf_counter()
        report.compute_s += t1 - t0
        if channels:
            inbox = exchange(channels, outbox, step, timeout)
            t2 = time.perf_counter()
            report.comm_times.append(t2 - t1)
        else:
            inbox = {}
            t2 = t1
        received = []
        for ch, table in zip(channels, tables):
            received.extend(decode(table, inbox[ch.remote]))
        stats = engine.phase_b(plan, received)
        report.compute_s += time.perf_counter() - t2

        entered_cum += stats.entered
        exited_cum += stats.exited
        per_step["in_network"].append(stats.in_network)
        per_step["entered_cum"].append(entered_cum)
        per_step["exited_cum"].append(exited_cum)
        per_step["queued"].append(stats.queued)
        if dump_every and ((step + 1) % dump_every == 0 or step == steps - 1):
            rows.extend(engine.state_rows(step + 1))
    return rows, per_step


def _finalize_metrics(per_step: dict, steps: int) -> dict:
    """Run metrics from whole-network totals; conservation must hold at every step."""
    worst = 0.0
    for i in range(steps):
        error = (
            per_step["entered_cum"][i]
            - per_step["exited_cum"][i]
            - per_step["in_network"][i]
        )
        if abs(error) > CONSERVATION_TOL:
            raise InternalAssertion(
                f"conservation violated at step {i}: entered-exited-in_network = {error}"
            )
        worst = max(worst, abs(error))
    return {
        "steps": steps,
        "per_step": per_step,
        "conservation_max_abs_error": worst,
    }


@collector_paused()
def run_sequential(
    scenario: Scenario,
    steps: int | None = None,
    dump_every: int | None = DEFAULT_DUMP_EVERY,
) -> RunResult:
    """Whole-network run in one process; the reference for every equivalence
    check."""
    steps = scenario.sim.steps if steps is None else steps
    _check_steps(steps)
    wall0 = time.perf_counter()
    report = WorkerReport(index=0, setup_s=0.0, compute_s=0.0)
    t0 = time.perf_counter()
    engine = Engine(scenario)
    report.setup_s = time.perf_counter() - t0
    rows, per_step = _simulate(engine, [], [], steps, dump_every, DEFAULT_TIMEOUT, report)
    metrics = _finalize_metrics(per_step, steps)
    timing = {
        "wall_s": time.perf_counter() - wall0,
        "mode": "sequential",
        "workers": [report.timing()],
    }
    return RunResult(rows=rows, metrics=metrics, timing=timing)


# ---------------------------------------------------------------------------
# distributed
# ---------------------------------------------------------------------------


def _worker_channels(sub: Subnetwork, duplexes: dict[int, object]) -> list[NeighborChannel]:
    """Channels in ascending neighbor order, with the maps `sub`'s fragment
    derives."""
    return [
        NeighborChannel(
            local=sub.index,
            remote=nb,
            send_map=build_decoder_map(sub, nb),
            recv_map=build_receive_map(sub, nb),
            duplex=duplexes[nb],
        )
        for nb in sub.neighbors()
    ]


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise ScenarioError("steps must be >= 1")


def _check_transport(transport: str) -> None:
    if transport not in ("local", "tcp"):
        raise ScenarioError(f"unknown transport {transport!r}")


def _check_timeout(timeout: float) -> None:
    if not 0.0 < timeout < math.inf:
        raise ScenarioError(f"timeout must be a positive finite number of seconds, not {timeout}")


def connect_tcp_worker(
    sub: Subnetwork, roster: dict[int, tuple[str, int]], listener, steps: int, timeout: float
) -> dict[int, SocketDuplex]:
    """Check one TCP worker's settings, connect it to its neighbors through
    `listener`, whose address the roster gives, and close the listener;
    returns one duplex per neighbor, for `run_worker`."""
    with listener:
        _check_steps(steps)
        _check_timeout(timeout)
        return tcp_connect_channels(sub.index, list(sub.neighbors()), roster, listener, timeout)


@collector_paused()
def run_worker(
    sub: Subnetwork, duplexes: dict[int, object], steps: int, dump_every: int | None, timeout: float
) -> tuple[list[Row], dict, dict]:
    """Run one worker from its fragment and one connected duplex per
    neighbor: build the engine, derive the maps, handshake, simulate and
    close the duplexes.  Returns its dump rows, per-step totals and timing."""
    report = WorkerReport(index=sub.index, setup_s=0.0, compute_s=0.0)
    t0 = time.perf_counter()
    engine = Engine(sub.fragment)
    channels = _worker_channels(sub, duplexes)
    tables = [
        engine.bind_channel(ch.remote, ch.send_map.positions, ch.recv_map.positions)
        for ch in channels
    ]
    establish(channels, timeout)
    report.setup_s = time.perf_counter() - t0
    rows, per_step = _simulate(engine, channels, tables, steps, dump_every, timeout, report)
    for ch in channels:
        ch.duplex.close()
    return rows, per_step, report.timing()


def _read_result(conn) -> tuple:
    """A worker's result message, or DEAD when it sent none."""
    try:
        if conn.poll():
            return conn.recv()
    except (EOFError, OSError):
        pass  # none, or cut short
    return DEAD


@collector_paused()
def run_distributed(
    scenario: Scenario | None = None,
    n: int | None = None,
    *,
    subs: list[Subnetwork] | None = None,
    transport: str = "local",
    seed: int = 0,
    steps: int | None = None,
    dump_every: int | None = DEFAULT_DUMP_EVERY,
    timeout: float = DEFAULT_TIMEOUT,
) -> RunResult:
    """Partition (unless fragments are supplied), fork one worker per
    subnetwork, run in lockstep, and merge.  `transport` picks the channel
    implementation: "local" socketpairs or "tcp" loopback sockets."""
    _check_transport(transport)
    _check_timeout(timeout)
    wall0 = time.perf_counter()
    if subs is None:
        if scenario is None or n is None:
            raise ScenarioError("run_distributed needs a scenario and n, or fragments")
        partition = partition_nodes(scenario, n, seed)
        subs = build_subnetworks(scenario, partition)
    if not subs:
        raise ScenarioError("run_distributed needs at least one fragment")
    n = len(subs)
    if steps is None:
        steps = subs[0].fragment.sim.steps
    _check_steps(steps)

    _check_fragments(subs)
    metagraph = build_metagraph(subs)

    ctx = multiprocessing.get_context("fork")
    pair_socks: list[dict[int, socket.socket] | None] = [None] * n
    roster = None
    listeners = None
    if transport == "local":
        for i in range(n):
            pair_socks[i] = {}
        for (i, j) in metagraph.edges:
            pair_socks[i][j], pair_socks[j][i] = socket.socketpair()
    else:
        listeners = {i: tcp_listener() for i in range(n)}
        roster = {i: ("127.0.0.1", listeners[i].getsockname()[1]) for i in range(n)}

    result_pipes = [ctx.Pipe(duplex=False) for _ in range(n)]
    # every pipe end and socket a forked worker inherits
    inherited = [end for pipe in result_pipes for end in pipe]
    inherited += [sock for socks in pair_socks if socks for sock in socks.values()]
    inherited += listeners.values() if listeners else ()

    def worker(sub: Subnetwork, result_conn) -> None:
        socks = pair_socks[sub.index]
        listener = listeners[sub.index] if listeners else None
        # close the copies of other workers' pipes and sockets that came
        # through fork, so that this worker's death reaches its peers as EOF
        own = [result_conn, listener, *(socks or {}).values()]
        for handle in inherited:
            if handle not in own:
                handle.close()
        try:
            if socks is not None:
                duplexes = {nb: SocketDuplex(sock) for nb, sock in socks.items()}
            else:
                duplexes = connect_tcp_worker(sub, roster, listener, steps, timeout)
            result_conn.send(("ok", *run_worker(sub, duplexes, steps, dump_every, timeout)))
        except CtmError as e:
            result_conn.send(("error", e))
        except Exception:
            result_conn.send(("error", CtmError(traceback.format_exc())))
        finally:
            result_conn.close()

    procs = []
    for sub in subs:
        proc = ctx.Process(target=worker, args=(sub, result_pipes[sub.index][1]))
        proc.start()
        procs.append(proc)
    receivers = [recv for recv, _send in result_pipes]
    for handle in inherited:
        if handle not in receivers:
            handle.close()

    results: list[tuple | None] = [None] * n
    failure: tuple | None = None  # (worker index, outcome) of the first failure read
    owner = {result_pipes[i][0]: i for i in range(n)}
    owner.update({proc.sentinel: i for i, proc in enumerate(procs)})
    # generous backstop only: stalled workers abort themselves via the
    # per-channel exchange timeout and report through their result pipe
    deadline = time.monotonic() + timeout + 3600.0
    while None in results and failure is None:
        waiting = [h for h, i in owner.items() if results[i] is None]
        ready = wait(waiting, max(0.0, deadline - time.monotonic()))
        if not ready:
            failure = (None, ("error", ProtocolError("workers stalled")))
        for i in sorted({owner[h] for h in ready}):
            results[i] = _read_result(result_pipes[i][0])
            if results[i][0] != "ok":
                failure = failure or (i, results[i])
    # after a failure, stop the workers still running; then join every
    # worker and read what each one sent
    stopped = [failure is not None and proc.is_alive() for proc in procs]
    for proc, alive in zip(procs, stopped):
        if alive:
            proc.terminate()
    for i, proc in enumerate(procs):
        proc.join()
        if results[i] is None:
            results[i] = _read_result(result_pipes[i][0])
    if failure is not None:
        cause, outcome = failure
        if outcome != DEAD:
            dead = [
                i
                for i, r in enumerate(results)
                if r == DEAD and not (stopped[i] and procs[i].exitcode == -signal.SIGTERM)
            ]
            cause = dead[0] if dead else None
        if cause is not None:
            code = procs[cause].exitcode
            raise ProtocolError(f"worker {cause} exited with code {code} without a result")
        raise outcome[1]

    rows = merge_states([r[1] for r in results])
    merged_steps = {key: [] for key in ("in_network", "entered_cum", "exited_cum", "queued")}
    for step in range(steps):
        for key in merged_steps:
            total = 0.0
            for r in results:
                total += r[2][key][step]
            merged_steps[key].append(total)
    metrics = _finalize_metrics(merged_steps, steps)
    timing = {
        "wall_s": time.perf_counter() - wall0,
        "mode": f"distributed-{transport}",
        "n": n,
        "workers": [r[3] for r in results],
    }
    return RunResult(rows=rows, metrics=metrics, timing=timing)


def _check_fragments(subs: list[Subnetwork]) -> None:
    """The fragments must make one partition, whoever built them.  No node
    is owned by two fragments, so every link has at most one start-node
    (authoritative) side.  The fragments are indexed 0..n-1 in order.  Each
    overlap link's far fragment is in the set and shares the link back.  All
    share simulation settings and vehicle types.  It costs O(owned nodes +
    overlap links + fragments x vehicle types)."""
    owners: dict[int, int] = {}
    for sub in subs:
        for nid in sub.owned_nodes:
            if nid in owners:
                raise ScenarioError(
                    f"node {nid} is owned by fragments {owners[nid]} and {sub.index}"
                )
            owners[nid] = sub.index
    n = len(subs)
    for position, sub in enumerate(subs):
        if sub.index != position:
            raise ScenarioError(
                f"fragment {position} of {n} has index {sub.index}; fragments must be "
                f"indexed 0..{n - 1} in order"
            )
    shared = [sub.neighbor_of_link for sub in subs]
    for i, links in enumerate(shared):
        for lid, nb in links.items():
            if nb >= n:
                raise ScenarioError(
                    f"fragment {i} shares link {lid} with fragment {nb}, which is not "
                    f"among the {n} fragments"
                )
            if shared[nb].get(lid) != i:
                raise ScenarioError(
                    f"fragment {i} shares link {lid} with fragment {nb}, which does not "
                    f"share it back"
                )
    first = subs[0].fragment
    for sub in subs[1:]:
        frag = sub.fragment
        for name, theirs in vars(first.sim).items():
            mine = getattr(frag.sim, name)
            if mine != theirs:
                raise ScenarioError(
                    f"fragment {sub.index}: simulation.{name} is {mine}, fragment 0's is {theirs}"
                )
        for vt in sorted(frag.vehicle_types.keys() | first.vehicle_types.keys()):
            if frag.vehicle_types.get(vt) != first.vehicle_types.get(vt):
                raise ScenarioError(
                    f"fragment {sub.index}: vehicle type {vt} differs from fragment 0's"
                )


def merge_states(row_lists: list[list[Row]]) -> list[Row]:
    """Concatenate per-worker dumps into the canonical global order; every
    (step, link, lane group, cell, commodity) must appear exactly once."""
    merged: list[Row] = []
    for rows in row_lists:
        merged.extend(tuple(r) for r in rows)
    merged.sort()
    for a, b in zip(merged, merged[1:]):
        if a[:6] == b[:6]:
            raise InternalAssertion(
                f"ownership conflict: state row {a[:6]} reported twice"
            )
    return merged


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def rows_to_csv(rows: list[Row]) -> str:
    """The dump text: the header, then one line per row, the vehicles
    written with repr() so that they read back to the same float."""
    return DUMP_HEADER + "\n" + "".join(["%d,%d,%d,%d,%d,%d,%r\n" % row for row in rows])


def write_dump(rows: list[Row], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(rows_to_csv(rows))


def parse_dump(text: str) -> list[Row]:
    lines = text.splitlines()
    if not lines or lines[0] != DUMP_HEADER:
        raise ScenarioError(f"dump schema mismatch: header {lines[0] if lines else ''!r}")
    rows: list[Row] = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ScenarioError(f"dump line {lineno}: expected 7 fields")
        try:
            row = (*map(int, parts[:6]), float(parts[6]))
        except ValueError as e:
            raise ScenarioError(f"dump line {lineno}: {e}") from None
        if not math.isfinite(row[6]):
            raise ScenarioError(f"dump line {lineno}: vehicles must be finite, got {parts[6]!r}")
        rows.append(row)
    return rows


def diff_dumps(text_a: str, text_b: str, tol: float | None = None) -> str | None:
    """None when equal; otherwise a description of the first divergence.
    Without `tol` the texts must be equal byte for byte, and the first line
    that differs is named; with `tol`, rows are compared by key and by value
    within relative tolerance `tol`.  Texts that differ must both parse."""
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ScenarioError(f"tol must be a non-negative finite number, not {tol}")
    if tol is None and text_a == text_b:
        return None
    rows_a, rows_b = parse_dump(text_a), parse_dump(text_b)
    if tol is None:
        return _first_line_difference(text_a, text_b)
    for i in range(min(len(rows_a), len(rows_b))):
        a, b = rows_a[i], rows_b[i]
        if a[:6] != b[:6]:
            return f"row {i + 1}: keys differ: {a[:6]} vs {b[:6]}"
        va, vb = a[6], b[6]
        if va != vb and abs(va - vb) > tol * max(abs(va), abs(vb)):
            return (
                f"step {a[0]} link {a[1]} group {a[2]} cell {a[3]} vtype {a[4]} "
                f"next {a[5]}: {va!r} vs {vb!r}"
            )
    if len(rows_a) != len(rows_b):
        longer = "a" if len(rows_a) > len(rows_b) else "b"
        return f"row counts differ ({len(rows_a)} vs {len(rows_b)}); extra rows in {longer}"
    return None


def _first_line_difference(text_a: str, text_b: str) -> str:
    """The first line, newline included, where two different texts part, by
    number, with the row key it holds in `a` (else `b`) and both texts."""
    pairs = zip_longest(text_a.splitlines(True), text_b.splitlines(True))
    lineno, (a, b) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
    where = f"line {lineno}"
    fields = (a or b).rstrip("\r\n").split(",")
    if lineno > 1 and len(fields) == 7:
        where += " (step {} link {} group {} cell {} vtype {} next {})".format(*fields)
    shown = ("end of file" if line is None else repr(line) for line in (a, b))
    return "{}: {} vs {}".format(where, *shown)


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def benchmark(
    scenario: Scenario,
    n_list: list[int],
    steps: int | None = None,
    transport: str = "local",
    seed: int = 0,
) -> dict:
    """Run the scenario at each worker count and report the timing columns:
    setup, communication, computation, total, speed-up, and the ideal rate
    (worker count times the serial simulation rate).

    `speedup` divides the first row's end-to-end wall by this row's; for
    n > 1 that wall includes partitioning, forking and merging, which the
    n=1 row (`run_sequential`) does not do.  `compute_speedup` divides the
    n=1 row's largest worker compute time by this row's, and, like
    `ideal_rate`, is None unless the first row is n=1."""
    _check_transport(transport)
    rows = []
    base_total = None
    serial_rate = None
    serial_compute = None
    for n in n_list:
        if n == 1:
            result = run_sequential(scenario, steps=steps, dump_every=None)
        else:
            result = run_distributed(
                scenario,
                n,
                transport=transport,
                seed=seed,
                steps=steps,
                dump_every=None,
            )
        workers = result.timing["workers"]
        total = result.timing["wall_s"]
        comm_max = max(w["comm"]["total_s"] for w in workers)
        compute_max = max(w["compute_s"] for w in workers)
        setup_max = max(w["setup_s"] for w in workers)
        if base_total is None:
            base_total = total
            if n == 1:
                serial_rate = 1.0 / total
                serial_compute = compute_max
        rows.append(
            {
                "n": n,
                "setup_s": setup_max,
                "comm_s": comm_max,
                "compute_s": compute_max,
                "total_s": total,
                "speedup": base_total / total,
                "compute_speedup": (
                    serial_compute / compute_max if serial_compute is not None else None
                ),
                "rate": 1.0 / total,
                "ideal_rate": (n * serial_rate) if serial_rate is not None else None,
            }
        )
    monotone = all(
        rows[i]["total_s"] >= rows[i + 1]["total_s"] for i in range(len(rows) - 1)
    )
    return {
        "transport": transport,
        "steps": steps,
        "rows": rows,
        "total_time_monotone_nonincreasing": monotone,
    }
