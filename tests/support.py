"""Program code that only tests call, kept out of the package: partition
subset sizes, the union of a partition's fragments, the time of
distribution set-up, fragment engines stepped in lockstep in one process,
step frames built by hand, and workers run in threads of one process."""

import socket
import time
from array import array

from ctmdist import runner
from ctmdist.comm import HEADER, SocketDuplex, decode, encode, payload_values
from ctmdist.partition import NodePartition, Subnetwork
from ctmdist.scenario import Scenario, collector_paused, validate

from conftest import run_bounded


def subset_sizes(partition: NodePartition) -> list[int]:
    """The number of nodes in each subset."""
    sizes = [0] * partition.n
    for subset in partition.assignment.values():
        sizes[subset] += 1
    return sizes


def reconstruct_scenario(scenario_template: Scenario, subs: list[Subnetwork]) -> Scenario:
    """Union of fragments (overlap links deduplicated) for the
    reconstruction invariant; `scenario_template` supplies only sim params."""
    nodes = {}
    links = {}
    connections = {}
    splits = []
    demands = []
    seen_splits = set()
    seen_demands = set()
    for sub in subs:
        frag = sub.fragment
        for nid in sub.owned_nodes:
            nodes[nid] = frag.nodes[nid]
        carried = set(sub.interior_links) | set(sub.relative_sources) | set(
            sub.relative_sinks
        )
        for lid in sorted(carried):
            links[lid] = frag.links[lid]
        for cid in sorted(frag.connections):
            conn = frag.connections[cid]
            if conn.in_link in carried and conn.out_link in carried:
                connections[cid] = conn
        for row in frag.splits:
            key = (row.node, row.in_link, row.vtype, row.start_time)
            if key not in seen_splits:
                seen_splits.add(key)
                splits.append(row)
        for row in frag.demands:
            key = (row.link, row.vtype)
            if key not in seen_demands:
                seen_demands.add(key)
                demands.append(row)
    merged = Scenario(
        nodes=nodes,
        links=links,
        connections=connections,
        vehicle_types=dict(subs[0].fragment.vehicle_types) if subs else {},
        splits=sorted(splits, key=lambda r: (r.node, r.in_link, r.vtype, r.start_time)),
        demands=sorted(demands, key=lambda r: (r.link, r.vtype)),
        sim=scenario_template.sim,
    )
    validate(merged)
    return merged


@collector_paused()
def setup_timing(scenario: Scenario, n: int, seed: int = 0) -> float:
    """Seconds of distribution set-up for `n` workers: partition, fragments,
    metagraph and every decoder map, with the collector paused as in a run.
    It calls the builders through `runner`, as a run does."""
    t0 = time.perf_counter()
    partition = runner.partition_nodes(scenario, n, seed)
    subs = runner.build_subnetworks(scenario, partition)
    runner.build_metagraph(subs)
    for sub in subs:
        for nb in sub.neighbors():
            runner.build_decoder_map(sub, nb)
            runner.build_receive_map(sub, nb)
    return time.perf_counter() - t0


def lockstep(engines, maps, steps, on_messages=None):
    """Step fragment engines in lockstep in one process, as a distributed
    run does.  `engines` maps each worker to its engine, and `maps` maps
    each (worker, neighbor) channel to its (send, receive)
    `DecoderMap.positions`, which bind the channel
    (`Engine.bind_channel`).

    Each step runs phase A on every engine.  It passes each channel's
    message (`Engine.boundary_records`) through `encode` and
    `payload_values`, and through the neighbor's `decode` with its receive
    table.  Then it runs phase B, each worker taking its neighbors' flows in
    ascending neighbor order.  `on_messages(step, messages)` sees {channel:
    values}."""
    tables = {(i, nb): engines[i].bind_channel(nb, *maps[i, nb]) for i, nb in maps}
    for step in range(steps):
        plans = {i: engine.phase_a(step) for i, engine in engines.items()}
        messages = {
            (i, nb): payload_values(encode(engines[i].boundary_records(plans[i], nb)))
            for i, nb in maps
        }
        if on_messages is not None:
            on_messages(step, messages)
        received = {i: [] for i in engines}
        for i, nb in sorted(maps):
            received[i].extend(decode(tables[i, nb], messages[nb, i]))
        for i, engine in engines.items():
            engine.phase_b(plans[i], received[i])


def pack_frame(step, sender, receiver, values):
    """A step's frame carrying `values`, as `exchange` sends it."""
    return HEADER.pack(step, sender, receiver, len(values)) + encode(array("d", values))


def run_in_threads(subs, steps, duplex=SocketDuplex, dump_every=None, timeout=30.0):
    """Run `runner.run_worker` for every fragment in its own thread of this
    process, the workers joined by socketpairs as forked local workers are.
    `duplex` wraps each socket end.  Returns each worker's (rows, per-step
    totals, timing), in index order; a worker's error is raised."""
    ends = {}
    for sub in subs:
        for nb in sub.neighbors():
            if sub.index < nb:
                ends[sub.index, nb], ends[nb, sub.index] = socket.socketpair()
    results = [None] * len(subs)

    def work(sub):
        duplexes = {nb: duplex(ends[sub.index, nb]) for nb in sub.neighbors()}
        results[sub.index] = runner.run_worker(sub, duplexes, steps, dump_every, timeout)

    try:
        errors = run_bounded([lambda sub=sub: work(sub) for sub in subs], 2 * timeout)
    finally:
        for end in ends.values():
            end.close()
    for error in errors:
        if error is not None:
            raise error
    return results
