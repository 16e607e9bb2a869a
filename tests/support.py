"""Program code that only tests call, kept out of the package: partition
subset sizes, the union of a partition's fragments, the time of
distribution set-up, and fragment engines stepped in lockstep in one
process."""

import time

from ctmdist import runner
from ctmdist.comm import decode, encode
from ctmdist.partition import NodePartition, Subnetwork
from ctmdist.scenario import Scenario, collector_paused, validate


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


def lockstep(engines, tables, steps, on_records=None, on_messages=None):
    """Step fragment engines in lockstep in one process, as a distributed
    run does.  `engines` maps each worker to its engine, and `tables` maps
    each (worker, neighbor) channel to its (send, receive)
    `DecoderMap.positions`.

    Each step runs phase A on every engine.  It passes each channel's
    boundary records (`Engine.boundary_records`) through `encode` with the
    send table, and through the neighbor's `decode` with its receive table.
    Then it runs phase B, each worker taking its neighbors' records in
    ascending neighbor order.  `on_records(step, records)` sees {channel:
    records} before they are encoded, and when it returns true the run stops
    there.  `on_messages(step, messages)` sees {channel: encoded values}."""
    for step in range(steps):
        plans = {i: engine.phase_a(step) for i, engine in engines.items()}
        records = {(i, nb): engines[i].boundary_records(plans[i], nb) for i, nb in tables}
        if on_records is not None and on_records(step, records):
            return
        messages = {key: encode(tables[key][0], records[key]) for key in tables}
        if on_messages is not None:
            on_messages(step, messages)
        received = {i: [] for i in engines}
        for i, nb in sorted(tables):
            received[i].extend(decode(tables[i, nb][1], messages[nb, i]))
        for i, engine in engines.items():
            engine.phase_b(plans[i], received[i])
