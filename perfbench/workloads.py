"""Seeded input generators for the benchmark workloads.

Each workload is a scenario JSON file (plus, for `checker-tcp2`, a node
partition file) written from a seed.  The program under test only ever
sees these files; the seed never reaches it except as the partition seed
that `run_distributed` takes for `lanes-pipe2`.

- grid-seq:     generate_grid(30, 30), one lane group per link, demand
                jittered per source, run sequentially.
- lanes-pipe2:  3-lane generate_grid(20, 20) with lane-restricted first and
                last connections, one deterministic straight-path vehicle
                type per row, and split rows that change at mid-horizon;
                run at n=2 over pipes with the built-in partitioner.
- checker-tcp2: the grid-seq scenario, run at n=2 over TCP with a
                checkerboard node partition (junction parity; pendant nodes
                follow their junction).

Both scenarios pass `validate()` here; the partition file is checked by
`load_partition` and its fragments by `validate()` (inside
`build_subnetworks`) in every repetition.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from ctmdist import generate_grid
from ctmdist.partition import NodePartition, save_partition
from ctmdist.scenario import (
    DemandRow,
    RoadConnection,
    Scenario,
    SplitRow,
    VehicleType,
    save_scenario,
    validate,
)

# per-source demand is scaled by a factor drawn from [1 - JITTER, 1 + JITTER]
JITTER = 0.05
# share of a west source's demand carried by the row's deterministic type
DETERMINISTIC_SHARE = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int
    mode: str  # "seq", "local" or "tcp"
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-seq",
            20,
            "seq",
            "engine only on a 30x30 grid, one lane group per link so lane "
            "changes are bypassed; the sequential reference for checker-tcp2",
        ),
        Workload(
            "lanes-pipe2",
            20,
            "local",
            "lane changes, deterministic routes and time-varying splits at n=2 "
            "over pipes; a small cut, so comm time is mostly waiting on the "
            "slower worker (load imbalance)",
        ),
        Workload(
            "checker-tcp2",
            20,
            "tcp",
            "checkerboard cut of the grid-seq scenario at n=2 over TCP: every "
            "junction-to-junction link crosses, so comm and build_subnetworks "
            "dominate",
        ),
    )
}


def _jitter_demands(scenario: Scenario, rng: random.Random) -> None:
    demands = []
    for row in sorted(scenario.demands, key=lambda r: (r.link, r.vtype)):
        factor = 1.0 + rng.uniform(-JITTER, JITTER)
        profile = tuple((t, rate * factor) for t, rate in row.profile)
        demands.append(dataclasses.replace(row, profile=profile))
    scenario.demands = demands


def grid_scenario(seed: int, steps: int) -> Scenario:
    """The plain 30x30 grid with seeded per-source demand jitter."""
    scenario = generate_grid(30, 30, steps=steps)
    _jitter_demands(scenario, random.Random(seed))
    validate(scenario)
    return scenario


def checker_partition(scenario: Scenario, rows: int, cols: int, seed: int) -> NodePartition:
    """Two-colour the junctions of a generate_grid(rows, cols) scenario by
    parity, the seed picking which colour is subset 0; every pendant
    source/sink node joins the subset of the junction it touches."""
    junctions = rows * cols
    assignment = {
        r * cols + c: (r + c + seed) % 2 for r in range(rows) for c in range(cols)
    }
    for link in scenario.links.values():
        a, b = link.start_node, link.end_node
        if a >= junctions and b < junctions:
            assignment[a] = assignment[b]
        elif b >= junctions and a < junctions:
            assignment[b] = assignment[a]
    if sorted(assignment) != sorted(scenario.nodes):
        raise ValueError("checkerboard partition does not cover every node")
    return NodePartition(2, assignment)


def lanes_scenario(seed: int, steps: int) -> Scenario:
    """3-lane 20x20 grid with lane-restricted turns, mixed routing and
    time-varying splits."""
    rows = cols = 20
    base = generate_grid(rows, cols, lanes=3, steps=steps)
    rng = random.Random(seed)

    # first and last outgoing connection of each link keep only an outer lane
    by_in_link: dict[int, list[RoadConnection]] = {}
    for conn in base.connections.values():
        by_in_link.setdefault(conn.in_link, []).append(conn)
    connections = dict(base.connections)
    for conns in by_in_link.values():
        if len(conns) < 2:
            continue
        conns.sort(key=lambda c: c.id)
        lanes = base.links[conns[0].in_link].lanes
        connections[conns[0].id] = dataclasses.replace(conns[0], in_lanes=(1, 1))
        connections[conns[-1].id] = dataclasses.replace(
            conns[-1], in_lanes=(lanes, lanes)
        )
    base.connections = connections

    # one deterministic type per row: west source, straight east, east sink
    source_into = {}
    sink_out_of = {}
    east_link = {}
    for link in base.links.values():
        if link.is_source:
            source_into[link.end_node] = link.id
        elif link.end_node >= rows * cols:
            sink_out_of[link.start_node] = link.id
        elif link.end_node == link.start_node + 1 and link.end_node % cols != 0:
            east_link[link.start_node] = link.id
    vehicle_types = dict(base.vehicle_types)
    demands = list(base.demands)
    for r in range(rows):
        west = r * cols
        path = [source_into[west]]
        path += [east_link[west + c] for c in range(cols - 1)]
        path.append(sink_out_of[west + cols - 1])
        vtype = r + 1
        vehicle_types[vtype] = VehicleType(
            id=vtype, routing="deterministic", path=tuple(path)
        )
        for i, row in enumerate(demands):
            if row.link == path[0] and row.vtype == 0:
                ((t, rate),) = row.profile
                demands[i] = dataclasses.replace(
                    row, profile=((t, rate * (1.0 - DETERMINISTIC_SHARE)),)
                )
                demands.append(
                    DemandRow(
                        link=path[0], vtype=vtype, profile=((t, rate * DETERMINISTIC_SHARE),)
                    )
                )
                break
    base.vehicle_types = vehicle_types
    base.demands = demands
    _jitter_demands(base, rng)

    # every multi-way split row gets a seeded second row at mid-horizon
    mid = (steps // 2) * base.sim.dt
    splits = []
    for row in base.splits:
        splits.append(row)
        if len(row.ratios) < 2:
            continue
        weights = [rng.uniform(0.5, 1.5) for _ in row.ratios]
        total = sum(weights)
        ratios = [w / total for w in weights[:-1]]
        ratios.append(1.0 - sum(ratios))
        splits.append(
            SplitRow(
                node=row.node,
                in_link=row.in_link,
                vtype=row.vtype,
                start_time=mid,
                ratios=tuple((out, p) for (out, _), p in zip(row.ratios, ratios)),
            )
        )
    base.splits = splits
    validate(base)
    return base


def write_inputs(name: str, seed: int, steps: int, scenario_path: str, partition_path: str) -> None:
    """Write the workload's scenario (and, for checker-tcp2, its partition)."""
    if name == "lanes-pipe2":
        scenario = lanes_scenario(seed, steps)
    else:
        scenario = grid_scenario(seed, steps)
    save_scenario(scenario, scenario_path)
    if name == "checker-tcp2":
        save_partition(checker_partition(scenario, 30, 30, seed), partition_path)
