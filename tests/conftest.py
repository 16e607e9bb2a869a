"""Shared fixtures: hand-built networks used across the test modules."""

import dataclasses
import importlib.util
import json
import os
import random
import sys
import threading
import time

import pytest

from ctmdist.gridgen import generate_grid
from ctmdist.scenario import DemandRow, SplitRow, VehicleType, parse_scenario, validate

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it
    pass
else:
    # every run of the suite draws the same examples, with no time limit
    settings.register_profile("ctmdist", derandomize=True, database=None, deadline=None)
    settings.load_profile("ctmdist")

FD = {
    "capacity": 0.5,
    "free_flow_speed": 25.0,
    "congestion_wave_speed": 6.25,
    "jam_density": 0.125,
}


def link(lid, start, end, length=100.0, lanes=2, **extra):
    doc = {
        "id": lid,
        "start_node": start,
        "end_node": end,
        "length": length,
        "lanes": lanes,
        "fd": dict(FD),
    }
    doc.update(extra)
    return doc


def merge_diverge_doc():
    """Two source chains merging into a three-lane link that diverges into
    two sink branches.  The merge link has two lane groups (lane 1 reaches
    only branch 1; lanes 2-3 reach both), one deterministic and one
    probabilistic vehicle type, and a split that changes at t=100s."""
    return {
        "nodes": [{"id": i} for i in range(10)],
        "links": [
            link(0, 0, 1, is_source=True),  # source chain 1
            link(1, 1, 4),
            link(2, 2, 3, is_source=True),  # source chain 2
            link(3, 3, 4),
            link(4, 4, 5, length=150.0, lanes=3),  # merge/diverge link
            link(5, 5, 6),  # branch 1
            link(6, 5, 7),  # branch 2
            link(7, 6, 8),  # sink 1
            link(8, 7, 9),  # sink 2
        ],
        "roadconnections": [
            {"id": 0, "in_link": 0, "out_link": 1},
            {"id": 1, "in_link": 2, "out_link": 3},
            {"id": 2, "in_link": 1, "out_link": 4},
            {"id": 3, "in_link": 3, "out_link": 4},
            {"id": 4, "in_link": 4, "out_link": 5, "in_lanes": [1, 3]},
            {"id": 5, "in_link": 4, "out_link": 6, "in_lanes": [2, 3]},
            {"id": 6, "in_link": 5, "out_link": 7},
            {"id": 7, "in_link": 6, "out_link": 8},
        ],
        "vehicletypes": [
            {"id": 0, "routing": {"type": "deterministic", "path": [0, 1, 4, 5, 7]}},
            {"id": 1, "routing": {"type": "probabilistic"}},
        ],
        "splits": [
            {"node": 3, "in_link": 2, "vtype": 1, "start_time": 0.0, "ratios": {"3": 1.0}},
            {"node": 4, "in_link": 3, "vtype": 1, "start_time": 0.0, "ratios": {"4": 1.0}},
            {
                "node": 5,
                "in_link": 4,
                "vtype": 1,
                "start_time": 0.0,
                "ratios": {"5": 0.6, "6": 0.4},
            },
            {
                "node": 5,
                "in_link": 4,
                "vtype": 1,
                "start_time": 100.0,
                "ratios": {"5": 0.3, "6": 0.7},
            },
            {"node": 6, "in_link": 5, "vtype": 1, "start_time": 0.0, "ratios": {"7": 1.0}},
            {"node": 7, "in_link": 6, "vtype": 1, "start_time": 0.0, "ratios": {"8": 1.0}},
        ],
        "demands": [
            {"link": 0, "vtype": 0, "profile": [{"start_time": 0.0, "flow": 0.4}]},
            {"link": 2, "vtype": 1, "profile": [{"start_time": 0.0, "flow": 0.6}]},
        ],
        "simulation": {"dt": 2.0, "steps": 200, "lane_change_rate": 0.5},
    }


@pytest.fixture
def merge_diverge():
    return parse_scenario(json.dumps(merge_diverge_doc()))


def chain_doc(cells_per_link=5, links=1, lanes=1, demand=None, dt=2.0, steps=50):
    """A straight chain of equal links ending at a sink; single lane group
    per link by construction."""
    length = 50.0 * cells_per_link
    doc = {
        "nodes": [{"id": i} for i in range(links + 1)],
        "links": [
            link(i, i, i + 1, length=length, lanes=lanes) for i in range(links)
        ],
        "roadconnections": [
            {"id": i, "in_link": i, "out_link": i + 1} for i in range(links - 1)
        ],
        "vehicletypes": [
            {"id": 0, "routing": {"type": "deterministic", "path": list(range(links))}}
        ],
        "demands": [],
        "splits": [],
        "simulation": {"dt": dt, "steps": steps},
    }
    if demand is not None:
        doc["demands"].append(
            {"link": 0, "vtype": 0, "profile": [{"start_time": 0.0, "flow": demand}]}
        )
    return doc


def restrict_outer_lanes(s):
    """Keep only an outer lane for the first and last outgoing connection of
    every link that has several, so such links get several lane groups."""
    by_in_link = {}
    for conn in s.connections.values():
        by_in_link.setdefault(conn.in_link, []).append(conn)
    connections = dict(s.connections)
    for conns in by_in_link.values():
        if len(conns) < 2:
            continue
        conns.sort(key=lambda c: c.id)
        lanes = s.links[conns[0].in_link].lanes
        connections[conns[0].id] = dataclasses.replace(conns[0], in_lanes=(1, 1))
        connections[conns[-1].id] = dataclasses.replace(conns[-1], in_lanes=(lanes, lanes))
    s.connections = connections


def add_straight_types(s, rows, cols, type_rows):
    """For each grid row in `type_rows`, a deterministic type that drives
    straight east across it, with 30% of its west source's demand."""
    source_into, sink_out_of, east_link = {}, {}, {}
    for ln in s.links.values():
        if ln.is_source:
            source_into[ln.end_node] = ln.id
        elif ln.end_node >= rows * cols:
            sink_out_of[ln.start_node] = ln.id
        elif ln.end_node == ln.start_node + 1 and ln.end_node % cols != 0:
            east_link[ln.start_node] = ln.id
    demands = list(s.demands)
    for vtype, r in enumerate(type_rows, 1):
        west = r * cols
        path = [source_into[west]]
        path += [east_link[west + c] for c in range(cols - 1)]
        path.append(sink_out_of[west + cols - 1])
        s.vehicle_types[vtype] = VehicleType(id=vtype, routing="deterministic", path=tuple(path))
        for i, row in enumerate(demands):
            if row.link == path[0] and row.vtype == 0:
                ((t, rate),) = row.profile
                demands[i] = dataclasses.replace(row, profile=((t, rate * 0.7),))
                demands.append(DemandRow(link=path[0], vtype=vtype, profile=((t, rate * 0.3),)))
                break
    s.demands = demands


def random_ratios(rng, row):
    """`row`'s out-links with `rng`-drawn ratios that sum to 1."""
    weights = [rng.uniform(0.5, 1.5) for _ in row.ratios]
    total = 0.0
    for w in weights:
        total += w
    ratios = [w / total for w in weights[:-1]]
    last = 1.0
    for p in ratios:
        last -= p
    ratios.append(last)
    return tuple((out, p) for (out, _), p in zip(row.ratios, ratios))


def add_split_changes(s, rng, start_time):
    """A second row from `start_time` on, with `rng`-drawn ratios, after
    every split row with several successors."""
    splits = []
    for row in s.splits:
        splits.append(row)
        if len(row.ratios) < 2:
            continue
        splits.append(
            SplitRow(
                node=row.node,
                in_link=row.in_link,
                vtype=row.vtype,
                start_time=start_time,
                ratios=random_ratios(rng, row),
            )
        )
    s.splits = splits


def lanes_grid(rows=5, cols=5, steps=120, seed=7):
    """3-lane grid with lane-restricted turns, mixed routing and a split
    change at mid-horizon, built like the benchmark's lanes workload: the
    first and last outgoing connection of each link keep only an outer lane,
    one deterministic straight-east type per row carries 30% of its west
    source's demand, and every multi-way split row gets a seeded second row
    at step steps//2."""
    base = generate_grid(rows, cols, lanes=3, steps=steps)
    restrict_outer_lanes(base)
    add_straight_types(base, rows, cols, range(rows))
    add_split_changes(base, random.Random(seed), (steps // 2) * base.sim.dt)
    validate(base)
    return base


@pytest.fixture
def single_link():
    return parse_scenario(json.dumps(chain_doc(cells_per_link=10, links=1, demand=0.9)))


def run_bounded(fns, seconds=30.0):
    """Run blocking closures concurrently in daemon threads; return their
    exceptions.  Fails if any still runs after `seconds`."""
    errors = [None] * len(fns)

    def runner(idx, fn):
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - tests inspect the exception
            errors[idx] = e

    threads = [
        threading.Thread(target=runner, args=(i, fn), daemon=True) for i, fn in enumerate(fns)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + seconds
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads), f"still blocked after {seconds}s"
    return errors


def load_workloads(monkeypatch):
    """The benchmark's input generators, `perfbench/workloads.py`."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads
