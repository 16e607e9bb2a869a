"""Differential check: on generated scenarios, every distributed run gives
the sequential run's dump, byte for byte.

The generator starts from `generate_grid` and adds what the fixed scenarios
of the other modules hold only a few of: lane-restricted turns (several
lane groups per link), links of one, two and three cells, deterministic
types beside the probabilistic one, a second probabilistic type with its
own split rows and demand, split rows and demand that change during the
run (demand to zero too), and demand high enough to congest junctions.
Every example runs over both transports.  The examples whose partition
seed is even, about half, make their local run from their fragment and
decoder files, each read back from its text, as `run --fragments-dir`
reads them.  Every example's fragments pass the receive-map check of
`test_partition`, and most examples cut a partition that no earlier one
cut.
Hypothesis runs a fixed, derandomized set of examples (the profile
`conftest.py` loads), so every run of the suite checks the same scenarios.
"""

import dataclasses
import json
import random
import zlib

from hypothesis import HealthCheck, given, settings, strategies as st

from ctmdist import engine
from ctmdist.comm import check_decoder_maps
from ctmdist.gridgen import generate_grid
from ctmdist.partition import (
    DecoderMap,
    Subnetwork,
    build_decoder_map,
    build_subnetworks,
    partition_nodes,
)
from ctmdist.runner import rows_to_csv, run_distributed, run_sequential
from ctmdist.scenario import DemandRow, VehicleType, parse_scenario, serialize_scenario, validate

from conftest import add_split_changes, add_straight_types, random_ratios, restrict_outer_lanes
from test_partition import assert_receive_keys_fit

EXAMPLES = 100


def add_probabilistic_type(s, rng):
    """A second probabilistic type with its own `rng`-drawn split rows and,
    at every source of type 0, its own demand."""
    vtype = max(s.vehicle_types) + 1
    s.vehicle_types[vtype] = VehicleType(id=vtype, routing="probabilistic")
    s.splits = s.splits + [
        dataclasses.replace(row, vtype=vtype, ratios=random_ratios(rng, row))
        for row in s.splits
        if row.vtype == 0
    ]
    s.demands = s.demands + [
        DemandRow(link=row.link, vtype=vtype, profile=((0.0, rng.uniform(0.05, 0.3)),))
        for row in s.demands
        if row.vtype == 0
    ]


def add_demand_changes(s, rng, start_time):
    """Every demand row's rate changes at `start_time` to zero, half or
    twice what it was."""
    demands = []
    for row in s.demands:
        rate = row.profile[-1][1] * rng.choice([0.0, 0.5, 2.0])
        demands.append(dataclasses.replace(row, profile=row.profile + ((start_time, rate),)))
    s.demands = demands


def read_back_files(subs):
    """The fragments `subs` and their decoder maps, each parsed from the
    text of its file: (subnetworks, decoders by worker and neighbor, as
    `check_decoder_maps` takes them)."""
    texts = {  # (sender, receiver) -> its decoder file's text
        (sub.index, nb): json.dumps(build_decoder_map(sub, nb).to_doc())
        for sub in subs
        for nb in sub.neighbors()
    }
    maps = {ends: DecoderMap.from_doc(json.loads(text)) for ends, text in texts.items()}
    decoders = {
        sub.index: {nb: (maps[sub.index, nb], maps[nb, sub.index]) for nb in sub.neighbors()}
        for sub in subs
    }
    return [Subnetwork(parse_scenario(serialize_scenario(sub.fragment))) for sub in subs], decoders


@st.composite
def generated_runs(draw):
    """(scenario, steps, dump_every, n, partition seed) for one example."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    steps = draw(st.integers(6, 24))
    demand = draw(st.sampled_from([600.0, 1800.0, 3000.0]))  # capacity: 1800 vph/lane
    s = generate_grid(
        rows, cols, demand_vph_per_lane=demand, lanes=draw(st.integers(1, 3)), steps=steps
    )
    # 100, 200 and 300 m are one, two and three cells at dt 4 and 25 m/s
    n_links = len(s.links)
    lengths = draw(
        st.lists(st.sampled_from([100.0, 200.0, 300.0]), min_size=n_links, max_size=n_links)
    )
    s.links = {
        lid: dataclasses.replace(s.links[lid], length=length)
        for lid, length in zip(sorted(s.links), lengths)
    }
    restrict_outer_lanes(s)
    type_rows = draw(st.lists(st.integers(0, rows - 1), max_size=3, unique=True))
    add_straight_types(s, rows, cols, type_rows)
    rng = random.Random(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        add_probabilistic_type(s, rng)
    add_split_changes(s, rng, draw(st.integers(1, steps - 1)) * s.sim.dt)
    if draw(st.booleans()):
        add_demand_changes(s, rng, draw(st.integers(1, steps - 1)) * s.sim.dt)
    s.sim = dataclasses.replace(s.sim, lane_change_rate=draw(st.sampled_from([0.25, 0.5, 1.0])))
    validate(s)
    # hypothesis often draws an integer it drew before, so the partition
    # seed mixes in the whole scenario: distinct examples, distinct seeds
    seed = draw(st.integers(0, 2**32 - 1)) ^ zlib.crc32(serialize_scenario(s).encode())
    return s, steps, draw(st.integers(1, 5)), draw(st.integers(2, 4)), seed


def test_distributed_equals_sequential_on_generated_scenarios(monkeypatch):
    seen = set()  # what the sequential runs reached, checked after all examples
    cuts = set()  # each example's node partition

    node_model = engine.resolve_node_flows

    def counting_node_model(conns, supply):
        factor = node_model(conns, supply)
        if factor is not None:
            seen.add("scaled node")
        return factor

    lane_changes = engine.Engine.apply_lane_changes

    def counting_lane_changes(self, lrt):
        before = [list(cell) for g in lrt.groups for cell in g.cells]
        lane_changes(self, lrt)
        if before != [cell for g in lrt.groups for cell in g.cells]:
            seen.add("lane change")

    entry_positions = engine.Engine.entry_positions

    def counting_entry_positions(self, link_id, vtype, time):
        rows = [r for r in self.scenario.splits if r.in_link == link_id and r.vtype == vtype]
        if len(rows) > 1 and time >= rows[1].start_time:
            seen.add("split change")
        return entry_positions(self, link_id, vtype, time)

    rate_at = engine.rate_at

    def counting_rate_at(profile, time):
        if len(profile) > 1 and time >= profile[1][0]:
            seen.add("demand change")
        return rate_at(profile, time)

    monkeypatch.setattr(engine, "resolve_node_flows", counting_node_model)
    monkeypatch.setattr(engine, "rate_at", counting_rate_at)
    monkeypatch.setattr(engine.Engine, "apply_lane_changes", counting_lane_changes)
    monkeypatch.setattr(engine.Engine, "entry_positions", counting_entry_positions)

    @settings(max_examples=EXAMPLES, suppress_health_check=[HealthCheck.too_slow])
    @given(generated_runs())
    def check(run):
        scenario, steps, dump_every, n, seed = run
        subs = build_subnetworks(scenario, partition_nodes(scenario, n, seed))
        for sub in subs:
            assert_receive_keys_fit(sub)
        cuts.add(tuple(sub.owned_nodes for sub in subs))
        seq = run_sequential(scenario, steps=steps, dump_every=dump_every)
        assert seq.metrics["conservation_max_abs_error"] <= 1e-9
        cells = {lid: groups[0].cell_count for lid, groups in scenario.lane_groups.items()}
        if any(cells[row[1]] == 1 for row in seq.rows):
            seen.add("one-cell link")
        types = scenario.vehicle_types
        if any(row[4] and types[row[4]].routing == "probabilistic" for row in seq.rows):
            seen.add("two probabilistic types")
        expected = rows_to_csv(seq.rows)
        if seed % 2:
            local = dict(scenario=scenario, n=n, seed=seed)
        else:
            read_subs, decoders = read_back_files(subs)
            for sub in read_subs:
                check_decoder_maps(sub, decoders[sub.index])
            local = dict(subs=read_subs)
            seen.add("fragment files")
        for kwargs in (local, dict(scenario=scenario, n=n, seed=seed, transport="tcp")):
            dist = run_distributed(**kwargs, steps=steps, dump_every=dump_every)
            assert dist.metrics["conservation_max_abs_error"] <= 1e-9
            assert rows_to_csv(dist.rows) == expected, (sorted(kwargs), n, seed)

    check()
    assert seen == {
        "scaled node",
        "lane change",
        "one-cell link",
        "split change",
        "demand change",
        "two probabilistic types",
        "fragment files",
    }
    assert len(cuts) >= 50
