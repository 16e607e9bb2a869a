"""Differential check: on generated scenarios, every distributed run gives
the sequential run's dump, byte for byte.

The generator starts from `generate_grid` and adds what the fixed scenarios
of the other modules hold only a few of: lane-restricted turns (several
lane groups per link), links of one, two and three cells, deterministic
types beside the probabilistic one, split rows that change during the run,
and demand high enough to congest junctions.  Hypothesis runs a fixed,
derandomized set of examples (the profile `conftest.py` loads), so every
run of the suite checks the same scenarios.
"""

import dataclasses
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from ctmdist import engine
from ctmdist.gridgen import generate_grid
from ctmdist.runner import rows_to_csv, run_distributed, run_sequential
from ctmdist.scenario import validate

from conftest import add_split_changes, add_straight_types, restrict_outer_lanes

EXAMPLES = 100


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
    change_step = draw(st.integers(1, steps - 1))
    add_split_changes(s, random.Random(draw(st.integers(0, 2**16))), change_step * s.sim.dt)
    s.sim = dataclasses.replace(s.sim, lane_change_rate=draw(st.sampled_from([0.25, 0.5, 1.0])))
    validate(s)
    return s, steps, draw(st.integers(1, 5)), draw(st.integers(2, 4)), draw(st.integers(0, 99))


def test_distributed_equals_sequential_on_generated_scenarios(monkeypatch):
    seen = set()  # what the sequential runs reached, checked after all examples

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

    monkeypatch.setattr(engine, "resolve_node_flows", counting_node_model)
    monkeypatch.setattr(engine.Engine, "apply_lane_changes", counting_lane_changes)
    monkeypatch.setattr(engine.Engine, "entry_positions", counting_entry_positions)

    @settings(max_examples=EXAMPLES, suppress_health_check=[HealthCheck.too_slow])
    @given(generated_runs())
    def check(run):
        scenario, steps, dump_every, n, seed = run
        seq = run_sequential(scenario, steps=steps, dump_every=dump_every)
        assert seq.metrics["conservation_max_abs_error"] <= 1e-9
        cells = {lid: groups[0].cell_count for lid, groups in scenario.lane_groups.items()}
        if any(cells[row[1]] == 1 for row in seq.rows):
            seen.add("one-cell link")
        expected = rows_to_csv(seq.rows)
        for transport in ("local", "tcp"):
            dist = run_distributed(
                scenario, n, transport=transport, seed=seed, steps=steps, dump_every=dump_every
            )
            assert dist.metrics["conservation_max_abs_error"] <= 1e-9
            assert rows_to_csv(dist.rows) == expected, (transport, n, seed)

    check()
    assert seen == {"scaled node", "lane change", "one-cell link", "split change"}
