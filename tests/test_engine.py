"""Engine unit behavior: demand/supply, node model, lane changes, routing
assignment, and the conservation update, against hand-computed values."""

import ast
import json
from array import array

import pytest

from ctmdist import engine as engine_module
from ctmdist.comm import decode
from ctmdist.engine import (
    Engine,
    cell_total,
    compute_demand,
    compute_supply,
    resolve_node_flows,
)
from ctmdist.errors import InternalAssertion, ScenarioError
from ctmdist.gridgen import generate_grid
from ctmdist.partition import (
    NodePartition,
    build_decoder_map,
    build_receive_map,
    build_subnetworks,
    partition_nodes,
)
from ctmdist.runner import rows_to_csv, run_distributed, run_sequential
from ctmdist.scenario import TERMINAL, VehicleType, parse_scenario, validate

from conftest import chain_doc, link, merge_diverge_doc


def seed(engine, lid, gidx, cell, comm, veh):
    engine.set_cell_value(lid, gidx, cell, comm, veh)
    engine.active.add(lid)


def fragment_with_path(scenario, path, cut=None, index=0):
    """Fragment `index` of `scenario` cut by `cut` (by default the one
    fragment of the whole), with vehicle type 0 on `path` and the fragment
    validated again."""
    cut = cut or NodePartition(1, {nid: 0 for nid in scenario.nodes})
    fragment = build_subnetworks(scenario, cut)[index].fragment
    fragment.vehicle_types[0] = VehicleType(0, "deterministic", path)
    validate(fragment)
    return fragment


def fractions(engine, lid, vtype, time):
    """`entry_positions` as (next link, fraction) pairs."""
    comms = engine.links[lid].comms
    return tuple((comms[p][1], frac) for p, frac in engine.entry_positions(lid, vtype, time))


def received(engine, neighbor, send, receive, lid, cid, gidx, comm, veh):
    """The flows phase B takes from a message from `neighbor` that carries
    `veh` vehicles of `comm` in lane group `gidx` of `lid` through
    connection `cid`, and nothing else; `send` and `receive` are the
    channel's maps."""
    table = engine.bind_channel(neighbor, send.positions, receive.positions)
    values = array("d", bytes(8 * receive.message_length))
    values[receive.positions[lid, cid, gidx, engine.links[lid].comm_index[comm]]] = veh
    return decode(table, values)


def totals(engine, lid):
    return [
        [cell_total(cell) for cell in g.cells] for g in engine.links[lid].groups
    ]


def diverge_doc(ratio_a=0.7, ratio_b=0.3):
    """One feeder into two sink branches; roomy capacity (C = 12 veh/step)."""
    fd = {
        "capacity": 3.0,
        "free_flow_speed": 25.0,
        "congestion_wave_speed": 6.25,
        "jam_density": 0.75,
    }
    return {
        "nodes": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3}],
        "links": [
            link(0, 0, 1, fd=fd),
            link(1, 1, 2, fd=fd),
            link(2, 1, 3, fd=fd),
        ],
        "roadconnections": [
            {"id": 0, "in_link": 0, "out_link": 1},
            {"id": 1, "in_link": 0, "out_link": 2},
        ],
        "vehicletypes": [{"id": 0, "routing": {"type": "probabilistic"}}],
        "splits": [
            {
                "node": 1,
                "in_link": 0,
                "vtype": 0,
                "start_time": 0.0,
                "ratios": {"1": ratio_a, "2": ratio_b},
            }
        ],
        "demands": [],
        "simulation": {"dt": 2.0, "steps": 10},
    }


class TestDemand:
    # cells are dense: position 0 holds commodity (0, 7), position 1 (1, 7)
    def test_empty_cell(self):
        assert compute_demand([0.0, 0.0], 0.0, 5.0) == (0.0, [])

    def test_congested_proportional_split(self):
        cell = [6.0, 4.0]
        total, entries = compute_demand(cell, cell_total(cell), 5.0)
        assert total == 5.0
        assert entries == [3.0, 2.0]

    def test_uncongested_passes_everything(self):
        cell = [3.0]
        total, entries = compute_demand(cell, cell_total(cell), 5.0)
        assert total == 3.0
        assert entries == [3.0]

    def test_cell_total_is_ascending_left_fold(self):
        cell = [0.1, 0.0, 0.2, 0.3]
        assert cell_total(cell) == ((0.1 + 0.2) + 0.3)
        assert cell_total([]) == 0.0


class TestSupply:
    def test_jammed_cell_accepts_nothing(self):
        assert compute_supply(40.0, 5.0, 0.5, 40.0) == 0.0

    def test_empty_cell(self):
        assert compute_supply(0.0, 5.0, 0.5, 40.0) == 5.0
        assert compute_supply(0.0, 30.0, 0.5, 40.0) == 20.0

    def test_congested_branch(self):
        assert compute_supply(30.0, 5.0, 0.5, 40.0) == 5.0

    def test_never_negative(self):
        assert compute_supply(41.0, 5.0, 0.5, 40.0) == 0.0


def node_conns(*demands):
    """Node-model input: connection i with one entry of demand `demands[i]`."""
    return [(cid, [d, [(("k", cid), d)]]) for cid, d in enumerate(demands)]


def applied(conns, factor):
    """Each entry as phase A's node loop applies it: `d * factor`."""
    return [d * factor for _c, (_t, es) in conns for _k, d in es]


class TestNodeModel:
    def test_unconstrained_passes_demand(self):
        conns = node_conns(4.0)
        factor = resolve_node_flows(conns, 10.0)
        assert factor == 1.0
        assert applied(conns, factor) == [4.0]

    def test_proportional_merge(self):
        conns = node_conns(6.0, 2.0)
        factor = resolve_node_flows(conns, 4.0)
        assert factor == 0.5
        assert applied(conns, factor) == [3.0, 1.0]

    def test_zero_supply_zero_packets(self):
        conns = node_conns(6.0)
        factor = resolve_node_flows(conns, 0.0)
        assert factor == 0.0
        assert applied(conns, factor) == [0.0]

    def test_feasibility_randomized(self):
        import random

        rng = random.Random(3)
        for _ in range(100):
            conns = node_conns(*(rng.uniform(0.0, 10.0) for _ in range(rng.randint(1, 5))))
            supply = rng.uniform(0.0, 12.0)
            shipped = 0.0
            for amount in applied(conns, resolve_node_flows(conns, supply)):
                shipped += amount
            assert shipped <= supply + 1e-12


class TestConnectionDemands:
    def test_split_by_next_link(self):
        # commodities headed to links 1 and 2 under a roomy capacity land on
        # their own connections untouched; phase A applies the flows
        s = parse_scenario(json.dumps(diverge_doc()))
        eng = Engine(s)
        seed(eng, 0, 0, 1, (0, 1), 4.0)
        seed(eng, 0, 0, 1, (0, 2), 2.0)
        eng.phase_a(0)
        assert eng.cell_value(0, 0, 1, (0, 1)) == 0.0
        assert eng.cell_value(0, 0, 1, (0, 2)) == 0.0
        # connection 0 carries 4 into link 1, connection 1 carries 2 into 2
        assert eng.cell_value(1, 0, 0, (0, TERMINAL)) == 4.0
        assert eng.cell_value(2, 0, 0, (0, TERMINAL)) == 2.0

    def test_unserved_commodity_waits(self, merge_diverge):
        # lane group 0 of the merge link only reaches branch 5; a commodity
        # headed to 6 in that group produces no connection demand
        eng = Engine(merge_diverge)
        eng.eta = 0.0  # freeze lane changes to observe the blocked demand
        seed(eng, 4, 0, 2, (1, 6), 3.0)
        eng.phase_a(0)
        assert eng.cell_value(4, 0, 2, (1, 6)) == 3.0
        assert totals(eng, 6) == [[0.0, 0.0]]

    def test_single_connection_takes_all(self):
        s = parse_scenario(json.dumps(diverge_doc()))
        eng = Engine(s)
        seed(eng, 1, 0, 1, (0, TERMINAL), 2.5)  # branch 1 is a sink
        plan = eng.phase_a(0)
        assert eng.cell_value(1, 0, 1, (0, TERMINAL)) == 0.0
        assert eng.phase_b(plan).exited == 2.5


class TestLaneChanges:
    def test_well_placed_state_unchanged(self, merge_diverge):
        eng = Engine(merge_diverge)
        seed(eng, 4, 0, 0, (0, 5), 2.0)  # group 0 serves link 5
        before = totals(eng, 4)
        eng.apply_lane_changes(eng.links[4])
        assert totals(eng, 4) == before

    def test_misplaced_fraction_moves(self, merge_diverge):
        # 5 vehicles headed to branch 6 sit in group 0 (serves only 5);
        # eta=0.5 moves 2.5 of them one group over
        eng = Engine(merge_diverge)
        seed(eng, 4, 0, 1, (1, 6), 5.0)
        eng.apply_lane_changes(eng.links[4])
        assert eng.cell_value(4, 0, 1, (1, 6)) == 2.5
        assert eng.cell_value(4, 1, 1, (1, 6)) == 2.5

    def test_capped_by_target_space(self, merge_diverge):
        eng = Engine(merge_diverge)
        seed(eng, 4, 0, 1, (1, 6), 5.0)
        filler = eng.links[4].groups[1].jam_veh - 1.0
        seed(eng, 4, 1, 1, (1, 5), filler)  # leave exactly 1.0 veh of room
        eng.apply_lane_changes(eng.links[4])
        assert eng.cell_value(4, 0, 1, (1, 6)) == 4.0
        assert eng.cell_value(4, 1, 1, (1, 6)) == 1.0

    def test_conserves_per_cell_commodity_totals(self, merge_diverge):
        eng = Engine(merge_diverge)
        seed(eng, 4, 0, 0, (1, 6), 3.0)
        seed(eng, 4, 1, 0, (1, 6), 0.25)
        eng.apply_lane_changes(eng.links[4])
        moved = eng.cell_value(4, 0, 0, (1, 6)) + eng.cell_value(4, 1, 0, (1, 6))
        assert moved == pytest.approx(3.25, abs=1e-12)


class TestAssignment:
    def test_deterministic_path_advance(self, merge_diverge):
        eng = Engine(merge_diverge)
        assert fractions(eng, 4, 0, 0.0) == ((5, 1.0),)
        assert fractions(eng, 5, 0, 0.0) == ((7, 1.0),)
        assert fractions(eng, 7, 0, 0.0) == ((TERMINAL, 1.0),)

    def test_probabilistic_split_applied(self):
        s = parse_scenario(json.dumps(diverge_doc()))
        eng = Engine(s)
        seed(eng, 0, 0, 1, (0, 1), 7.0)
        seed(eng, 0, 0, 1, (0, 2), 3.0)
        eng.phase_a(0)
        # 10 vehicles cross the node; each branch is a sink (terminal);
        # connection 0 carried 7 into link 1, connection 1 carried 3 into 2
        assert eng.cell_value(1, 0, 0, (0, TERMINAL)) == 7.0
        assert eng.cell_value(2, 0, 0, (0, TERMINAL)) == 3.0

    def test_split_row_fractions_exact(self):
        # entering flow splits by the current split row, bit for bit
        doc = diverge_doc()
        doc["links"].append(link(3, 4, 0, fd=doc["links"][0]["fd"]))
        doc["nodes"].append({"id": 4})
        doc["roadconnections"].append({"id": 2, "in_link": 3, "out_link": 0})
        s = parse_scenario(json.dumps(doc))
        eng = Engine(s)
        seed(eng, 3, 0, 1, (0, 0), 10.0)
        eng.phase_a(0)
        amounts = [(nxt, eng.cell_value(0, 0, 0, (0, nxt))) for nxt in (1, 2)]
        assert amounts == [(1, 10.0 * 0.7), (2, 10.0 * 0.3)]
        assert amounts == [(1, 7.0), (2, 3.0)]

    def test_missing_split_row_is_config_error(self):
        # flow arriving at a link that has successors but no split row
        doc = diverge_doc()
        doc["links"].append(link(3, 4, 0, fd=doc["links"][0]["fd"]))
        doc["nodes"].append({"id": 4})
        doc["roadconnections"].append({"id": 2, "in_link": 3, "out_link": 0})
        doc["splits"] = []
        s = parse_scenario(json.dumps(doc))
        eng = Engine(s)
        seed(eng, 3, 0, 1, (0, 0), 1.0)
        with pytest.raises(ScenarioError, match=r"no split row"):
            eng.phase_a(0)

    def test_time_varying_split_uses_global_step(self, merge_diverge):
        eng = Engine(merge_diverge)
        assert fractions(eng, 4, 1, 0.0) == ((5, 0.6), (6, 0.4))
        eng._position_cache.clear()
        assert fractions(eng, 4, 1, 100.0) == ((5, 0.3), (6, 0.7))


class TestUpdate:
    def test_zero_flows_state_unchanged(self):
        doc = merge_diverge_doc()
        doc["demands"] = []
        eng = Engine(parse_scenario(json.dumps(doc)))
        plan = eng.phase_a(0)
        stats = eng.phase_b(plan)
        assert stats.in_network == 0.0
        assert all(
            not any(cell) for l in eng.links.values() for g in l.groups for cell in g.cells
        )

    def test_balanced_single_cell(self):
        # inflow 2 and discharge 2 leave the 5 initial vehicles in place
        doc = {
            "nodes": [{"id": 0}, {"id": 1}],
            "links": [link(0, 0, 1, length=50.0)],
            "vehicletypes": [
                {"id": 0, "routing": {"type": "deterministic", "path": [0]}}
            ],
            "splits": [],
            "demands": [
                {"link": 0, "vtype": 0, "profile": [{"start_time": 0.0, "flow": 1.0}]}
            ],
            "simulation": {"dt": 2.0, "steps": 5},
        }
        s = parse_scenario(json.dumps(doc))
        eng = Engine(s)
        seed(eng, 0, 0, 0, (0, TERMINAL), 5.0)
        plan = eng.phase_a(0)
        # phase A discharges C = 0.5*2*2 and phase B injects
        assert eng.cell_value(0, 0, 0, (0, TERMINAL)) == 3.0
        stats = eng.phase_b(plan)
        assert eng.cell_value(0, 0, 0, (0, TERMINAL)) == 5.0
        assert stats.entered == 2.0
        assert stats.exited == 2.0

    def test_two_cell_hand_ctm_step(self):
        # C = 3 veh/step, 4 vehicles in cell 1, empty cell 2 with room:
        # one step moves 3, leaving 1 and 3
        fd = {
            "capacity": 0.75,
            "free_flow_speed": 25.0,
            "congestion_wave_speed": 6.25,
            "jam_density": 0.2,
        }
        doc = {
            "nodes": [{"id": 0}, {"id": 1}],
            "links": [link(0, 0, 1, length=100.0, fd=fd)],
            "vehicletypes": [
                {"id": 0, "routing": {"type": "deterministic", "path": [0]}}
            ],
            "splits": [],
            "demands": [],
            "simulation": {"dt": 2.0, "steps": 5},
        }
        s = parse_scenario(json.dumps(doc))
        eng = Engine(s)
        seed(eng, 0, 0, 0, (0, TERMINAL), 4.0)
        plan = eng.phase_a(0)
        eng.phase_b(plan)
        assert eng.cell_value(0, 0, 0, (0, TERMINAL)) == 1.0
        assert eng.cell_value(0, 0, 1, (0, TERMINAL)) == 3.0

    def test_merge_composition(self):
        # demands 6 and 2 compete for supply 4: packets 3 and 1, removed
        # from the approaches and delivered to the narrow link
        fd_wide = {
            "capacity": 2.0,
            "free_flow_speed": 25.0,
            "congestion_wave_speed": 6.25,
            "jam_density": 0.5,
        }
        fd_narrow = {
            "capacity": 2.0,
            "free_flow_speed": 25.0,
            "congestion_wave_speed": 6.25,
            "jam_density": 0.4,
        }
        doc = {
            "nodes": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3}],
            "links": [
                link(0, 0, 2, fd=fd_wide),
                link(1, 1, 2, fd=fd_wide),
                link(2, 2, 3, lanes=1, fd=fd_narrow),
            ],
            "roadconnections": [
                {"id": 0, "in_link": 0, "out_link": 2},
                {"id": 1, "in_link": 1, "out_link": 2},
            ],
            "vehicletypes": [{"id": 0, "routing": {"type": "probabilistic"}}],
            "splits": [],
            "demands": [],
            "simulation": {"dt": 2.0, "steps": 5},
        }
        s = parse_scenario(json.dumps(doc))
        eng = Engine(s)
        # narrow link: C = 2*1*2 = 4, supply = min(4, 0.25*0.4*1*50=5) = 4
        seed(eng, 0, 0, 1, (0, 2), 6.0)
        seed(eng, 1, 0, 1, (0, 2), 2.0)
        plan = eng.phase_a(0)
        assert 6.0 - eng.cell_value(0, 0, 1, (0, 2)) == 3.0
        assert 2.0 - eng.cell_value(1, 0, 1, (0, 2)) == 1.0
        delivered = cell_total(eng.links[2].groups[0].cells[0])
        assert delivered == pytest.approx(4.0, abs=1e-12)
        eng.phase_b(plan)
        assert cell_total(eng.links[2].groups[0].cells[0]) == pytest.approx(4.0, abs=1e-12)
        assert eng.cell_value(0, 0, 1, (0, 2)) == 3.0
        assert eng.cell_value(1, 0, 1, (0, 2)) == 1.0

    def test_seeded_inactive_link_caps_what_it_takes(self):
        # the target is seeded near jam but never activated: its supply
        # must come from the seeded occupancy, not from an empty link
        fd_wide = {
            "capacity": 2.0,
            "free_flow_speed": 25.0,
            "congestion_wave_speed": 6.25,
            "jam_density": 0.5,
        }
        doc = {
            "nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
            "links": [link(0, 0, 1, fd=fd_wide), link(1, 1, 2, lanes=1)],
            "roadconnections": [{"id": 0, "in_link": 0, "out_link": 1}],
            "vehicletypes": [{"id": 0, "routing": {"type": "probabilistic"}}],
            "splits": [],
            "demands": [],
            "simulation": {"dt": 2.0, "steps": 5},
        }
        eng = Engine(parse_scenario(json.dumps(doc)))
        seed(eng, 0, 0, 1, (0, 1), 6.0)  # demand 6, under C = 8
        # target: C = 0.5*1*2 = 1, jam 0.125*1*50 = 6.25 veh, so 6 leave a
        # supply of 0.25*(6.25 - 6) = 0.0625
        eng.set_cell_value(1, 0, 0, (0, TERMINAL), 6.0)
        assert 1 not in eng.active
        plan = eng.phase_a(0)
        assert 6.0 - eng.cell_value(0, 0, 1, (0, 1)) == 0.0625
        assert eng.cell_value(1, 0, 0, (0, TERMINAL)) == 6.0625
        eng.phase_b(plan)
        assert 1 in eng.active
        assert totals(eng, 1) == [[6.0625, 0.0]]

    def test_delivery_apportionment_by_group_supply(self, merge_diverge):
        # empty two-group link: first-cell supplies are 1.0 and 2.0 veh, so
        # arriving flow lands 1:2 across the groups
        eng = Engine(merge_diverge)
        seed(eng, 1, 0, 1, (0, 4), 1.5)  # deterministic type headed into link 4
        eng.phase_a(0)
        arrived = [eng.cell_value(4, gidx, 0, (0, 5)) for gidx in (0, 1)]
        assert all(arrived)
        assert totals(eng, 4) == [[arrived[0], 0.0, 0.0], [arrived[1], 0.0, 0.0]]
        total = arrived[0] + arrived[1]
        assert total == pytest.approx(1.5, abs=1e-12)
        assert arrived[1] == pytest.approx(2.0 * arrived[0], rel=1e-12)
        for amount, cap in zip(arrived, (1.0, 2.0)):
            assert amount <= cap + 1e-12


class TestChecks:
    """Inconsistent states and received flows fail loudly; the merge fixture's
    link 4 carries commodities (0, 5), (1, 5) and (1, 6)."""

    def test_slot_entries_by_position(self, merge_diverge):
        # owning nodes 0-4, fragment 0 delivers into link 4; a slot's engine
        # key names its commodity's position on link 4
        cut = NodePartition(2, {nid: int(nid >= 5) for nid in merge_diverge.nodes})
        send = build_decoder_map(build_subnetworks(merge_diverge, cut)[0], 1)
        key_of = dict(zip(send.slots, send.positions))
        assert key_of[(2, 4, 0, 1, 6)] == (4, 2, 0, 2)
        assert key_of[(2, 4, 1, 0, 5)] == (4, 2, 1, 0)

    def test_owned_node_not_in_the_scenario(self, merge_diverge):
        with pytest.raises(ScenarioError, match=r"^owned node 99 is not in the scenario$"):
            Engine(merge_diverge, owned_nodes={0, 99})

    def test_negative_occupancy_rejected(self, merge_diverge):
        # the neighbor resolving link 4's outflow sends a removal of
        # vehicles the empty cell does not hold
        cut = NodePartition(2, {nid: int(nid >= 5) for nid in merge_diverge.nodes})
        sub = build_subnetworks(merge_diverge, cut)[0]
        eng = Engine(sub.fragment)
        maps = build_decoder_map(sub, 1), build_receive_map(sub, 1)
        flows = received(eng, 1, *maps, 4, 4, 0, (1, 5), 1.0)
        plan = eng.phase_a(0)
        with pytest.raises(InternalAssertion, match=r"negative occupancy"):
            eng.phase_b(plan, flows)

    def test_terminal_commodity_on_non_sink_link(self, merge_diverge):
        # a fragment's path, like a whole scenario's, must end at a sink
        with pytest.raises(
            ScenarioError,
            match=r"^vehicle type 0 path must end at a sink link, link 4 has outgoing connections$",
        ):
            fragment_with_path(merge_diverge, (0, 1, 4))

    def test_unreachable_next_link(self, merge_diverge):
        # link 1 only reaches link 4
        with pytest.raises(
            ScenarioError, match=r"^vehicle type 0: no road connection from link 1 to link 5$"
        ):
            fragment_with_path(merge_diverge, (0, 1, 5, 7))

    def test_unreachable_next_link_in_lane_changes(self, merge_diverge):
        # no lane group of link 4 reaches link 7
        with pytest.raises(
            ScenarioError, match=r"^vehicle type 0: no road connection from link 4 to link 7$"
        ):
            fragment_with_path(merge_diverge, (0, 1, 4, 7))

    def test_path_repeating_a_link_in_a_fragment(self, merge_diverge):
        with pytest.raises(ScenarioError, match=r"^vehicle type 0 path repeats a link$"):
            fragment_with_path(merge_diverge, (0, 1, 4, 1))

    def test_path_checked_on_simulated_links_only(self, merge_diverge):
        # link 6 leads to link 8, not 7; fragment 0 (nodes 0-4) carries link
        # 6 only as a stub, so it loads and runs, and fragment 1 is rejected
        cut = NodePartition(2, {nid: int(nid >= 5) for nid in merge_diverge.nodes})
        path = (0, 1, 4, 6, 7)
        eng = Engine(fragment_with_path(merge_diverge, path, cut, 0))
        assert sorted(eng.links) == [0, 1, 2, 3, 4]  # its owned nodes' links, no stub
        for step in range(20):
            eng.phase_b(eng.phase_a(step))
        assert eng.cell_value(4, 1, 0, (0, 6)) > 0.0
        with pytest.raises(
            ScenarioError, match=r"^vehicle type 0: no road connection from link 6 to link 7$"
        ):
            fragment_with_path(merge_diverge, path, cut, 1)


class TestOrder:
    """Each cell entry receives its flows in one fixed order (see the
    `engine` module docstring).  Float addition is not associative, so any
    other order changes the bits."""

    def test_internal_flows_run_in_ascending_cell_order(self):
        # one lane, three cells, C = 1 veh/step: cell 0 sends its 0.9 into
        # cell 1 while cell 1 sends its 0.3 on into cell 2
        eng = Engine(parse_scenario(json.dumps(chain_doc(cells_per_link=3, links=1))))
        seed(eng, 0, 0, 0, (0, TERMINAL), 0.9)
        seed(eng, 0, 0, 1, (0, TERMINAL), 0.3)
        inflow, outflow = 0.9, 0.3
        ascending = (0.3 + inflow) - outflow
        assert ascending == 0.8999999999999999
        assert ascending != (0.3 - outflow) + inflow  # descending k gives 0.9
        assert ascending != 0.3 + (inflow - outflow)  # a pre-summed delta
        plan = eng.phase_a(0)
        assert eng.cell_value(0, 0, 1, (0, TERMINAL)) == ascending
        assert eng.cell_value(0, 0, 2, (0, TERMINAL)) == outflow
        eng.phase_b(plan)
        assert eng.cell_value(0, 0, 0, (0, TERMINAL)) == 0.0
        assert eng.cell_value(0, 0, 1, (0, TERMINAL)) == ascending

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_one_cell_links_cut_both_ways(self, transport):
        # every link is one cell long, so a first cell is also a last cell:
        # its removals, local or received, come before its deliveries
        scenario = generate_grid(4, 4, link_length=100.0)
        assert {groups[0].cell_count for groups in scenario.lane_groups.values()} == {1}
        sub = build_subnetworks(scenario, partition_nodes(scenario, 2, seed=0))[0]
        assert sub.relative_sinks and sub.relative_sources
        reference = rows_to_csv(run_sequential(scenario, steps=120).rows)
        result = run_distributed(scenario, 2, transport=transport, steps=120, seed=0)
        assert rows_to_csv(result.rows) == reference


class TestInvariants:
    def test_free_flow_pulse_advances_one_cell_per_step(self):
        from conftest import chain_doc

        quiet = parse_scenario(json.dumps(chain_doc(cells_per_link=10, links=1)))
        eng = Engine(quiet)
        seed(eng, 0, 0, 0, (0, TERMINAL), 0.75)
        for step in range(9):
            eng.phase_b(eng.phase_a(step))
            cells = eng.links[0].groups[0].cells
            occupied = [k for k, cell in enumerate(cells) if any(cell)]
            assert occupied == [step + 1]
            assert eng.cell_value(0, 0, step + 1, (0, TERMINAL)) == 0.75

    def test_capacity_ceiling_at_steady_state(self, single_link):
        # oversaturated source: discharge settles at exactly C per step
        res = run_sequential(single_link, steps=60, dump_every=None)
        exited = res.metrics["per_step"]["exited_cum"]
        cap_step = (0.5 * 1) * 2.0  # capacity * lanes * dt, one lane
        for a, b in zip(exited[-5:], exited[-4:]):
            assert abs((b - a) - cap_step) <= 1e-9

    def test_jam_never_exceeded(self, merge_diverge):
        eng = Engine(merge_diverge)
        for step in range(150):
            eng.phase_b(eng.phase_a(step))
            for l in eng.links.values():
                for g in l.groups:
                    for cell in g.cells:
                        total = cell_total(cell)
                        assert total <= g.jam_veh + 1e-9
                        for v in cell:
                            assert v >= 0.0

    def test_sequential_repeatable_bitwise(self, merge_diverge):
        a = run_sequential(merge_diverge, steps=80)
        b = run_sequential(merge_diverge, steps=80)
        assert a.rows == b.rows
        assert a.metrics["per_step"] == b.metrics["per_step"]


# Names whose calls may add floats in another order than a left fold from
# 0.0: the builtin `sum` (compensated since CPython 3.12), `math.fsum`, the
# `statistics` module, and numpy's reductions.
REDUCTIONS = {"sum", "fsum", "statistics", "cumsum", "dot", "einsum"}


def unordered_sums(source: str) -> list[tuple[int, str]]:
    """(line, name) of every use in `source` of a reduction that does not
    add in a fixed left-to-right order: a name or attribute in `REDUCTIONS`,
    an import of one, `add.reduce`, and the `@` operator."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in REDUCTIONS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in REDUCTIONS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Attribute) and node.attr == "reduce":
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "add":
                found.append((node.lineno, "add.reduce"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None)] + [alias.name for alias in node.names]
            found.extend((node.lineno, name) for name in names if name in REDUCTIONS)
    return found


class TestFoldOrder:
    """The engine's bits rest on every fold over simulation floats being a
    left fold from 0.0 in a fixed order (module docstring)."""

    @pytest.mark.parametrize(
        "source, name",
        [
            ("total = sum(cell)", "sum"),
            ("totals = list(map(sum, cells))", "sum"),
            ("total = math.fsum(cell)", "fsum"),
            ("from math import fsum", "fsum"),
            ("import statistics", "statistics"),
            ("from statistics import fmean", "statistics"),
            ("total = np.sum(cells, axis=1)", "sum"),
            ("total = cells.sum()", "sum"),
            ("total = np.add.reduce(cells)", "add.reduce"),
            ("running = cells.cumsum(axis=1)", "cumsum"),
            ("flow = np.dot(demand, share)", "dot"),
            ("flow = np.einsum('ij->i', cells)", "einsum"),
            ("flow = demand @ share", "@"),
            ("flow @= share", "@"),
        ],
    )
    def test_each_reduction_is_found(self, source, name):
        assert [found for _line, found in unordered_sums(source)] == [name]

    def test_left_folds_pass(self):
        source = "total = reduce(add, cell, 0.0)\nfor v in cell:\n    total += v\n"
        assert unordered_sums(source) == []

    def test_engine_folds_in_order(self):
        with open(engine_module.__file__, encoding="utf-8") as f:
            assert unordered_sums(f.read()) == []
