"""Engine unit behavior: demand/supply, node model, lane changes, routing
assignment, and the conservation update, against hand-computed values."""

import json

import pytest

from ctmdist.engine import (
    Engine,
    cell_total,
    compute_demand,
    compute_supply,
    resolve_node_flows,
)
from ctmdist.errors import InternalAssertion, ProtocolError, ScenarioError
from ctmdist.partition import NodePartition, build_subnetworks
from ctmdist.runner import run_sequential
from ctmdist.scenario import TERMINAL, VehicleType, parse_scenario

from conftest import link, merge_diverge_doc


def seed(engine, lid, gidx, cell, comm, veh):
    engine.set_cell_value(lid, gidx, cell, comm, veh)
    engine.active.add(lid)


def fragment_with_path(scenario, path):
    """`scenario` as its one fragment, with vehicle type 0 on `path`.  A
    fragment skips the path checks, so an inconsistent path gets through to
    the commodity table."""
    scenario.vehicle_types[0] = VehicleType(0, "deterministic", path)
    whole = NodePartition(1, {nid: 0 for nid in scenario.nodes})
    return build_subnetworks(scenario, whole)[0].fragment


def discharged(engine, plan, lid):
    """The plan's sink discharge on `lid` as (group, commodity, vehicles)."""
    comms = engine.links[lid].comms
    return [
        (gidx, comms[p], d)
        for gidx, amounts in plan.discharge[lid]
        for p, d in enumerate(amounts)
        if d
    ]


def flux(engine, plan, link_ids):
    """`boundary_records` as (connection, link, group, vehicle type, next
    link, vehicles)."""
    out = []
    for lid, cid, gidx, p, v in engine.boundary_records(plan, link_ids):
        vt, nxt = engine.links[lid].comms[p]
        out.append((cid, lid, gidx, vt, nxt, v))
    return out


def fractions(engine, lid, vtype, time):
    """`entry_positions` as (next link, fraction) pairs."""
    comms = engine.links[lid].comms
    return tuple((comms[p][1], frac) for p, frac in engine.entry_positions(lid, vtype, time))


def entry(engine, lid, cid, gidx, comm, veh):
    """A received record for `comm` in lane group `gidx` of `lid`."""
    return (lid, cid, gidx, engine.links[lid].comm_index[comm], veh)


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


class TestNodeModel:
    def test_unconstrained_passes_demand(self):
        flows = resolve_node_flows({0: (4.0, ((("k"), 4.0),))}, 10.0)
        assert flows == {0: ((("k"), 4.0),)}

    def test_proportional_merge(self):
        flows = resolve_node_flows(
            {0: (6.0, (("a", 6.0),)), 1: (2.0, (("b", 2.0),))}, 4.0
        )
        assert flows[0] == (("a", 3.0),)
        assert flows[1] == (("b", 1.0),)

    def test_zero_supply_zero_packets(self):
        flows = resolve_node_flows({0: (6.0, (("a", 6.0),))}, 0.0)
        assert flows[0] == (("a", 0.0),)

    def test_feasibility_randomized(self):
        import random

        rng = random.Random(3)
        for _ in range(100):
            conns = {}
            for cid in range(rng.randint(1, 5)):
                d = rng.uniform(0.0, 10.0)
                conns[cid] = (d, ((("x", cid), d),))
            supply = rng.uniform(0.0, 12.0)
            flows = resolve_node_flows(conns, supply)
            shipped = sum(v for entries in flows.values() for _k, v in entries)
            assert shipped <= supply + 1e-12


class TestConnectionDemands:
    def test_split_by_next_link(self):
        # commodities headed to links 1 and 2 under a roomy capacity land on
        # their own connections untouched
        s = parse_scenario(json.dumps(diverge_doc()))
        eng = Engine(s)
        seed(eng, 0, 0, 1, (0, 1), 4.0)
        seed(eng, 0, 0, 1, (0, 2), 2.0)
        plan = eng.phase_a(0)
        removals = flux(eng, plan, [0])
        assert ((0, 0, 0, 0, 1, 4.0)) in removals  # connection 0 carries 4
        assert ((1, 0, 0, 0, 2, 2.0)) in removals  # connection 1 carries 2

    def test_unserved_commodity_waits(self, merge_diverge):
        # lane group 0 of the merge link only reaches branch 5; a commodity
        # headed to 6 in that group produces no connection demand
        eng = Engine(merge_diverge)
        eng.eta = 0.0  # freeze lane changes to observe the blocked demand
        seed(eng, 4, 0, 2, (1, 6), 3.0)
        plan = eng.phase_a(0)
        assert 4 not in plan.removals
        assert plan.deliveries.get(6) is None

    def test_single_connection_takes_all(self):
        s = parse_scenario(json.dumps(diverge_doc()))
        eng = Engine(s)
        seed(eng, 1, 0, 1, (0, TERMINAL), 2.5)  # branch 1 is a sink
        plan = eng.phase_a(0)
        assert discharged(eng, plan, 1) == [(0, (0, TERMINAL), 2.5)]


class TestLaneChanges:
    def test_well_placed_state_unchanged(self, merge_diverge):
        eng = Engine(merge_diverge)
        seed(eng, 4, 0, 0, (0, 5), 2.0)  # group 0 serves link 5
        before = totals(eng, 4)
        eng.phase_a(0)
        assert totals(eng, 4) == before

    def test_misplaced_fraction_moves(self, merge_diverge):
        # 5 vehicles headed to branch 6 sit in group 0 (serves only 5);
        # eta=0.5 moves 2.5 of them one group over
        eng = Engine(merge_diverge)
        seed(eng, 4, 0, 1, (1, 6), 5.0)
        eng.phase_a(0)
        assert eng.cell_value(4, 0, 1, (1, 6)) == 2.5
        assert eng.cell_value(4, 1, 1, (1, 6)) == 2.5

    def test_capped_by_target_space(self, merge_diverge):
        eng = Engine(merge_diverge)
        seed(eng, 4, 0, 1, (1, 6), 5.0)
        filler = eng.links[4].groups[1].jam_veh - 1.0
        seed(eng, 4, 1, 1, (1, 5), filler)  # leave exactly 1.0 veh of room
        eng.phase_a(0)
        assert eng.cell_value(4, 0, 1, (1, 6)) == 4.0
        assert eng.cell_value(4, 1, 1, (1, 6)) == 1.0

    def test_conserves_per_cell_commodity_totals(self, merge_diverge):
        eng = Engine(merge_diverge)
        seed(eng, 4, 0, 0, (1, 6), 3.0)
        seed(eng, 4, 1, 0, (1, 6), 0.25)
        eng.phase_a(0)
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
        plan = eng.phase_a(0)
        by_slot = {
            (rec[0], rec[4]): rec[5] for rec in flux(eng, plan, [1, 2])
        }
        # 10 vehicles cross the node; each branch is a sink (terminal);
        # connection 0 carried 7, connection 1 carried 3
        assert by_slot == {(0, TERMINAL): 7.0, (1, TERMINAL): 3.0}

    def test_split_row_fractions_exact(self):
        # entering flow splits by the current split row, bit for bit
        doc = diverge_doc()
        doc["links"].append(link(3, 4, 0, fd=doc["links"][0]["fd"]))
        doc["nodes"].append({"id": 4})
        doc["roadconnections"].append({"id": 2, "in_link": 3, "out_link": 0})
        s = parse_scenario(json.dumps(doc))
        eng = Engine(s)
        seed(eng, 3, 0, 1, (0, 0), 10.0)
        plan = eng.phase_a(0)
        amounts = [(rec[4], rec[5]) for rec in flux(eng, plan, [0])]
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
        eng.phase_a(0)
        stats = eng.phase_b(0)
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
        assert discharged(eng, plan, 0) == [(0, (0, TERMINAL), 2.0)]  # C = 0.5*2*2
        stats = eng.phase_b(0)
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
        eng.phase_a(0)
        eng.phase_b(0)
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
        assert flux(eng, plan, [0]) == [(0, 0, 0, 0, 2, 3.0)]
        assert flux(eng, plan, [1]) == [(1, 1, 0, 0, 2, 1.0)]
        delivered = sum(rec[5] for rec in flux(eng, plan, [2]))
        assert delivered == pytest.approx(4.0, abs=1e-12)
        eng.phase_b(0)
        assert cell_total(eng.links[2].groups[0].cells[0]) == pytest.approx(4.0, abs=1e-12)
        assert eng.cell_value(0, 0, 1, (0, 2)) == 3.0
        assert eng.cell_value(1, 0, 1, (0, 2)) == 1.0

    def test_delivery_apportionment_by_group_supply(self, merge_diverge):
        # empty two-group link: first-cell supplies are 1.0 and 2.0 veh, so
        # arriving flow lands 1:2 across the groups
        eng = Engine(merge_diverge)
        seed(eng, 1, 0, 1, (0, 4), 1.5)  # deterministic type headed into link 4
        plan = eng.phase_a(0)
        recs = flux(eng, plan, [4])
        assert [r[2] for r in recs] == [0, 1]
        total = recs[0][5] + recs[1][5]
        assert total == pytest.approx(1.5, abs=1e-12)
        assert recs[1][5] == pytest.approx(2.0 * recs[0][5], rel=1e-12)
        for rec, cap in zip(recs, (1.0, 2.0)):
            assert rec[5] <= cap + 1e-12


class TestChecks:
    """Inconsistent states and records fail loudly; the merge fixture's
    link 4 carries commodities (0, 5), (1, 5) and (1, 6)."""

    def test_phase_b_before_phase_a(self, merge_diverge):
        with pytest.raises(InternalAssertion, match=r"before phase_a"):
            Engine(merge_diverge).phase_b(0)

    def test_received_commodity_outside_link_tuple(self, merge_diverge):
        eng = Engine(merge_diverge)
        # type 0's path goes 4 -> 5, so (0, 6) cannot occur on link 4
        with pytest.raises(ProtocolError, match=r"cannot occur"):
            eng.slot_entries([(2, 4, 0, 0, 6)])

    def test_slot_link_not_on_its_connection(self, merge_diverge):
        # connection 2 joins links 1 and 4; link 5 is on neither end
        with pytest.raises(ProtocolError, match=r"not on connection 2"):
            Engine(merge_diverge).slot_entries([(2, 5, 0, 0, 7)])

    def test_slot_lane_group_missing(self, merge_diverge):
        # link 4 has lane groups 0 and 1 only
        with pytest.raises(ProtocolError, match=r"no lane group 2"):
            Engine(merge_diverge).slot_entries([(2, 4, 2, 0, 5)])

    def test_slot_listed_twice(self, merge_diverge):
        with pytest.raises(ProtocolError, match=r"repeats a slot"):
            Engine(merge_diverge).slot_entries([(2, 4, 0, 0, 5), (2, 4, 0, 0, 5)])

    def test_slot_link_not_simulated(self, merge_diverge):
        # owning nodes 0-2, the fragment carries link 4 only as the stub end
        # of connection 2
        cut = NodePartition(2, {nid: int(nid >= 3) for nid in merge_diverge.nodes})
        sub = build_subnetworks(merge_diverge, cut)[0]
        eng = Engine(sub.fragment, set(sub.owned_nodes))
        with pytest.raises(ProtocolError, match=r"not simulated here"):
            eng.slot_entries([(2, 4, 0, 0, 5)])

    def test_slot_entries_by_position(self, merge_diverge):
        eng = Engine(merge_diverge)
        # link 4 carries (0, 5), (1, 5) and (1, 6) at positions 0, 1, 2
        assert eng.slot_entries([(2, 4, 0, 1, 6), (2, 4, 1, 0, 5)]) == {
            (4, 2, 0, 2): 0,
            (4, 2, 1, 0): 1,
        }

    def test_negative_occupancy_rejected(self, merge_diverge):
        eng = Engine(merge_diverge)
        eng.phase_a(0)
        # a received removal of vehicles the empty cell does not hold
        with pytest.raises(InternalAssertion, match=r"negative occupancy"):
            eng.phase_b(0, [entry(eng, 4, 4, 0, (1, 5), 1.0)])

    def test_local_and_received_removals_conflict(self):
        eng = Engine(parse_scenario(json.dumps(diverge_doc())))
        seed(eng, 0, 0, 1, (0, 1), 4.0)
        eng.phase_a(0)
        with pytest.raises(InternalAssertion, match=r"local and received removals"):
            eng.phase_b(0, [entry(eng, 0, 0, 0, (0, 1), 1.0)])

    def test_deterministic_type_off_path(self, merge_diverge):
        with pytest.raises(InternalAssertion, match=r"off-path"):
            Engine(merge_diverge).entry_positions(6, 0, 0.0)

    def test_terminal_commodity_on_non_sink_link(self, merge_diverge):
        # a path ending short of a sink passes only unvalidated fragments
        eng = Engine(fragment_with_path(merge_diverge, (0, 1, 4)))
        seed(eng, 4, 1, 2, (0, TERMINAL), 1.0)
        with pytest.raises(InternalAssertion, match=r"terminal commodity"):
            eng.phase_a(0)

    def test_unreachable_next_link(self, merge_diverge):
        eng = Engine(fragment_with_path(merge_diverge, (0, 1, 5, 7)))
        seed(eng, 1, 0, 1, (0, 5), 1.0)  # link 1 only reaches link 4
        with pytest.raises(InternalAssertion, match=r"unreachable"):
            eng.phase_a(0)

    def test_unreachable_next_link_in_lane_changes(self, merge_diverge):
        eng = Engine(fragment_with_path(merge_diverge, (0, 1, 4, 7)))
        seed(eng, 4, 0, 0, (0, 7), 1.0)  # no lane group of link 4 reaches 7
        with pytest.raises(InternalAssertion, match=r"cannot reach"):
            eng.phase_a(0)


class TestInvariants:
    def test_free_flow_pulse_advances_one_cell_per_step(self):
        from conftest import chain_doc

        quiet = parse_scenario(json.dumps(chain_doc(cells_per_link=10, links=1)))
        eng = Engine(quiet)
        seed(eng, 0, 0, 0, (0, TERMINAL), 0.75)
        for step in range(9):
            eng.phase_a(step)
            eng.phase_b(step)
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
            eng.phase_a(step)
            eng.phase_b(step)
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
