"""Scenario parsing, validation, lane groups, and discretization."""

import dataclasses
import json
import math
import random
import time

import pytest

from ctmdist.cli import main
from ctmdist.errors import ScenarioError
from ctmdist.gridgen import generate_grid
from ctmdist.partition import build_subnetworks, partition_nodes
from ctmdist.scenario import (
    FDParams,
    Link,
    RoadConnection,
    build_lane_groups,
    discretize,
    parse_scenario,
    scenario_to_dict,
    serialize_scenario,
    validate,
)

from conftest import chain_doc, link, merge_diverge_doc


def minimal_doc():
    return {
        "nodes": [{"id": 0}, {"id": 1}],
        "links": [link(0, 0, 1)],
        "simulation": {"dt": 2.0, "steps": 10},
    }


def make_link(lid=0, lanes=3, length=500.0):
    return Link(
        id=lid,
        start_node=0,
        end_node=1,
        length=length,
        lanes=lanes,
        fd=FDParams(
            capacity=0.5,
            free_flow_speed=25.0,
            congestion_wave_speed=6.25,
            jam_density=0.125,
        ),
    )


def make_conn(cid, in_link, out_link, in_lanes, out_lanes=(1, 1)):
    return RoadConnection(
        id=cid, in_link=in_link, out_link=out_link, in_lanes=in_lanes, out_lanes=out_lanes
    )


class TestParse:
    def test_minimal_two_node_one_link(self):
        s = parse_scenario(json.dumps(minimal_doc()))
        assert len(s.links) == 1
        assert len(s.connections) == 0
        assert s.links[0].is_sink  # no outgoing connections

    def test_syntax_error_reports_position(self):
        with pytest.raises(ScenarioError, match=r"syntax error at line"):
            parse_scenario('{"nodes": [,]}')

    def test_split_summing_to_0_9_rejected(self):
        doc = merge_diverge_doc()
        doc["splits"][2]["ratios"] = {"5": 0.6, "6": 0.3}
        with pytest.raises(ScenarioError, match=r"distribution sums to 0.9"):
            parse_scenario(json.dumps(doc))

    def test_three_link_merge_fixture(self):
        # two approaches joining into one exit: hand count of the fixture
        doc = {
            "nodes": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3}],
            "links": [link(0, 0, 2), link(1, 1, 2), link(2, 2, 3)],
            "roadconnections": [
                {"id": 0, "in_link": 0, "out_link": 2},
                {"id": 1, "in_link": 1, "out_link": 2},
            ],
            "simulation": {"dt": 2.0, "steps": 10},
        }
        s = parse_scenario(json.dumps(doc))
        at_merge = [c for c in s.connections.values() if c.out_link == 2]
        assert len(at_merge) == 2
        assert s.in_conns[2] == (0, 1)

    def test_dangling_link_reference(self):
        doc = minimal_doc()
        doc["links"][0]["end_node"] = 7
        with pytest.raises(ScenarioError, match=r"missing node 7"):
            parse_scenario(json.dumps(doc))

    def test_connection_node_mismatch(self):
        doc = merge_diverge_doc()
        doc["roadconnections"][0]["out_link"] = 3  # link 0 ends at 1, link 3 starts at 3
        with pytest.raises(ScenarioError, match=r"connection 0"):
            parse_scenario(json.dumps(doc))

    def test_cfl_violation_reported(self):
        doc = minimal_doc()
        doc["links"][0]["length"] = 30.0  # v*dt = 50 > 30
        with pytest.raises(ScenarioError, match=r"CFL"):
            parse_scenario(json.dumps(doc))

    def test_fd_triangle_must_fit(self):
        doc = minimal_doc()
        doc["links"][0]["fd"]["jam_density"] = 0.05  # cap/v + cap/w = 0.1 > 0.05
        with pytest.raises(ScenarioError, match=r"jam density"):
            parse_scenario(json.dumps(doc))

    def test_wave_speed_bounded_by_free_flow(self):
        doc = minimal_doc()
        doc["links"][0]["fd"]["congestion_wave_speed"] = 30.0
        with pytest.raises(ScenarioError, match=r"wave speed"):
            parse_scenario(json.dumps(doc))

    def test_deterministic_path_must_be_connected(self):
        doc = merge_diverge_doc()
        doc["vehicletypes"][0]["routing"]["path"] = [0, 4, 5, 7]  # 0 -> 4 has no connection
        with pytest.raises(ScenarioError, match=r"no road connection from link 0 to link 4"):
            parse_scenario(json.dumps(doc))

    def test_deterministic_path_must_end_at_sink(self):
        doc = merge_diverge_doc()
        doc["vehicletypes"][0]["routing"]["path"] = [0, 1, 4, 5]
        with pytest.raises(ScenarioError, match=r"must end at a sink"):
            parse_scenario(json.dumps(doc))

    def test_demand_needs_source_flag_when_fed(self):
        doc = merge_diverge_doc()
        doc["demands"].append(
            {"link": 4, "vtype": 1, "profile": [{"start_time": 0.0, "flow": 0.1}]}
        )
        with pytest.raises(ScenarioError, match=r"demand on link 4"):
            parse_scenario(json.dumps(doc))
        # explicit flag makes it legal, plus a split row for entries
        doc["links"][4]["is_source"] = True
        parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("value", [2.7, "2", True], ids=["fraction", "string", "bool"])
    @pytest.mark.parametrize("field", ["lanes", "in_lanes"])
    def test_lane_values_must_be_integers(self, tmp_path, field, value):
        # int() used to turn 2.7 into 2 lanes and "2" into 2
        doc = merge_diverge_doc()
        if field == "lanes":
            doc["links"][4]["lanes"] = value
        else:
            doc["roadconnections"][4]["in_lanes"] = [1, value]
        with pytest.raises(ScenarioError, match=r"must be an integer"):
            parse_scenario(json.dumps(doc))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path), "--mode", "seq", "--steps", "1"]) == 2

    @pytest.mark.parametrize(
        "record, field, value, message",
        [
            (
                lambda doc: doc["simulation"],
                "steps",
                float("inf"),
                r"^simulation\.steps must be an integer, got inf$",
            ),
            (lambda doc: doc["links"][0], "length", int("9" * 400), r"missing or malformed field"),
        ],
        ids=["infinite_steps", "400_digit_length"],
    )
    def test_number_beyond_float_range_rejected(self, tmp_path, record, field, value, message):
        # float() of a 400-digit int raises OverflowError, not ValueError;
        # steps must be an integer, which inf is not
        doc = minimal_doc()
        record(doc)[field] = value
        text = json.dumps(doc)
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(text)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        assert main(["run", "--scenario", str(scenario), "--mode", "seq", "--steps", "1"]) == 2

    def test_integral_float_lanes_accepted(self):
        doc = merge_diverge_doc()
        doc["links"][4]["lanes"] = 3.0
        assert parse_scenario(json.dumps(doc)) == parse_scenario(json.dumps(merge_diverge_doc()))

    def test_lane_count_costs_no_work_per_lane(self):
        # lane groups come from the connections' lane ranges; one entry per
        # lane took 0.9 s and 63 MB for this link
        doc = chain_doc(links=2)
        doc["links"][0]["lanes"] = 3_000_000
        doc["roadconnections"][0]["in_lanes"] = [2, 3_000_000]
        start = time.perf_counter()
        s = parse_scenario(json.dumps(doc))
        assert time.perf_counter() - start < 0.25
        assert [(g.lane_lo, g.lane_hi, g.conn_ids) for g in s.lane_groups[0]] == [
            (1, 1, ()),
            (2, 3_000_000, (0,)),
        ]

    def test_parse_serialize_round_trip(self, merge_diverge):
        text = serialize_scenario(merge_diverge)
        again = parse_scenario(text)
        assert again == merge_diverge
        assert serialize_scenario(again) == text


# (section, field, bad value, message): the message is formatted with the
# bad record's own `id`, `node`, `in_link` and `link`.  All links of the
# grid share one fd row, so a late link's fd is one that earlier links
# passed with.  `simulation` is one record, so early and late are the same.
BAD_RECORDS = {
    "sim-steps-fraction": (
        "simulation", "steps", 2.7, "simulation.steps must be an integer, got 2.7"
    ),
    "sim-steps-string": (
        "simulation", "steps", "3", "simulation.steps must be an integer, got '3'"
    ),
    "sim-steps-bool": ("simulation", "steps", True, "simulation.steps must be an integer, got True"),
    "sim-dt-string": ("simulation", "dt", "4.0", "simulation.dt must be a number, got '4.0'"),
    "sim-rate-string": (
        "simulation",
        "lane_change_rate",
        "0.5",
        "simulation.lane_change_rate must be a number, got '0.5'",
    ),
    "link-length-string": (
        "links", "length", "200", "link {id} length must be a number, got '200'"
    ),
    "link-fd-capacity-string": (
        "links", "fd.capacity", "0.5", "link {id} fd.capacity must be a number, got '0.5'"
    ),
    "link-fd-speed-bool": (
        "links",
        "fd.free_flow_speed",
        True,
        "link {id} fd.free_flow_speed must be a number, got True",
    ),
    "link-fd-wave-string": (
        "links",
        "fd.congestion_wave_speed",
        "6.25",
        "link {id} fd.congestion_wave_speed must be a number, got '6.25'",
    ),
    "link-fd-jam-null": (
        "links", "fd.jam_density", None, "link {id} fd.jam_density must be a number, got None"
    ),
    "split-start-string": (
        "splits", "start_time", "0", "split at node {node} start_time must be a number, got '0'"
    ),
    "split-ratio-string": (
        "splits",
        "ratios",
        {"999": "1.0"},
        "split at node {node} ratio for link 999 must be a number, got '1.0'",
    ),
    "demand-start-string": (
        "demands",
        "profile",
        [{"start_time": "0", "flow": 0.5}],
        "demand on link {link} start_time must be a number, got '0'",
    ),
    "demand-flow-string": (
        "demands",
        "profile",
        [{"start_time": 0.0, "flow": "0.5"}],
        "demand on link {link} flow must be a number, got '0.5'",
    ),
    "link-source-string": (
        "links", "is_source", "false", "link {id} is_source must be a boolean, got 'false'"
    ),
    "link-source-int": ("links", "is_source", 1, "link {id} is_source must be a boolean, got 1"),
    "link-fd-infinite": (
        "links", "fd.jam_density", math.inf, "link {id} fd.jam_density must be finite"
    ),
    "demand-flow-infinite": (
        "demands",
        "profile",
        [{"start_time": 0.0, "flow": math.inf}],
        "demand on link {link}: flow must be finite",
    ),
    "link-id-bool": ("links", "id", True, "link id must be a non-negative integer, got True"),
    "link-id-string": ("links", "id", "7", "link id must be a non-negative integer, got '7'"),
    "link-start-negative": (
        "links", "start_node", -1, "link {id} start_node must be a non-negative integer, got -1"
    ),
    "link-end-float": (
        "links", "end_node", 1.0, "link {id} end_node must be a non-negative integer, got 1.0"
    ),
    "link-lanes-fraction": ("links", "lanes", 2.5, "link {id} lanes must be an integer, got 2.5"),
    "link-fd-jam": (
        "links",
        "fd.jam_density",
        0.05,
        "link {id}: triangular diagram does not fit under jam density (needs 0.1, jam 0.05)",
    ),
    "link-fd-speed": (
        "links", "fd.free_flow_speed", -25.0, "link {id} fd.free_flow_speed must be positive"
    ),
    "link-cfl-shared-fd": (
        "links",
        "length",
        50.0,
        "link {id}: CFL violation, free-flow step 100.0 m exceeds length 50.0 m",
    ),
    "conn-id-bool": (
        "roadconnections", "id", False, "road connection id must be a non-negative integer, got False"
    ),
    "conn-in-negative": (
        "roadconnections", "in_link", -3, "connection {id} in_link must be a non-negative integer, got -3"
    ),
    "conn-out-float": (
        "roadconnections", "out_link", 2.0, "connection {id} out_link must be a non-negative integer, got 2.0"
    ),
    "conn-in-string": (
        "roadconnections", "in_link", "1", "connection {id} in_link must be a non-negative integer, got '1'"
    ),
    "conn-missing-link": (
        "roadconnections", "out_link", 999, "connection {id} references missing link 999"
    ),
    "conn-lanes-reversed": (
        "roadconnections", "in_lanes", [2, 1], "connection {id} in_lanes [2, 1] outside lanes 1..2"
    ),
    "conn-lanes-outside": (
        "roadconnections", "out_lanes", [1, 3], "connection {id} out_lanes [1, 3] outside lanes 1..2"
    ),
    "conn-lanes-short": (
        "roadconnections", "out_lanes", [1], "connection {id} out_lanes must be a [lo, hi] lane pair"
    ),
    "conn-lanes-bool": (
        "roadconnections", "in_lanes", [1, True], "connection {id} in_lanes must be an integer, got True"
    ),
    "split-node-bool": ("splits", "node", True, "split node must be a non-negative integer, got True"),
    "split-in-negative": (
        "splits", "in_link", -1, "split in_link must be a non-negative integer, got -1"
    ),
    "split-vtype-float": ("splits", "vtype", 0.0, "split vtype must be a non-negative integer, got 0.0"),
    "split-in-string": (
        "splits", "in_link", "1", "split in_link must be a non-negative integer, got '1'"
    ),
    "split-missing-link": ("splits", "in_link", 999, "split references missing link 999"),
    "split-unreachable": (
        "splits",
        "ratios",
        {"999": 1.0},
        "split at node {node}: link 999 is not reachable from link {in_link} via a road connection",
    ),
    # "0" is the one canonical key that starts with a zero
    "split-key-zero": (
        "splits",
        "ratios",
        {"0": 1.0},
        "split at node {node}: link 0 is not reachable from link {in_link} via a road connection",
    ),
    # a ratio key is read only in the decimal form scenario_to_dict writes,
    # so no two keys name one link
    **{
        f"split-key-{name}": (
            "splits",
            "ratios",
            {"999": 0.5, key: 0.5},
            f"split at node {{node}} ratio key must be a canonical decimal id, got {key!r}",
        )
        for name, key in (
            ("space", " 999"),
            ("plus", "+999"),
            ("underscore", "9_99"),
            ("leading-zero", "0999"),
            ("negative", "-1"),
            ("empty", ""),
            ("arabic-indic", "\u0669\u0669\u0669"),
        )
    },
}


class TestFirstError:
    """The loader reports the first bad record of a file, with the same
    text, wherever in the file it is."""

    @pytest.mark.parametrize("where", ["early", "late", "both"])
    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    def test_bad_record_reported(self, case, where):
        section, field, value, message = BAD_RECORDS[case]
        doc = scenario_to_dict(generate_grid(3, 3))
        records = doc[section] if isinstance(doc[section], list) else [doc[section]]
        chosen = {"early": [0], "late": [-1], "both": [0, -1]}[where]
        reported = dict(records[chosen[0]])
        for i in chosen:
            record = records[i]
            for key in field.split(".")[:-1]:
                record = record[key]
            record[field.split(".")[-1]] = value
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert str(err.value) == message.format(
            id=reported.get("id"),
            node=reported.get("node"),
            in_link=reported.get("in_link"),
            link=reported.get("link"),
        )

    @pytest.mark.parametrize("where", ["early", "late"])
    def test_group_with_two_connections_to_one_link(self, where):
        doc = scenario_to_dict(generate_grid(3, 3))
        conns = doc["roadconnections"]
        order = range(len(conns)) if where == "early" else range(len(conns) - 1, -1, -1)
        first = conns[next(iter(order))]
        sibling = next(c for c in conns if c["in_link"] == first["in_link"] and c is not first)
        sibling["out_link"] = first["out_link"]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert str(err.value) == (
            f"link {first['in_link']} lanes 1-2: two road connections lead to the same "
            f"downstream link"
        )


def _sim(**fields):
    return lambda s: setattr(s, "sim", dataclasses.replace(s.sim, **fields))


def _last(table, **fields):
    """Give the record of `table` with the highest id new `fields`."""

    def apply(s):
        records = getattr(s, table)
        key = max(records)
        records[key] = dataclasses.replace(records[key], **fields)

    return apply


def _last_fd(**fields):
    def apply(s):
        lid = max(s.links)
        fd = dataclasses.replace(s.links[lid].fd, **fields)
        s.links[lid] = dataclasses.replace(s.links[lid], fd=fd)

    return apply


def _last_demand_flow(flow):
    def apply(s):
        s.demands[-1] = dataclasses.replace(s.demands[-1], profile=((0.0, flow),))

    return apply


# (fault, message) applied to `generate_grid(2, 2)`: the message is
# formatted with the last link's, the last connection's and the last demand
# row's link id
BUILT_FAULTS = {
    "sim-dt-nan": (_sim(dt=math.nan), "simulation.dt must be positive"),
    "sim-dt-negative": (_sim(dt=-1.0), "simulation.dt must be positive"),
    "sim-steps-zero": (_sim(steps=0), "simulation.steps must be >= 1"),
    "sim-eta-zero": (_sim(lane_change_rate=0.0), "simulation.lane_change_rate must be in (0, 1]"),
    "sim-eta-nan": (
        _sim(lane_change_rate=math.nan), "simulation.lane_change_rate must be in (0, 1]"
    ),
    "link-missing-node": (_last("links", end_node=99), "link {link} references missing node 99"),
    "link-length-nan": (_last("links", length=math.nan), "link {link} length must be positive"),
    "link-length-inf": (_last("links", length=math.inf), "link {link} length must be finite"),
    "link-length-negative": (_last("links", length=-5.0), "link {link} length must be positive"),
    "link-lanes-zero": (_last("links", lanes=0), "link {link} must have at least one lane"),
    "link-fd-capacity": (_last_fd(capacity=-0.5), "link {link} fd.capacity must be positive"),
    "link-fd-capacity-inf": (_last_fd(capacity=math.inf), "link {link} fd.capacity must be finite"),
    "link-fd-wave": (
        _last_fd(congestion_wave_speed=30.0),
        "link {link}: congestion wave speed exceeds free-flow speed",
    ),
    "link-fd-jam": (
        _last_fd(jam_density=0.05),
        "link {link}: triangular diagram does not fit under jam density (needs 0.1, jam 0.05)",
    ),
    "link-cfl": (
        _last("links", length=50.0),
        "link {link}: CFL violation, free-flow step 100.0 m exceeds length 50.0 m",
    ),
    "conn-missing-link": (
        _last("connections", out_link=99), "connection {conn} references missing link 99"
    ),
    "conn-in-lanes-reversed": (
        _last("connections", in_lanes=(2, 1)), "connection {conn} in_lanes [2, 1] outside lanes 1..2"
    ),
    "demand-flow-inf": (_last_demand_flow(math.inf), "demand on link {demand}: flow must be finite"),
    "conn-out-lanes-outside": (
        _last("connections", out_lanes=(1, 3)),
        "connection {conn} out_lanes [1, 3] outside lanes 1..2",
    ),
}


class TestBuiltScenarios:
    """A scenario built in code meets the rules a file meets, with the same
    message."""

    @pytest.mark.parametrize("case", sorted(BUILT_FAULTS))
    def test_fault_reported_as_in_a_file(self, case):
        fault, message = BUILT_FAULTS[case]
        s = generate_grid(2, 2)
        fault(s)
        with pytest.raises(ScenarioError) as built:
            validate(s)
        with pytest.raises(ScenarioError) as loaded:
            parse_scenario(serialize_scenario(s))
        expected = message.format(
            link=max(s.links), conn=max(s.connections), demand=s.demands[-1].link
        )
        assert str(built.value) == str(loaded.value) == expected

    def test_split_row_naming_a_link_twice(self):
        # a file cannot name a key twice: JSON keeps the last, and a second
        # spelling of the id is rejected as it loads
        s = generate_grid(2, 2)
        row = s.splits[-1]
        out_link = row.ratios[0][0]
        s.splits[-1] = dataclasses.replace(row, ratios=((out_link, 0.5), (out_link, 0.5)))
        with pytest.raises(
            ScenarioError,
            match=rf"^split at node {row.node} in_link {row.in_link}: a link is named twice$",
        ):
            validate(s)

    @pytest.mark.parametrize("form", ["space", "plus", "underscore", "leading-zero"])
    def test_neighbor_key_only_in_decimal(self, form):
        s = generate_grid(3, 3)
        sub = build_subnetworks(s, partition_nodes(s, 2, seed=0))[0]
        doc = scenario_to_dict(sub.fragment)
        neighbors = doc["subnetwork"]["neighbor_of_link"]
        lid = max(neighbors, key=int)
        assert len(lid) > 1
        key = {
            "space": f" {lid}",
            "plus": f"+{lid}",
            "underscore": f"{lid[0]}_{lid[1:]}",
            "leading-zero": f"0{lid}",
        }[form]
        neighbors[key] = neighbors.pop(lid)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert str(err.value) == f"subnetwork link key must be a canonical decimal id, got {key!r}"

    def test_empty_path_rejected_in_a_fragment(self):
        doc = chain_doc(links=2)
        doc["vehicletypes"][0]["routing"]["path"] = []
        doc["subnetwork"] = {
            "index": 0,
            "owned_nodes": [0, 1, 2],
            "interior_links": [0, 1],
            "relative_sources": [],
            "relative_sinks": [],
            "neighbor_of_link": {},
        }
        with pytest.raises(ScenarioError, match=r"^vehicle type 0 has an empty path$"):
            parse_scenario(json.dumps(doc))


class TestLaneGroups:
    def test_single_connection_single_group(self):
        lk = make_link(lanes=3)
        groups = build_lane_groups(lk, [make_conn(0, 0, 1, (1, 3))], dt=2.0)
        assert len(groups) == 1
        assert (groups[0].lane_lo, groups[0].lane_hi) == (1, 3)
        assert groups[0].conn_ids == (0,)

    def test_freeway_offramp_grouping(self):
        # mainline connection spans all 5 lanes, off-ramp only lanes 4-5:
        # inner lanes form one group, the two outer lanes another
        lk = make_link(lanes=5)
        conns = [make_conn(0, 0, 1, (1, 5)), make_conn(1, 0, 2, (4, 5))]
        groups = build_lane_groups(lk, conns, dt=2.0)
        assert [(g.lane_lo, g.lane_hi) for g in groups] == [(1, 3), (4, 5)]
        assert groups[0].conn_ids == (0,)
        assert groups[1].conn_ids == (0, 1)

    def test_disjoint_connections_two_groups(self):
        # oracle: enumerate each lane's connection set by hand
        lk = make_link(lanes=2)
        conns = [make_conn(0, 0, 1, (1, 1)), make_conn(1, 0, 2, (2, 2))]
        lane_sets = {
            lane: tuple(c.id for c in conns if c.in_lanes[0] <= lane <= c.in_lanes[1])
            for lane in (1, 2)
        }
        assert lane_sets == {1: (0,), 2: (1,)}
        groups = build_lane_groups(lk, conns, dt=2.0)
        assert [(g.lane_lo, g.lane_hi, g.conn_ids) for g in groups] == [
            (1, 1, (0,)),
            (2, 2, (1,)),
        ]

    def test_no_connections_single_sink_group(self):
        groups = build_lane_groups(make_link(lanes=4), [], dt=2.0)
        assert len(groups) == 1
        assert groups[0].conn_ids == ()

    def test_partition_and_homogeneity_randomized(self):
        # property: groups tile the lanes exactly and every lane in a group
        # has the same recomputed connection set
        rng = random.Random(7)
        for _ in range(50):
            lanes = rng.randint(1, 6)
            lk = make_link(lanes=lanes)
            conns = []
            for cid in range(rng.randint(0, 4)):
                lo = rng.randint(1, lanes)
                hi = rng.randint(lo, lanes)
                conns.append(make_conn(cid, 0, cid + 1, (lo, hi)))
            groups = build_lane_groups(lk, conns, dt=2.0)
            covered = []
            for g in groups:
                covered.extend(range(g.lane_lo, g.lane_hi + 1))
            assert covered == list(range(1, lanes + 1))
            for g in groups:
                for lane in range(g.lane_lo, g.lane_hi + 1):
                    sets = tuple(
                        sorted(
                            c.id
                            for c in conns
                            if c.in_lanes[0] <= lane <= c.in_lanes[1]
                        )
                    )
                    assert sets == g.conn_ids


class TestDiscretize:
    def test_500m_at_25mps_2s(self):
        assert discretize(500.0, 25.0, 2.0) == (10, 50.0)

    def test_exactly_one_step_length(self):
        assert discretize(50.0, 25.0, 2.0) == (1, 50.0)

    def test_rounding_up_from_9_6(self):
        count, cell_len = discretize(480.0, 25.0, 2.0)
        assert count == 10
        assert cell_len == 48.0
