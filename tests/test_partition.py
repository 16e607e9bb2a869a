"""Partitioning, subnetwork fragments, metagraph, and decoder maps."""

import json
import random
import tracemalloc

import pytest

from ctmdist.engine import Engine
from ctmdist.errors import ScenarioError
from ctmdist.gridgen import generate_grid
from ctmdist.partition import (
    balance_cap,
    build_decoder_map,
    build_metagraph,
    build_receive_map,
    build_subnetworks,
    parse_partition,
    partition_nodes,
    save_partition,
    load_partition,
    NodePartition,
    Subnetwork,
)
from ctmdist.scenario import Scenario, parse_scenario, serialize_scenario, validate

from conftest import lanes_grid, link, load_workloads, merge_diverge_doc
from support import lockstep, reconstruct_scenario, subset_sizes
from test_golden import GOLDEN, _scenario


def path_scenario(n_nodes=4):
    doc = {
        "nodes": [{"id": i} for i in range(n_nodes)],
        "links": [link(i, i, i + 1, length=100.0) for i in range(n_nodes - 1)],
        "roadconnections": [
            {"id": i, "in_link": i, "out_link": i + 1} for i in range(n_nodes - 2)
        ],
        "vehicletypes": [
            {
                "id": 0,
                "routing": {"type": "deterministic", "path": list(range(n_nodes - 1))},
            }
        ],
        "splits": [],
        "demands": [],
        "simulation": {"dt": 2.0, "steps": 10},
    }
    return parse_scenario(json.dumps(doc))


def assert_receive_keys_fit(sub):
    """Every key of `sub`'s receive maps is a delivery into one of its
    relative sources or a removal from one of its relative sinks, on a link
    it shares with the sender: the only flows phase B can apply."""
    frag = sub.fragment
    sources, sinks = set(sub.relative_sources), set(sub.relative_sinks)
    for nb in sub.neighbors():
        shared = set(sub.links_with(nb))
        for lid, cid, _gidx, _p in build_receive_map(sub, nb).positions:
            assert lid in shared
            if lid in sources:
                assert cid in frag.in_conns[lid], ("removal on a relative source", lid, cid)
            else:
                assert lid in sinks
                conn = frag.connections[cid]
                assert conn.in_link == lid, ("delivery on a relative sink", lid, cid)


def boundary_values(subs, steps):
    """Run the fragments' engines in lockstep in one process, passing their
    messages through `encode` and `decode` as a run does.  Returns how many
    nonzero values phase A wrote into the messages."""
    engines = {sub.index: Engine(sub.fragment) for sub in subs}
    maps = {
        (sub.index, nb): (
            build_decoder_map(sub, nb).positions,
            build_receive_map(sub, nb).positions,
        )
        for sub in subs
        for nb in sub.neighbors()
    }
    made = 0

    def count(step, messages):
        nonlocal made
        for values in messages.values():
            made += sum(1 for v in values if v)

    lockstep(engines, maps, steps, on_messages=count)
    return made


def golden_cut(name, n):
    """The fragments of a golden scenario cut into `n` by `partition_nodes`,
    or for n=None into 3 by a seeded random assignment read through
    `parse_partition`."""
    scenario, _steps = _scenario(name)
    if n is not None:
        return build_subnetworks(scenario, partition_nodes(scenario, n, seed=0))
    nodes = sorted(scenario.nodes)
    random.Random(5).shuffle(nodes)
    text = "".join(f"{node} {i % 3}\n" for i, node in enumerate(nodes))
    return build_subnetworks(scenario, parse_partition(text, scenario))


GOLDEN_CUTS = [(name, n) for name in sorted(GOLDEN) for n in (2, 3, 4)] + [("lanes5x5", None)]


def random_scenario(rng):
    n_nodes = rng.randint(4, 30)
    n_links = rng.randint(n_nodes, 3 * n_nodes)
    links = []
    for lid in range(n_links):
        a = rng.randrange(n_nodes)
        b = rng.randrange(n_nodes)
        while b == a:
            b = rng.randrange(n_nodes)
        links.append(link(lid, a, b, length=100.0))
    doc = {
        "nodes": [{"id": i} for i in range(n_nodes)],
        "links": links,
        "roadconnections": [],
        "vehicletypes": [],
        "splits": [],
        "demands": [],
        "simulation": {"dt": 2.0, "steps": 10},
    }
    return parse_scenario(json.dumps(doc))


class TestPartitionNodes:
    def test_n1_identity(self, merge_diverge):
        p = partition_nodes(merge_diverge, 1)
        assert p.n == 1
        assert set(p.assignment.values()) == {0}
        assert build_metagraph(build_subnetworks(merge_diverge, p)).edges == {}

    def test_four_node_path_minimum_cut(self):
        s = path_scenario(4)
        for seed in range(5):
            p = partition_nodes(s, 2, seed=seed)
            assert sorted(subset_sizes(p)) == [2, 2]
            edges = build_metagraph(build_subnetworks(s, p)).edges
            assert [len(cut) for cut in edges.values()] == [1]
            groups = {}
            for node, subset in p.assignment.items():
                groups.setdefault(subset, set()).add(node)
            assert {frozenset(g) for g in groups.values()} == {
                frozenset({0, 1}),
                frozenset({2, 3}),
            }

    def test_out_of_range_rejected(self, merge_diverge):
        with pytest.raises(ScenarioError):
            partition_nodes(merge_diverge, 0)
        with pytest.raises(ScenarioError):
            partition_nodes(merge_diverge, len(merge_diverge.nodes) + 1)

    def test_average_size_inverse_in_n(self):
        s = generate_grid(8, 8)
        count = len(s.nodes)
        for n in (2, 4, 8):
            p = partition_nodes(s, n, seed=1)
            sizes = subset_sizes(p)
            assert sum(sizes) == count
            assert sum(sizes) / n == pytest.approx(count / n)
            assert max(sizes) <= balance_cap(count, n)

    def test_deterministic_for_fixed_seed(self):
        s = generate_grid(5, 5)
        a = partition_nodes(s, 4, seed=11)
        b = partition_nodes(s, 4, seed=11)
        assert a.assignment == b.assignment

    def test_randomized_validity(self):
        # acceptance-style property over many small random graphs
        rng = random.Random(42)
        for trial in range(50):
            s = random_scenario(rng)
            n = rng.randint(2, min(6, len(s.nodes)))
            p = partition_nodes(s, n, seed=trial)
            assert sorted(p.assignment) == sorted(s.nodes)  # total
            sizes = subset_sizes(p)
            assert all(size >= 1 for size in sizes)
            assert max(sizes) <= balance_cap(len(s.nodes), n)


class TestPartitionFiles:
    def test_round_trip(self, tmp_path, merge_diverge):
        p = partition_nodes(merge_diverge, 3, seed=2)
        path = tmp_path / "part.txt"
        save_partition(p, str(path))
        again = load_partition(str(path), merge_diverge)
        assert again.n == p.n
        assert again.assignment == p.assignment

    def test_missing_node_named(self, merge_diverge):
        text = "\n".join(f"{node} 0" for node in sorted(merge_diverge.nodes) if node != 7)
        with pytest.raises(ScenarioError, match=r"missing node 7"):
            parse_partition(text, merge_diverge)

    def test_metis_style_single_column(self):
        s = path_scenario(4)
        p = parse_partition("% comment\n0\n0\n1\n1\n", s)
        assert p.assignment == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_empty_subset_rejected(self):
        s = path_scenario(4)
        with pytest.raises(ScenarioError, match=r"subset 1 is empty"):
            parse_partition("0 0\n1 0\n2 0\n3 2\n", s)

    @pytest.mark.parametrize(
        "line, field",
        [
            ("+1 1", "node"),
            ("1_1 1", "node"),
            ("01 1", "node"),
            ("1 +1", "subset"),
            ("1 \u0661", "subset"),
            ("1 -1", "subset"),
        ],
    )
    def test_pair_line_integers_are_canonical_decimal(self, line, field):
        # `int()` would read each of these, "1_1" as node 11
        s = generate_grid(2, 2)
        lines = [f"{node} {node % 2}" for node in sorted(s.nodes)]
        lines[1] = line
        with pytest.raises(ScenarioError) as err:
            parse_partition("\n".join(lines) + "\n", s)
        token = line.split()[0 if field == "node" else 1]
        assert str(err.value) == (
            f"partition file line 2: {field} must be a canonical decimal integer, got {token!r}"
        )

    @pytest.mark.parametrize("token", ["+1", "1_0", "\u0661", "1.0"])
    def test_single_column_subsets_are_canonical_decimal(self, token):
        s = path_scenario(4)
        with pytest.raises(ScenarioError) as err:
            parse_partition(f"0\n0\n{token}\n1\n", s)
        assert str(err.value) == (
            f"partition file line 3: subset must be a canonical decimal integer, got {token!r}"
        )

    def test_large_subset_index_costs_no_memory(self):
        # one node of a 25-node grid in subset 10**7: rejected without a
        # list sized by the index
        s = generate_grid(3, 3)
        text = "".join(f"{node} {10**7 if node == 4 else 0}\n" for node in sorted(s.nodes))
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match=r"subset 1 is empty"):
                parse_partition(text, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSubnetworks:
    def test_n1_is_whole_scenario(self, merge_diverge):
        subs = build_subnetworks(merge_diverge, partition_nodes(merge_diverge, 1))
        assert len(subs) == 1
        sub = subs[0]
        assert sub.relative_sources == ()
        assert sub.relative_sinks == ()
        assert set(sub.interior_links) == set(merge_diverge.links)
        assert serialize_scenario(
            reconstruct_scenario(merge_diverge, subs)
        ) == serialize_scenario(merge_diverge)

    def test_two_node_split_roles(self):
        doc = {
            "nodes": [{"id": 0}, {"id": 1}],
            "links": [link(0, 0, 1)],
            "simulation": {"dt": 2.0, "steps": 5},
        }
        s = parse_scenario(json.dumps(doc))
        p = NodePartition(2, {0: 0, 1: 1})
        subs = build_subnetworks(s, p)
        assert subs[0].relative_sinks == (0,)  # start-node side
        assert subs[0].relative_sources == ()
        assert subs[1].relative_sources == (0,)  # end-node side
        assert subs[1].relative_sinks == ()
        assert 0 in subs[0].fragment.links and 0 in subs[1].fragment.links

    def test_overlap_duality_and_link_totals(self):
        rng = random.Random(9)
        for trial in range(20):
            s = random_scenario(rng)
            n = rng.randint(2, min(5, len(s.nodes)))
            subs = build_subnetworks(s, partition_nodes(s, n, seed=trial))
            seen_interior = []
            seen_overlap = {}
            for sub in subs:
                seen_interior.extend(sub.interior_links)
                for lid in sub.relative_sinks:
                    seen_overlap.setdefault(lid, []).append(("sink", sub.index))
                for lid in sub.relative_sources:
                    seen_overlap.setdefault(lid, []).append(("source", sub.index))
            assert len(seen_interior) == len(set(seen_interior))
            for lid, roles in seen_overlap.items():
                kinds = sorted(kind for kind, _ in roles)
                assert kinds == ["sink", "source"], f"link {lid} roles {roles}"
            assert len(seen_interior) + len(seen_overlap) == len(s.links)

    def test_reconstruction_randomized(self):
        rng = random.Random(5)
        for trial in range(20):
            s = random_scenario(rng)
            n = rng.randint(2, min(5, len(s.nodes)))
            subs = build_subnetworks(s, partition_nodes(s, n, seed=trial))
            assert serialize_scenario(
                reconstruct_scenario(s, subs)
            ) == serialize_scenario(s)

    def test_fragments_are_standalone_scenarios(self, merge_diverge):
        subs = build_subnetworks(merge_diverge, partition_nodes(merge_diverge, 3, seed=0))
        for sub in subs:
            text = serialize_scenario(sub.fragment)
            again = parse_scenario(text)  # full validation on reload
            assert again == sub.fragment

    @pytest.mark.parametrize(
        "cut",
        ["grid4x4-n3", "lanes_grid-n2", "lanes_grid-n3", "merge-at-node-5", "checker-tcp2"],
    )
    def test_sliced_tables_are_the_ones_validate_derives(self, monkeypatch, cut):
        # build_subnetworks takes a simulated link's tables from the parent
        # and derives a stub's alone; validate() on a copy of each fragment
        # must derive every table, and every link's flags, the same
        if cut == "checker-tcp2":
            workloads = load_workloads(monkeypatch)
            s = workloads.grid_scenario(1, 3)
            p = workloads.checker_partition(s, 30, 30, 1)
        elif cut == "merge-at-node-5":
            s = parse_scenario(json.dumps(merge_diverge_doc()))
            p = NodePartition(2, {nid: int(nid >= 5) for nid in s.nodes})
        else:
            s = generate_grid(4, 4) if cut == "grid4x4-n3" else lanes_grid()
            p = partition_nodes(s, int(cut[-1]), seed=0)
        for sub in build_subnetworks(s, p):
            frag = sub.fragment
            copy = Scenario(
                nodes=dict(frag.nodes),
                links=dict(frag.links),
                connections=dict(frag.connections),
                vehicle_types=dict(frag.vehicle_types),
                splits=list(frag.splits),
                demands=list(frag.demands),
                sim=frag.sim,
                subnetwork=frag.subnetwork,
            )
            validate(copy)
            assert frag.links == copy.links
            assert frag.in_conns == copy.in_conns
            assert frag.lane_groups == copy.lane_groups
            assert frag.commodities == copy.commodities
            assert frag._split_index == copy._split_index
            assert frag._demand_index == copy._demand_index

    def test_split_rows_follow_overlap_links(self, merge_diverge):
        # the upstream side of an overlap link needs the turn ratios that
        # apply at its far (stub) end to assign entering flow
        p = NodePartition(2, {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1})
        subs = build_subnetworks(merge_diverge, p)
        frag0 = subs[0].fragment
        assert subs[0].relative_sinks == (4,)
        rows = [r for r in frag0.splits if r.in_link == 4]
        assert len(rows) == 2  # both time intervals of the diverge split


class TestMetagraph:
    def test_n1_no_edges(self, merge_diverge):
        subs = build_subnetworks(merge_diverge, partition_nodes(merge_diverge, 1))
        assert build_metagraph(subs).edges == {}

    def test_linear_split_gives_path(self):
        s = path_scenario(8)
        p = NodePartition(4, {i: i // 2 for i in range(8)})
        subs = build_subnetworks(s, p)
        mg = build_metagraph(subs)
        assert sorted(mg.edges) == [(0, 1), (1, 2), (2, 3)]
        assert subs[1].neighbors() == (0, 2)

    def test_no_cut_empty_edges(self):
        # two disconnected components, one subset each
        doc = {
            "nodes": [{"id": i} for i in range(4)],
            "links": [link(0, 0, 1), link(1, 2, 3)],
            "simulation": {"dt": 2.0, "steps": 5},
        }
        s = parse_scenario(json.dumps(doc))
        subs = build_subnetworks(s, NodePartition(2, {0: 0, 1: 0, 2: 1, 3: 1}))
        assert build_metagraph(subs).edges == {}


class TestDecoderMaps:
    def test_single_deterministic_next_length_one(self):
        s = path_scenario(4)  # links 0,1,2; overlap at link 1
        subs = build_subnetworks(s, NodePartition(2, {0: 0, 1: 0, 2: 1, 3: 1}))
        send, recv = build_decoder_map(subs[0], 1), build_decoder_map(subs[1], 0)
        assert send.message_length == 1
        assert send.slots == ((0, 1, 0, 0, 2),)  # conn 0 into link 1, next link 2
        assert recv.message_length == 1
        # removal via conn 1: vehicles leaving link 1 are keyed next=2
        assert recv.slots == ((1, 1, 0, 0, 2),)

    def test_two_conns_two_nexts_length_four(self):
        doc = {
            "nodes": [{"id": i} for i in range(6)],
            "links": [
                link(0, 0, 2),
                link(1, 1, 2),
                link(2, 2, 3),
                link(3, 3, 4),
                link(4, 3, 5),
            ],
            "roadconnections": [
                {"id": 0, "in_link": 0, "out_link": 2},
                {"id": 1, "in_link": 1, "out_link": 2},
                {"id": 2, "in_link": 2, "out_link": 3},
                {"id": 3, "in_link": 2, "out_link": 4},
            ],
            "vehicletypes": [{"id": 0, "routing": {"type": "probabilistic"}}],
            "splits": [
                {
                    "node": 2,
                    "in_link": 0,
                    "vtype": 0,
                    "start_time": 0.0,
                    "ratios": {"2": 1.0},
                },
                {
                    "node": 2,
                    "in_link": 1,
                    "vtype": 0,
                    "start_time": 0.0,
                    "ratios": {"2": 1.0},
                },
                {
                    "node": 3,
                    "in_link": 2,
                    "vtype": 0,
                    "start_time": 0.0,
                    "ratios": {"3": 0.5, "4": 0.5},
                },
            ],
            "demands": [],
            "simulation": {"dt": 2.0, "steps": 5},
        }
        s = parse_scenario(json.dumps(doc))
        subs = build_subnetworks(s, NodePartition(2, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}))
        send, recv = build_decoder_map(subs[0], 1), build_decoder_map(subs[1], 0)
        # 2 connections into the overlap link x 1 lane group x 1 type x 2
        # possible next links
        assert send.message_length == 4
        assert send.slots == (
            (0, 2, 0, 0, 3),
            (0, 2, 0, 0, 4),
            (1, 2, 0, 0, 3),
            (1, 2, 0, 0, 4),
        )
        # reverse direction: removals over the two outgoing connections
        assert recv.slots == ((2, 2, 0, 0, 3), (3, 2, 0, 0, 4))

    def test_decoder_symmetry_both_sides(self, merge_diverge):
        for n in (2, 3, 4):
            subs = build_subnetworks(
                merge_diverge, partition_nodes(merge_diverge, n, seed=3)
            )
            mg = build_metagraph(subs)
            for (i, j) in mg.edges:
                assert build_decoder_map(subs[i], j) == build_receive_map(subs[j], i)
                assert build_decoder_map(subs[j], i) == build_receive_map(subs[i], j)

    @pytest.mark.parametrize("n", [2, 3])
    def test_slots_name_shared_table_entries(self, n):
        # every slot's commodity and lane group come from the tables that
        # validate() builds, both sides of a cut carry the same tables, and
        # each slot's engine key names its commodity's position in the
        # fragment's engine
        s = lanes_grid()
        subs = build_subnetworks(s, partition_nodes(s, n, seed=0))
        for sub in subs:
            frag = sub.fragment
            for lid in sub.interior_links + sub.relative_sources + sub.relative_sinks:
                assert frag.commodities[lid] == s.commodities[lid]
                assert frag.lane_groups[lid] == s.lane_groups[lid]
            engine = Engine(frag, set(sub.owned_nodes))
            for nb in sub.neighbors():
                for decoder in (build_decoder_map(sub, nb), build_receive_map(sub, nb)):
                    assert decoder.slots
                    assert list(decoder.positions.values()) == list(range(len(decoder.slots)))
                    for slot, key in zip(decoder.slots, decoder.positions):
                        cid, lid, gidx, vtype, nxt = slot
                        assert (vtype, nxt) in s.commodities[lid]
                        assert s.lane_groups[lid][gidx].index == gidx
                        assert lid in (s.connections[cid].in_link, s.connections[cid].out_link)
                        assert key == (lid, cid, gidx, engine.links[lid].comm_index[(vtype, nxt)])

    @pytest.mark.parametrize("name, n", GOLDEN_CUTS)
    def test_received_records_apply_on_the_far_side(self, name, n):
        # the receive table tells a removal from a delivery by the slot's
        # connection alone, so each receive-map key must be a delivery into
        # a relative source or a removal from a relative sink
        subs = golden_cut(name, n)
        assert len(subs) == (n or 3)
        for sub in subs:
            assert_receive_keys_fit(sub)

    @pytest.mark.parametrize("name, n", GOLDEN_CUTS)
    def test_every_boundary_record_has_a_slot(self, name, n):
        # phase A writes each flow on a shared link at its connection's slot
        # for the flow's lane group and position, unchecked: a flow with no
        # slot finds None there and raises
        subs = golden_cut(name, n)
        assert boundary_values(subs, steps=25) > 0

    @pytest.mark.parametrize(
        "make, n",
        [(lambda: generate_grid(4, 4), 3), (lanes_grid, 2), (lanes_grid, 3)],
        ids=["grid4x4-n3", "lanes_grid-n2", "lanes_grid-n3"],
    )
    def test_reloaded_fragments_derive_the_same_maps(self, make, n):
        # a worker checks decoder files against the maps its own fragment
        # derives, so a fragment read back from disk must derive the maps,
        # and the engine keys, of the fragment it was written from
        s = make()
        subs = build_subnetworks(s, partition_nodes(s, n, seed=0))
        for sub in subs:
            reloaded = Subnetwork(parse_scenario(serialize_scenario(sub.fragment)))
            for nb in sub.neighbors():
                for build in (build_decoder_map, build_receive_map):
                    here, there = build(sub, nb), build(reloaded, nb)
                    assert here == there
                    assert list(here.positions.items()) == list(there.positions.items())

    def test_grid_n2_message_lengths_order_of_magnitude(self):
        # mirrors the reported mean of ~56 floats per neighbor at n=2 on a
        # real network; desk-scale grid should land within the same order
        s = generate_grid(10, 10)
        subs = build_subnetworks(s, partition_nodes(s, 2, seed=0))
        mg = build_metagraph(subs)
        lengths = []
        for (i, j) in mg.edges:
            send, recv = build_decoder_map(subs[i], j), build_decoder_map(subs[j], i)
            lengths.extend([send.message_length, recv.message_length])
        mean = sum(lengths) / len(lengths)
        assert 10 <= mean <= 1000
