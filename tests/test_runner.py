"""Run orchestration: sequential reference behavior, distributed merging,
dump plumbing, and the benchmark report."""

import contextlib
import dataclasses
import gc
import json
import multiprocessing
import os
import re
import signal
import socket
import threading
import time

import pytest

from ctmdist import runner
from ctmdist.comm import HEADER, SocketDuplex, check_decoder_maps, establish, tcp_listener
from ctmdist.engine import Engine
from ctmdist.errors import CtmError, InternalAssertion, ProtocolError, ScenarioError
from ctmdist.gridgen import generate_grid
from ctmdist.partition import (
    DecoderMap,
    NodePartition,
    Subnetwork,
    build_decoder_map,
    build_receive_map,
    build_subnetworks,
    partition_nodes,
)
from ctmdist.runner import (
    _worker_channels,
    benchmark,
    diff_dumps,
    merge_states,
    parse_dump,
    rows_to_csv,
    run_distributed,
    run_sequential,
    write_dump,
)
from ctmdist.scenario import load_scenario, parse_scenario, scenario_to_dict, serialize_scenario

from conftest import (
    chain_doc,
    lanes_grid,
    load_workloads,
    merge_diverge_doc,
    run_bounded,
)
from support import lockstep, run_in_threads, setup_timing


class TestSequential:
    def test_zero_demand_stays_empty(self):
        s = parse_scenario(json.dumps(chain_doc(cells_per_link=5, links=3)))
        res = run_sequential(s, steps=40)
        assert res.metrics["per_step"]["in_network"] == [0.0] * 40
        assert res.rows == []

    def test_capacity_throughput_after_warmup(self, single_link):
        res = run_sequential(single_link, steps=60, dump_every=None)
        exited = res.metrics["per_step"]["exited_cum"]
        deltas = [b - a for a, b in zip(exited[-6:], exited[-5:])]
        assert all(abs(d - 1.0) <= 1e-9 for d in deltas)  # C = 0.5*1*2.0

    def test_grid_conservation_everywhere(self):
        s = generate_grid(4, 4)
        res = run_sequential(s, steps=100, dump_every=None)
        assert res.metrics["conservation_max_abs_error"] <= 1e-9

    def test_dump_cadence(self, merge_diverge):
        res = run_sequential(merge_diverge, steps=25, dump_every=10)
        assert {r[0] for r in res.rows} == {10, 20, 25}

    def test_rejects_zero_steps(self, merge_diverge):
        with pytest.raises(ScenarioError):
            run_sequential(merge_diverge, steps=0)


def _field_reprs(s):
    """repr() of every field of a scenario: its records, and its derived
    tables (in_conns, lane_groups, commodities, _split_index and
    _demand_index), which a plain repr() leaves out."""
    return [repr(getattr(s, f.name)) for f in dataclasses.fields(s)]


def test_runs_change_no_record():
    # records are slotted, not frozen, so nothing stops an assignment: a
    # sequential run and two workers in threads, which share the fragments,
    # leave every record and derived table as loaded
    scenario = parse_scenario(serialize_scenario(lanes_grid(steps=40)))
    subs = build_subnetworks(scenario, partition_nodes(scenario, 2, seed=0))
    scenarios = [scenario, *(sub.fragment for sub in subs)]
    before = [_field_reprs(s) for s in scenarios]
    run_sequential(scenario)
    run_in_threads(subs, scenario.sim.steps)
    assert [_field_reprs(s) for s in scenarios] == before


class TestDistributed:
    def test_n1_identical_to_sequential(self, merge_diverge):
        seq = run_sequential(merge_diverge, steps=60)
        dist = run_distributed(merge_diverge, 1, steps=60)
        assert dist.rows == seq.rows
        assert dist.metrics["per_step"] == seq.metrics["per_step"]

    def test_grid_bitwise_both_counts(self):
        s = generate_grid(4, 4)
        seq = run_sequential(s, steps=80)
        for n in (2, 4):
            dist = run_distributed(s, n, transport="local", steps=80, seed=1)
            assert rows_to_csv(dist.rows) == rows_to_csv(seq.rows)

    def test_repeat_runs_identical(self, merge_diverge):
        a = run_distributed(merge_diverge, 3, steps=60, seed=5)
        b = run_distributed(merge_diverge, 3, steps=60, seed=5)
        assert a.rows == b.rows
        assert a.metrics["per_step"] == b.metrics["per_step"]

    def test_comm_time_zero_for_n1(self, merge_diverge):
        dist = run_distributed(merge_diverge, 1, steps=20)
        assert dist.timing["workers"][0]["comm"]["total_s"] == 0.0
        seq = run_sequential(merge_diverge, steps=20)
        assert seq.timing["workers"][0]["comm"]["total_s"] == 0.0

    def test_wall_covers_worker_spans(self, merge_diverge):
        dist = run_distributed(merge_diverge, 3, steps=40)
        busiest = max(
            w["setup_s"] + w["compute_s"] + w["comm"]["total_s"]
            for w in dist.timing["workers"]
        )
        assert dist.timing["wall_s"] >= busiest - 1e-6

    def test_singleton_subset_with_through_traffic(self):
        # node 2 alone in its subset: the connection at it removes from one
        # overlap link and delivers into another within the same message
        doc = chain_doc(cells_per_link=2, links=3, demand=0.4)
        s = parse_scenario(json.dumps(doc))
        subs = build_subnetworks(s, NodePartition(2, {0: 0, 1: 0, 2: 1, 3: 0}))
        assert set(subs[1].relative_sources) == {1}
        assert set(subs[1].relative_sinks) == {2}
        seq = run_sequential(s, steps=60)
        dist = run_distributed(subs=subs, steps=60)
        assert rows_to_csv(dist.rows) == rows_to_csv(seq.rows)

    def test_cut_source_link_injects_once(self):
        # the source link itself crosses the cut: both replicas inject, the
        # vehicles are counted once, and results stay bitwise sequential
        doc = chain_doc(cells_per_link=2, links=2, demand=0.8)
        s = parse_scenario(json.dumps(doc))
        subs = build_subnetworks(s, NodePartition(2, {0: 0, 1: 1, 2: 1}))
        assert subs[0].relative_sinks == (0,)
        assert subs[1].relative_sources == (0,)
        for sub in subs:
            assert any(r.link == 0 for r in sub.fragment.demands)
        seq = run_sequential(s, steps=80)
        dist = run_distributed(subs=subs, steps=80)
        assert rows_to_csv(dist.rows) == rows_to_csv(seq.rows)
        assert dist.metrics["per_step"] == seq.metrics["per_step"]

    def test_cut_flagged_midnetwork_source(self):
        # a link fed by upstream connections and flagged as a source gets
        # node-model arrivals plus its own injections; cutting its start
        # node must not change anything
        doc = chain_doc(cells_per_link=2, links=3, demand=0.5)
        doc["links"][1]["is_source"] = True
        doc["demands"].append(
            {"link": 1, "vtype": 1, "profile": [{"start_time": 0.0, "flow": 0.4}]}
        )
        doc["vehicletypes"].append({"id": 1, "routing": {"type": "probabilistic"}})
        doc["splits"] = [
            {"node": 2, "in_link": 1, "vtype": 1, "start_time": 0.0, "ratios": {"2": 1.0}}
        ]
        s = parse_scenario(json.dumps(doc))
        subs = build_subnetworks(s, NodePartition(2, {0: 0, 1: 0, 2: 1, 3: 1}))
        assert 1 in subs[0].relative_sinks and 1 in subs[1].relative_sources
        seq = run_sequential(s, steps=80)
        dist = run_distributed(subs=subs, steps=80)
        assert rows_to_csv(dist.rows) == rows_to_csv(seq.rows)
        assert dist.metrics["conservation_max_abs_error"] <= 1e-9
        assert seq.metrics["conservation_max_abs_error"] <= 1e-9

    def test_overlap_owned_by_upstream_side(self):
        doc = chain_doc(cells_per_link=2, links=2, demand=0.3)
        s = parse_scenario(json.dumps(doc))
        subs = build_subnetworks(s, NodePartition(2, {0: 0, 1: 0, 2: 1}))
        up = Engine(subs[0].fragment, set(subs[0].owned_nodes))
        down = Engine(subs[1].fragment, set(subs[1].owned_nodes))
        assert subs[0].relative_sinks == (1,)
        assert up.links[1].authoritative
        assert not down.links[1].authoritative
        # merged dump carries link 1 exactly once, from the upstream side
        dist = run_distributed(subs=subs, steps=30)
        seq = run_sequential(s, steps=30)
        assert dist.rows == seq.rows


def _die_at_step_2(monkeypatch, die=lambda: os._exit(9)):
    """Make worker 1 call `die()` at step 2, by default exiting with code 9,
    and a sequential run raise there."""
    phase_a = Engine.phase_a

    def dying_phase_a(engine, step):
        if step == 2:
            sub = engine.scenario.subnetwork
            if sub is None:
                raise InternalAssertion("phase A failed at step 2")
            if sub.index == 1:
                die()
        return phase_a(engine, step)

    monkeypatch.setattr(Engine, "phase_a", dying_phase_a)


class TestDeadWorker:
    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_dead_worker_fails_fast_and_is_named(self, monkeypatch, transport):
        # worker 1 dies at step 2; its peer must see EOF at once rather than
        # wait out the 30 s exchange timeout, and the error names worker 1
        _die_at_step_2(monkeypatch)
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match=r"worker 1 exited with code 9"):
            run_distributed(generate_grid(3, 3), 2, transport=transport, steps=10, timeout=30)
        assert time.monotonic() - t0 < 5.0

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_worker_killed_from_outside_is_named(self, monkeypatch, transport):
        # -SIGTERM is also the code terminate() leaves, but worker 1's
        # missing result is the first failure the parent reads
        _die_at_step_2(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGTERM))
        with pytest.raises(ProtocolError, match=rf"worker 1 exited with code {-signal.SIGTERM}"):
            run_distributed(generate_grid(3, 3), 2, transport=transport, steps=10, timeout=30)


class LinkDown(ProtocolError):
    """An error class that no module of the program names."""

    exit_code = 5


def _raise(error):
    raise error


class TestWorkerError:
    def test_error_reaches_caller_as_itself(self, monkeypatch):
        _die_at_step_2(monkeypatch, lambda: _raise(LinkDown("link 7 is down")))
        with pytest.raises(LinkDown) as caught:
            run_distributed(generate_grid(3, 3), 2, steps=10, timeout=30)
        assert (str(caught.value), caught.value.exit_code) == ("link 7 is down", 5)

    def test_other_exception_arrives_with_its_traceback(self, monkeypatch):
        _die_at_step_2(monkeypatch, lambda: _raise(ZeroDivisionError("no lanes")))
        with pytest.raises(CtmError) as caught:
            run_distributed(generate_grid(3, 3), 2, steps=10, timeout=30)
        assert type(caught.value) is CtmError and caught.value.exit_code == 1
        assert "Traceback" in str(caught.value)
        assert "ZeroDivisionError: no lanes" in str(caught.value)


def _stall_half_frame(monkeypatch):
    """Make worker 1 write half of its step-2 frame and then sleep for 60 s."""
    send_frame = SocketDuplex.send_frame

    def stalling_send(duplex, data, *args):
        step, sender = HEADER.unpack_from(data)[:2]
        if (step, sender) == (2, 1):
            duplex.sock.sendall(data[: len(data) // 2])
            time.sleep(60)
        send_frame(duplex, data, *args)

    monkeypatch.setattr(SocketDuplex, "send_frame", stalling_send)


class TestStalledWorker:
    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_half_frame_times_out(self, monkeypatch, transport):
        # worker 0 must give up within the exchange timeout, not wait for
        # the rest of the frame
        _stall_half_frame(monkeypatch)
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match=r"worker 0: .*step 2: timed out"):
            run_distributed(generate_grid(3, 3), 2, transport=transport, steps=5, timeout=1.0)
        assert time.monotonic() - t0 < 10.0

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_failure_stops_the_stalled_peer(self, monkeypatch, transport):
        # once worker 0 has reported, the run stops the sleeping worker 1
        # instead of waiting on it: about the 1 s timeout plus set-up
        _stall_half_frame(monkeypatch)
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match=r"worker 0: .*step 2: timed out"):
            run_distributed(generate_grid(3, 3), 2, transport=transport, steps=5, timeout=1.0)
        assert time.monotonic() - t0 < 2.5


def _bounded_in_child(fn, seconds):
    """fn()'s result, computed in a forked child that leads its own process
    group; if no result arrives within `seconds`, the group (the child and
    every worker it forked) is killed and the test fails."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def body():
        os.setpgid(0, 0)
        try:
            sender.send(("ok", fn()))
        except Exception as e:  # noqa: BLE001 - reported to the test
            sender.send(("error", repr(e)))

    proc = ctx.Process(target=body)
    proc.start()
    sender.close()
    arrived = receiver.poll(seconds)
    outcome = receiver.recv() if arrived else ("hung", f"no result after {seconds}s")
    if not arrived:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.join()
    assert outcome[0] == "ok", outcome[1]
    return outcome[1]


class TestOrderedExchange:
    def test_checkerboard_cut_over_socketpairs(self, monkeypatch):
        # the checker-tcp2 benchmark inputs: every junction-to-junction link
        # crosses the cut, so each handshake frame is about 310 KB, larger
        # than a socketpair's buffer, and both directions send at once
        workloads = load_workloads(monkeypatch)
        scenario = workloads.grid_scenario(1, 3)
        subs = build_subnetworks(scenario, workloads.checker_partition(scenario, 30, 30, 1))
        dist = _bounded_in_child(
            lambda: rows_to_csv(run_distributed(subs=subs, steps=3, timeout=5.0).rows), 60.0
        )
        assert dist == rows_to_csv(run_sequential(scenario, steps=3).rows)


class TestDecoderFileCheck:
    """Supplied decoder maps are compared with the maps each worker derives
    from its own fragment, before any worker starts.  Owning nodes 0-4 of
    the merge fixture, worker 0 delivers into link 4 (lane groups 0 and 1;
    commodities (0, 5), (1, 5) and (1, 6)) through connections 2 and 3; link
    5 is carried there only as the stub end of connection 4.  Both workers
    are given the one corrupted 0->1 map, as both read one decoder file."""

    @pytest.mark.parametrize(
        "pos, bad",
        [
            (0, (4, 5, 0, 0, 7)),
            (0, (2, 5, 0, 0, 7)),
            (0, (2, 4, 0, 0, 6)),
            (0, (2, 4, 2, 0, 5)),
            (1, (2, 4, 0, 0, 5)),
            (0, (2, 4, 0, 0, 99)),
        ],
        ids=[
            "link-not-simulated-here",
            "link-not-on-connection-2",
            "commodity-cannot-occur",
            "no-lane-group-2",
            "slot-listed-twice",
            "next-link-99",
        ],
    )
    def test_corrupt_map_rejected_before_first_step(self, merge_diverge, pos, bad):
        cut = NodePartition(2, {nid: int(nid >= 5) for nid in merge_diverge.nodes})
        subs = build_subnetworks(merge_diverge, cut)
        good = build_decoder_map(subs[0], 1)
        slots = list(good.slots)
        slots[pos] = bad
        corrupt = DecoderMap(sender=0, receiver=1, slots=tuple(slots))
        back = build_decoder_map(subs[1], 0)
        decoders = {0: {1: (corrupt, back)}, 1: {0: (back, corrupt)}}
        detail = re.escape(f"slot {pos}: {bad} != {good.slots[pos]}")
        for sub in subs:
            with pytest.raises(ProtocolError, match=rf"decoder map 0->1 differs .*: {detail}"):
                check_decoder_maps(sub, decoders[sub.index])


class TestFragmentSetCheck:
    """Fragments handed to a run must make one partition; any other set is
    a scenario error raised before a worker starts or a socket connects."""

    @pytest.fixture
    def grid_subs(self):
        # fragment 0 shares link 0 with fragment 3, fragment 1 link 4 with 2
        s = generate_grid(3, 3, steps=5)
        return build_subnetworks(s, partition_nodes(s, 4, 0))

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_missing_neighbor(self, grid_subs, transport):
        t0 = time.monotonic()
        with pytest.raises(
            ScenarioError, match=r"fragment 0 shares link 0 with fragment 3, which is not among"
        ):
            run_distributed(subs=grid_subs[:2], transport=transport, steps=2, timeout=5.0)
        assert time.monotonic() - t0 < 5.0

    @pytest.mark.parametrize("steps", [None, 2])
    def test_no_fragments(self, steps):
        with pytest.raises(ScenarioError, match=r"^run_distributed needs at least one fragment$"):
            run_distributed(subs=[], steps=steps, timeout=5.0)

    def test_indices_out_of_order(self, grid_subs):
        subs = [grid_subs[0], grid_subs[1], grid_subs[3]]
        with pytest.raises(ScenarioError, match=r"fragment 2 of 3 has index 3"):
            run_distributed(subs=subs, steps=2, timeout=5.0)

    @staticmethod
    def cut_at(scenario, first):
        """The merge fixture's fragments, nodes from `first` on in fragment 1."""
        return build_subnetworks(
            scenario, NodePartition(2, {nid: int(nid >= first) for nid in scenario.nodes})
        )

    def test_link_not_shared_back(self, merge_diverge):
        # fragment 0 of the cut at node 5 shares link 4; fragment 1 of the
        # cut at node 6 shares links 5 and 6 instead
        subs = [self.cut_at(merge_diverge, 5)[0], self.cut_at(merge_diverge, 6)[1]]
        with pytest.raises(
            ScenarioError, match=r"fragment 0 shares link 4 with fragment 1, which does not share"
        ):
            run_distributed(subs=subs, steps=2, timeout=5.0)

    def test_node_owned_by_two_fragments(self, merge_diverge):
        # fragment 1 also claims node 4, the start of link 4, which fragment
        # 0 owns, so both sides would report link 4
        subs = self.cut_at(merge_diverge, 5)
        meta = subs[1].fragment.subnetwork
        meta = dataclasses.replace(meta, owned_nodes=(4, *meta.owned_nodes))
        subs[1] = Subnetwork(dataclasses.replace(subs[1].fragment, subnetwork=meta))
        with pytest.raises(ScenarioError, match=r"node 4 is owned by fragments 0 and 1"):
            run_distributed(subs=subs, steps=2, timeout=5.0)

    def test_settings_differ(self, grid_subs):
        frag = grid_subs[2].fragment
        grid_subs[2] = Subnetwork(
            dataclasses.replace(frag, sim=dataclasses.replace(frag.sim, lane_change_rate=0.25))
        )
        with pytest.raises(
            ScenarioError, match=r"fragment 2: simulation.lane_change_rate is 0.25, fragment 0's"
        ):
            run_distributed(subs=grid_subs, steps=2, timeout=5.0)

    def test_vehicle_types_differ(self, grid_subs):
        frag = grid_subs[1].fragment
        types = dict(frag.vehicle_types)
        types[0] = dataclasses.replace(types[0], routing="deterministic", path=(0,))
        grid_subs[1] = Subnetwork(dataclasses.replace(frag, vehicle_types=types))
        with pytest.raises(ScenarioError, match=r"fragment 1: vehicle type 0 differs"):
            run_distributed(subs=grid_subs, steps=2, timeout=5.0)


class TestConservationCheck:
    @pytest.mark.parametrize("mode", ["sequential", "local"])
    def test_violation_names_its_step(self, monkeypatch, mode):
        phase_b = Engine.phase_b

        def leaky_phase_b(engine, plan, received=()):
            stats = phase_b(engine, plan, received)
            if plan.time == 3 * engine.dt:
                stats.in_network += 1.0
            return stats

        monkeypatch.setattr(Engine, "phase_b", leaky_phase_b)
        scenario = generate_grid(3, 3)
        with pytest.raises(InternalAssertion, match=r"conservation violated at step 3: "):
            if mode == "sequential":
                run_sequential(scenario, steps=6)
            else:
                run_distributed(scenario, 2, transport=mode, steps=6, timeout=30)


def _set_up_stage(stage: str):
    """Build the inputs of one set-up stage and return a call that runs it."""
    scenario = lanes_grid()
    if stage == "parse":
        text = serialize_scenario(scenario)
        return lambda: parse_scenario(text)
    if stage == "rejected_parse":
        doc = scenario_to_dict(scenario)
        doc["roadconnections"][-1]["in_lanes"] = [1, True]
        text = json.dumps(doc)

        def rejected():
            try:
                parse_scenario(text)
            except ScenarioError:
                return
            pytest.fail("the parse did not reject the document")

        return rejected
    if stage == "engine":
        return lambda: Engine(scenario)
    if stage == "partition":
        return lambda: build_subnetworks(scenario, partition_nodes(scenario, 2, seed=1))
    subs = build_subnetworks(scenario, partition_nodes(scenario, 2, seed=1))
    if stage == "decoder_maps":
        return lambda: [
            (build_decoder_map(sub, nb), build_receive_map(sub, nb))
            for sub in subs
            for nb in sub.neighbors()
        ]
    assert stage == "handshake"
    ends = socket.socketpair()
    channels = [
        _worker_channels(sub, {1 - sub.index: SocketDuplex(end)})
        for sub, end in zip(subs, ends)
    ]
    peer = threading.Thread(target=establish, args=(channels[1], 10.0))

    def handshake():
        peer.start()
        establish(channels[0], 10.0)
        peer.join(30.0)
        assert not peer.is_alive()
        for end in ends:
            end.close()

    return handshake


class TestCollectorPause:
    """Set-up and the step loop run with the cyclic collector paused.  That
    is safe only while they make no reference cycles, and polite only while
    the caller's collector state comes back as it was."""

    @pytest.fixture
    def collector_off(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize(
        "make",
        [lanes_grid, lambda: parse_scenario(json.dumps(merge_diverge_doc()))],
        ids=["lanes_grid", "merge_diverge"],
    )
    def test_sequential_run_makes_no_cycles(self, collector_off, make):
        scenario = make()
        gc.collect()
        result = run_sequential(scenario)
        assert result.rows
        assert gc.collect() == 0

    @pytest.mark.parametrize(
        "stage",
        ["parse", "rejected_parse", "engine", "partition", "decoder_maps", "handshake"],
    )
    def test_set_up_makes_no_cycles(self, collector_off, stage):
        run = _set_up_stage(stage)
        gc.collect()
        run()
        assert gc.collect() == 0

    def test_encode_decode_round_trip_makes_no_cycles(self, collector_off):
        scenario = lanes_grid()
        subs = build_subnetworks(scenario, partition_nodes(scenario, 2, seed=1))
        engines = {sub.index: Engine(sub.fragment, set(sub.owned_nodes)) for sub in subs}
        tables = {
            (sub.index, nb): (
                build_decoder_map(sub, nb).positions,
                build_receive_map(sub, nb).positions,
            )
            for sub in subs
            for nb in sub.neighbors()
        }
        assert tables
        gc.collect()
        mailbox = {}
        lockstep(engines, tables, 60, on_messages=lambda step, messages: mailbox.update(messages))
        assert any(any(values) for values in mailbox.values())
        assert gc.collect() == 0

    def test_setup_timing_runs_paused(self, monkeypatch):
        # it times the set-up a run does, and a run does it paused
        seen = []
        partition = runner.partition_nodes

        def partition_nodes(*args):
            seen.append(gc.isenabled())
            return partition(*args)

        monkeypatch.setattr(runner, "partition_nodes", partition_nodes)
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            assert setup_timing(generate_grid(3, 3), 2) > 0.0
            assert gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("mode", ["sequential", "local", "tcp", "parse", "load"])
    @pytest.mark.parametrize("fails", [False, True], ids=["completes", "fails"])
    def test_caller_collector_state_restored(
        self, monkeypatch, tmp_path, enabled, mode, fails
    ):
        scenario = generate_grid(3, 3)
        loading = mode in ("parse", "load")
        text = serialize_scenario(scenario)
        if fails and loading:
            doc = scenario_to_dict(scenario)
            doc["links"][-1]["lanes"] = True
            text = json.dumps(doc)
        elif fails:
            _die_at_step_2(monkeypatch)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        was_enabled = gc.isenabled()
        frozen = gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            expected = ScenarioError if loading else (InternalAssertion, ProtocolError)
            with pytest.raises(expected) if fails else contextlib.nullcontext():
                if mode == "parse":
                    parse_scenario(text)
                elif mode == "load":
                    load_scenario(str(path))
                elif mode == "sequential":
                    run_sequential(scenario, steps=5)
                else:
                    run_distributed(scenario, 2, transport=mode, steps=5, timeout=30)
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestMergeStates:
    def test_identity_for_single_worker(self, merge_diverge):
        res = run_sequential(merge_diverge, steps=30)
        assert merge_states([res.rows]) == sorted(res.rows)

    def test_duplicate_claim_rejected(self):
        row = (10, 4, 0, 0, 1, 5, 1.25)
        with pytest.raises(InternalAssertion, match=r"ownership conflict"):
            merge_states([[row], [row]])


class TestTimeoutCheck:
    """A timeout that is not a positive finite number of seconds is a config
    error, raised before any worker starts or any socket connects."""

    @pytest.mark.parametrize("timeout", [-1.0, 0.0, float("inf"), float("nan")])
    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_run_distributed(self, monkeypatch, transport, timeout):
        started = InternalAssertion("a worker started")
        monkeypatch.setattr(runner.Engine, "phase_a", lambda *args: _raise(started))
        with pytest.raises(ScenarioError, match=r"timeout must be a positive finite"):
            run_distributed(generate_grid(2, 2), 2, transport=transport, steps=2, timeout=timeout)

    @pytest.mark.parametrize("timeout", [-1.0, 0.0, float("inf"), float("nan")])
    def test_run_tcp_worker(self, timeout):
        # the connect step of a TCP worker, forked or joined
        s = generate_grid(2, 2)
        sub = build_subnetworks(s, partition_nodes(s, 2, 0))[0]
        listener = tcp_listener()
        roster = {i: listener.getsockname() for i in range(2)}
        # bounded: without the check, an infinite or NaN timeout waits for
        # the neighbour forever
        (error,) = run_bounded(
            [lambda: runner.connect_tcp_worker(sub, roster, listener, 2, timeout)], 10.0
        )
        assert isinstance(error, ScenarioError)
        assert "timeout must be a positive finite" in str(error)
        assert listener.fileno() == -1  # closed


class TestDumps:
    def test_round_trip(self, merge_diverge, tmp_path):
        res = run_sequential(merge_diverge, steps=30)
        path = tmp_path / "dump.csv"
        write_dump(res.rows, str(path))
        text = path.read_text()
        assert parse_dump(text) == res.rows

    def test_diff_equal(self, merge_diverge):
        res = run_sequential(merge_diverge, steps=30)
        text = rows_to_csv(res.rows)
        assert diff_dumps(text, text) is None

    def test_diff_pinpoints_perturbation(self, merge_diverge):
        res = run_sequential(merge_diverge, steps=30)
        text = rows_to_csv(res.rows)
        lines = text.splitlines()
        parts = lines[5].split(",")
        parts[6] = repr(float(parts[6]) + 1e-6)
        lines[5] = ",".join(parts)
        report = diff_dumps(text, "\n".join(lines) + "\n")
        assert report is not None
        assert f"step {parts[0]} link {parts[1]}" in report

    def test_diff_tolerance_mode(self, merge_diverge):
        res = run_sequential(merge_diverge, steps=30)
        text = rows_to_csv(res.rows)
        lines = text.splitlines()
        parts = lines[5].split(",")
        parts[6] = repr(float(parts[6]) * (1.0 + 1e-13))
        perturbed = "\n".join(lines[:5] + [",".join(parts)] + lines[6:]) + "\n"
        assert diff_dumps(text, perturbed) is not None
        assert diff_dumps(text, perturbed, tol=1e-12) is None

    def test_diff_schema_mismatch(self):
        with pytest.raises(ScenarioError, match=r"schema"):
            diff_dumps("foo,bar\n1,2\n", "foo,bar\n3,4\n")


class TestBenchmark:
    def test_single_n_speedup_is_one(self, merge_diverge):
        report = benchmark(merge_diverge, [1], steps=30)
        assert report["rows"][0]["speedup"] == 1.0
        assert report["rows"][0]["compute_speedup"] == 1.0
        assert report["rows"][0]["comm_s"] == 0.0
        assert report["rows"][0]["ideal_rate"] == report["rows"][0]["rate"]

    def test_unknown_transport_rejected_before_any_row(self, merge_diverge):
        # an n=1 first row runs sequentially and never reads the transport
        with pytest.raises(ScenarioError, match=r"unknown transport 'bogus'"):
            benchmark(merge_diverge, [1], steps=5, transport="bogus")

    def test_speedup_bounded_by_n(self):
        s = generate_grid(6, 6)
        report = benchmark(s, [1, 2], steps=25)
        for row in report["rows"]:
            assert row["speedup"] <= row["n"] + 1e-9
            assert row["compute_speedup"] == report["rows"][0]["compute_s"] / row["compute_s"]
        assert report["rows"][1]["ideal_rate"] == pytest.approx(
            2 * report["rows"][0]["rate"]
        )
        # communication share grows with worker count (zero when serial)
        ratios = [
            row["comm_s"] / max(row["compute_s"], 1e-12) for row in report["rows"]
        ]
        assert ratios[0] == 0.0
        assert ratios[1] > 0.0

    def test_compute_speedup_needs_serial_first_row(self, merge_diverge):
        report = benchmark(merge_diverge, [2], steps=10)
        assert report["rows"][0]["speedup"] == 1.0
        assert report["rows"][0]["compute_speedup"] is None
