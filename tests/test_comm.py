"""Channel encoding, the decoder handshake, and exchange protocol errors."""

import json
import socket
import struct
import threading
import time
from array import array
from types import SimpleNamespace

import pytest

from ctmdist import comm
from ctmdist.comm import (
    HANDSHAKE_STEP,
    HEADER,
    NeighborChannel,
    SocketDuplex,
    _verify_hello,
    decode,
    encode,
    establish,
    exchange,
    payload_values,
    tcp_connect_channels,
    tcp_listener,
)
from ctmdist.engine import Engine
from ctmdist.errors import ProtocolError
from ctmdist.partition import (
    DecoderMap,
    NodePartition,
    build_decoder_map,
    build_receive_map,
    build_subnetworks,
)
from ctmdist.scenario import parse_scenario

from conftest import link, run_bounded
from support import pack_frame
from test_partition import path_scenario


def four_slot_map(sender=0, receiver=1):
    return DecoderMap(
        sender=sender,
        receiver=receiver,
        slots=(
            (0, 9, 0, 0, 11),
            (0, 9, 0, 1, 11),
            (1, 9, 0, 0, 11),
            (1, 9, 0, 1, 11),
        ),
    )


def four_slot_cut():
    """A cut whose message from fragment 0 to fragment 1 has the layout of
    `four_slot_map()`: fragment 0 owns nodes 0-2 of a network where links 7
    and 8 feed link 9 through connections 0 and 1, and link 9 leads on to
    link 11 past the cut; both vehicle types route probabilistically, so
    link 9 carries (0, 11) and (1, 11) at positions 0 and 1.  Returns both
    fragments' engines, each bound to its channel, and their receive
    tables."""
    doc = {
        "nodes": [{"id": i} for i in range(5)],
        "links": [link(7, 0, 2), link(8, 1, 2), link(9, 2, 3), link(11, 3, 4)],
        "roadconnections": [
            {"id": 0, "in_link": 7, "out_link": 9},
            {"id": 1, "in_link": 8, "out_link": 9},
            {"id": 2, "in_link": 9, "out_link": 11},
        ],
        "vehicletypes": [{"id": vt, "routing": {"type": "probabilistic"}} for vt in (0, 1)],
        "splits": [
            {"node": 3, "in_link": 9, "vtype": vt, "start_time": 0.0, "ratios": {"11": 1.0}}
            for vt in (0, 1)
        ],
        "simulation": {"dt": 2.0, "steps": 5},
    }
    cut = NodePartition(2, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1})
    subs = build_subnetworks(parse_scenario(json.dumps(doc)), cut)
    assert build_decoder_map(subs[0], 1) == four_slot_map()
    engines, tables = [], []
    for sub in subs:
        nb = 1 - sub.index
        engines.append(Engine(sub.fragment))
        send, receive = build_decoder_map(sub, nb), build_receive_map(sub, nb)
        tables.append(engines[-1].bind_channel(nb, send.positions, receive.positions))
    return engines, tables


def message(values):
    """A payload carrying `values`, as `encode` makes it."""
    return encode(array("d", values))


# sockets a test opened; `close_sockets` closes them after it
_opened: list[socket.socket] = []


def socketpair():
    pair = socket.socketpair()
    _opened.extend(pair)
    return pair


@pytest.fixture(autouse=True)
def close_sockets():
    yield
    while _opened:
        _opened.pop().close()


def pipe_channel_pair(send_ab, send_ba):
    """Two NeighborChannels joined by a socketpair, as local workers are."""
    a_end, b_end = socketpair()
    ch_a = NeighborChannel(
        local=send_ab.sender,
        remote=send_ab.receiver,
        send_map=send_ab,
        recv_map=send_ba,
        duplex=SocketDuplex(a_end),
    )
    ch_b = NeighborChannel(
        local=send_ba.sender,
        remote=send_ba.receiver,
        send_map=send_ba,
        recv_map=send_ab,
        duplex=SocketDuplex(b_end),
    )
    return ch_a, ch_b


class TestEncodeDecode:
    def test_no_records_all_zero_fixed_length(self):
        engines, _tables = four_slot_cut()
        values = engines[0].boundary_records(engines[0].phase_a(0), 1)
        assert values == array("d", [0.0] * 4)
        assert encode(values) == bytes(32)

    def test_single_record_lands_on_its_slot(self):
        # type 1 leaving link 8 through connection 1 fills slot 3 alone
        engines, tables = four_slot_cut()
        engines[0].set_cell_value(8, 0, 1, (1, 9), 1.5)
        engines[0].active.add(8)
        plan = engines[0].phase_a(0)
        values = engines[0].boundary_records(plan, 1)
        assert values == array("d", [0.0, 0.0, 0.0, 1.5])
        engines[0].phase_b(plan)
        assert engines[0].cell_value(9, 0, 0, (1, 11)) == 1.5
        # the far replica applies it to the same cell
        engines[1].phase_b(engines[1].phase_a(0), decode(tables[1], values))
        assert engines[1].cell_value(9, 0, 0, (1, 11)) == 1.5

    def test_round_trip_identity(self):
        _engines, tables = four_slot_cut()
        values = array("d", [1.25, 0.0, 0.0, 0.5])
        payload = encode(values)
        assert payload == struct.pack("<4d", 1.25, 0.0, 0.0, 0.5)
        assert payload_values(payload) == values
        assert decode(tables[1], values) == [(tables[1][0], 1.25), (tables[1][3], 0.5)]

    def test_byte_order_is_little_endian_on_any_machine(self, monkeypatch):
        # on a big-endian machine `array` holds doubles the other way round
        monkeypatch.setattr(comm, "_SWAP", True)
        values = array("d", [1.25, 0.5])
        assert encode(values) == struct.pack(">2d", 1.25, 0.5)
        assert values == array("d", [1.25, 0.5])
        assert payload_values(struct.pack(">2d", 1.25, 0.5)) == values

    def test_zero_slots_produce_no_records(self):
        _engines, tables = four_slot_cut()
        assert decode(tables[1], array("d", [0.0, -0.0, 0.0, 0.0])) == []


class TestChannelTopology:
    def test_isolated_subnetwork_has_no_neighbors(self):
        import conftest
        from ctmdist.scenario import parse_scenario

        doc = {
            "nodes": [{"id": i} for i in range(4)],
            "links": [conftest.link(0, 0, 1), conftest.link(1, 2, 3)],
            "simulation": {"dt": 2.0, "steps": 5},
        }
        s = parse_scenario(json.dumps(doc))
        subs = build_subnetworks(s, NodePartition(2, {0: 0, 1: 0, 2: 1, 3: 1}))
        assert subs[0].neighbors() == ()
        assert exchange([], {}, step=0) == {}

    def test_middle_worker_of_path_has_two_channels(self):
        s = path_scenario(6)
        subs = build_subnetworks(s, NodePartition(3, {i: i // 2 for i in range(6)}))
        assert subs[0].neighbors() == (1,)
        assert subs[1].neighbors() == (0, 2)
        assert subs[2].neighbors() == (1,)


def _run_both(side_a, side_b):
    return run_bounded([side_a, side_b])


class TestEstablish:
    def test_matching_maps_handshake_passes(self):
        ch_a, ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))
        errors = _run_both(lambda: establish([ch_a], 5.0), lambda: establish([ch_b], 5.0))
        assert errors == [None, None]

    def test_corrupted_slot_aborts_both_sides(self):
        good_ab, good_ba = four_slot_map(0, 1), four_slot_map(1, 0)
        bad_slots = list(good_ab.slots)
        bad_slots[2] = (1, 9, 0, 0, 12)  # one corrupted next-link id
        bad_ab = DecoderMap(sender=0, receiver=1, slots=tuple(bad_slots))
        a_end, b_end = socketpair()
        # worker 0 read a corrupted decoder file: its send AND recv views
        # disagree with worker 1's
        ch_a = NeighborChannel(0, 1, bad_ab, good_ba, SocketDuplex(a_end))
        ch_b = NeighborChannel(1, 0, good_ba, good_ab, SocketDuplex(b_end))
        bad_recv = list(good_ba.slots)
        bad_recv[2] = (1, 9, 0, 0, 12)
        ch_a.recv_map = DecoderMap(sender=1, receiver=0, slots=tuple(bad_recv))
        errors = _run_both(lambda: establish([ch_a], 5.0), lambda: establish([ch_b], 5.0))
        assert all(isinstance(e, ProtocolError) for e in errors)
        assert all("slot 2" in str(e) for e in errors)

    def test_handshake_beyond_integer_range_unreadable(self):
        ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))[1]
        hello = b'{"receiver":1,"sender":0,"slots":[[Infinity,9,0,0,11]]}'
        with pytest.raises(ProtocolError, match=r"worker 1: unreadable handshake from 0"):
            _verify_hello(ch_b, hello)

    @pytest.mark.parametrize("value", [b"true", b"11.0", b'"11"'])
    def test_handshake_value_not_integer_unreadable(self, value):
        ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))[1]
        hello = b'{"receiver":1,"sender":0,"slots":[[1,9,0,0,' + value + b"]]}"
        with pytest.raises(ProtocolError, match=r"worker 1: unreadable handshake from 0"):
            _verify_hello(ch_b, hello)


class TestExchange:
    def test_two_workers_swap_intact(self):
        ch_a, ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))
        payload_a = [1.0, 2.25, 0.0, 4.5]
        payload_b = [0.5, 0.0, 0.125, 9.0]
        got = [None, None]

        def side_a():
            got[0] = exchange([ch_a], {1: message(payload_a)}, step=3, timeout=5.0)

        def side_b():
            got[1] = exchange([ch_b], {0: message(payload_b)}, step=3, timeout=5.0)

        errors = _run_both(side_a, side_b)
        assert errors == [None, None]
        assert got[0] == {1: array("d", payload_b)}
        assert got[1] == {0: array("d", payload_a)}

    def test_step_index_mismatch_is_fatal(self):
        ch_a, ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))

        def side_a():
            exchange([ch_a], {1: message([0.0] * 4)}, step=7, timeout=5.0)

        def side_b():
            exchange([ch_b], {0: message([0.0] * 4)}, step=8, timeout=5.0)

        errors = _run_both(side_a, side_b)
        assert any(
            isinstance(e, ProtocolError) and "step-index mismatch" in str(e)
            for e in errors
        )

    def test_wrong_length_message_is_fatal(self):
        ch_a, ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))
        ch_b.duplex.send_frame(pack_frame(0, 1, 0, [1.0, 2.0]))
        with pytest.raises(ProtocolError, match=r"2 values"):
            exchange([ch_a], {1: message([0.0] * 4)}, step=0, timeout=5.0)

    def test_wrong_length_names_both_workers(self):
        # the one check of a received message's length; `decode` trusts it
        ch_a, ch_b = pipe_channel_pair(four_slot_map(2, 5), four_slot_map(5, 2))
        ch_b.duplex.send_frame(pack_frame(0, 5, 2, [1.0, 2.0, 3.0, 4.0, 5.0]))
        with pytest.raises(
            ProtocolError, match=r"^worker 2: message from 5 has 5 values, decoder expects 4$"
        ):
            exchange([ch_a], {5: message([0.0] * 4)}, step=0, timeout=5.0)

    def test_timeout_names_duration(self):
        ch_a, _ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))
        with pytest.raises(ProtocolError, match=r"timed out"):
            exchange([ch_a], {1: message([0.0] * 4)}, step=0, timeout=0.05)

    def test_four_workers_on_a_cycle(self):
        # payload from each neighbor arrives intact on a 4-cycle metagraph
        ends = {}
        for i in range(4):
            j = (i + 1) % 4
            a, b = socketpair()
            ends[(i, j)] = a
            ends[(j, i)] = b
        channels = {}
        for i in range(4):
            chs = []
            for j in ((i - 1) % 4, (i + 1) % 4):
                chs.append(
                    NeighborChannel(
                        i, j, four_slot_map(i, j), four_slot_map(j, i),
                        SocketDuplex(ends[(i, j)]),
                    )
                )
            channels[i] = chs
        payloads = {i: [float(i), float(i) + 0.5, 0.0, 42.0] for i in range(4)}
        got = [None] * 4
        errors = [None] * 4

        def worker(i):
            try:
                outbox = {ch.remote: message(payloads[i]) for ch in channels[i]}
                got[i] = exchange(channels[i], outbox, step=0, timeout=5.0)
            except Exception as e:  # noqa: BLE001
                errors[i] = e

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [None] * 4
        for i in range(4):
            assert got[i] == {
                (i - 1) % 4: array("d", payloads[(i - 1) % 4]),
                (i + 1) % 4: array("d", payloads[(i + 1) % 4]),
            }


class TestTcpFraming:
    def test_truncated_frame_detected(self):
        a, b = socket.socketpair()
        duplex = SocketDuplex(b)
        frame = pack_frame(5, 0, 1, [1.0, 2.0, 3.0])
        a.sendall(frame[: len(frame) - 7])
        a.close()
        with pytest.raises(ProtocolError, match=r"truncated"):
            duplex.recv_frame(timeout=2.0)

    def test_full_frame_round_trip(self):
        a, b = socket.socketpair()
        duplex_a, duplex_b = SocketDuplex(a), SocketDuplex(b)
        values = [0.0, -0.0, 1.5, 2.0**-40]
        duplex_a.send_frame(pack_frame(12, 3, 4, values))
        step, sender, receiver, payload = duplex_b.recv_frame(timeout=2.0)
        got = list(struct.unpack(f"<{len(payload) // 8}d", payload))
        assert (step, sender, receiver) == (12, 3, 4)
        assert got == values
        assert struct.pack("<4d", *got) == struct.pack("<4d", *values)

    def test_handshake_frame_carries_raw_bytes(self):
        a, b = socket.socketpair()
        duplex_a, duplex_b = SocketDuplex(a), SocketDuplex(b)
        hello = b'{"sender":0,"receiver":1,"slots":[]}'
        duplex_a.send_frame(HEADER.pack(HANDSHAKE_STEP, 0, 1, len(hello)) + hello)
        step, _s, _r, payload = duplex_b.recv_frame(timeout=2.0)
        assert step == HANDSHAKE_STEP
        assert payload == hello


# 4 MiB of doubles per frame: far beyond any socket buffer
BIG = 1 << 19


def synthetic_channel(local, remote, sock, length=BIG):
    """A channel whose maps only give the message length."""
    layout = SimpleNamespace(message_length=length)
    return NeighborChannel(local, remote, layout, layout, SocketDuplex(sock))


def tcp_socket_pair(timeout=10.0):
    """Sockets of workers 0 and 1 joined the way a TCP run joins them."""
    listeners = {i: tcp_listener() for i in (0, 1)}
    roster = {i: ("127.0.0.1", listeners[i].getsockname()[1]) for i in (0, 1)}
    joined = {}

    def join(i):
        with listeners[i]:
            joined[i] = tcp_connect_channels(i, [1 - i], roster, listeners[i], timeout)

    assert run_bounded([lambda: join(0), lambda: join(1)]) == [None, None]
    _opened.extend((joined[0][1].sock, joined[1][0].sock))
    return joined[0][1].sock, joined[1][0].sock


class TestOrderedSwap:
    """Both directions of a channel carry frames larger than the kernel's
    socket buffer at once, and no wait outlasts the timeout."""

    @pytest.mark.parametrize("transport", ["socketpair", "tcp"])
    def test_four_megabyte_frames_both_ways(self, transport):
        a, b = socketpair() if transport == "socketpair" else tcp_socket_pair()
        ch_a, ch_b = synthetic_channel(0, 1, a), synthetic_channel(1, 0, b)
        out_a = array("d", [float(k) for k in range(BIG)])
        out_b = array("d", [-float(k) for k in range(BIG)])
        got = [None, None]

        def side(idx, ch, outgoing):
            got[idx] = exchange([ch], {ch.remote: encode(outgoing)}, step=4, timeout=10.0)

        try:
            errors = run_bounded(
                [lambda: side(0, ch_a, out_a), lambda: side(1, ch_b, out_b)], 20.0
            )
        finally:
            for sock in (a, b):  # wakes a side still blocked in a send
                sock.shutdown(socket.SHUT_RDWR)
        assert errors == [None, None]
        assert got[0] == {1: out_b}
        assert got[1] == {0: out_a}

    def test_peer_that_never_reads_fails_the_sender(self):
        a, _b = socketpair()
        ch_a = synthetic_channel(0, 1, a)
        t0 = time.monotonic()
        try:
            errors = run_bounded(
                [lambda: exchange([ch_a], {1: message([0.0] * BIG)}, step=0, timeout=0.5)], 5.0
            )
        finally:
            a.shutdown(socket.SHUT_RDWR)  # wakes the send if it still blocks
        assert isinstance(errors[0], ProtocolError)
        assert "neighbor 1 failed at step 0: timed out" in str(errors[0])
        assert time.monotonic() - t0 < 2.0
