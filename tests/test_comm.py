"""Channel encoding, the decoder handshake, and exchange protocol errors."""

import json
import socket
import struct
import threading
import time
from types import SimpleNamespace

import pytest

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
    pack_frame,
    tcp_connect_channels,
    tcp_listener,
)
from ctmdist.errors import ProtocolError
from ctmdist.partition import DecoderMap, NodePartition, build_decoder_map, build_subnetworks
from ctmdist.scenario import parse_scenario

from conftest import link
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


def four_slot_table():
    """The engine keys of `four_slot_map()`, as derived for the fragment that
    owns nodes 0-2 of a network where links 7 and 8 feed link 9 through
    connections 0 and 1, and link 9 leads on to link 11 past the cut; both
    vehicle types route probabilistically, so link 9 carries (0, 11) and
    (1, 11) at positions 0 and 1."""
    doc = {
        "nodes": [{"id": i} for i in range(5)],
        "links": [link(7, 0, 2), link(8, 1, 2), link(9, 2, 3), link(11, 3, 4)],
        "roadconnections": [
            {"id": 0, "in_link": 7, "out_link": 9},
            {"id": 1, "in_link": 8, "out_link": 9},
            {"id": 2, "in_link": 9, "out_link": 11},
        ],
        "vehicletypes": [{"id": vt, "routing": {"type": "probabilistic"}} for vt in (0, 1)],
        "simulation": {"dt": 2.0, "steps": 5},
    }
    cut = NodePartition(2, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1})
    send = build_decoder_map(build_subnetworks(parse_scenario(json.dumps(doc)), cut)[0], 1)
    assert send == four_slot_map()
    return send.positions


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
        overlap_links=(9,),
        duplex=SocketDuplex(a_end),
    )
    ch_b = NeighborChannel(
        local=send_ba.sender,
        remote=send_ba.receiver,
        send_map=send_ba,
        recv_map=send_ab,
        overlap_links=(9,),
        duplex=SocketDuplex(b_end),
    )
    return ch_a, ch_b


class TestEncodeDecode:
    # records are (link, connection, group, commodity position, vehicles)
    def test_no_records_all_zero_fixed_length(self):
        table = four_slot_table()
        assert encode(table, []) == [0.0, 0.0, 0.0, 0.0]

    def test_single_record_lands_on_its_slot(self):
        table = four_slot_table()
        values = encode(table, [(9, 1, 0, 1, 2.5)])
        assert values == [0.0, 0.0, 0.0, 2.5]

    def test_round_trip_identity(self):
        table = four_slot_table()
        records = [(9, 0, 0, 0, 1.25), (9, 1, 0, 1, 0.5)]
        assert decode(table, encode(table, records)) == records

    def test_zero_slots_produce_no_records(self):
        table = four_slot_table()
        assert decode(table, [0.0, 0.0, 0.0, 0.0]) == []

    def test_unknown_record_rejected(self):
        table = four_slot_table()
        with pytest.raises(ProtocolError, match=r"no slot"):
            encode(table, [(9, 7, 0, 0, 1.0)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match=r"length"):
            decode(four_slot_table(), [0.0, 0.0])


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


def _run_bounded(fns, seconds=30.0):
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


def _run_both(side_a, side_b):
    return _run_bounded([side_a, side_b])


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
        ch_a = NeighborChannel(0, 1, bad_ab, good_ba, (9,), SocketDuplex(a_end))
        ch_b = NeighborChannel(1, 0, good_ba, good_ab, (9,), SocketDuplex(b_end))
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


class TestExchange:
    def test_two_workers_swap_intact(self):
        ch_a, ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))
        payload_a = [1.0, 2.25, 0.0, 4.5]
        payload_b = [0.5, 0.0, 0.125, 9.0]
        got = [None, None]

        def side_a():
            got[0] = exchange([ch_a], {1: payload_a}, step=3, timeout=5.0)

        def side_b():
            got[1] = exchange([ch_b], {0: payload_b}, step=3, timeout=5.0)

        errors = _run_both(side_a, side_b)
        assert errors == [None, None]
        assert got[0] == {1: payload_b}
        assert got[1] == {0: payload_a}

    def test_step_index_mismatch_is_fatal(self):
        ch_a, ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))

        def side_a():
            exchange([ch_a], {1: [0.0] * 4}, step=7, timeout=5.0)

        def side_b():
            exchange([ch_b], {0: [0.0] * 4}, step=8, timeout=5.0)

        errors = _run_both(side_a, side_b)
        assert any(
            isinstance(e, ProtocolError) and "step-index mismatch" in str(e)
            for e in errors
        )

    def test_wrong_length_message_is_fatal(self):
        ch_a, ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))
        ch_b.duplex.send_frame(pack_frame(0, 1, 0, [1.0, 2.0]))
        with pytest.raises(ProtocolError, match=r"2 values"):
            exchange([ch_a], {1: [0.0] * 4}, step=0, timeout=5.0)

    def test_timeout_names_duration(self):
        ch_a, _ch_b = pipe_channel_pair(four_slot_map(0, 1), four_slot_map(1, 0))
        with pytest.raises(ProtocolError, match=r"timed out"):
            exchange([ch_a], {1: [0.0] * 4}, step=0, timeout=0.05)

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
                        i, j, four_slot_map(i, j), four_slot_map(j, i), (9,),
                        SocketDuplex(ends[(i, j)]),
                    )
                )
            channels[i] = chs
        payloads = {i: [float(i), float(i) + 0.5, 0.0, 42.0] for i in range(4)}
        got = [None] * 4
        errors = [None] * 4

        def worker(i):
            try:
                outbox = {ch.remote: payloads[i] for ch in channels[i]}
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
                (i - 1) % 4: payloads[(i - 1) % 4],
                (i + 1) % 4: payloads[(i + 1) % 4],
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
        step, sender, receiver, got, _payload = duplex_b.recv_frame(timeout=2.0)
        assert (step, sender, receiver) == (12, 3, 4)
        assert got == values
        assert struct.pack("<4d", *got) == struct.pack("<4d", *values)

    def test_handshake_frame_carries_raw_bytes(self):
        a, b = socket.socketpair()
        duplex_a, duplex_b = SocketDuplex(a), SocketDuplex(b)
        hello = b'{"sender":0,"receiver":1,"slots":[]}'
        duplex_a.send_frame(HEADER.pack(HANDSHAKE_STEP, 0, 1, len(hello)) + hello)
        step, _s, _r, values, payload = duplex_b.recv_frame(timeout=2.0)
        assert step == HANDSHAKE_STEP
        assert values == []
        assert payload == hello


# 4 MiB of doubles per frame: far beyond any socket buffer
BIG = 1 << 19


def synthetic_channel(local, remote, sock, length=BIG):
    """A channel whose maps only give the message length."""
    layout = SimpleNamespace(message_length=length)
    return NeighborChannel(local, remote, layout, layout, (), SocketDuplex(sock))


def tcp_socket_pair(timeout=10.0):
    """Sockets of workers 0 and 1 joined the way a TCP run joins them."""
    listeners = {i: tcp_listener() for i in (0, 1)}
    roster = {i: ("127.0.0.1", listeners[i].getsockname()[1]) for i in (0, 1)}
    joined = {}

    def join(i):
        with listeners[i]:
            joined[i] = tcp_connect_channels(i, [1 - i], roster, listeners[i], timeout)

    assert _run_bounded([lambda: join(0), lambda: join(1)]) == [None, None]
    _opened.extend((joined[0][1].sock, joined[1][0].sock))
    return joined[0][1].sock, joined[1][0].sock


class TestOrderedSwap:
    """Both directions of a channel carry frames larger than the kernel's
    socket buffer at once, and no wait outlasts the timeout."""

    @pytest.mark.parametrize("transport", ["socketpair", "tcp"])
    def test_four_megabyte_frames_both_ways(self, transport):
        a, b = socketpair() if transport == "socketpair" else tcp_socket_pair()
        ch_a, ch_b = synthetic_channel(0, 1, a), synthetic_channel(1, 0, b)
        out_a = [float(k) for k in range(BIG)]
        out_b = [-float(k) for k in range(BIG)]
        got = [None, None]

        def side(idx, ch, outgoing):
            got[idx] = exchange([ch], {ch.remote: outgoing}, step=4, timeout=10.0)

        try:
            errors = _run_bounded(
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
            errors = _run_bounded(
                [lambda: exchange([ch_a], {1: [0.0] * BIG}, step=0, timeout=0.5)], 5.0
            )
        finally:
            a.shutdown(socket.SHUT_RDWR)  # wakes the send if it still blocks
        assert isinstance(errors[0], ProtocolError)
        assert "neighbor 1 failed at step 0: timed out" in str(errors[0])
        assert time.monotonic() - t0 < 2.0
