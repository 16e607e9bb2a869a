"""Neighbor exchange over the metagraph: fixed-size float messages.

Each metagraph edge gets one duplex channel.  A message is a frame:

    header  <QIII  step, sender index, receiver index, value count
    payload <d * count  IEEE-754 doubles, one per decoder-map slot

Little-endian throughout; values pass bit-exactly, which the
distributed-equals-sequential guarantee relies on.  Two transports move
frames: OS pipes between forked worker processes ("local") and
length-delimited TCP sockets ("tcp").  `establish` performs a decoder-map
handshake on every channel and aborts on any mismatch; `exchange` is the
per-step synchronous swap with step-index verification.

See docs/wire-format.md.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from dataclasses import dataclass

from .engine import EntryRecord
from .errors import ProtocolError
from .partition import DecoderMap, SlotEntry

HEADER = struct.Struct("<QIII")
HANDSHAKE_STEP = 0xFFFFFFFFFFFFFFFF
DEFAULT_TIMEOUT = 30.0


def pack_frame(step: int, sender: int, receiver: int, values: list[float]) -> bytes:
    return HEADER.pack(step, sender, receiver, len(values)) + struct.pack(
        f"<{len(values)}d", *values
    )


def unpack_payload(count: int, payload: bytes) -> list[float]:
    return list(struct.unpack(f"<{count}d", payload))


class Duplex:
    """Reliable ordered byte stream with framed reads."""

    def send_frame(self, data: bytes) -> None:
        raise NotImplementedError

    def recv_frame(self, timeout: float) -> tuple[int, int, int, list[float], bytes]:
        """Returns (step, sender, receiver, values, raw payload)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class PipeDuplex(Duplex):
    """Frames over a multiprocessing connection (forked local workers)."""

    def __init__(self, conn):
        self.conn = conn

    def send_frame(self, data: bytes) -> None:
        self.conn.send_bytes(data)

    def recv_frame(self, timeout: float):
        if not self.conn.poll(timeout):
            raise ProtocolError(f"timed out after {timeout}s waiting for a frame")
        try:
            data = self.conn.recv_bytes()
        except (EOFError, OSError) as e:
            raise ProtocolError(f"channel closed mid-exchange: {e}") from None
        return _split_frame(data)

    def close(self) -> None:
        self.conn.close()


class SocketDuplex(Duplex):
    """Frames over a TCP socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (e.g. a socketpair in tests)

    def send_frame(self, data: bytes) -> None:
        try:
            self.sock.sendall(data)
        except OSError as e:
            raise ProtocolError(f"send failed: {e}") from None

    def _recv_exact(self, size: int, deadline: float) -> bytes:
        chunks = []
        got = 0
        while got < size:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolError(f"timed out waiting for {size - got} more bytes")
            self.sock.settimeout(remaining)
            try:
                chunk = self.sock.recv(size - got)
            except socket.timeout:
                raise ProtocolError(
                    f"timed out waiting for {size - got} more bytes"
                ) from None
            except OSError as e:
                raise ProtocolError(f"receive failed: {e}") from None
            if not chunk:
                raise ProtocolError(
                    f"connection closed mid-frame ({got} of {size} bytes received): "
                    f"truncated frame"
                )
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv_frame(self, timeout: float):
        deadline = time.monotonic() + timeout
        header = self._recv_exact(HEADER.size, deadline)
        step, sender, receiver, count = HEADER.unpack(header)
        if step == HANDSHAKE_STEP:
            # handshake frames carry raw bytes; count is the byte length
            payload = self._recv_exact(count, deadline)
            return step, sender, receiver, [], payload
        payload = self._recv_exact(8 * count, deadline)
        return step, sender, receiver, unpack_payload(count, payload), payload

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _split_frame(data: bytes):
    if len(data) < HEADER.size:
        raise ProtocolError(f"truncated frame: {len(data)} bytes")
    step, sender, receiver, count = HEADER.unpack(data[: HEADER.size])
    payload = data[HEADER.size :]
    if step == HANDSHAKE_STEP:
        return step, sender, receiver, [], payload
    if len(payload) != 8 * count:
        raise ProtocolError(
            f"truncated frame: header promises {count} values, got {len(payload)} bytes"
        )
    return step, sender, receiver, unpack_payload(count, payload), payload


@dataclass
class NeighborChannel:
    local: int
    remote: int
    send_map: DecoderMap
    recv_map: DecoderMap
    overlap_links: tuple[int, ...]
    duplex: Duplex


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def encode(table: dict[SlotEntry, int], records: list[EntryRecord]) -> list[float]:
    """Fill the fixed message layout of a channel's send table (see
    `DecoderMap.positions`); slots without flow stay 0.0."""
    values = [0.0] * len(table)
    for lid, cid, gidx, p, amount in records:
        pos = table.get((lid, cid, gidx, p))
        if pos is None:
            raise ProtocolError(
                f"record {(lid, cid, gidx, p)} has no slot in this channel's message"
            )
        values[pos] = amount
    return values


def decode(table: dict[SlotEntry, int], values: list[float]) -> list[EntryRecord]:
    """Inverse of encode for a channel's receive table; zero slots produce
    no records."""
    if len(values) != len(table):
        raise ProtocolError(
            f"message length {len(values)} does not match slot count {len(table)}"
        )
    records: list[EntryRecord] = []
    for entry, value in zip(table, values):
        if value != 0.0:
            lid, cid, gidx, p = entry
            records.append((lid, cid, gidx, p, value))
    return records


# ---------------------------------------------------------------------------
# establish / exchange
# ---------------------------------------------------------------------------


def _slot_fingerprint(decoder: DecoderMap) -> bytes:
    return json.dumps(decoder.to_doc(), separators=(",", ":")).encode("ascii")


def map_difference(theirs: DecoderMap, mine: DecoderMap) -> str | None:
    """How `theirs` differs from `mine`: the addressing, else the first
    differing slot, else the lengths; None when the maps are equal."""
    if (theirs.sender, theirs.receiver) != (mine.sender, mine.receiver):
        return f"addressed {theirs.sender}->{theirs.receiver}, not {mine.sender}->{mine.receiver}"
    for pos, (a, b) in enumerate(zip(theirs.slots, mine.slots)):
        if a != b:
            return f"slot {pos}: {a} != {b}"
    if len(theirs.slots) != len(mine.slots):
        return f"length {len(theirs.slots)} != {len(mine.slots)}"
    return None


def _verify_hello(channel: NeighborChannel, payload: bytes) -> None:
    try:
        hello = DecoderMap.from_doc(json.loads(payload.decode("ascii")))
    except (KeyError, TypeError, ValueError):
        raise ProtocolError(
            f"worker {channel.local}: unreadable handshake from {channel.remote}"
        ) from None
    detail = map_difference(hello, channel.recv_map)
    if detail is not None:
        raise ProtocolError(
            f"worker {channel.local}: decoder mismatch with {channel.remote}: {detail}"
        )


def establish(channels: list[NeighborChannel], timeout: float = DEFAULT_TIMEOUT) -> None:
    """Exchange decoder maps over every channel and cross-validate them.
    Any disagreement in length or slot identity aborts the run."""
    for ch in sorted(channels, key=lambda c: c.remote):
        hello = _slot_fingerprint(ch.send_map)
        ch.duplex.send_frame(HEADER.pack(HANDSHAKE_STEP, ch.local, ch.remote, len(hello)) + hello)
    for ch in sorted(channels, key=lambda c: c.remote):
        step, sender, receiver, _values, payload = ch.duplex.recv_frame(timeout)
        if step != HANDSHAKE_STEP:
            raise ProtocolError(
                f"worker {ch.local}: expected handshake from {ch.remote}, got step {step}"
            )
        _verify_hello(ch, payload)


def exchange(
    channels: list[NeighborChannel],
    outgoing: dict[int, list[float]],
    step: int,
    timeout: float = DEFAULT_TIMEOUT,
) -> dict[int, list[float]]:
    """Synchronous per-step swap: send one message per channel, then block
    until one message per channel arrives carrying the same step index."""
    if not channels:
        return {}
    ordered = sorted(channels, key=lambda c: c.remote)
    for ch in ordered:
        values = outgoing[ch.remote]
        if len(values) != ch.send_map.message_length:
            raise ProtocolError(
                f"worker {ch.local}: outgoing message for {ch.remote} has "
                f"{len(values)} values, decoder expects {ch.send_map.message_length}"
            )
        ch.duplex.send_frame(pack_frame(step, ch.local, ch.remote, values))
    incoming: dict[int, list[float]] = {}
    for ch in ordered:
        try:
            got_step, sender, receiver, values, _payload = ch.duplex.recv_frame(timeout)
        except ProtocolError as e:
            raise ProtocolError(
                f"worker {ch.local}: exchange with neighbor {ch.remote} failed at "
                f"step {step}: {e}"
            ) from None
        if got_step == HANDSHAKE_STEP:
            raise ProtocolError(
                f"worker {ch.local}: unexpected handshake from {ch.remote} at step {step}"
            )
        if got_step != step:
            raise ProtocolError(
                f"worker {ch.local}: step-index mismatch with {ch.remote}: "
                f"got {got_step}, expected {step}"
            )
        if sender != ch.remote or receiver != ch.local:
            raise ProtocolError(
                f"worker {ch.local}: frame addressed {sender}->{receiver} arrived "
                f"on channel {ch.remote}->{ch.local}"
            )
        if len(values) != ch.recv_map.message_length:
            raise ProtocolError(
                f"worker {ch.local}: message from {ch.remote} has {len(values)} "
                f"values, decoder expects {ch.recv_map.message_length}"
            )
        incoming[ch.remote] = values
    return incoming


# ---------------------------------------------------------------------------
# TCP rendezvous
# ---------------------------------------------------------------------------


def tcp_listener(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(64)
    return sock


def tcp_connect_channels(
    my_index: int,
    neighbors: list[int],
    roster: dict[int, tuple[str, int]],
    listener: socket.socket,
    timeout: float = DEFAULT_TIMEOUT,
) -> dict[int, Duplex]:
    """Open one socket per neighbor: connect to lower indexes, accept from
    higher ones.  Peers identify themselves with a one-line preamble."""
    duplexes: dict[int, Duplex] = {}
    deadline = time.monotonic() + timeout
    for nb in sorted(n for n in neighbors if n < my_index):
        host, port = roster[nb]
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection((host, port), timeout=1.0)
                sock.sendall(struct.pack("<I", my_index))
                duplexes[nb] = SocketDuplex(sock)
                break
            except OSError as e:
                last_error = e
                time.sleep(0.05)
        else:
            raise ProtocolError(
                f"worker {my_index}: neighbor {nb} unreachable at {host}:{port}: "
                f"{last_error}"
            )
    expected = {n for n in neighbors if n > my_index}
    listener.settimeout(1.0)
    while expected:
        if time.monotonic() > deadline:
            raise ProtocolError(
                f"worker {my_index}: neighbors {sorted(expected)} never connected"
            )
        try:
            sock, _addr = listener.accept()
        except socket.timeout:
            continue
        sock.settimeout(max(0.1, deadline - time.monotonic()))
        preamble = b""
        while len(preamble) < 4:
            chunk = sock.recv(4 - len(preamble))
            if not chunk:
                raise ProtocolError(f"worker {my_index}: peer vanished before preamble")
            preamble += chunk
        (peer,) = struct.unpack("<I", preamble)
        if peer not in expected:
            raise ProtocolError(
                f"worker {my_index}: unexpected connection from worker {peer}"
            )
        expected.discard(peer)
        duplexes[peer] = SocketDuplex(sock)
    return duplexes
