"""Neighbor exchange over the metagraph: fixed-size float messages.

Each metagraph edge gets one channel, a stream socket that carries frames
back to back: a socketpair between forked workers ("local") or a TCP
connection ("tcp").  `SocketDuplex` writes and reads frames on both.  A
message is a frame:

    header  <QIII  step, sender index, receiver index, value count
    payload <d * count  IEEE-754 doubles, one per decoder-map slot

Little-endian throughout; values pass bit-exactly, which the
distributed-equals-sequential guarantee relies on.  `establish` performs a
decoder-map handshake on every channel and aborts on any mismatch;
`exchange` is the per-step synchronous swap.  Both go through `_swap`,
which checks each received frame's step index and addressing.

Exchange order.  A worker walks its channels in ascending neighbor index.
On each channel the lower-indexed worker sends its frame and then
receives, and the higher-indexed worker receives and then sends.  At every
worker, ascending neighbor order is also the global ascending (min, max)
order of its edges: for neighbors c < b of worker a, the edge {a, c} sorts
before {a, b} whether a lies below c, between them or above b.  So both
ends of the smallest unfinished edge have finished all their earlier
edges and are working on this one: one writes while the other reads, then
the reverse.  That edge finishes, and by induction every edge does,
whatever the frame size and however small the kernel's socket buffer.
Each send and each receive must finish within the timeout, or the run
fails with a `ProtocolError`.

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


class SocketDuplex:
    """Frames back to back on a stream socket: a socketpair end between
    forked local workers, or a TCP connection."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (a socketpair)

    def send_frame(self, data: bytes, timeout: float = DEFAULT_TIMEOUT) -> None:
        try:
            self.sock.settimeout(timeout)
            self.sock.sendall(data)
        except socket.timeout:
            raise ProtocolError(
                f"timed out after {timeout}s sending a {len(data)}-byte frame"
            ) from None
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
        """(step, sender, receiver, values, raw payload) of the next frame,
        read within `timeout` seconds."""
        deadline = time.monotonic() + timeout
        header = self._recv_exact(HEADER.size, deadline)
        step, sender, receiver, count = HEADER.unpack(header)
        if step == HANDSHAKE_STEP:
            # handshake frames carry raw bytes; count is the byte length
            payload = self._recv_exact(count, deadline)
            return step, sender, receiver, [], payload
        payload = self._recv_exact(8 * count, deadline)
        return step, sender, receiver, list(struct.unpack(f"<{count}d", payload)), payload

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# kept only because perfbench/spans.py wraps PipeDuplex's methods by name
class PipeDuplex(SocketDuplex):
    """`SocketDuplex` under a second name; the program never uses it."""


@dataclass
class NeighborChannel:
    local: int
    remote: int
    send_map: DecoderMap
    recv_map: DecoderMap
    overlap_links: tuple[int, ...]
    duplex: SocketDuplex


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
    """Check the neighbor's handshake against this side's receive map.  A
    byte-equal payload is the same map; any other payload is parsed so that
    the error can name the first difference."""
    if payload == _slot_fingerprint(channel.recv_map):
        return
    try:
        hello = DecoderMap.from_doc(json.loads(payload.decode("ascii")))
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ProtocolError(
            f"worker {channel.local}: unreadable handshake from {channel.remote}"
        ) from None
    detail = map_difference(hello, channel.recv_map)
    if detail is not None:
        raise ProtocolError(
            f"worker {channel.local}: decoder mismatch with {channel.remote}: {detail}"
        )


def _step_label(step: int) -> str:
    return "handshake" if step == HANDSHAKE_STEP else f"step {step}"


def _swap(ch: NeighborChannel, frame: bytes, step: int, timeout: float):
    """Send `frame` on `ch` and receive the neighbor's frame for `step`,
    the lower-indexed worker sending first (see the module docstring).
    Returns the received (values, raw payload)."""
    try:
        if ch.local < ch.remote:
            ch.duplex.send_frame(frame, timeout)
            got = ch.duplex.recv_frame(timeout)
        else:
            got = ch.duplex.recv_frame(timeout)
            ch.duplex.send_frame(frame, timeout)
    except ProtocolError as e:
        raise ProtocolError(
            f"worker {ch.local}: exchange with neighbor {ch.remote} failed at "
            f"{_step_label(step)}: {e}"
        ) from None
    got_step, sender, receiver, values, payload = got
    if got_step != step:
        raise ProtocolError(
            f"worker {ch.local}: step-index mismatch with {ch.remote}: "
            f"got {_step_label(got_step)}, expected {_step_label(step)}"
        )
    if sender != ch.remote or receiver != ch.local:
        raise ProtocolError(
            f"worker {ch.local}: frame addressed {sender}->{receiver} arrived "
            f"on channel {ch.remote}->{ch.local}"
        )
    return values, payload


def establish(channels: list[NeighborChannel], timeout: float = DEFAULT_TIMEOUT) -> None:
    """Exchange decoder maps over every channel and cross-validate them.
    Any disagreement in length or slot identity aborts the run."""
    for ch in sorted(channels, key=lambda c: c.remote):
        hello = _slot_fingerprint(ch.send_map)
        frame = HEADER.pack(HANDSHAKE_STEP, ch.local, ch.remote, len(hello)) + hello
        _verify_hello(ch, _swap(ch, frame, HANDSHAKE_STEP, timeout)[1])


def exchange(
    channels: list[NeighborChannel],
    outgoing: dict[int, list[float]],
    step: int,
    timeout: float = DEFAULT_TIMEOUT,
) -> dict[int, list[float]]:
    """Synchronous per-step swap: one message each way on every channel,
    carrying the same step index."""
    incoming: dict[int, list[float]] = {}
    for ch in sorted(channels, key=lambda c: c.remote):
        values = outgoing[ch.remote]
        if len(values) != ch.send_map.message_length:
            raise ProtocolError(
                f"worker {ch.local}: outgoing message for {ch.remote} has "
                f"{len(values)} values, decoder expects {ch.send_map.message_length}"
            )
        values, _payload = _swap(ch, pack_frame(step, ch.local, ch.remote, values), step, timeout)
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
) -> dict[int, SocketDuplex]:
    """Open one socket per neighbor: connect to lower indexes, accept from
    higher ones.  Peers identify themselves with a 4-byte preamble."""
    duplexes: dict[int, SocketDuplex] = {}
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
        duplex = SocketDuplex(sock)
        try:
            preamble = duplex._recv_exact(4, max(deadline, time.monotonic() + 0.1))
        except ProtocolError as e:
            raise ProtocolError(f"worker {my_index}: no preamble from a peer: {e}") from None
        (peer,) = struct.unpack("<I", preamble)
        if peer not in expected:
            raise ProtocolError(
                f"worker {my_index}: unexpected connection from worker {peer}"
            )
        expected.discard(peer)
        duplexes[peer] = duplex
    return duplexes
