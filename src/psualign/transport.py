"""Message delivery between parties: in-process channels and TCP sockets.

Both backends expose the same contract: ``establish`` brings up the
endpoints (a no-op in process, listen-plus-connect over TCP), ``send``
delivers exactly once and in order per directed (sender, receiver) pair,
``recv`` yields one ``(sender, message)`` at a time as a strictly
serialized stream, and per-transport counters record sends and their
frame bytes (header plus payload) by message type for the accounting
assertions.  The config-digest handshake itself is a protocol phase
(HELLO frames) on top of this layer; over TCP the first frame on every
connection must be a HELLO, which also identifies the sender.  A send
to one's own id, like one to an id outside ``[0, P)``, raises
``PeerUnreachable``.  Over TCP a received payload is the ``bytearray``
its frame was read into, not a copy.

Each transport owns its receive deadline, a required constructor
argument: ``recv`` with no argument waits at most that long, then raises
``PeerSilent``, and over TCP ``establish`` with no argument spends at
most that long connecting.

Failures are fatal by design: protocol phases are not idempotent under
the deterministic masking, so there is no retry or resume; callers abort
the session and re-run.  A TCP peer that closes its connection is noted,
not fatal, since parties finish at different times; once every peer has
closed, a ``recv`` raises ``PeerUnreachable`` at once instead of waiting
out its timeout.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import Counter

from .errors import (
    FramingError,
    HandshakeTimeout,
    PeerSilent,
    PeerUnreachable,
    TransportFailure,
)
from .messages import (
    HEADER_SIZE,
    MessageType,
    ProtocolMessage,
    decode_frame,
    decode_header,
    encode_frame,
)

_RECV_CHUNK = 1 << 20  # most bytes one socket read asks for
_PEER_CLOSED = object()  # inbox item a TCP reader queues after a peer's last frame


def count_messages(counter: Counter) -> dict[str, int]:
    """Counter snapshot keyed by message-type name, all types present."""
    return {t.name: counter.get(t, 0) for t in MessageType}


def sum_counts(snapshots) -> dict[str, int]:
    """Counts by message-type name, summed over snapshots."""
    total: Counter = Counter()
    for snapshot in snapshots:
        total.update(snapshot)
    return dict(total)


def total_message_counts(transports) -> dict[str, int]:
    """Sends by message-type name, summed over a session's endpoints."""
    return sum_counts(transport.message_counts() for transport in transports)


def total_message_bytes(transports) -> dict[str, int]:
    """Frame bytes sent by message-type name, summed over a session's endpoints."""
    return sum_counts(transport.message_bytes() for transport in transports)


class InProcessHub:
    """Shared state for one simulated session: one inbox queue per party."""

    def __init__(self, party_count: int, recv_timeout: float):
        if party_count < 1:
            raise ValueError("party_count must be positive")
        self.party_count = party_count
        self.recv_timeout = recv_timeout
        self.queues = [queue.Queue() for _ in range(party_count)]

    def transport(self, party_id: int) -> "InProcessTransport":
        return InProcessTransport(self, party_id)

    def deliver(self, sender: int, receiver: int, message: ProtocolMessage) -> None:
        if not 0 <= receiver < self.party_count:
            raise PeerUnreachable(f"no party with id {receiver}")
        if receiver == sender:
            raise PeerUnreachable(f"party {sender} cannot send to itself")
        # Round-trip through the frame codec so the in-process backend
        # carries exactly the bytes TCP would.
        self.queues[receiver].put((sender, decode_frame(encode_frame(message))))


class InProcessTransport:
    """One party's endpoint on an :class:`InProcessHub`."""

    def __init__(self, hub: InProcessHub, party_id: int):
        if not 0 <= party_id < hub.party_count:
            raise ValueError(f"party id {party_id} outside [0, {hub.party_count})")
        self.hub = hub
        self.my_id = party_id
        self.party_count = hub.party_count
        self.counters = Counter()
        self.byte_counters = Counter()

    def establish(self, timeout: float | None = None) -> None:
        """No connection setup needed in process."""

    def send(self, to: int, message: ProtocolMessage) -> None:
        self.hub.deliver(self.my_id, to, message)
        self.counters[message.msg_type] += 1
        self.byte_counters[message.msg_type] += HEADER_SIZE + len(message.payload)

    def recv(self, timeout: float | None = None) -> tuple[int, ProtocolMessage]:
        deadline = timeout if timeout is not None else self.hub.recv_timeout
        try:
            return self.hub.queues[self.my_id].get(timeout=deadline)
        except queue.Empty:
            raise PeerSilent(
                f"party {self.my_id}: no message within {deadline:.1f}s"
            ) from None

    def message_counts(self) -> dict[str, int]:
        return count_messages(self.counters)

    def message_bytes(self) -> dict[str, int]:
        return count_messages(self.byte_counters)

    def close(self) -> None:
        pass


def _read_exact(sock: socket.socket, count: int) -> bytearray | None:
    """Read exactly ``count`` bytes into one buffer, handed on uncopied.

    None on clean EOF at a frame boundary.
    """
    buffer = bytearray(count)
    view, filled = memoryview(buffer), 0
    while filled < count:
        got = sock.recv_into(view[filled : filled + _RECV_CHUNK])
        if not got:
            if filled:
                raise FramingError("connection closed mid-frame")
            return None
        filled += got
    return buffer


class TcpTransport:
    """Socket-backed transport: one listener plus one outbound connection per peer.

    Each outbound connection starts with a HELLO frame whose origin field
    identifies the sender, so inbound frames can be attributed.  Reader
    threads drain each inbound connection into a single inbox queue,
    presenting the party with a serialized event stream.
    """

    def __init__(
        self,
        my_id: int,
        party_count: int,
        listen_addr: tuple[str, int],
        peer_addrs: dict[int, tuple[str, int]],
        recv_timeout: float,
    ):
        self.my_id = my_id
        self.party_count = party_count
        self.listen_addr = listen_addr
        self.peer_addrs = dict(peer_addrs)
        self.recv_timeout = recv_timeout
        self.counters = Counter()
        self.byte_counters = Counter()
        self._inbox: queue.Queue = queue.Queue()
        self._out_socks: dict[int, socket.socket] = {}
        self._out_locks: dict[int, threading.Lock] = {}
        self._server: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        # accepted connection -> its reader, kept until close() joins it;
        # guarded by _lock, like _closed
        self._inbound: dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        self._closed_peers: set[int] = set()
        self._closed = False

    # -- connection setup --------------------------------------------------

    def listen(self) -> None:
        if self._server is not None:
            return
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(self.listen_addr)
        server.listen(self.party_count)
        self._server = server
        self.listen_addr = server.getsockname()
        acceptor = threading.Thread(
            target=self._accept_loop, name=f"psu-accept-{self.my_id}", daemon=True
        )
        acceptor.start()
        self._acceptor = acceptor

    def establish(self, timeout: float | None = None) -> None:
        """Listen and connect to every peer, retrying until the deadline.

        The deadline is ``timeout`` seconds, by default the receive timeout.
        """
        self.listen()
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.recv_timeout
        )
        for peer in range(self.party_count):
            if peer == self.my_id:
                continue
            addr = self.peer_addrs.get(peer)
            if addr is None:
                raise PeerUnreachable(f"no address configured for party {peer}")
            self._out_socks[peer] = self._connect_with_retry(addr, deadline, peer)
            self._out_locks[peer] = threading.Lock()

    def _connect_with_retry(self, addr, deadline: float, peer: int) -> socket.socket:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise HandshakeTimeout(
                    f"party {self.my_id}: could not reach party {peer} at {addr}"
                )
            try:
                sock = socket.create_connection(addr, timeout=min(remaining, 1.0))
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError:
                time.sleep(0.05)

    def _accept_loop(self) -> None:
        assert self._server is not None
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = threading.Thread(
                target=self._reader_loop,
                args=(conn,),
                name=f"psu-reader-{self.my_id}",
                daemon=True,
            )
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._inbound[conn] = reader
                reader.start()

    def _reader_loop(self, conn: socket.socket) -> None:
        sender: int | None = None
        try:
            while True:
                header = _read_exact(conn, HEADER_SIZE)
                if header is None:
                    if sender is not None and not self._closed:
                        self._inbox.put((sender, _PEER_CLOSED))
                    return
                payload_len, msg_type, origin, hop = decode_header(header)
                payload = _read_exact(conn, payload_len) if payload_len else b""
                if payload_len and payload is None:
                    raise FramingError("connection closed before payload")
                message = ProtocolMessage(msg_type, origin, hop, payload or b"")
                if sender is None:
                    if msg_type is not MessageType.HELLO:
                        raise FramingError(
                            f"first frame on a connection must be HELLO, got {msg_type.name}"
                        )
                    sender = origin
                self._inbox.put((sender, message))
        except (FramingError, OSError) as exc:
            if not self._closed:
                self._inbox.put((-1, exc))
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # -- transport interface ------------------------------------------------

    def send(self, to: int, message: ProtocolMessage) -> None:
        if not 0 <= to < self.party_count:
            raise PeerUnreachable(f"no party with id {to}")
        if to == self.my_id:
            raise PeerUnreachable(f"party {to} cannot send to itself")
        sock = self._out_socks.get(to)
        if sock is None:
            raise PeerUnreachable(f"party {to} is not connected")
        frame = encode_frame(message)
        try:
            with self._out_locks[to]:
                sock.sendall(frame)
        except OSError as exc:
            raise TransportFailure(f"send to party {to} failed: {exc}") from exc
        self.counters[message.msg_type] += 1
        self.byte_counters[message.msg_type] += len(frame)

    def recv(self, timeout: float | None = None) -> tuple[int, ProtocolMessage]:
        wait = timeout if timeout is not None else self.recv_timeout
        deadline = time.monotonic() + wait
        while True:
            try:
                sender, item = self._inbox.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                raise PeerSilent(
                    f"party {self.my_id}: no message within {wait:.1f}s"
                ) from None
            if item is _PEER_CLOSED:
                self._closed_peers.add(sender)
                if len(self._closed_peers) == self.party_count - 1:
                    raise PeerUnreachable(
                        f"party {self.my_id}: every peer disconnected "
                        f"(parties {sorted(self._closed_peers)})"
                    )
                continue
            if isinstance(item, Exception):
                raise item
            return sender, item

    def message_counts(self) -> dict[str, int]:
        return count_messages(self.counters)

    def message_bytes(self) -> dict[str, int]:
        return count_messages(self.byte_counters)

    def close(self) -> None:
        """Stop the listener and tear down every connection, both directions.

        Accepted connections are shut down, which wakes their readers;
        each reader closes its own socket and is joined, also one that
        had already ended (its socket then refuses the shutdown).
        """
        with self._lock:
            self._closed = True
            inbound = list(self._inbound.items())
        if self._server is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, and the acceptor then returns.
            try:
                self._server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._server.close()
            except OSError:
                pass
        if self._acceptor is not None:
            self._acceptor.join(timeout=1.0)
        for sock in self._out_socks.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for conn, reader in inbound:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            reader.join(timeout=1.0)
