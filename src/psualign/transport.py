"""Message delivery between parties: in-process channels and TCP sockets.

Both backends expose the same contract: ``establish`` brings up the
endpoints (a no-op in process, listen-plus-connect over TCP), ``send``
delivers exactly once and in order per directed (sender, receiver) pair,
``recv`` yields one ``(sender, message)`` at a time as a strictly
serialized stream, and a per-transport counter records sends by message
type for the accounting assertions.  The config-digest handshake itself
is a protocol phase (HELLO frames) on top of this layer; over TCP the
first frame on every connection must be a HELLO, which also identifies
the sender.  A party sending to itself is a legal loopback delivery and
is counted like any other send.

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
from dataclasses import dataclass

from .errors import (
    FramingError,
    HandshakeTimeout,
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

DEFAULT_RECV_TIMEOUT = 60.0
_PEER_CLOSED = object()  # inbox item a TCP reader queues after a peer's last frame


@dataclass(frozen=True)
class TranscriptEntry:
    """One delivered message, as recorded by the in-process hub."""

    sender: int
    receiver: int
    message: ProtocolMessage


def count_messages(counter: Counter) -> dict[str, int]:
    """Counter snapshot keyed by message-type name, all types present."""
    return {t.name: counter.get(t, 0) for t in MessageType}


class InProcessHub:
    """Shared state for one simulated session: queues, counters, transcript.

    ``max_delay`` > 0 makes every send sleep a random amount first, which
    jitters cross-pair interleaving while preserving per-pair order (the
    sender blocks, so its own sends stay sequential).
    """

    def __init__(
        self,
        party_count: int,
        recv_timeout: float = DEFAULT_RECV_TIMEOUT,
        record_transcript: bool = False,
        max_delay: float = 0.0,
        delay_rng=None,
    ):
        if party_count < 1:
            raise ValueError("party_count must be positive")
        self.party_count = party_count
        self.recv_timeout = recv_timeout
        self.record_transcript = record_transcript
        self.max_delay = max_delay
        self.delay_rng = delay_rng
        self.queues = [queue.Queue() for _ in range(party_count)]
        self.transcript: list[TranscriptEntry] = []
        self.counters = Counter()
        self._lock = threading.Lock()

    def transport(self, party_id: int) -> "InProcessTransport":
        return InProcessTransport(self, party_id)

    def deliver(self, sender: int, receiver: int, message: ProtocolMessage) -> None:
        if not 0 <= receiver < self.party_count:
            raise PeerUnreachable(f"no party with id {receiver}")
        if self.max_delay > 0 and self.delay_rng is not None:
            time.sleep(self.delay_rng.uniform(0, self.max_delay))
        # Round-trip through the frame codec so the in-process backend
        # carries exactly the bytes TCP would.
        decoded = decode_frame(encode_frame(message))
        with self._lock:
            self.counters[message.msg_type] += 1
            if self.record_transcript:
                self.transcript.append(TranscriptEntry(sender, receiver, decoded))
        self.queues[receiver].put((sender, decoded))

    def message_counts(self) -> dict[str, int]:
        with self._lock:
            return count_messages(self.counters)


class InProcessTransport:
    """One party's endpoint on an :class:`InProcessHub`."""

    def __init__(self, hub: InProcessHub, party_id: int):
        if not 0 <= party_id < hub.party_count:
            raise ValueError(f"party id {party_id} outside [0, {hub.party_count})")
        self.hub = hub
        self.my_id = party_id
        self.party_count = hub.party_count
        self.counters = Counter()

    def establish(self, timeout: float | None = None) -> None:
        """No connection setup needed in process."""

    def send(self, to: int, message: ProtocolMessage) -> None:
        self.hub.deliver(self.my_id, to, message)
        self.counters[message.msg_type] += 1

    def recv(self, timeout: float | None = None) -> tuple[int, ProtocolMessage]:
        deadline = timeout if timeout is not None else self.hub.recv_timeout
        try:
            return self.hub.queues[self.my_id].get(timeout=deadline)
        except queue.Empty:
            raise TransportFailure(
                f"party {self.my_id}: no message within {deadline:.1f}s"
            ) from None

    def message_counts(self) -> dict[str, int]:
        return count_messages(self.counters)

    def close(self) -> None:
        pass


def _read_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on clean EOF at a frame boundary."""
    chunks = bytearray()
    while len(chunks) < count:
        block = sock.recv(count - len(chunks))
        if not block:
            if chunks:
                raise FramingError("connection closed mid-frame")
            return None
        chunks += block
    return bytes(chunks)


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
        recv_timeout: float = DEFAULT_RECV_TIMEOUT,
    ):
        self.my_id = my_id
        self.party_count = party_count
        self.listen_addr = listen_addr
        self.peer_addrs = dict(peer_addrs)
        self.recv_timeout = recv_timeout
        self.counters = Counter()
        self._inbox: queue.Queue = queue.Queue()
        self._out_socks: dict[int, socket.socket] = {}
        self._out_locks: dict[int, threading.Lock] = {}
        self._server: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._threads: list[threading.Thread] = []
        self._closed_peers: set[int] = set()
        self._accepting = False
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
        self._accepting = True
        acceptor = threading.Thread(
            target=self._accept_loop, name=f"psu-accept-{self.my_id}", daemon=True
        )
        acceptor.start()
        self._acceptor = acceptor
        self._threads.append(acceptor)

    def establish(self, timeout: float | None = None) -> None:
        """Listen and connect to every peer, retrying until the deadline."""
        self.listen()
        deadline = time.monotonic() + (timeout if timeout is not None else 10.0)
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
        while self._accepting:
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
            reader.start()
            self._threads.append(reader)

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
        frame = encode_frame(message)
        if to == self.my_id:
            self._inbox.put((self.my_id, message))
        else:
            sock = self._out_socks.get(to)
            if sock is None:
                raise PeerUnreachable(f"party {to} is not connected")
            try:
                with self._out_locks[to]:
                    sock.sendall(frame)
            except OSError as exc:
                raise TransportFailure(f"send to party {to} failed: {exc}") from exc
        self.counters[message.msg_type] += 1

    def recv(self, timeout: float | None = None) -> tuple[int, ProtocolMessage]:
        wait = timeout if timeout is not None else self.recv_timeout
        deadline = time.monotonic() + wait
        while True:
            try:
                sender, item = self._inbox.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                raise TransportFailure(
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

    def close(self) -> None:
        self._closed = True
        self._accepting = False
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
