import random
import re
import socket
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import free_port
from psualign import (
    FeatureSpec,
    FramingError,
    HandshakeTimeout,
    MatchConfig,
    MessageType,
    PeerUnreachable,
    ProtocolMessage,
    TransportFailure,
)
from psualign.config import DatasetSpec, SessionConfig
from psualign.masking import encode_identifier
from psualign.messages import HEADER_SIZE, MAX_PAYLOAD, encode_frame
from psualign.simulate import run_networked_party
from psualign.transport import InProcessHub, TcpTransport


def msg(payload=b"", msg_type=MessageType.SET_TRANSFER, origin=0, hop=1):
    return ProtocolMessage(msg_type, origin, hop, payload)


# --- in-process -----------------------------------------------------------


def test_inprocess_loopback_bytes():
    hub = InProcessHub(2, recv_timeout=2)
    a, b = hub.transport(0), hub.transport(1)
    a.send(1, msg(b"hello bytes"))
    sender, received = b.recv()
    assert sender == 0
    assert received.payload == b"hello bytes"


def test_inprocess_self_send_is_refused():
    hub = InProcessHub(2, recv_timeout=0.05)
    t = hub.transport(0)
    with pytest.raises(PeerUnreachable, match="party 0 cannot send to itself"):
        t.send(0, msg(b"me"))
    assert t.message_counts()["SET_TRANSFER"] == 0
    assert t.message_bytes()["SET_TRANSFER"] == 0
    with pytest.raises(TransportFailure, match="no message"):
        t.recv()


def test_inprocess_order_per_pair():
    hub = InProcessHub(2, recv_timeout=2)
    a, b = hub.transport(0), hub.transport(1)
    for i in range(50):
        a.send(1, msg(i.to_bytes(2, "big")))
    got = [int.from_bytes(b.recv()[1].payload, "big") for i in range(50)]
    assert got == list(range(50))


def test_inprocess_unknown_peer():
    hub = InProcessHub(2, recv_timeout=2)
    with pytest.raises(PeerUnreachable):
        hub.transport(0).send(7, msg(b""))


def test_inprocess_recv_timeout():
    hub = InProcessHub(1, recv_timeout=0.05)
    with pytest.raises(TransportFailure, match="no message"):
        hub.transport(0).recv()


def test_inprocess_counters_by_type():
    hub = InProcessHub(2, recv_timeout=2)
    t = hub.transport(0)
    assert set(t.message_counts().values()) == {0}  # nothing ran yet
    t.send(1, msg(b"", MessageType.SET_TRANSFER))
    t.send(1, msg(b"", MessageType.SET_TRANSFER))
    t.send(1, msg(b"", MessageType.TOKEN_RELAY, hop=0))
    counts = t.message_counts()
    assert counts["SET_TRANSFER"] == 2
    assert counts["TOKEN_RELAY"] == 1
    assert counts["ABORT"] == 0


def test_inprocess_bytes_by_type_are_header_plus_payload():
    hub = InProcessHub(2, recv_timeout=2)
    t = hub.transport(0)
    assert set(t.message_bytes().values()) == {0}
    t.send(1, msg(b"abc", MessageType.SET_TRANSFER))
    t.send(1, msg(b"four", MessageType.SET_TRANSFER))
    t.send(1, msg(b"", MessageType.TOKEN_RELAY, hop=0))
    sizes = t.message_bytes()
    assert sizes["SET_TRANSFER"] == 2 * HEADER_SIZE + 7
    assert sizes["TOKEN_RELAY"] == HEADER_SIZE
    assert sizes["ABORT"] == 0


# --- tcp --------------------------------------------------------------------


def _mesh(count, recv_timeout=5.0):
    """Connected TCP transports for ``count`` parties, HELLOs exchanged."""
    transports = [
        TcpTransport(k, count, ("127.0.0.1", 0), {}, recv_timeout=recv_timeout)
        for k in range(count)
    ]
    for t in transports:
        t.listen()
    for t in transports:
        t.peer_addrs = {peer.my_id: peer.listen_addr for peer in transports if peer is not t}
    for t in transports:
        t.establish(5)
    # identify the outbound connections, as parties do in their handshake
    for t in transports:
        for peer in transports:
            if peer is not t:
                t.send(peer.my_id, msg(b"", MessageType.HELLO, origin=t.my_id, hop=0))
    for t in transports:
        for _ in range(count - 1):
            assert t.recv()[1].msg_type is MessageType.HELLO
    return transports


def test_tcp_roundtrip_one_megabyte():
    a, b = _mesh(2)
    try:
        blob = random.Random(0).randbytes(1 << 20)
        a.send(1, msg(blob))
        sender, received = b.recv()
        assert sender == 0
        assert received.payload == blob
    finally:
        a.close()
        b.close()


def test_tcp_preserves_order_per_pair():
    a, b = _mesh(2)
    try:
        for i in range(200):
            a.send(1, msg(i.to_bytes(2, "big")))
        got = [int.from_bytes(b.recv()[1].payload, "big") for _ in range(200)]
        assert got == list(range(200))
    finally:
        a.close()
        b.close()


def test_tcp_self_send_is_refused():
    a, b = _mesh(2)
    try:
        with pytest.raises(PeerUnreachable, match="party 0 cannot send to itself"):
            a.send(0, msg(b"self"))
        assert a.message_counts()["SET_TRANSFER"] == 0
        assert a.message_bytes()["SET_TRANSFER"] == 0
        with pytest.raises(TransportFailure, match="no message"):
            a.recv(0.05)
    finally:
        a.close()
        b.close()


def test_tcp_counts_frame_bytes_like_the_in_process_backend():
    a, b = _mesh(2)
    hub = InProcessHub(2, recv_timeout=2)
    local = hub.transport(0)
    try:
        for t in (a, local):
            t.send(1, msg(b"x" * 100))
            t.send(1, msg(b"four"))
        b.recv()
        b.recv()
        # _mesh sent one HELLO from each endpoint first
        assert a.message_bytes()["HELLO"] == HEADER_SIZE
        assert a.message_bytes()["SET_TRANSFER"] == local.message_bytes()["SET_TRANSFER"]
        assert a.message_bytes()["SET_TRANSFER"] == 2 * HEADER_SIZE + 104
    finally:
        a.close()
        b.close()


def test_tcp_unknown_peer():
    t = TcpTransport(0, 3, ("127.0.0.1", 0), {}, recv_timeout=1)
    t.listen()
    try:
        with pytest.raises(PeerUnreachable):
            t.send(9, msg(b""))
        with pytest.raises(PeerUnreachable):
            t.send(2, msg(b""))  # in range but never connected
    finally:
        t.close()


def test_tcp_close_stops_the_listener():
    t = TcpTransport(7, 8, ("127.0.0.1", 0), {}, recv_timeout=1)
    t.listen()
    addr = t.listen_addr
    t.close()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(addr, timeout=2).close()
    assert not any(thread.name == "psu-accept-7" for thread in threading.enumerate())


def test_tcp_close_ends_the_readers_of_accepted_connections():
    """``close`` shuts the inbound connections too, with the peer still open."""
    before = set(threading.enumerate())
    a, b = _mesh(2)
    try:
        a.close()
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            left = [
                thread
                for thread in set(threading.enumerate()) - before
                if thread.name == "psu-reader-0"
            ]
            if not left:
                break
            time.sleep(0.02)
        assert left == []
    finally:
        b.close()


def _new_transport_threads(before):
    return [
        thread.name
        for thread in set(threading.enumerate()) - before
        if thread.name.startswith(("psu-reader-", "psu-accept-"))
    ]


def _serve_one_stream(stream):
    """Feed ``stream`` to a fresh listener and ``recv`` until it raises.

    Returns the error ``recv`` raised and how long after the client closed.
    """
    server = TcpTransport(0, 2, ("127.0.0.1", 0), {}, recv_timeout=10)
    server.listen()
    try:
        client = socket.create_connection(server.listen_addr, timeout=2)
        try:
            client.sendall(stream)
        except OSError:
            pass  # the reader may reject the stream and close before the end
        finally:
            client.close()
        started = time.monotonic()
        while True:
            try:
                server.recv(5.0)
            except TransportFailure as exc:
                return exc, time.monotonic() - started
    finally:
        server.close()


HELLO_FRAME = encode_frame(msg(b"digest", MessageType.HELLO, origin=1, hop=0))
RELAY_FRAME = encode_frame(msg(b"\x00\x07relay", MessageType.TOKEN_RELAY, origin=1, hop=0))


def test_tcp_close_joins_a_reader_that_already_ended():
    """A reader that finished before ``close`` is still joined by it."""
    before = set(threading.enumerate())
    for _ in range(100):
        error, _ = _serve_one_stream(HELLO_FRAME)
        assert isinstance(error, PeerUnreachable)
        assert _new_transport_threads(before) == []


@settings(max_examples=100, deadline=None)
@given(
    stream=st.one_of(
        st.binary(min_size=1),
        st.integers(1, len(HELLO_FRAME + RELAY_FRAME)).map(
            lambda n: (HELLO_FRAME + RELAY_FRAME)[:n]
        ),
        st.binary().map(lambda tail: HELLO_FRAME + tail),
    )
)
def test_tcp_listener_survives_hostile_streams(stream):
    """Whatever a peer writes, ``recv`` fails fast and ``close`` leaves no thread.

    The empty stream is left out: a connection that closes before its
    first byte never names a sender, so its reader drops it by design.
    """
    before = set(threading.enumerate())
    error, elapsed = _serve_one_stream(stream)
    assert isinstance(error, (FramingError, PeerUnreachable)), error
    assert elapsed < 2.0
    assert _new_transport_threads(before) == []


@pytest.mark.parametrize("count", [2, 3])
def test_tcp_recv_fails_fast_once_every_peer_closed(count):
    """A closed peer is noted; ``recv`` raises at once when every peer has closed."""
    me, *peers = transports = _mesh(count, recv_timeout=30.0)
    try:
        for peer in peers:
            peer.send(0, msg(b"last words", origin=peer.my_id))
            peer.close()
            # frames sent before the close arrive, and one closed peer is not fatal
            assert me.recv()[1].payload == b"last words"
        started = time.monotonic()
        with pytest.raises(PeerUnreachable, match=re.escape(f"parties {list(range(1, count))}")):
            me.recv()
        assert time.monotonic() - started < 5.0
    finally:
        for t in transports:
            t.close()


@pytest.mark.parametrize("variant", ["ordered", "unordered"])
def test_three_networked_parties_outlive_early_closers(tmp_path, variant):
    """Parties close as they finish; the others still wait on live peers."""
    names = [["ann lee", "bob ray"], ["ann lee", "cy moss"], ["dee fox", "ann lee", "bob ray"]]
    datasets = []
    for k, rows in enumerate(names):
        path = tmp_path / f"party{k}.csv"
        path.write_text("name\n" + "".join(f"{row}\n" for row in rows))
        datasets.append(DatasetSpec(path, ("name",), listen=f"127.0.0.1:{free_port()}"))
    cfg = SessionConfig(
        party_count=3,
        variant=variant,
        group_source="p512",
        match=MatchConfig(
            features=(FeatureSpec("name", 12, 3),),
            threshold=Fraction(7, 10),
            ordered=variant == "ordered",
        ),
        datasets=tuple(datasets),
        seed=5,
        recv_timeout=20.0,
    )
    results = [None] * 3
    errors = [None] * 3

    def drive(k):
        try:
            results[k] = run_networked_party(cfg, k)[0].results[0]
        except Exception as exc:  # reported by the assertion below
            errors[k] = exc

    threads = [threading.Thread(target=drive, args=(k,)) for k in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [None] * 3
    group = cfg.group()
    tables = {tuple(encode_identifier(e, group) for e in r.union_table.entries) for r in results}
    assert len(tables) == 1
    assert results[0].union_table.size == 4
    ann = {r.index_map.local_to_universal[row] for r, row in zip(results, (0, 0, 1))}
    assert len(ann) == 1


def test_tcp_establish_times_out_when_peer_missing():
    # grab a port and keep it closed
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_addr = probe.getsockname()
    probe.close()
    t = TcpTransport(0, 2, ("127.0.0.1", 0), {1: dead_addr}, recv_timeout=1)
    try:
        with pytest.raises(HandshakeTimeout):
            t.establish(0.4)
    finally:
        t.close()


def test_tcp_establish_without_argument_waits_at_most_the_receive_timeout():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_addr = probe.getsockname()
    probe.close()
    t = TcpTransport(0, 2, ("127.0.0.1", 0), {1: dead_addr}, recv_timeout=0.5)
    try:
        started = time.monotonic()
        with pytest.raises(HandshakeTimeout):
            t.establish()
        assert time.monotonic() - started < 2.0
    finally:
        t.close()


def test_tcp_rejects_non_hello_first_frame():
    server = TcpTransport(0, 2, ("127.0.0.1", 0), {}, recv_timeout=2)
    server.listen()
    try:
        raw_client = socket.create_connection(server.listen_addr, timeout=2)
        raw_client.sendall(encode_frame(msg(b"sneaky")))
        with pytest.raises(FramingError):
            server.recv()
        raw_client.close()
    finally:
        server.close()


def test_tcp_garbage_frame_surfaces_as_framing_error():
    server = TcpTransport(0, 2, ("127.0.0.1", 0), {}, recv_timeout=2)
    server.listen()
    try:
        raw_client = socket.create_connection(server.listen_addr, timeout=2)
        raw_client.sendall(b"\x00\x00\x00\x01\xfa\x00\x00\x00\x00\x00")
        with pytest.raises(FramingError):
            server.recv()
        raw_client.close()
    finally:
        server.close()


def test_tcp_frame_above_the_cap_is_rejected_before_its_payload():
    """A header declaring one byte over the cap fails the read at once."""
    server = TcpTransport(0, 2, ("127.0.0.1", 0), {}, recv_timeout=10)
    server.listen()
    try:
        raw_client = socket.create_connection(server.listen_addr, timeout=2)
        raw_client.sendall(encode_frame(msg(b"", MessageType.HELLO, origin=1, hop=0)))
        raw_client.sendall((MAX_PAYLOAD + 1).to_bytes(4, "big") + bytes([1, 0, 1, 0, 1]))
        assert server.recv()[1].msg_type is MessageType.HELLO
        started = time.monotonic()
        with pytest.raises(FramingError, match="frame cap"):
            server.recv()
        assert time.monotonic() - started < 5.0
        raw_client.close()
    finally:
        server.close()
