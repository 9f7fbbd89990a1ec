import random
import socket
import threading

import pytest

from psualign import (
    FramingError,
    HandshakeTimeout,
    MessageType,
    PeerUnreachable,
    ProtocolMessage,
    TransportFailure,
)
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


def test_inprocess_self_send_is_delivered_and_counted():
    hub = InProcessHub(1, recv_timeout=2)
    t = hub.transport(0)
    t.send(0, msg(b"me"))
    sender, received = t.recv()
    assert sender == 0 and received.payload == b"me"
    assert hub.message_counts()["SET_TRANSFER"] == 1


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
    assert set(hub.message_counts().values()) == {0}  # nothing ran yet
    t = hub.transport(0)
    t.send(1, msg(b"", MessageType.SET_TRANSFER))
    t.send(1, msg(b"", MessageType.SET_TRANSFER))
    t.send(1, msg(b"", MessageType.TOKEN_RELAY, hop=0))
    counts = hub.message_counts()
    assert counts["SET_TRANSFER"] == 2
    assert counts["TOKEN_RELAY"] == 1
    assert counts["ABORT"] == 0
    assert t.message_counts()["SET_TRANSFER"] == 2


def test_inprocess_transcript_records_deliveries():
    hub = InProcessHub(2, recv_timeout=2, record_transcript=True)
    hub.transport(0).send(1, msg(b"x"))
    hub.transport(1).recv()
    assert len(hub.transcript) == 1
    entry = hub.transcript[0]
    assert (entry.sender, entry.receiver) == (0, 1)
    assert entry.message.payload == b"x"


# --- tcp --------------------------------------------------------------------


def _pair_of_transports(recv_timeout=5.0):
    a = TcpTransport(0, 2, ("127.0.0.1", 0), {}, recv_timeout=recv_timeout)
    b = TcpTransport(1, 2, ("127.0.0.1", 0), {}, recv_timeout=recv_timeout)
    a.listen()
    b.listen()
    a.peer_addrs = {1: b.listen_addr}
    b.peer_addrs = {0: a.listen_addr}
    a.establish(5)
    b.establish(5)
    # identify the outbound connections, as parties do in their handshake
    a.send(1, msg(b"", MessageType.HELLO, origin=0, hop=0))
    b.send(0, msg(b"", MessageType.HELLO, origin=1, hop=0))
    assert a.recv()[1].msg_type is MessageType.HELLO
    assert b.recv()[1].msg_type is MessageType.HELLO
    return a, b


def test_tcp_roundtrip_one_megabyte():
    a, b = _pair_of_transports()
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
    a, b = _pair_of_transports()
    try:
        for i in range(200):
            a.send(1, msg(i.to_bytes(2, "big")))
        got = [int.from_bytes(b.recv()[1].payload, "big") for _ in range(200)]
        assert got == list(range(200))
    finally:
        a.close()
        b.close()


def test_tcp_self_send_loopback():
    a, b = _pair_of_transports()
    try:
        a.send(0, msg(b"self"))
        sender, received = a.recv()
        assert sender == 0 and received.payload == b"self"
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


def test_tcp_rejects_non_hello_first_frame():
    server = TcpTransport(0, 2, ("127.0.0.1", 0), {}, recv_timeout=2)
    server.listen()
    try:
        raw_client = socket.create_connection(server.listen_addr, timeout=2)
        from psualign.messages import encode_frame

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
