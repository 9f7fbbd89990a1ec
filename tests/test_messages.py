import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psualign import FramingError, MessageType, ProtocolMessage, decode_frame, encode_frame
from psualign.messages import HEADER_SIZE, MAX_PAYLOAD, decode_header


def test_frame_layout_hex_example():
    msg = ProtocolMessage(MessageType.TOKEN_RELAY, origin=1, hop=0, payload=b"\xde\xad")
    assert encode_frame(msg).hex() == "000000020400010000dead"


def test_empty_payload_frame():
    msg = ProtocolMessage(MessageType.ABORT, origin=3, hop=2)
    raw = encode_frame(msg)
    assert len(raw) == HEADER_SIZE
    assert decode_frame(raw) == msg


@settings(max_examples=200, deadline=None)
@given(
    msg_type=st.sampled_from(list(MessageType)),
    origin=st.integers(min_value=0, max_value=0xFFFF),
    hop=st.integers(min_value=0, max_value=0xFFFF),
    payload=st.binary(max_size=512),
)
def test_roundtrip(msg_type, origin, hop, payload):
    msg = ProtocolMessage(msg_type, origin, hop, payload)
    assert decode_frame(encode_frame(msg)) == msg


def test_rejects_truncated_header():
    with pytest.raises(FramingError):
        decode_frame(b"\x00\x00")


def test_rejects_unknown_type():
    raw = bytearray(encode_frame(ProtocolMessage(MessageType.HELLO, 0, 0)))
    raw[4] = 250
    with pytest.raises(FramingError):
        decode_frame(bytes(raw))


def test_rejects_length_mismatch():
    raw = encode_frame(ProtocolMessage(MessageType.HELLO, 0, 0, b"abc"))
    with pytest.raises(FramingError):
        decode_frame(raw + b"x")
    with pytest.raises(FramingError):
        decode_frame(raw[:-1])


def test_rejects_out_of_range_ids():
    with pytest.raises(FramingError):
        encode_frame(ProtocolMessage(MessageType.HELLO, 1 << 16, 0))
    with pytest.raises(FramingError):
        encode_frame(ProtocolMessage(MessageType.HELLO, 0, -1))


def test_decode_header_requires_exact_width():
    with pytest.raises(FramingError):
        decode_header(b"\x00" * (HEADER_SIZE - 1))


def test_decode_header_caps_the_declared_payload():
    at_cap = MAX_PAYLOAD.to_bytes(4, "big") + bytes([MessageType.SET_TRANSFER, 0, 1, 0, 1])
    assert decode_header(at_cap) == (MAX_PAYLOAD, MessageType.SET_TRANSFER, 1, 1)
    over = (MAX_PAYLOAD + 1).to_bytes(4, "big") + at_cap[4:]
    with pytest.raises(FramingError, match="frame cap"):
        decode_header(over)
    assert MAX_PAYLOAD == 1 << 28
