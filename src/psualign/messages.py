"""Typed protocol messages and the length-prefixed wire frame codec.

Frame layout (all integers big-endian):

    offset 0  u32  payload length
    offset 4  u8   message type
    offset 5  u16  origin party id
    offset 7  u16  hop counter
    offset 9  payload bytes

A payload may be at most ``MAX_PAYLOAD`` bytes (256 MiB), far above any
session's largest frame; a header declaring more is rejected before any
payload byte is buffered.

Example: a TOKEN_RELAY from party 1 at hop 0 with payload ``0xdead``
frames as ``00 00 00 02 04 00 01 00 00 de ad``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import FramingError

_HEADER = struct.Struct(">IBHH")
HEADER_SIZE = _HEADER.size
MAX_PAYLOAD = 1 << 28
MAX_PARTY_ID = (1 << 16) - 1


class MessageType(IntEnum):
    HELLO = 0  # session setup only: carries the config digest
    SET_TRANSFER = 1
    UNION_TRANSFER = 2
    UID_BROADCAST = 3
    TOKEN_RELAY = 4
    TOKEN_RETURN = 5
    ABORT = 6


@dataclass(frozen=True)
class ProtocolMessage:
    """One framed unit of party-to-party communication."""

    msg_type: MessageType
    origin: int
    hop: int
    payload: bytes = b""


def encode_frame(message: ProtocolMessage) -> bytes:
    if not 0 <= message.origin <= MAX_PARTY_ID:
        raise FramingError(f"origin {message.origin} outside u16 range")
    if not 0 <= message.hop <= MAX_PARTY_ID:
        raise FramingError(f"hop {message.hop} outside u16 range")
    if len(message.payload) > MAX_PAYLOAD:
        raise FramingError(f"payload exceeds the {MAX_PAYLOAD}-byte frame cap")
    header = _HEADER.pack(
        len(message.payload), int(message.msg_type), message.origin, message.hop
    )
    return header + message.payload


def decode_header(header: bytes) -> tuple[int, MessageType, int, int]:
    """Parse the 9 fixed header bytes; returns (payload_len, type, origin, hop)."""
    if len(header) != HEADER_SIZE:
        raise FramingError(f"header is {len(header)} bytes, expected {HEADER_SIZE}")
    payload_len, raw_type, origin, hop = _HEADER.unpack(header)
    try:
        msg_type = MessageType(raw_type)
    except ValueError:
        raise FramingError(f"unknown message type {raw_type}") from None
    if payload_len > MAX_PAYLOAD:
        raise FramingError(
            f"declared payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte frame cap"
        )
    return payload_len, msg_type, origin, hop


def decode_frame(data: bytes) -> ProtocolMessage:
    """Parse one complete frame; the buffer must contain exactly one frame."""
    if len(data) < HEADER_SIZE:
        raise FramingError("frame shorter than header")
    payload_len, msg_type, origin, hop = decode_header(data[:HEADER_SIZE])
    payload = data[HEADER_SIZE:]
    if len(payload) != payload_len:
        raise FramingError(
            f"declared payload length {payload_len} but {len(payload)} bytes present"
        )
    return ProtocolMessage(msg_type, origin, hop, payload)
