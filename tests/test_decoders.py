"""Decoders of untrusted input fail only with the codec's named errors.

Every decoder a peer's bytes reach is fed arbitrary bytes and damaged
valid encodings (cut short, one byte overwritten, junk appended).  Each
must return or raise ``FramingError``, ``ValueError`` or
``TransportFailure``; an ``IndexError``, ``OverflowError`` or the like
would escape the protocol's error handling.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psualign import (
    EncryptedIdentifier,
    EncryptedSet,
    FramingError,
    MessageType,
    ProtocolMessage,
    TransportFailure,
    decode_frame,
    decode_identifier,
    decode_set,
    encode_frame,
    encode_set,
    make_group_params,
)

GROUPS = [make_group_params(23), make_group_params("p512")]
NAMED = (FramingError, ValueError, TransportFailure)


@st.composite
def identifiers(draw, group):
    features = draw(
        st.lists(st.lists(st.integers(1, group.p - 1), max_size=4), max_size=3)
    )
    return EncryptedIdentifier(tuple(tuple(f) for f in features))


@st.composite
def damaged(draw, valid: bytes):
    """``valid`` cut short, with one byte overwritten, or with junk appended."""
    how = draw(st.sampled_from(["cut", "overwrite", "append"]))
    if how == "append" or not valid:
        return valid + draw(st.binary(min_size=1, max_size=16))
    at = draw(st.integers(0, len(valid) - 1))
    if how == "cut":
        return valid[:at]
    return valid[:at] + bytes([draw(st.integers(0, 255))]) + valid[at + 1 :]


@st.composite
def set_inputs(draw):
    group = draw(st.sampled_from(GROUPS))
    items = draw(st.lists(identifiers(group), max_size=4))
    valid = encode_set(EncryptedSet(items), group)
    raw = draw(st.one_of(st.binary(max_size=400), damaged(valid)))
    return group, raw


@st.composite
def pooled_set_inputs(draw):
    """Damaged encodings of sets that repeat tokens, so indices get hit too."""
    group = draw(st.sampled_from(GROUPS))
    pool = draw(st.lists(st.integers(1, group.p - 1), min_size=1, max_size=4))
    feature = st.lists(st.sampled_from(pool), max_size=6)
    items = draw(st.lists(st.lists(feature, max_size=2), max_size=4))
    enc_set = EncryptedSet([EncryptedIdentifier(tuple(map(tuple, f))) for f in items])
    return group, draw(damaged(encode_set(enc_set, group)))


@st.composite
def relays(draw):
    """A group, a feature count F and 1 to 4 records of F features, in record order."""
    group = draw(st.sampled_from(GROUPS))
    feature_count = draw(st.sampled_from([1, 2, 5, 85, 255]))
    pool = draw(st.lists(st.integers(1, group.p - 1), min_size=1, max_size=4))
    count = draw(st.integers(1, 4)) * feature_count
    # One byte per feature, drawn at once: its low two bits give its token
    # count, each further pair of bits picks one token from the pool.
    shape = draw(st.binary(min_size=count, max_size=count))
    features = [
        tuple(pool[(byte >> (2 + 2 * k)) % len(pool)] for k in range(byte & 3))
        for byte in shape
    ]
    records = [
        EncryptedIdentifier(tuple(features[at : at + feature_count]))
        for at in range(0, count, feature_count)
    ]
    return group, records


@st.composite
def relay_inputs(draw):
    group, records = draw(relays())
    valid = encode_set(EncryptedSet(records), group)
    raw = draw(st.one_of(st.binary(max_size=400), damaged(valid)))
    return group, raw


@st.composite
def frame_inputs(draw):
    message = ProtocolMessage(
        draw(st.sampled_from(list(MessageType))),
        draw(st.integers(0, 0xFFFF)),
        draw(st.integers(0, 0xFFFF)),
        draw(st.binary(max_size=64)),
    )
    return draw(st.one_of(st.binary(max_size=200), damaged(encode_frame(message))))


def decodes_or_names_its_error(decode, *args) -> None:
    try:
        decode(*args)
    except NAMED:
        pass


@settings(max_examples=500, deadline=None)
@given(frame_inputs())
def test_decode_frame_fails_only_with_named_errors(raw):
    decodes_or_names_its_error(decode_frame, raw)


@settings(max_examples=500, deadline=None)
@given(set_inputs())
def test_decode_set_fails_only_with_named_errors(instance):
    group, raw = instance
    decodes_or_names_its_error(decode_set, raw, group)


@settings(max_examples=500, deadline=None)
@given(st.one_of(set_inputs(), pooled_set_inputs()))
def test_an_accepted_set_payload_is_the_one_encoding_of_its_set(instance):
    """The set codec is canonical: whatever decodes re-encodes to the same bytes."""
    group, raw = instance
    try:
        decoded = decode_set(raw, group)
    except NAMED:
        return
    assert encode_set(decoded, group) == raw


@settings(max_examples=500, deadline=None)
@given(set_inputs(), st.integers(0, 8))
def test_decode_identifier_fails_only_with_named_errors(instance, offset):
    group, raw = instance
    decodes_or_names_its_error(decode_identifier, raw, group, offset)


@settings(max_examples=500, deadline=None)
@given(relay_inputs())
def test_decode_relay_fails_only_with_named_errors(instance):
    """A relay is a set payload in record order; damaged ones fail by name."""
    group, raw = instance
    decodes_or_names_its_error(decode_set, raw, group)


@settings(max_examples=200, deadline=None)
@given(relays())
def test_relay_batches_round_trip(relay):
    """All of an origin's records travel as one set, their order kept."""
    group, records = relay
    payload = encode_set(EncryptedSet(records), group)
    assert decode_set(payload, group).items == records


_ONE_RECORD = encode_set(EncryptedSet([EncryptedIdentifier(((5, 6), (7,)))]), GROUPS[0])


@pytest.mark.parametrize(
    "payload, error",
    [
        # u32 one record | u8 one chunk | u16 zero elements | the record
        (
            b"\0\0\0\1" + b"\x01" + b"\0\0" + _ONE_RECORD[10:],
            "chunk 0 of 0 elements is empty or short",
        ),
        (_ONE_RECORD[:-1], "truncated set: missing token indices"),
        (_ONE_RECORD + b"\x00", "1 trailing bytes"),
        (b"\0\0\0", "missing item count"),
    ],
    ids=["empty", "partial-record", "trailing-byte", "no-id"],
)
def test_decode_relay_rejects_malformed_batches(payload, error):
    """A relay with an empty table chunk, a cut record or a trailing byte
    is refused, and so is one too short for the item count that fixes
    every record's relay id.
    """
    assert decode_set(_ONE_RECORD, GROUPS[0]).items == [EncryptedIdentifier(((5, 6), (7,)))]
    with pytest.raises(ValueError, match=error):
        decode_set(payload, GROUPS[0])
