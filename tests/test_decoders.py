"""Decoders of untrusted input fail only with the codec's named errors.

Every decoder a peer's bytes reach is fed arbitrary bytes and damaged
valid encodings (cut short, one byte overwritten, junk appended).  Each
must return or raise ``FramingError``, ``ValueError`` or
``TransportFailure``; an ``IndexError``, ``OverflowError`` or the like
would escape the protocol's error handling.  Set payloads are drawn in
both layouts: group elements, and the 16-byte fingerprints of the union
broadcast.
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
from psualign.masking import FINGERPRINT_WIDTH

from helpers import set_length

GROUPS = [make_group_params(23), make_group_params("p512")]
NAMED = (FramingError, ValueError, TransportFailure)


def table_values(group, fingerprints: bool):
    """Group elements, or 16-byte fingerprints, which may be any 128-bit value."""
    if fingerprints:
        return st.integers(0, (1 << 8 * FINGERPRINT_WIDTH) - 1)
    return st.integers(1, group.p - 1)


@st.composite
def identifiers(draw, values):
    features = draw(st.lists(st.lists(values, max_size=4), max_size=3))
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
    group, fingerprints = draw(st.sampled_from(GROUPS)), draw(st.booleans())
    items = draw(st.lists(identifiers(table_values(group, fingerprints)), max_size=4))
    valid = encode_set(EncryptedSet(items, fingerprints), group)
    raw = draw(st.one_of(st.binary(max_size=400), damaged(valid)))
    return group, raw


@st.composite
def pooled_set_inputs(draw):
    """Damaged encodings of sets that repeat tokens, so indices get hit too."""
    group, fingerprints = draw(st.sampled_from(GROUPS)), draw(st.booleans())
    pool = draw(st.lists(table_values(group, fingerprints), min_size=1, max_size=4))
    feature = st.lists(st.sampled_from(pool), max_size=6)
    items = draw(st.lists(st.lists(feature, max_size=2), max_size=4))
    enc_set = EncryptedSet([EncryptedIdentifier(tuple(map(tuple, f))) for f in items], fingerprints)
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


# One record whose tokens repeat (D = 2 < T = 3), so its token indices are
# written: u32 item count | u8 chunk count | u16 chunk size | 2 elements |
# u16 shape count | u8 feature count | 2 u16 token counts | 3 indices.
_ONE_RECORD = encode_set(EncryptedSet([EncryptedIdentifier(((5, 6), (6,)))]), GROUPS[0])


@pytest.mark.parametrize(
    "payload, error",
    [
        # u32 one record | u8 one chunk | u16 zero elements | shapes, indices
        (
            b"\0\0\0\1" + b"\x01" + b"\0\0" + _ONE_RECORD[9:],
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
    assert _ONE_RECORD == bytes([0, 0, 0, 1, 1, 0, 2, 5, 6, 0, 1, 2, 0, 2, 0, 1, 0, 1, 1])
    assert decode_set(_ONE_RECORD, GROUPS[0]).items == [EncryptedIdentifier(((5, 6), (6,)))]
    with pytest.raises(ValueError, match=error):
        decode_set(payload, GROUPS[0])


# --- item shapes and the implied index sections -------------------------


@st.composite
def shaped_sets(draw):
    """Sets with one item shape or several, with and without repeated tokens.

    Half the draws take every token apart, so D = T and the token indices
    are left out; the others draw tokens from a pool of 1 to 3 elements.
    Group elements and fingerprints are drawn alike.
    """
    group, fingerprints = draw(st.sampled_from(GROUPS)), draw(st.booleans())
    counts = st.lists(st.integers(0, 3), max_size=3)
    shapes = draw(st.lists(counts.map(tuple), min_size=1, max_size=3, unique=True))
    chosen = draw(st.lists(st.sampled_from(shapes), max_size=6))
    tokens = sum(map(sum, chosen))
    drawn = table_values(group, fingerprints)
    if draw(st.booleans()) and tokens < group.p - 1:
        values = draw(st.lists(drawn, min_size=tokens, max_size=tokens, unique=True))
    else:
        pool = draw(st.lists(drawn, min_size=1, max_size=3))
        values = draw(st.lists(st.sampled_from(pool), min_size=tokens, max_size=tokens))
    items, at = [], 0
    for shape in chosen:
        features = []
        for size in shape:
            features.append(tuple(values[at : at + size]))
            at += size
        items.append(EncryptedIdentifier(tuple(features)))
    return group, EncryptedSet(items, fingerprints)


def shape_table_span(raw: bytes, group) -> tuple[int, int]:
    """Where the shape table of a valid payload starts and ends."""
    width = FINGERPRINT_WIDTH if raw[0] & 0x80 else group.element_width
    at = 5
    for _ in range(raw[4]):
        at += 2 + int.from_bytes(raw[at : at + 2], "big") * width
    start, at = at, at + 2
    for _ in range(int.from_bytes(raw[start:at], "big")):
        at += 1 + 2 * raw[at]
    return start, at


@st.composite
def damaged_shape_tables(draw):
    """A valid payload with its shape table changed: one byte overwritten,
    one shape repeated or an unused one added, or two shapes swapped."""
    group, enc_set = draw(shaped_sets())
    raw = encode_set(enc_set, group)
    start, end = shape_table_span(raw, group)
    count = int.from_bytes(raw[start : start + 2], "big")
    entries, at = [], start + 2
    for _ in range(count):
        entries.append(raw[at : at + 1 + 2 * raw[at]])
        at += len(entries[-1])
    how = draw(st.sampled_from(["overwrite", "repeat", "extra", "swap"]))
    if how == "overwrite":
        at = draw(st.integers(start, end - 1))
        table = raw[start:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1 : end]
    else:
        if how == "repeat" and entries:
            entries.append(draw(st.sampled_from(entries)))
        elif how == "extra":
            entries.insert(
                draw(st.integers(0, len(entries))),
                bytes([1]) + draw(st.integers(4, 9)).to_bytes(2, "big"),
            )
        elif len(entries) > 1:
            entries[0], entries[1] = entries[1], entries[0]
        table = len(entries).to_bytes(2, "big") + b"".join(entries)
    return group, raw[:start] + table + raw[end:]


@settings(max_examples=300, deadline=None)
@given(shaped_sets())
def test_shaped_sets_round_trip_in_their_counted_length(instance):
    """One shape or several, D = T or not, empty or not: the items come back
    in order, and the payload has exactly the sections the layout implies."""
    group, enc_set = instance
    raw = encode_set(enc_set, group)
    assert decode_set(raw, group) == enc_set
    assert len(raw) == set_length(enc_set, group, 1)


@st.composite
def damaged_shaped_sets(draw):
    group, enc_set = draw(shaped_sets())
    return group, draw(damaged(encode_set(enc_set, group)))


@settings(max_examples=500, deadline=None)
@given(st.one_of(damaged_shape_tables(), damaged_shaped_sets()))
def test_a_damaged_shaped_set_fails_by_name_or_is_canonical(instance):
    group, raw = instance
    try:
        decoded = decode_set(raw, group)
    except NAMED:
        return
    assert encode_set(decoded, group) == raw


def test_the_index_sections_appear_exactly_when_they_carry_information():
    """One shape: no shape indices; D = T: no token indices; each section
    comes back with a second shape or a repeated token."""
    group = GROUPS[1]
    one = EncryptedIdentifier(((11, 12),))
    head = 5 + 2 + 4 * group.element_width + 2 + 3
    # two items of one shape, four distinct tokens: table and shape table only
    raw = encode_set(EncryptedSet([one, EncryptedIdentifier(((13, 14),))]), group)
    assert len(raw) == head
    # a repeated token: D = 3 < T = 4, so the four 1-byte token indices follow
    raw = encode_set(EncryptedSet([one, EncryptedIdentifier(((13, 11),))]), group)
    assert len(raw) == head - group.element_width + 4
    assert raw[-4:] == bytes([0, 1, 2, 0])
    # a second shape: 1-byte shape indices, still no token indices
    raw = encode_set(EncryptedSet([one, EncryptedIdentifier(((13,), (14,)))]), group)
    assert len(raw) == head + 5 + 2
    assert raw[-2:] == bytes([0, 1])


def test_check_shape_sees_each_listed_shape_once():
    group = GROUPS[1]
    items = [
        EncryptedIdentifier(((2, 3), (4,))),
        EncryptedIdentifier(((5,),)),
        EncryptedIdentifier(((6, 7), (8,))),
    ]
    seen = []
    assert decode_set(encode_set(EncryptedSet(items), group), group, seen.append).items == items
    assert seen == [(2, 1), (1,)]


def test_shape_indices_widen_to_two_bytes_past_256_shapes():
    """256 token-less shapes of 0 to 255 empty features and one of a token."""
    group = GROUPS[1]
    items = [EncryptedIdentifier(((),) * count) for count in range(256)]
    items.append(EncryptedIdentifier(((5,),)))
    raw = encode_set(EncryptedSet(items), group)
    assert len(raw) == set_length(EncryptedSet(items), group, 1)
    assert raw[-2 * 257 :] == b"".join(k.to_bytes(2, "big") for k in range(257))
    assert decode_set(raw, group).items == items


# --- the fingerprint marker -----------------------------------------------


def test_a_fingerprint_payload_marks_its_count_and_writes_16_byte_entries():
    """The top bit of the item count marks the layout; entries are not range-checked."""
    group = GROUPS[0]
    enc_set = EncryptedSet([EncryptedIdentifier(((1 << 127, 0),))], fingerprints=True)
    raw = encode_set(enc_set, group)
    assert raw[:7] == bytes([0x80, 0, 0, 1, 1, 0, 2])
    assert raw[7:39] == (1 << 127).to_bytes(16, "big") + bytes(16)
    assert raw[39:] == bytes([0, 1, 1, 0, 2])
    assert decode_set(raw, group) == enc_set
    with pytest.raises(ValueError, match=r"element outside \[1, p\)"):
        decode_set(b"\0" + raw[1:7] + bytes([1, 0]), group)


@pytest.mark.parametrize("fingerprints", [False, True], ids=["elements-expected", "fingerprints-expected"])
def test_a_payload_of_the_other_layout_fails_before_any_item_is_built(fingerprints):
    group = GROUPS[1]
    raw = encode_set(EncryptedSet([EncryptedIdentifier(((5, 6),))], not fingerprints), group)
    assert decode_set(raw, group).fingerprints is not fingerprints
    seen = []
    kinds = ("group element", "fingerprint")
    with pytest.raises(
        ValueError,
        match=f"a {kinds[not fingerprints]} payload where a {kinds[fingerprints]} one is expected",
    ):
        decode_set(raw, group, seen.append, fingerprints=fingerprints)
    assert seen == []
