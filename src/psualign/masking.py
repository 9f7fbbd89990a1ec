"""Commutative masking of identifiers and identifier sets.

Masking raises every token to a secret exponent through
``GroupParams.exp_many``.  It is used as a deterministic commutative
layer, not as randomized encryption: layers applied by different parties
commute, and equal inputs stay equal, which is exactly what
union-by-equality needs.  Hashed and masked identifiers are one value
type, :class:`EncryptedIdentifier`, so that test is plain value equality.

A pass draws a fresh uniform permutation of token positions per
identifier per feature, so only the per-feature multiset survives it;
set-level masking also shuffles the order of identifiers.  An ordered
session's identifier is one feature of one element per record (see
``tokenization``): shuffling one token draws nothing from the
randomness source, and a pass there raises one base per distinct
record, not one per distinct n-gram.

Within one pass -- one call of :func:`encrypt_identifiers`, the tokens a
party raises to one secret exponent in one sweep -- each distinct base is
raised once: the pass collects its distinct bases and raises them in one
``exp_many`` batch, which ``groups`` spreads over the CPUs; a memo then
maps each base to its power under that exponent and serves every repeat.
A memo hit depends only on whether two bases are equal, never on the
exponent, and deterministic masking already shows that equality pattern
to every holder of the output, so sharing the work leaks nothing more.
The memo is made and dropped inside the call, so no table keyed to a
secret exponent outlives the pass that made it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import repeat

from .groups import GroupParams


@dataclass(frozen=True)
class EncryptedIdentifier:
    """Per-feature tuples of group elements, hashed and masked alike.

    A hashed identifier is one with zero masking layers.  The value is
    its elements and nothing else, so two identifiers are equal exactly
    when they serialize to the same bytes.
    """

    features: tuple[tuple[int, ...], ...]


@dataclass
class EncryptedSet:
    """A party's worth of masked identifiers.

    Item order carries no meaning once the set has been through a
    shuffled masking pass.  ``fingerprints`` marks a set whose values are
    16-byte union fingerprints (``union.fingerprint``), not group
    elements: the finished-union broadcast, in universal-index order.
    """

    items: list[EncryptedIdentifier] = field(default_factory=list)
    fingerprints: bool = False


def encrypt_identifiers(
    idents, exponent: int, group: GroupParams, rng
) -> list[EncryptedIdentifier]:
    """One masking pass: raise every token to ``exponent``, in item order.

    The distinct bases are raised first, in first-occurrence order and in
    one ``exp_many`` batch, into the pass's memo of base -> power under
    ``exponent``.  Then each item is mapped through it, and ``rng``
    shuffles each feature's tokens.  Feature order is never permuted.
    """
    tokens = [value for ident in idents for feature in ident.features for value in feature]
    bases = list(dict.fromkeys(tokens))
    powers = dict(zip(bases, group.exp_many(bases, exponent)))
    masked = []
    for ident in idents:
        features = []
        for feature in ident.features:
            powered = [powers[value] for value in feature]
            rng.shuffle(powered)
            features.append(tuple(powered))
        masked.append(EncryptedIdentifier(tuple(features)))
    return masked


def encrypt_identifier(
    ident: EncryptedIdentifier, exponent: int, group: GroupParams, rng
) -> EncryptedIdentifier:
    """:func:`encrypt_identifiers` on one identifier."""
    return encrypt_identifiers([ident], exponent, group, rng)[0]


def encrypt_set(
    enc_set: EncryptedSet, exponent: int, group: GroupParams, rng
) -> EncryptedSet:
    """Mask every identifier with the same exponent, then shuffle the set.

    The item shuffle hides dataset ordering.  The call is one pass of
    :func:`encrypt_identifiers`.
    """
    return encrypt_sets([enc_set], exponent, group, rng)[0]


def encrypt_sets(
    enc_sets, exponent: int, group: GroupParams, rng
) -> list[EncryptedSet]:
    """:func:`encrypt_set` on several sets, as one pass over their items in order.

    A base that two of the sets share is raised once.  Each set is
    shuffled on its own, in order, after the pass.
    """
    items = encrypt_identifiers(
        [item for enc_set in enc_sets for item in enc_set.items], exponent, group, rng
    )
    masked, at = [], 0
    for enc_set in enc_sets:
        part, at = items[at : at + len(enc_set.items)], at + len(enc_set.items)
        rng.shuffle(part)
        masked.append(EncryptedSet(part))
    return masked


# --- serialization --------------------------------------------------------
#
# Normative layout (consumed by the wire format; Bloom hashing consumes
# only the element encoding):
#   element:    fixed-width big-endian bytes (width = GroupParams.element_width);
#   identifier: u8 feature count, then per feature a u16 big-endian token
#               count followed by that many elements;
#   set:        u32 big-endian item count | u8 chunk count S | S chunks,
#               each a u16 big-endian size n and n elements | u16 shape
#               count K | K shapes, each a u8 feature count F and F u16
#               token counts | one shape index per item | T token indices,
#               all big-endian.
#
# The chunks hold the table: the D distinct elements in first-occurrence
# order, S = ceil(D / 65,535) and only the last chunk short.  The shapes
# are the items' distinct (per-feature token count) tuples, also in
# first-occurrence order.  An index into a table of n entries takes 1 byte
# when n <= 256, 2 when n <= 65,536, else 4.  The shape indices are left
# out when K = 1 and that shape holds a token: then they can only be 0.
# (A token-less shape keeps them, so that every item costs a byte and the
# item count stays bounded by the payload.)  The T token indices, one per
# token of every item in item order, are left out when D = T: every token
# is then distinct, and first-occurrence order makes them 0, 1, 2, ...
# Every table entry and every shape is used, in the order the items first
# refer to it, so a set has exactly one encoding.  Sets, the union walk and
# matching relays share this layout, and from byte 4 on such a payload
# reads as an identifier whose features are the chunks, so an identifier
# reader there sees every element.  The table shows which tokens are
# equal, which deterministic masking shows anyway; its order follows the
# item order: shuffled in sets, record order in relays.
#
# A fingerprint payload (the union broadcast) sets the top bit of the item
# count and writes its table entries as 16-byte fingerprints, which are
# not range-checked.  A valid payload holds fewer than 2^28 items (each
# costs a byte of a frame capped at 2^28), so the bit is free.

# Part of the session digest, so peers on different set layouts, on
# different identifier shapes (version 5 made an ordered record one
# element, version 7 made the union broadcast carry fingerprints) or on
# different round-one routes (version 8 sends every set of an origin
# other than the active party to it last), fail at the handshake instead
# of on their first payload.
WIRE_LAYOUT_VERSION = 8

# Bytes of one union fingerprint, and the item-count bit that marks a
# payload of them.
FINGERPRINT_WIDTH = 16
_FINGERPRINT_MARK = 1 << 31

# Most tokens one feature of an identifier or a set item can carry: its
# token count is a 2-byte field.
MAX_FEATURE_TOKENS = 0xFFFF


def encode_identifier(ident: EncryptedIdentifier, group: GroupParams) -> bytes:
    if len(ident.features) > 0xFF:
        raise ValueError("more than 255 features cannot be serialized")
    out = bytearray()
    out.append(len(ident.features))
    for feature in ident.features:
        if len(feature) > MAX_FEATURE_TOKENS:
            raise ValueError(f"more than {MAX_FEATURE_TOKENS} tokens per feature cannot be serialized")
        out += len(feature).to_bytes(2, "big")
        for value in feature:
            out += group.encode_element(value)
    return bytes(out)


def decode_identifier(
    raw: bytes, group: GroupParams, offset: int = 0
) -> tuple[EncryptedIdentifier, int]:
    """Parse one identifier starting at ``offset``; returns (identifier, end)."""
    width = group.element_width
    if offset >= len(raw):
        raise ValueError("truncated identifier: missing feature count")
    feature_count = raw[offset]
    offset += 1
    features = []
    for _ in range(feature_count):
        if offset + 2 > len(raw):
            raise ValueError("truncated identifier: missing token count")
        token_count = int.from_bytes(raw[offset : offset + 2], "big")
        offset += 2
        end = offset + token_count * width
        if end > len(raw):
            raise ValueError("truncated identifier: missing token bytes")
        features.append(tuple(group.decode_elements(raw[offset:end])))
        offset = end
    return EncryptedIdentifier(tuple(features)), offset


def _index_format(table_size: int) -> tuple[str, int]:
    """The ``struct`` code and byte width of one table index."""
    if table_size <= 1 << 8:
        return "B", 1
    if table_size <= 1 << 16:
        return "H", 2
    return "I", 4


_CHUNK = 0xFFFF  # most table elements one chunk holds


def _shape_index_format(shapes: list[tuple[int, ...]]) -> tuple[str, int]:
    """The ``struct`` code and byte width of one shape index; width 0 when left out."""
    if len(shapes) == 1 and any(shapes[0]):
        return "", 0
    return _index_format(len(shapes))


def encode_set(enc_set: EncryptedSet, group: GroupParams) -> bytes:
    shape_id: dict[tuple[int, ...], int] = {}
    shape_ids = []
    values: list[int] = []
    for item in enc_set.items:
        shape = tuple(map(len, item.features))
        shape_ids.append(shape_id.setdefault(shape, len(shape_id)))
        for feature in item.features:
            values += feature
    shapes = list(shape_id)
    for shape in shapes:
        if len(shape) > 0xFF:
            raise ValueError("more than 255 features cannot be serialized")
        if shape and max(shape) > MAX_FEATURE_TOKENS:
            raise ValueError(f"more than {MAX_FEATURE_TOKENS} tokens per feature cannot be serialized")
    if len(shapes) > 0xFFFF:
        raise ValueError("more than 65535 item shapes cannot be serialized")
    table = list(dict.fromkeys(values))
    if len(table) > 0xFF * _CHUNK:
        raise ValueError(f"more than {0xFF * _CHUNK} distinct elements cannot be serialized")
    count = len(shape_ids) | (_FINGERPRINT_MARK if enc_set.fingerprints else 0)
    out = bytearray(struct.pack(">IB", count, -(-len(table) // _CHUNK)))
    for start in range(0, len(table), _CHUNK):
        chunk = table[start : start + _CHUNK]
        out += len(chunk).to_bytes(2, "big")
        if enc_set.fingerprints:
            out += b"".join([value.to_bytes(FINGERPRINT_WIDTH, "big") for value in chunk])
        else:
            out += group.encode_elements(chunk)
    out += len(shapes).to_bytes(2, "big")
    for shape in shapes:
        out += struct.pack(f">B{len(shape)}H", len(shape), *shape)
    code, width = _shape_index_format(shapes)
    if width:
        out += struct.pack(f">{len(shape_ids)}{code}", *shape_ids)
    if len(table) < len(values):
        index_of = dict(zip(table, range(len(table)))).__getitem__
        code, _ = _index_format(len(table))
        out += struct.pack(f">{len(values)}{code}", *map(index_of, values))
    return bytes(out)


def _check_first_use(indices, table_size: int, what: str) -> None:
    """Every entry of a table of ``table_size`` used, each first in table order."""
    if indices and max(indices) >= table_size:
        raise ValueError(f"set {what} index {max(indices)} outside a table of {table_size}")
    first_uses = list(dict.fromkeys(indices))
    if first_uses != list(range(len(first_uses))):
        raise ValueError(f"a set {what} index skips ahead of first-occurrence order")
    if len(first_uses) != table_size:
        unused = table_size - len(first_uses)
        raise ValueError(f"{unused} set {what} table entries are never used")


def _decode_fingerprints(raw) -> list[int]:
    width = FINGERPRINT_WIDTH
    return [int.from_bytes(raw[pos : pos + width], "big") for pos in range(0, len(raw), width)]


def decode_set(
    raw: bytes, group: GroupParams, check_shape=None, fingerprints: bool | None = None
) -> EncryptedSet:
    """Parse a set payload, accepting only its one canonical encoding.

    Raises ``ValueError`` on any malformed input, before decoding a table
    chunk whose declared size does not fit the payload.  The table is
    read through a ``memoryview``, so its bytes are not copied.
    ``check_shape``, when given, is called once with each entry of the
    shape table (a tuple of per-feature token counts) before any item is
    built, and what it raises is passed on.  ``fingerprints``, when not
    None, says whether the payload must be a fingerprint one; a payload of
    the other kind raises ``ValueError`` before its table is read.
    """
    if len(raw) < 5:
        raise ValueError("truncated set: missing item count or chunk count")
    count, chunk_count = struct.unpack_from(">IB", raw)
    marked = bool(count & _FINGERPRINT_MARK)
    if fingerprints is not None and marked != fingerprints:
        kinds = ("group element", "fingerprint")
        raise ValueError(f"a {kinds[marked]} payload where a {kinds[fingerprints]} one is expected")
    count &= ~_FINGERPRINT_MARK
    width = FINGERPRINT_WIDTH if marked else group.element_width
    decode_table = _decode_fingerprints if marked else group.decode_elements
    offset = 5
    table: list[int] = []
    with memoryview(raw) as view:
        for chunk in range(chunk_count):
            if offset + 2 > len(raw):
                raise ValueError("truncated set: missing chunk size")
            (size,) = struct.unpack_from(">H", raw, offset)
            if size == 0 or size < _CHUNK and chunk < chunk_count - 1:
                raise ValueError(f"set table chunk {chunk} of {size} elements is empty or short")
            start, offset = offset + 2, offset + 2 + size * width
            if offset > len(raw):
                raise ValueError(f"set table chunk of {size} elements runs past the payload")
            table += decode_table(view[start:offset])
    table_size = len(table)
    if len(set(table)) != table_size:
        raise ValueError("set table repeats an element")

    if offset + 2 > len(raw):
        raise ValueError("truncated set: missing shape count")
    shape_count = int.from_bytes(raw[offset : offset + 2], "big")
    offset += 2
    shapes: list[tuple[int, ...]] = []
    for _ in range(shape_count):
        if offset >= len(raw):
            raise ValueError("truncated set: missing feature count")
        feature_count = raw[offset]
        end = offset + 1 + 2 * feature_count
        if end > len(raw):
            raise ValueError("truncated set: missing token counts")
        shapes.append(struct.unpack_from(f">{feature_count}H", raw, offset + 1))
        offset = end
    if len(set(shapes)) != shape_count:
        raise ValueError("set shape table repeats a shape")
    code, index_width = _shape_index_format(shapes)
    if index_width:
        end = offset + count * index_width
        if end > len(raw):
            raise ValueError("truncated set: missing shape indices")
        shape_ids = struct.unpack_from(f">{count}{code}", raw, offset)
        offset = end
        _check_first_use(shape_ids, shape_count, "shape")
        item_shapes = list(map(shapes.__getitem__, shape_ids))
        tokens = sum(map(sum, item_shapes))
    elif count == 0:
        raise ValueError("1 set shape table entries are never used")
    else:
        # One shape that holds a token: the tokens that follow bound the
        # item count, so the items are not listed before they are checked.
        item_shapes = repeat(shapes[0], count)
        tokens = count * sum(shapes[0])
    if check_shape is not None:
        for shape in shapes:
            check_shape(shape)

    values = table
    if tokens != table_size:
        code, index_width = _index_format(table_size)
        end = offset + tokens * index_width
        if end > len(raw):
            raise ValueError("truncated set: missing token indices")
        indices = struct.unpack_from(f">{tokens}{code}", raw, offset)
        offset = end
        _check_first_use(indices, table_size, "token")
        values = list(map(table.__getitem__, indices))
    if offset != len(raw):
        raise ValueError(f"{len(raw) - offset} trailing bytes after set payload")

    items = []
    at = 0
    for shape in item_shapes:
        features = []
        for size in shape:
            features.append(tuple(values[at : at + size]))
            at += size
        items.append(EncryptedIdentifier(tuple(features)))
    return EncryptedSet(items, marked)
