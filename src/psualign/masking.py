"""Commutative masking of identifiers and identifier sets.

Masking raises every token to a secret exponent through
``GroupParams.exp_many``.  It is used as a deterministic commutative
layer, not as randomized encryption: layers applied by different parties
commute, and equal inputs stay equal, which is exactly what
union-by-equality needs.  Hashed and masked identifiers are one value
type, :class:`EncryptedIdentifier`, so that test is plain value equality.

Two modes exist.  "ordered" keeps token positions fixed so identifiers
stay comparable tokenwise.  "unordered" additionally draws a fresh
uniform permutation of token positions per identifier per feature, so
only the per-feature multiset survives an encryption pass.  In both
modes, set-level masking shuffles the order of identifiers.  An ordered
session's identifier is one element per record (see ``tokenization``),
so a pass there raises one base per distinct record, not one per
distinct n-gram.

Within one pass -- the tokens a party raises to one secret exponent in
one sweep -- each distinct base is raised once: the pass collects the
bases its ``powers`` memo lacks and raises them in one ``exp_many``
batch, which ``groups`` spreads over the CPUs; the memo then maps a base
to its power under that exponent and serves every repeat.  A memo hit
depends only on whether two bases are equal, never on the exponent, and
deterministic masking already shows that equality pattern to every
holder of the output, so sharing the work leaks nothing more.  A memo is
scoped to its pass and dropped with it, so no table keyed to a secret
exponent outlives the pass that made it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .groups import GroupParams

ORDERED = "ordered"
UNORDERED = "unordered"
MODES = (ORDERED, UNORDERED)


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
    shuffled masking pass.
    """

    items: list[EncryptedIdentifier] = field(default_factory=list)


def encrypt_identifiers(
    idents,
    exponent: int,
    group: GroupParams,
    mode: str = ORDERED,
    rng=None,
    powers: dict[int, int] | None = None,
) -> list[EncryptedIdentifier]:
    """One masking pass: raise every token to ``exponent``, in item order.

    The distinct bases missing from ``powers`` -- the pass's memo of
    base -> power under this same ``exponent`` -- are raised first, in
    first-occurrence order and in one ``exp_many`` batch; the memo is read
    and filled, and a fresh one is used when none is given.  Then each
    item is mapped through it, drawing the unordered permutation fresh per
    feature.  Feature order is never permuted.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == UNORDERED and rng is None:
        raise ValueError("unordered masking needs a randomness source")
    if powers is None:
        powers = {}
    bases = [value for ident in idents for feature in ident.features for value in feature]
    missing = [base for base in dict.fromkeys(bases) if base not in powers]
    powers.update(zip(missing, group.exp_many(missing, exponent)))
    masked = []
    for ident in idents:
        features = []
        for feature in ident.features:
            powered = [powers[value] for value in feature]
            if mode == UNORDERED:
                rng.shuffle(powered)
            features.append(tuple(powered))
        masked.append(EncryptedIdentifier(tuple(features)))
    return masked


def encrypt_identifier(
    ident: EncryptedIdentifier,
    exponent: int,
    group: GroupParams,
    mode: str = ORDERED,
    rng=None,
    powers: dict[int, int] | None = None,
) -> EncryptedIdentifier:
    """:func:`encrypt_identifiers` on one identifier."""
    return encrypt_identifiers([ident], exponent, group, mode, rng, powers)[0]


def encrypt_set(
    enc_set: EncryptedSet,
    exponent: int,
    group: GroupParams,
    mode: str = ORDERED,
    rng=None,
) -> EncryptedSet:
    """Mask every identifier with the same exponent, then shuffle the set.

    The item shuffle happens in both modes (it hides dataset ordering);
    unordered mode additionally permutes tokens inside each identifier.
    The call is one pass of :func:`encrypt_identifiers`.
    """
    if rng is None:
        raise ValueError("set masking needs a randomness source for the shuffle")
    items = encrypt_identifiers(enc_set.items, exponent, group, mode, rng)
    rng.shuffle(items)
    return EncryptedSet(items)


def compose(
    ident: EncryptedIdentifier, exponents, group: GroupParams
) -> EncryptedIdentifier:
    """Apply a list of exponents in order; equals one pass with their product.

    An empty list is the identity.  Test utility for the commutativity
    property, not a protocol message.
    """
    for exponent in exponents:
        ident = encrypt_identifier(ident, exponent, group, ORDERED)
    return ident


# --- serialization --------------------------------------------------------
#
# Normative layout (consumed by the wire format; Bloom hashing consumes
# only the element encoding):
#   element:    fixed-width big-endian bytes (width = GroupParams.element_width);
#   identifier: u8 feature count, then per feature a u16 big-endian token
#               count followed by that many elements;
#   set:        u32 big-endian item count | u8 chunk count S | S chunks,
#               each a u16 big-endian size n and n elements | the items,
#               each a u8 feature count, then per feature a u16 token
#               count followed by that many big-endian table indices of
#               1 byte when D <= 256, 2 when D <= 65,536, else 4.
#
# The chunks hold the table: the D distinct elements in first-occurrence
# order, S = ceil(D / 65,535) and only the last chunk short.  Every entry
# is used, in the order the items first refer to it, so a set has exactly
# one encoding.  From byte 4 on a payload reads as an identifier whose
# features are the chunks, so an identifier reader there sees every
# element.  Sets and matching relays share this layout.  The table shows
# which tokens are equal, which deterministic masking shows anyway; its
# order follows the item order: shuffled in sets, record order in relays.

# Part of the session digest, so peers on different set layouts, or on
# different identifier shapes (version 5 made an ordered record one
# element), fail at the handshake instead of on their first payload.
WIRE_LAYOUT_VERSION = 5


def encode_identifier(ident: EncryptedIdentifier, group: GroupParams) -> bytes:
    if len(ident.features) > 0xFF:
        raise ValueError("more than 255 features cannot be serialized")
    out = bytearray()
    out.append(len(ident.features))
    for feature in ident.features:
        if len(feature) > 0xFFFF:
            raise ValueError("more than 65535 tokens per feature cannot be serialized")
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
        features.append(
            tuple(
                group.decode_element(raw[pos : pos + width])
                for pos in range(offset, end, width)
            )
        )
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


def encode_set(enc_set: EncryptedSet, group: GroupParams) -> bytes:
    table = list(
        dict.fromkeys(
            [value for item in enc_set.items for feature in item.features for value in feature]
        )
    )
    if len(table) > 0xFF * _CHUNK:
        raise ValueError(f"more than {0xFF * _CHUNK} distinct elements cannot be serialized")
    index_of = dict(zip(table, range(len(table)))).__getitem__
    code, _ = _index_format(len(table))
    out = bytearray(struct.pack(">IB", len(enc_set.items), -(-len(table) // _CHUNK)))
    for start in range(0, len(table), _CHUNK):
        chunk = table[start : start + _CHUNK]
        out += len(chunk).to_bytes(2, "big")
        out += group.encode_elements(chunk)
    for item in enc_set.items:
        if len(item.features) > 0xFF:
            raise ValueError("more than 255 features cannot be serialized")
        out.append(len(item.features))
        for feature in item.features:
            if len(feature) > 0xFFFF:
                raise ValueError("more than 65535 tokens per feature cannot be serialized")
            out += struct.pack(
                f">H{len(feature)}{code}", len(feature), *map(index_of, feature)
            )
    return bytes(out)


def decode_set(raw: bytes, group: GroupParams) -> EncryptedSet:
    """Parse a set payload, accepting only its one canonical encoding.

    Raises ``ValueError`` on any malformed input, before decoding a table
    chunk whose declared size does not fit the payload.  The table is
    read through a ``memoryview``, so its bytes are not copied.
    """
    if len(raw) < 5:
        raise ValueError("truncated set: missing item count or chunk count")
    count, chunk_count = struct.unpack_from(">IB", raw)
    width = group.element_width
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
            table += group.decode_elements(view[start:offset])
    table_size = len(table)
    if len(set(table)) != table_size:
        raise ValueError("set table repeats an element")
    element = table.__getitem__
    code, index_width = _index_format(table_size)
    used: list[int] = []  # every index, in payload order
    items = []
    for _ in range(count):
        if offset >= len(raw):
            raise ValueError("truncated set: missing feature count")
        feature_count = raw[offset]
        offset += 1
        features = []
        for _ in range(feature_count):
            if offset + 2 > len(raw):
                raise ValueError("truncated set: missing token count")
            token_count = int.from_bytes(raw[offset : offset + 2], "big")
            offset += 2
            end = offset + token_count * index_width
            if end > len(raw):
                raise ValueError("truncated set: missing token indices")
            indices = struct.unpack_from(f">{token_count}{code}", raw, offset)
            if indices and max(indices) >= table_size:
                raise ValueError(
                    f"set index {max(indices)} outside a table of {table_size}"
                )
            used += indices
            features.append(tuple(map(element, indices)))
            offset = end
        items.append(EncryptedIdentifier(tuple(features)))
    if offset != len(raw):
        raise ValueError(f"{len(raw) - offset} trailing bytes after set payload")
    first_uses = list(dict.fromkeys(used))
    if first_uses != list(range(len(first_uses))):
        raise ValueError("a set index skips ahead of first-occurrence order")
    if len(first_uses) != table_size:
        unused = table_size - len(first_uses)
        raise ValueError(f"{unused} set table elements are never used")
    return EncryptedSet(items)
