"""Shared oracles and builders for the test suite.

Oracles here are deliberately independent of the package internals:
trial-division primality, enumeration of quadratic residues, brute-force
token overlap, and a plaintext union computed from hashed tuples.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from fractions import Fraction

from psualign import (
    GroupParams,
    MatchConfig,
    FeatureSpec,
    decode_set,
    hash_identifier,
    tokenize_record,
)
from psualign.config import SessionConfig
from psualign.simulate import build_parties, run_session
from psualign.transport import InProcessHub


def set_layout(
    group,
    table,
    items,
    index_width=1,
    chunks=None,
    chunk_count=None,
    shapes=None,
    shape_ids=None,
    token_indices=None,
) -> bytes:
    """A set payload written out by hand: ``items`` hold table indices.

    ``chunks`` lists the table's chunk sizes, by default the canonical
    split into chunks of 65,535; ``chunk_count`` is the S byte, by
    default the number of chunks.  ``shapes`` is the shape table and
    ``shape_ids`` the items' shape indices, by default the items' shapes
    in first-occurrence order; the shape indices are written unless there
    is one shape and it holds a token.  The token indices are written
    when ``token_indices`` is true, by default unless the table holds as
    many elements as the items hold tokens.
    """
    if chunks is None:
        chunks = [min(0xFFFF, len(table) - at) for at in range(0, len(table), 0xFFFF)]
    out = len(items).to_bytes(4, "big")
    out += bytes([len(chunks) if chunk_count is None else chunk_count])
    at = 0
    for size in chunks:
        out += size.to_bytes(2, "big")
        out += b"".join(group.encode_element(value) for value in table[at : at + size])
        at += size
    item_shapes = [tuple(map(len, item)) for item in items]
    if shapes is None:
        shapes = list(dict.fromkeys(item_shapes))
    if shape_ids is None:
        shape_ids = [shapes.index(shape) for shape in item_shapes]
    out += len(shapes).to_bytes(2, "big")
    for shape in shapes:
        out += bytes([len(shape)]) + b"".join(n.to_bytes(2, "big") for n in shape)
    if not (len(shapes) == 1 and any(shapes[0])):
        shape_width = 1 if len(shapes) <= 256 else 2
        out += b"".join(i.to_bytes(shape_width, "big") for i in shape_ids)
    indices = [index for item in items for feature in item for index in feature]
    if token_indices is None:
        token_indices = len(table) != len(indices)
    if token_indices:
        out += b"".join(index.to_bytes(index_width, "big") for index in indices)
    return out


def set_length(enc_set, group, index_width) -> int:
    """The bytes of ``enc_set``'s payload, with S = ceil(D / 65,535):

    ``5 + 2S + D*w + 2 + sum over shapes of (1 + 2F) + n*s + T*i``, where
    w is 16 for a fingerprint set, the shape index width s is 0 for one
    shape that holds a token, and the token indices are left out (i = 0)
    when D = T.
    """
    shapes = list(dict.fromkeys(tuple(map(len, item.features)) for item in enc_set.items))
    values = [v for item in enc_set.items for feature in item.features for v in feature]
    distinct = len(set(values))
    shape_width = 0 if len(shapes) == 1 and any(shapes[0]) else 1 if len(shapes) <= 256 else 2
    return (
        5
        + 2 * -(-distinct // 0xFFFF)
        + distinct * (16 if enc_set.fingerprints else group.element_width)
        + 2
        + sum(1 + 2 * len(shape) for shape in shapes)
        + len(enc_set.items) * shape_width
        + (0 if distinct == len(values) else len(values) * index_width)
    )


def free_port() -> int:
    """A localhost port that was free a moment ago."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def quadratic_residues(p: int) -> set[int]:
    return {(y * y) % p for y in range(1, p)}


def overlap_count(tokens_a, tokens_b) -> int:
    """Indices of ``tokens_a`` whose value occurs in ``tokens_b``."""
    values = set(tokens_b)
    return sum(1 for token in tokens_a if token in values)


TWO_FEATURES = MatchConfig(
    features=(FeatureSpec("name", 8, 3), FeatureSpec("city", 6, 2)),
    threshold=Fraction(1),
    ordered=True,
)

SINGLE_FEATURE_NOISY = MatchConfig(
    features=(FeatureSpec("name", 12, 3),),
    threshold=Fraction(7, 10),
    ordered=False,
)


def session_config(
    party_count: int,
    match: MatchConfig,
    group: str = "p512",
    seed: int | None = 1,
    recv_timeout: float = 30.0,
) -> SessionConfig:
    return SessionConfig(
        party_count=party_count,
        variant="ordered" if match.ordered else "unordered",
        group_source=group,
        match=match,
        datasets=(),
        seed=seed,
        recv_timeout=recv_timeout,
    )


def hash_rows(raw_rows, match: MatchConfig, group: GroupParams):
    return [hash_identifier(tokenize_record(row, match), group) for row in raw_rows]


def random_word(rng: random.Random, min_len: int = 3, max_len: int = 10) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return "".join(rng.choice(letters) for _ in range(rng.randint(min_len, max_len)))


def random_instance(rng: random.Random, party_count: int, max_rows: int = 20):
    """Raw identifier rows for every party, drawn from a shared entity pool.

    Pool reuse guarantees cross-party duplicates; rows may repeat within a
    party as well.
    """
    pool = [
        (random_word(rng), random_word(rng, 2, 7))
        for _ in range(rng.randint(1, 24))
    ]
    parties = []
    for _ in range(party_count):
        rows = [rng.choice(pool) for _ in range(rng.randint(0, max_rows))]
        parties.append(rows)
    return parties


def hashed_union_oracle(hashed_per_party) -> int:
    """Brute-force union size over tokenized-hashed identifier tuples."""
    return len({ident.features for hashed in hashed_per_party for ident in hashed})


def plaintext_equal_pairs(raw_per_party):
    """Cross-party (party, row) pairs holding identical raw identifier tuples."""
    groups: dict[tuple, list] = {}
    for party_id, rows in enumerate(raw_per_party):
        for row_index, row in enumerate(rows):
            groups.setdefault(tuple(row), []).append((party_id, row_index))
    pairs = []
    for members in groups.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if members[a][0] != members[b][0]:
                    pairs.append((members[a], members[b]))
    return pairs


class TapTransport:
    """A hub endpoint that keeps every message its party sends, and to whom.

    ``max_delay`` > 0 makes every send sleep a random amount first, which
    jitters cross-pair interleaving while preserving per-pair order (the
    sender blocks, so its own sends stay sequential).
    """

    def __init__(self, inner, max_delay: float = 0.0, delay_rng=None):
        self.inner = inner
        self.max_delay = max_delay
        self.delay_rng = delay_rng
        self.sent = []
        self.receivers = []  # the party each message in ``sent`` went to

    def establish(self, timeout=None) -> None:
        self.inner.establish(timeout)

    def send(self, to, message) -> None:
        if self.max_delay > 0:
            time.sleep(self.delay_rng.uniform(0, self.max_delay))
        self.inner.send(to, message)
        self.sent.append(message)
        self.receivers.append(to)

    def recv(self, timeout=None):
        return self.inner.recv(timeout)


def run_tapped(cfg: SessionConfig, hashed_per_party, **tap):
    """An in-process session over :class:`TapTransport` endpoints.

    Returns ``(parties, results, taps)``; ``tap`` goes to every endpoint.
    """
    hub = InProcessHub(cfg.party_count, recv_timeout=cfg.recv_timeout)
    parties = build_parties(cfg, hashed_per_party)
    taps = [TapTransport(hub.transport(k), **tap) for k in range(cfg.party_count)]
    return parties, run_session(parties, taps), taps


def relayed_records(cfg: SessionConfig, taps) -> dict[str, int]:
    """Records carried by every TOKEN_RELAY and TOKEN_RETURN the taps sent."""
    group = cfg.group()
    carried = {"TOKEN_RELAY": 0, "TOKEN_RETURN": 0}
    for tap in taps:
        for message in tap.sent:
            if message.msg_type.name in carried:
                carried[message.msg_type.name] += len(decode_set(message.payload, group).items)
    return carried


class HoldingHub:
    """An in-process hub whose endpoints hold chosen frames back.

    ``holds`` maps the (type, sender, receiver) of a frame to the message
    types that release it: the frame is delivered right after the first
    frame of one of those types reaches the same receiver, which thus
    reads that frame first.  Every endpoint sends under one lock, and
    ``taken[k]`` lists the types of the frames party k received, in order.
    """

    def __init__(self, party_count: int, recv_timeout: float, holds):
        self.hub = InProcessHub(party_count, recv_timeout=recv_timeout)
        self.holds = holds
        self.lock = threading.Lock()
        self.held = []
        self.taken = [[] for _ in range(party_count)]
        self.endpoints = [self.hub.transport(k) for k in range(party_count)]

    def transport(self, party_id: int) -> "HoldingEndpoint":
        return HoldingEndpoint(self, self.endpoints[party_id])


class HoldingEndpoint:
    """One party's endpoint on a :class:`HoldingHub`."""

    def __init__(self, owner: HoldingHub, inner):
        self.owner = owner
        self.inner = inner

    def establish(self, timeout=None) -> None:
        self.inner.establish(timeout)

    def send(self, to, message) -> None:
        owner = self.owner
        with owner.lock:
            release = owner.holds.get((message.msg_type, self.inner.my_id, to))
            if release is not None:
                owner.held.append((self.inner, to, message, release))
                return
            self.inner.send(to, message)
            for held in [h for h in owner.held if h[1] == to and message.msg_type in h[3]]:
                owner.held.remove(held)
                held[0].send(to, held[2])

    def recv(self, timeout=None):
        sender, message = self.inner.recv(timeout)
        self.owner.taken[self.inner.my_id].append(message.msg_type)
        return sender, message
