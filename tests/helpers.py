"""Shared oracles and builders for the test suite.

Oracles here are deliberately independent of the package internals:
trial-division primality, enumeration of quadratic residues, brute-force
token overlap, and a plaintext union computed from hashed tuples.
"""

from __future__ import annotations

import random
import socket
from fractions import Fraction

from psualign import (
    GroupParams,
    MatchConfig,
    FeatureSpec,
    hash_identifier,
    tokenize_record,
)
from psualign.config import SessionConfig


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
