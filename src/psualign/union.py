"""Union construction: duplicate removal and universal index assignment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .compare import TokenIndex, compare
from .groups import GroupParams
from .masking import EncryptedIdentifier, encode_identifier
from .tokenization import MatchConfig


@dataclass(frozen=True)
class UnionTable:
    """Deduplicated union entries in universal-index order.

    Entry ``i`` owns universal index ``i``.  Entries are sorted by their
    canonical serialization, so any party holding the same set derives
    the same indexing.
    """

    entries: tuple[EncryptedIdentifier, ...]

    @property
    def size(self) -> int:
        return len(self.entries)


def assign_universal_indices(
    entries: Iterable[EncryptedIdentifier], group: GroupParams
) -> UnionTable:
    """Order entries by ascending serialized bytes; position = universal index."""
    ordered = sorted(entries, key=lambda e: encode_identifier(e, group))
    return UnionTable(tuple(ordered))


def dedup_exact(
    items: Iterable[EncryptedIdentifier], group: GroupParams
) -> list[EncryptedIdentifier]:
    """Drop exact duplicates: equal featurewise and tokenwise, position-sensitive.

    The first occurrence in scan order is kept.
    """
    seen: set[bytes] = set()
    survivors = []
    for item in items:
        key = encode_identifier(item, group)
        if key not in seen:
            seen.add(key)
            survivors.append(item)
    return survivors


def trim_to_floor(
    item: EncryptedIdentifier, cfg: MatchConfig, rng
) -> EncryptedIdentifier:
    """Randomly drop tokens down to the per-feature match floor."""
    trimmed = []
    for feature, floor in zip(item.features, cfg.match_floors()):
        if len(feature) > floor:
            keep = sorted(rng.sample(range(len(feature)), floor))
            feature = tuple(feature[i] for i in keep)
        trimmed.append(feature)
    return EncryptedIdentifier(tuple(trimmed), item.layer_count)


def dedup_noisy(
    items: Iterable[EncryptedIdentifier],
    cfg: MatchConfig,
    group: GroupParams,
    rng,
) -> list[EncryptedIdentifier]:
    """Merge near-duplicates under the threshold comparison.

    Scan in ascending index order: when a later item matches an earlier
    survivor, the later one is deleted.  A :class:`TokenIndex` over the
    items yields each survivor's matches, and ``compare`` confirms them.
    Survivors keep their full token lists; dropping the matched grams (or
    trimming a merged survivor) would push it below the match floor its
    own records need to find it again in the matching phase.  Entries that
    absorbed nothing are trimmed to exactly the floor, which also shrinks
    the broadcast.

    The relation is not transitive, so the outcome depends on this fixed
    scan order; under a permuted input the surviving set may differ.
    """
    scan = list(items)
    index = TokenIndex(scan, cfg)
    alive = [True] * len(scan)
    absorbed_any = [False] * len(scan)
    for i in range(len(scan)):
        if not alive[i]:
            continue
        for j in index.candidates(scan[i], cfg):
            if j <= i or not alive[j]:
                continue
            if compare(scan[i], scan[j], cfg).is_match:
                alive[j] = False
                absorbed_any[i] = True
    survivors = []
    for i, item in enumerate(scan):
        if not alive[i]:
            continue
        survivors.append(item if absorbed_any[i] else trim_to_floor(item, cfg, rng))
    return survivors
