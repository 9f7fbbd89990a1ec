"""Union construction: duplicate removal, universal index assignment and fingerprints."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable

from .compare import TokenIndex, compare
from .groups import GroupParams
from .masking import FINGERPRINT_WIDTH, EncryptedIdentifier, encode_identifier
from .tokenization import MatchConfig


@dataclass(frozen=True)
class UnionTable:
    """Deduplicated union entries in universal-index order.

    Entry ``i`` owns universal index ``i``.  :func:`assign_universal_indices`
    sorts the fully masked entries by their canonical serialization; a
    session's table then holds their :func:`fingerprint`, in that order,
    which is the order of the union broadcast.
    """

    entries: tuple[EncryptedIdentifier, ...]

    @property
    def size(self) -> int:
        return len(self.entries)


def assign_universal_indices(
    entries: Iterable[EncryptedIdentifier], group: GroupParams
) -> UnionTable:
    """Order entries by ascending serialized bytes; position = universal index.

    Party 0 runs this once, on the full group elements of the finished
    union; every other party takes the broadcast's item order.
    """
    ordered = sorted(entries, key=lambda e: encode_identifier(e, group))
    return UnionTable(tuple(ordered))


def fingerprint(
    idents: Iterable[EncryptedIdentifier], group: GroupParams
) -> list[EncryptedIdentifier]:
    """Each element replaced by its 16-byte union fingerprint, read as an int.

    A fingerprint is BLAKE2b of the element's fixed-width encoding, under
    its own personalization.  Union lookups only test equality, so a
    table of fingerprints indexes records as the elements do unless two
    of the session's distinct elements collide: for n of them, with
    probability at most n^2 / 2^129.  Each distinct element is hashed once
    per call.
    """
    idents = list(idents)
    digest = {
        value: int.from_bytes(
            hashlib.blake2b(
                group.encode_element(value), digest_size=FINGERPRINT_WIDTH, person=b"psualign-uid"
            ).digest(),
            "big",
        )
        for value in {value for ident in idents for feature in ident.features for value in feature}
    }.__getitem__
    return [
        EncryptedIdentifier(tuple(tuple(map(digest, feature)) for feature in ident.features))
        for ident in idents
    ]


def dedup_exact(items: Iterable[EncryptedIdentifier]) -> list[EncryptedIdentifier]:
    """Drop exact duplicates: equal featurewise and tokenwise, position-sensitive.

    The first occurrence in scan order is kept.
    """
    return list(dict.fromkeys(items))


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
    return EncryptedIdentifier(tuple(trimmed))


def dedup_noisy(
    items: Iterable[EncryptedIdentifier], cfg: MatchConfig, rng
) -> list[EncryptedIdentifier]:
    """Merge near-duplicates under the threshold comparison.

    Scan in ascending index order: a survivor absorbs a later live item
    when each reaches the other.  ``compare`` is not symmetric when a
    feature repeats a gram, and in the matching phase it is the absorbed
    item's own record that has to reach an entry, so one direction is
    not enough.  A :class:`TokenIndex` over the items yields exactly each
    survivor's matches.
    Survivors that absorbed an item keep their full token lists, which
    every item they absorbed reaches.  Entries that absorbed nothing are
    trimmed to exactly the floor, which their own record still reaches
    and which also shrinks the broadcast.  So every input item reaches
    some survivor: no record is left without an index.

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
            if j > i and alive[j] and compare(scan[j], scan[i], cfg).is_match:
                alive[j] = False
                absorbed_any[i] = True
    survivors = []
    for i, item in enumerate(scan):
        if not alive[i]:
            continue
        survivors.append(item if absorbed_any[i] else trim_to_floor(item, cfg, rng))
    return survivors


def entry_locator(
    table: UnionTable, cfg: MatchConfig
) -> Callable[[EncryptedIdentifier], int | None]:
    """``ident -> universal index`` of the union entry it maps to, or None.

    Ordered sessions look up the entry equal to ``ident``.
    Unordered sessions take the lowest index that ``ident`` reaches at
    the threshold, which is what a first-match scan over the whole union
    picks: the :class:`TokenIndex` returns every such entry.
    """
    if cfg.ordered:
        return {entry: index for index, entry in enumerate(table.entries)}.get
    token_index = TokenIndex(table.entries, cfg)

    def locate(ident: EncryptedIdentifier) -> int | None:
        reached = token_index.candidates(ident, cfg)
        return reached[0] if reached else None

    return locate
