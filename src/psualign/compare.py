"""Approximate equality of masked identifiers by per-feature token overlap."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ShapeMismatch
from .tokenization import MatchConfig


@dataclass(frozen=True)
class CompareResult:
    """Outcome of a threshold comparison.

    ``matched_indices`` lists, per feature, the token indices of the
    first argument whose value occurs somewhere in the second argument's
    feature.  ``is_match`` is true iff every feature reached its floor
    ceil(threshold * gram_count).
    """

    is_match: bool
    matched_indices: tuple[tuple[int, ...], ...]


def _check_shape(ident, cfg: MatchConfig) -> None:
    if len(ident.features) != cfg.d_match:
        raise ShapeMismatch(
            f"identifiers have {len(ident.features)} features, config expects {cfg.d_match}"
        )


def compare(x, y, cfg: MatchConfig) -> CompareResult:
    """Count, per feature, the tokens of ``x`` present in ``y``.

    Each index of ``x`` is counted once no matter how many tokens of
    ``y`` it equals.  Both inputs must be masked under the same total
    exponent for value equality to be meaningful.  The relation is
    reflexive and deliberately not transitive.  It is symmetric in
    ``is_match`` only while neither feature repeats a value: a value
    that occurs k times in ``x`` counts k times, so ``"abab..."`` can
    reach the floor against ``"abzz..."`` while the reverse falls short.
    """
    _check_shape(x, cfg)
    _check_shape(y, cfg)
    floors = cfg.match_floors()
    matched: list[tuple[int, ...]] = []
    is_match = True
    for feature_x, feature_y, floor in zip(x.features, y.features, floors):
        values_y = set(feature_y)
        hits = tuple(i for i, value in enumerate(feature_x) if value in values_y)
        matched.append(hits)
        if len(hits) < floor:
            is_match = False
    return CompareResult(is_match, tuple(matched))


class TokenIndex:
    """Exact candidate generation for :func:`compare` over a fixed entry list.

    Per feature, ``postings`` maps a masked token value to the ascending
    ids of the entries whose feature holds that value, each id once.
    ``candidates(x, cfg)`` then returns exactly the ids ``y`` for which
    ``compare(x, entries[y], cfg).is_match`` holds, at a cost that grows
    with the postings ``x`` touches rather than with the entry count.
    """

    def __init__(self, entries, cfg: MatchConfig):
        self.postings: list[dict[int, list[int]]] = [{} for _ in range(cfg.d_match)]
        for entry_id, entry in enumerate(entries):
            _check_shape(entry, cfg)
            for postings, feature in zip(self.postings, entry.features):
                for value in set(feature):
                    postings.setdefault(value, []).append(entry_id)

    def candidates(self, x, cfg: MatchConfig) -> list[int]:
        """Ascending ids of the entries that ``x`` reaches in every feature.

        Hits are counted once per token index of ``x``, as ``compare``
        counts them.  ``MatchConfig`` makes every floor at least 1, so a
        feature that ``x`` shares with no entry leaves no candidate.
        """
        _check_shape(x, cfg)
        survivors: set[int] | None = None
        for postings, feature, floor in zip(self.postings, x.features, cfg.match_floors()):
            hits: Counter = Counter()
            for value in feature:
                hits.update(postings.get(value, ()))
            reached = {entry_id for entry_id, count in hits.items() if count >= floor}
            survivors = reached if survivors is None else survivors & reached
        return sorted(survivors)
