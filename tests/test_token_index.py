"""The token index against the brute-force all-pairs ``compare`` scan.

The references below are the scans the index replaced: every later item
against every earlier survivor in dedup, in both directions, and every
union entry in ascending order in matching, each pair decided by
``compare`` alone.
"""

import random
from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from psualign import (
    EncryptedIdentifier,
    FeatureSpec,
    MatchConfig,
    compare,
    dedup_noisy,
    make_group_params,
)
from psualign.compare import TokenIndex
from psualign.union import UnionTable, entry_locator, trim_to_floor

G512 = make_group_params("p512")


@dataclass(frozen=True)
class FloorConfig(MatchConfig):
    """A match config whose floors are given directly.

    Each is at least 1, as ``MatchConfig`` makes every floor: a threshold
    in (0, 1] of a feature of at least one gram.
    """

    floors: tuple[int, ...] = ()

    def match_floors(self) -> tuple[int, ...]:
        return self.floors


def config(floors) -> FloorConfig:
    features = tuple(FeatureSpec(f"f{k}", 8, 3) for k in range(len(floors)))
    return FloorConfig(features=features, ordered=False, floors=tuple(floors))


def ident(*features) -> EncryptedIdentifier:
    return EncryptedIdentifier(tuple(tuple(f) for f in features))


def brute_dedup(items, cfg, rng):
    alive = [True] * len(items)
    absorbed_any = [False] * len(items)
    for i in range(len(items)):
        if not alive[i]:
            continue
        for j in range(i + 1, len(items)):
            if (
                alive[j]
                and compare(items[i], items[j], cfg).is_match
                and compare(items[j], items[i], cfg).is_match
            ):
                alive[j] = False
                absorbed_any[i] = True
    return [
        item if absorbed_any[i] else trim_to_floor(item, cfg, rng)
        for i, item in enumerate(items)
        if alive[i]
    ]


def brute_first_match(probe, entries, cfg):
    for index, entry in enumerate(entries):
        if compare(probe, entry, cfg).is_match:
            return index
    return None


@st.composite
def features(draw, stream):
    """One feature's tokens: random, a window of a shared stream, or two alternating values.

    Windows of one stream at nearby offsets overlap in chains that are
    not transitive; alternating values repeat grams within a feature;
    tokens come from a small alphabet, so values repeat across items.
    """
    kind = draw(st.sampled_from(("random", "window", "alternating")))
    if kind == "random":
        return draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    size = draw(st.integers(1, 6))
    if kind == "window":
        start = draw(st.integers(0, len(stream) - size))
        return stream[start : start + size]
    a, b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return [(a, b)[t % 2] for t in range(size)]


@st.composite
def instances(draw):
    """A match config of 1 to 3 features of floor 1 to 4, and up to 8 identifiers."""
    floors = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    stream = draw(st.lists(st.integers(1, 12), min_size=12, max_size=12))
    items = [
        ident(*(draw(features(stream)) for _ in floors))
        for _ in range(draw(st.integers(1, 8)))
    ]
    return config(floors), items


CHAIN = (  # a~b and b~c reach 4 of 6, a~c only 2
    config([4]),
    [ident([1, 2, 3, 4, 5, 6]), ident([3, 4, 5, 6, 7, 8]), ident([5, 6, 7, 8, 9, 10])],
)
ASYMMETRIC = (  # "abab..." reaches "abzz..." with 6 of 6; the reverse with 2
    config([4]),
    [ident([1, 2, 1, 2, 1, 2]), ident([1, 2, 9, 9, 9, 9])],
)
ONE_GRAM = (  # floor 1 in the first feature: one shared token reaches
    config([1, 3]),
    [ident([5], [1, 2, 3]), ident([5, 6], [1, 2, 3]), ident([7], [1, 2, 3]), ident([5], [4])],
)


@settings(max_examples=300, deadline=None)
@given(instances())
@example(CHAIN)
@example(ASYMMETRIC)
@example(ONE_GRAM)
def test_candidates_are_exactly_the_compare_matches(instance):
    cfg, items = instance
    index = TokenIndex(items, cfg)
    for probe in items:
        expected = [y for y, entry in enumerate(items) if compare(probe, entry, cfg).is_match]
        assert index.candidates(probe, cfg) == expected


@settings(max_examples=300, deadline=None)
@given(instances(), st.integers(0, 2**32))
@example(CHAIN, 0)
@example(ASYMMETRIC, 0)
@example(ONE_GRAM, 0)
def test_dedup_noisy_keeps_the_brute_force_survivors(instance, seed):
    cfg, items = instance
    got = dedup_noisy(items, cfg, random.Random(seed))
    assert got == brute_dedup(items, cfg, random.Random(seed))


@settings(max_examples=300, deadline=None)
@given(instances(), st.integers(0, 8))
@example(CHAIN, 3)
@example(ASYMMETRIC, 1)
@example(ONE_GRAM, 2)
def test_entry_locator_picks_the_first_brute_force_match(instance, union_size):
    """Probes are the union's own entries and the items left out of it."""
    cfg, items = instance
    entries = items[:union_size]
    locate = entry_locator(UnionTable(tuple(entries)), cfg)
    expected = [brute_first_match(probe, entries, cfg) for probe in items]
    assert [locate(probe) for probe in items] == expected
