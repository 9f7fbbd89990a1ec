import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from psualign import (
    EncryptedIdentifier,
    FeatureSpec,
    MatchConfig,
    assign_universal_indices,
    dedup_exact,
    dedup_noisy,
    encode_identifier,
    make_group_params,
)
from psualign.union import entry_locator, trim_to_floor

from helpers import overlap_count

G512 = make_group_params("p512")

NOISY = MatchConfig(
    features=(FeatureSpec("name", 12, 3),), threshold=Fraction(7, 10), ordered=False
)
EXACT = MatchConfig(features=(FeatureSpec("name", 12, 3),), ordered=True)


def ident(tokens):
    return EncryptedIdentifier((tuple(tokens),))


def rand_tokens(rng, count=10):
    return [rng.randrange(1, G512.p) for _ in range(count)]


# --- exact dedup -----------------------------------------------------------


def test_dedup_exact_merges_identical():
    a, b, c = ident([2, 3]), ident([2, 3]), ident([4, 5])
    assert dedup_exact([a, b, c]) == [a, c]


def test_dedup_exact_is_position_sensitive():
    assert len(dedup_exact([ident([2, 3]), ident([3, 2])])) == 2


def test_dedup_exact_disjoint_sets_add_up():
    rng = random.Random(0)
    items = [ident(rand_tokens(rng, 2)) for _ in range(5)]
    assert len(dedup_exact(items)) == 5


def test_dedup_exact_idempotent():
    rng = random.Random(1)
    items = [ident(rand_tokens(rng, 2)) for _ in range(4)]
    once = dedup_exact(items * 2)
    assert once == items


def test_dedup_exact_keeps_first_occurrence():
    a1, a2 = ident([2, 3]), ident([2, 3])
    out = dedup_exact([a1, a2])
    assert out[0] is a1


@st.composite
def repeating_items(draw):
    """Identifiers over a small value pool, so values repeat within and across items."""
    pool = draw(st.lists(st.integers(1, G512.p - 1), min_size=1, max_size=4))
    width = draw(st.integers(1, 3))
    feature = st.lists(st.sampled_from(pool), max_size=3).map(tuple)
    features = st.lists(feature, min_size=width, max_size=width).map(tuple)
    return draw(st.lists(features.map(EncryptedIdentifier), max_size=12))


def key(item):
    return encode_identifier(item, G512)


@settings(max_examples=300, deadline=None)
@given(repeating_items(), st.integers(0, 12))
def test_value_equality_agrees_with_the_byte_encoding(items, union_size):
    """``dedup_exact`` and the ordered locator against byte-keyed references."""
    first_by_key = {}
    for item in items:
        first_by_key.setdefault(key(item), item)
    survivors = dedup_exact(items)
    assert [key(s) for s in survivors] == list(first_by_key)
    assert all(s is first_by_key[key(s)] for s in survivors)

    table = assign_universal_indices(dedup_exact(items[:union_size]))
    index_of = {key(entry): index for index, entry in enumerate(table.entries)}
    locate = entry_locator(table, EXACT)
    assert [locate(probe) for probe in items] == [index_of.get(key(probe)) for probe in items]


# --- universal index assignment ---------------------------------------------


def test_assign_empty():
    table = assign_universal_indices([])
    assert table.size == 0


def test_assign_is_bijective_and_sorted():
    rng = random.Random(2)
    items = [ident(rand_tokens(rng, 3)) for _ in range(3)]
    table = assign_universal_indices(items)
    assert table.size == 3
    keys = [encode_identifier(e, G512) for e in table.entries]
    assert keys == sorted(keys)


@st.composite
def union_entries(draw):
    """Entries of 1 to 3 features of 0 to 4 tokens, over a pool holding 1 and p - 1.

    The pool is small, so values repeat within and across entries, and
    whole entries repeat.
    """
    pool = [1, G512.p - 1] + draw(st.lists(st.integers(2, G512.p - 2), max_size=3))
    feature = st.lists(st.sampled_from(pool), max_size=4).map(tuple)
    entry = st.lists(feature, min_size=1, max_size=3).map(lambda fs: EncryptedIdentifier(tuple(fs)))
    return draw(st.lists(entry, max_size=12))


@settings(max_examples=300, deadline=None)
@given(union_entries())
def test_universal_order_is_the_byte_order_of_the_encoding(entries):
    table = assign_universal_indices(entries)
    assert table.entries == tuple(sorted(entries, key=key))


def test_assign_order_insensitive():
    rng = random.Random(3)
    items = [ident(rand_tokens(rng, 3)) for _ in range(6)]
    one = assign_universal_indices(items)
    other = assign_universal_indices(list(reversed(items)))
    assert one == other


# --- noisy dedup -----------------------------------------------------------


def test_noisy_dedup_equivalent_pair_single_survivor():
    rng = random.Random(4)
    tokens = rand_tokens(rng)
    permuted = list(tokens)
    rng.shuffle(permuted)
    out = dedup_noisy([ident(tokens), ident(permuted)], NOISY, rng)
    assert len(out) == 1
    # merged survivors keep their full token list
    assert sorted(out[0].features[0]) == sorted(tokens)


def test_noisy_dedup_nontransitive_chain_scan_order():
    """a absorbs b; c shares too little with a and survives separately."""
    rng = random.Random(5)
    fresh = rand_tokens(rng, 20)
    a = fresh[0:10]
    b = a[0:7] + fresh[10:13]
    c = b[3:10] + fresh[13:16]
    assert overlap_count(a, b) == 7
    assert overlap_count(b, c) == 7
    assert overlap_count(a, c) == 4
    out = dedup_noisy([ident(a), ident(b), ident(c)], NOISY, rng)
    assert len(out) == 2
    assert sorted(out[0].features[0]) == sorted(a)


def test_noisy_dedup_disjoint_items_trimmed_to_floor():
    rng = random.Random(6)
    items = [ident(rand_tokens(rng)) for _ in range(4)]
    out = dedup_noisy(items, NOISY, rng)
    assert len(out) == 4
    floor = NOISY.match_floors()[0]
    for survivor, original in zip(out, items):
        assert len(survivor.features[0]) == floor
        assert set(survivor.features[0]) <= set(original.features[0])


def test_noisy_dedup_survivors_are_pairwise_non_matching():
    from psualign import compare

    rng = random.Random(7)
    shared = rand_tokens(rng, 60)
    items = [
        ident([shared[(i * 3 + j) % 60] for j in range(10)]) for i in range(12)
    ]
    out = dedup_noisy(items, NOISY, rng)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            assert not compare(out[i], out[j], NOISY).is_match


def test_trim_to_floor_only_shrinks_oversized_features():
    rng = random.Random(8)
    item = ident(rand_tokens(rng, 10))
    trimmed = trim_to_floor(item, NOISY, rng)
    assert len(trimmed.features[0]) == 7
    again = trim_to_floor(trimmed, NOISY, rng)
    assert again.features == trimmed.features
