import random
import threading
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psualign import (
    FeatureSpec,
    MatchConfig,
    EncryptedIdentifier,
    EncryptedSet,
    decode_identifier,
    decode_set,
    encode_identifier,
    encode_set,
    encrypt_identifier,
    encrypt_set,
    groups,
    make_group_params,
    masking,
    protocol,
)
from psualign.simulate import run_local_session

from helpers import (
    TWO_FEATURES,
    compose,
    hash_rows,
    hashed_union_oracle,
    plaintext_equal_pairs,
    random_instance,
    session_config,
    set_layout,
    set_length,
)

G23 = make_group_params(23)
G512 = make_group_params("p512")


def ident(*features):
    return EncryptedIdentifier(tuple(tuple(f) for f in features))


def feature_multisets(item):
    return tuple(tuple(sorted(feature)) for feature in item.features)


def test_identity_exponent_ordered():
    """An ordered identifier (one token per feature) passes unchanged, and
    shuffling its one-token features draws nothing from the rng."""
    x = ident([2], [13])
    rng = random.Random(0)
    state = rng.getstate()
    assert encrypt_identifier(x, 1, G23, rng).features == x.features
    assert rng.getstate() == state


def test_toy_exponentiation():
    x = ident([2, 3])
    # 2^5=32%23=9, 3^5=243%23=13; compose keeps token positions
    assert compose(x, [5], G23).features == ((9, 13),)
    out = encrypt_identifier(x, 5, G23, random.Random(0))
    assert feature_multisets(out) == ((9, 13),)


def test_ordered_mode_preserves_equality():
    """Equal one-token identifiers stay equal under the same exponent."""
    x = ident([13], [8])
    y = ident([13], [8])
    ex = encrypt_identifier(x, 7, G23, random.Random(1))
    ey = encrypt_identifier(y, 7, G23, random.Random(2))
    assert ex.features == ey.features


def test_unordered_preserves_multisets():
    rng = random.Random(0)
    x = ident([2, 3, 4, 6, 8])
    out = encrypt_identifier(x, 1, G23, rng)
    assert sorted(out.features[0]) == [2, 3, 4, 6, 8]


def test_unordered_requires_rng():
    with pytest.raises(TypeError):
        encrypt_identifier(ident([2]), 1, G23)


def test_encrypt_set_singleton():
    rng = random.Random(1)
    s = EncryptedSet([ident([2, 3])])
    out = encrypt_set(s, 1, G23, rng)
    assert len(out.items) == 1
    assert feature_multisets(out.items[0]) == ((2, 3),)


def test_encrypt_set_identity_is_item_permutation():
    rng = random.Random(2)
    items = [ident([v]) for v in (2, 3, 4, 6)]
    out = encrypt_set(EncryptedSet(list(items)), 1, G23, rng)
    assert sorted(i.features for i in out.items) == sorted(i.features for i in items)


def test_set_exponent_order_is_irrelevant_as_multisets():
    items = [ident([2, 3]), ident([4, 6]), ident([8, 9])]

    def run(first, second, seed):
        rng = random.Random(seed)
        step = encrypt_set(EncryptedSet(list(items)), first, G23, rng)
        step = encrypt_set(step, second, G23, rng)
        return sorted(map(feature_multisets, step.items))

    assert run(5, 7, 1) == run(7, 5, 2)


def test_unordered_commutation_as_feature_multisets():
    rng = random.Random(11)
    x = ident([2, 3, 4, 6], [8, 9, 12])
    for s1, s2 in [(3, 7), (5, 5), (2, 9)]:
        one = encrypt_identifier(
            encrypt_identifier(x, s1, G23, rng), s2, G23, rng
        )
        two = encrypt_identifier(
            encrypt_identifier(x, s2, G23, rng), s1, G23, rng
        )
        for fa, fb in zip(one.features, two.features):
            assert sorted(fa) == sorted(fb)


def test_compose_empty_is_identity():
    x = EncryptedIdentifier(((2, 3),))
    assert compose(x, [], G23).features == x.features


def test_compose_two_exponents():
    x = EncryptedIdentifier(((2,),))
    # 5*7 = 35 = 2 mod 11, and 2^2 = 4
    assert compose(x, [5, 7], G23).features == ((4,),)


def test_compose_order_invariant():
    rng = random.Random(5)
    x = EncryptedIdentifier(((2, 8, 13),))
    exps = [rng.randrange(1, G23.q) for _ in range(4)]
    baseline = compose(x, exps, G23)
    shuffled = list(exps)
    rng.shuffle(shuffled)
    assert compose(x, shuffled, G23).features == baseline.features


def test_shuffle_slot_frequencies():
    """Each of 4 items lands in each slot ~1/4 of runs (3 sigma band)."""
    rng = random.Random(77)
    items = [ident([v]) for v in (2, 3, 4, 6)]
    runs = 4000
    landed = Counter()
    for _ in range(runs):
        out = encrypt_set(EncryptedSet(list(items)), 1, G23, rng)
        for slot, item in enumerate(out.items):
            landed[(item.features, slot)] += 1
    expected = runs / 4
    sigma = (runs * 0.25 * 0.75) ** 0.5
    for item in items:
        for slot in range(4):
            count = landed[(item.features, slot)]
            assert abs(count - expected) <= 3 * sigma, (item.features, slot, count)


# --- serialization -------------------------------------------------------


def test_identifier_codec_roundtrip():
    x = ident([2, 3, 4], [9])
    raw = encode_identifier(x, G23)
    # u8 feature count, u16 counts, 1-byte elements for the 5-bit modulus
    assert raw == bytes([2, 0, 3, 2, 3, 4, 0, 1, 9])
    back, end = decode_identifier(raw, G23)
    assert end == len(raw)
    assert back.features == x.features


def test_set_codec_roundtrip_512():
    rng = random.Random(9)
    items = [
        ident([rng.randrange(1, G512.p) for _ in range(3)], [rng.randrange(1, G512.p)])
        for _ in range(4)
    ]
    raw = encode_set(EncryptedSet(items), G512)
    back = decode_set(raw, G512)
    assert [i.features for i in back.items] == [i.features for i in items]


def test_set_codec_rejects_trailing_bytes():
    raw = encode_set(EncryptedSet([ident([2])]), G23) + b"\x00"
    with pytest.raises(ValueError):
        decode_set(raw, G23)


def test_identifier_codec_rejects_truncation():
    raw = encode_identifier(ident([2, 3, 4]), G23)
    with pytest.raises(ValueError):
        decode_identifier(raw[:-1], G23)


def test_set_codec_writes_each_distinct_element_once():
    enc_set = EncryptedSet([ident([2, 3, 2]), ident([3, 4])])
    raw = encode_set(enc_set, G23)
    # u32 items, u8 chunk count, u16 chunk size, table (1-byte elements),
    # u16 shape count, per shape a u8 feature count and u16 token counts,
    # one 1-byte shape index per item, then the 5 tokens' 1-byte indices
    assert raw == bytes(
        [0, 0, 0, 2, 1, 0, 3, 2, 3, 4, 0, 2, 1, 0, 3, 1, 0, 2, 0, 1, 0, 1, 0, 1, 2]
    )
    assert raw == set_layout(G23, [2, 3, 4], [[[0, 1, 0]], [[1, 2]]])
    assert decode_set(raw, G23) == enc_set
    # from byte 4 on, the payload reads as an identifier holding the table
    assert decode_identifier(raw, G23, 4) == (ident([2, 3, 4]), 10)


def test_decoded_set_shares_one_int_per_distinct_element():
    value = G512.p - 2
    raw = encode_set(EncryptedSet([ident([value, value]), ident([value])]), G512)
    back = decode_set(raw, G512)
    objects = {id(v) for item in back.items for f in item.features for v in f}
    assert len(objects) == 1


@st.composite
def pooled_sets(draw):
    """Sets whose tokens come from a small pool, so D is much smaller than T."""
    group = draw(st.sampled_from([G23, G512]))
    pool = draw(st.lists(st.integers(1, group.p - 1), min_size=1, max_size=5))
    feature = st.lists(st.sampled_from(pool), max_size=8)
    items = draw(st.lists(st.lists(feature, max_size=3), max_size=8))
    return group, EncryptedSet([ident(*features) for features in items])


@settings(max_examples=300, deadline=None)
@given(pooled_sets())
def test_set_codec_roundtrip_on_repeated_tokens(instance):
    """Items come back in exactly their encoded order, on p23 and p512."""
    group, enc_set = instance
    raw = encode_set(enc_set, group)
    assert decode_set(raw, group) == enc_set
    assert len(raw) == set_length(enc_set, group, 1)


def table_of(distinct):
    """A p512 set of ``distinct`` distinct elements, a few repeated."""
    values = list(range(1, distinct + 1))
    # a feature holds at most 65,535 tokens; each item's second repeats one
    return EncryptedSet(
        [ident(values[at : at + 4096], values[at : at + 1]) for at in range(0, distinct, 4096)]
    )


@pytest.mark.parametrize("distinct, chunks", [(65_535, [65_535]), (65_536, [65_535, 1])])
def test_set_table_splits_into_chunks_of_65535(distinct, chunks):
    enc_set = table_of(distinct)
    raw = encode_set(enc_set, G512)
    assert raw[4] == len(chunks)
    at = 5
    for size in chunks:
        assert int.from_bytes(raw[at : at + 2], "big") == size
        at += 2 + size * G512.element_width
    assert len(raw) == set_length(enc_set, G512, 2)
    assert decode_set(raw, G512) == enc_set


def test_set_codec_rejects_a_short_chunk_before_the_last_and_an_empty_last_chunk():
    table = list(range(1, 65_536))
    items = [[list(range(at, min(at + 4096, len(table))))] for at in range(0, len(table), 4096)]
    assert len(decode_set(set_layout(G512, table, items, 2), G512).items) == len(items)
    with pytest.raises(ValueError, match="chunk 0 of 65534 elements is empty or short"):
        decode_set(set_layout(G512, table, items, 2, chunks=[65_534, 1]), G512)
    with pytest.raises(ValueError, match="chunk 1 of 0 elements is empty or short"):
        decode_set(set_layout(G512, table, items, 2, chunks=[65_535, 0]), G512)


def test_set_codec_refuses_more_than_255_chunks():
    """With two-element chunks for the test, 510 elements fit and 511 do not."""
    with mock.patch.object(masking, "_CHUNK", 2):
        fits = EncryptedSet([ident(range(1, 511))])
        raw = encode_set(fits, G512)
        assert raw[4] == 255
        assert decode_set(raw, G512) == fits
        with pytest.raises(ValueError, match="more than 510 distinct elements"):
            encode_set(EncryptedSet([ident(range(1, 512))]), G512)


@pytest.mark.parametrize(
    "distinct, index_width",
    [(256, 1), (257, 2), (65_536, 2), (65_537, 4)],
)
def test_set_index_width_follows_the_table_size(distinct, index_width):
    enc_set = table_of(distinct)
    raw = encode_set(enc_set, G512)
    assert len(raw) == set_length(enc_set, G512, index_width)
    assert decode_set(raw, G512) == enc_set


@pytest.mark.parametrize(
    "raw, reason",
    [
        (set_layout(G23, [2, 2], [[[0, 1]]]), "repeats an element"),
        (set_layout(G23, [2, 3], [[[0]]]), "1 set token table entries are never used"),
        (set_layout(G23, [2], [[[0, 1]]]), "outside a table"),
        (set_layout(G23, [2, 3], [[[1, 0, 1]]]), "skips ahead"),
        (set_layout(G23, [2, 3], [[[0, 1]]])[:8], "runs past the payload"),
        (bytes([0, 0, 0, 1, 0xFF, 0xFF, 0xFF]), "runs past the payload"),
        (set_layout(G23, [2, 3], [[[0, 1]]]) + b"\x00", "trailing bytes"),
        (set_layout(G23, [], [], chunks=[0]), "chunk 0 of 0 elements is empty or short"),
        (
            set_layout(G23, [2, 3], [[[0, 1]]], chunk_count=2),
            "chunk 0 of 2 elements is empty or short",
        ),
        (set_layout(G23, [], [[[0, 1]]], chunks=[]), "outside a table of 0"),
        # D = T: every token is distinct, so the indices are implied.
        (set_layout(G23, [2, 3], [[[0, 1]]], token_indices=True), "2 trailing bytes"),
        (
            set_layout(G23, [2], [[[0]]], shapes=[(1,), (1,)], shape_ids=[0]),
            "shape table repeats a shape",
        ),
        (
            set_layout(G23, [2], [[[0]]], shapes=[(1,), (2,)], shape_ids=[0]),
            "1 set shape table entries are never used",
        ),
        (set_layout(G23, [], [], shapes=[(1,)]), "1 set shape table entries are never used"),
        (
            set_layout(G23, [2, 3, 4], [[[0]], [[1, 2]]], shapes=[(2,), (1,)], shape_ids=[1, 0]),
            "shape index skips ahead",
        ),
        (
            set_layout(G23, [2, 3], [[[0]], [[1]]], shapes=[(1,), (2,)], shape_ids=[0, 2]),
            "shape index 2 outside a table of 2",
        ),
        (
            set_layout(G23, [], [[]], shapes=[], shape_ids=[0]),
            "shape index 0 outside a table of 0",
        ),
        (set_layout(G23, [2], [[[0]]])[:-1], "missing token counts"),
        # 2**32 - 1 items declared in a few bytes are refused before any is built.
        (bytes([0xFF] * 4 + [0, 0, 1, 0]), "missing shape indices"),
        (bytes([0xFF] * 4 + [0, 0, 1, 1, 0, 1]), "missing token indices"),
    ],
    ids=[
        "repeated", "unused", "index-past-table", "skips-ahead",
        "table-cut", "table-huge", "trailing",
        "empty-last-chunk", "more-chunks-than-the-table", "no-chunk-for-the-indices",
        "index-section-when-every-token-is-distinct", "shape-repeated", "shape-unused",
        "shape-without-items", "shape-skips-ahead", "shape-index-past-table",
        "items-without-shapes", "shape-cut", "token-less-items-unbounded",
        "one-token-items-unbounded",
    ],
)
def test_set_codec_rejects_non_canonical_payloads(raw, reason):
    with pytest.raises(ValueError, match=reason):
        decode_set(raw, G23)


# --- one exponentiation per distinct base per pass -------------------------


def reference_identifier(ident, exponent, group, rng):
    """``pow`` on every token, with the shuffles the masking pass draws."""
    masked = []
    for feature in ident.features:
        powered = [pow(value, exponent, group.p) for value in feature]
        rng.shuffle(powered)
        masked.append(tuple(powered))
    return EncryptedIdentifier(tuple(masked))


def reference_identifiers(idents, exponent, group, rng):
    """A memo-free pass; stands in for ``encrypt_identifiers`` at every call site."""
    return [reference_identifier(i, exponent, group, rng) for i in idents]


def reference_set(enc_set, exponent, group, rng):
    items = [reference_identifier(i, exponent, group, rng) for i in enc_set.items]
    rng.shuffle(items)
    return EncryptedSet(items)


class CountingPowmod:
    """Stands in for ``groups.powmod_many`` and records every base of every batch."""

    def __init__(self):
        self.calls = []
        self.batches = 0
        self.lock = threading.Lock()
        self.inner = groups.powmod_many

    def __call__(self, values, exponent, modulus):
        with self.lock:
            self.calls += [(exponent, base) for base in values]
            self.batches += 1
        return self.inner(values, exponent, modulus)

    def bases(self):
        return [base for _, base in self.calls]


@st.composite
def memo_instances(draw):
    """Items whose tokens repeat within a feature, across features and across items."""
    group = draw(st.sampled_from([G23, G512]))
    pool = draw(st.lists(st.integers(1, group.p - 1), min_size=1, max_size=6))
    token = st.sampled_from(pool)
    width = draw(st.integers(1, 3))
    items = draw(
        st.lists(
            st.lists(st.lists(token, max_size=6), min_size=width, max_size=width),
            max_size=6,
        )
    )
    exponent = draw(st.integers(1, group.q - 1))
    seed = draw(st.integers(0, 2**32))
    return group, [ident(*features) for features in items], exponent, seed


def distinct_bases(items):
    return {value for item in items for feature in item.features for value in feature}


@settings(max_examples=300, deadline=None)
@given(memo_instances())
def test_encrypt_set_raises_each_distinct_base_once(instance):
    group, items, exponent, seed = instance
    rng, ref_rng = random.Random(seed), random.Random(seed)
    counting = CountingPowmod()
    with mock.patch.object(groups, "powmod_many", counting):
        got = encrypt_set(EncryptedSet(list(items)), exponent, group, rng)
    expected = reference_set(EncryptedSet(list(items)), exponent, group, ref_rng)
    assert got == expected
    assert rng.getstate() == ref_rng.getstate()
    assert sorted(counting.bases()) == sorted(distinct_bases(items))
    assert counting.batches == 1


@settings(max_examples=300, deadline=None)
@given(memo_instances())
@example((G23, [ident([2, 3, 2], [3, 2, 4]), ident([4, 2])], 5, 0))
def test_encrypt_identifier_memo_is_scoped_to_one_call(instance):
    """Each call raises its own distinct bases once, in first-occurrence order.

    Calls one item at a time share nothing; one call on every item shares
    the repeats across items.
    """
    group, items, exponent, seed = instance
    rng, ref_rng = random.Random(seed), random.Random(seed)
    counting = CountingPowmod()
    with mock.patch.object(groups, "powmod_many", counting):
        alone = [encrypt_identifier(i, exponent, group, rng) for i in items]
        alone_calls = counting.bases()
        counting.calls.clear()
        together = masking.encrypt_identifiers(items, exponent, group, rng)
    expected = [
        reference_identifier(i, exponent, group, ref_rng) for i in items + items
    ]
    assert alone + together == expected
    assert rng.getstate() == ref_rng.getstate()
    assert sorted(alone_calls) == sorted(
        base for item in items for base in distinct_bases([item])
    )
    tokens = [value for item in items for feature in item.features for value in feature]
    assert counting.bases() == list(dict.fromkeys(tokens))


NOISY_TWO_FEATURES = MatchConfig(
    features=TWO_FEATURES.features, threshold=Fraction(1), ordered=False
)


@pytest.mark.parametrize("match", [TWO_FEATURES, NOISY_TWO_FEATURES], ids=["ordered", "unordered"])
def test_session_raises_no_base_twice_per_party_and_exponent(match):
    """A seeded 3-party session against the oracles and a memo-free rerun.

    The rerun masks through :func:`reference_identifiers`, so it raises
    every token occurrence; its outputs must be byte-identical.  Raises
    are keyed on (exponent, base), since helper threads raise too.
    """
    rng = random.Random("memo-session")
    raw = random_instance(rng, 3, max_rows=12)
    for rows in raw:
        rows.append(rows[0])  # a repeat inside every party's own passes
    cfg = session_config(3, match, seed=17)
    hashed = [hash_rows(rows, match, G512) for rows in raw]

    counting = CountingPowmod()
    with mock.patch.object(groups, "powmod_many", counting):
        outcome = run_local_session(cfg, hashed)
    raised = Counter(counting.calls)
    assert raised and max(raised.values()) == 1
    tokens = sum(len(f) for party in hashed for i in party for f in i.features)
    assert len(counting.calls) < (3 * 3 + 1) * tokens

    assert outcome.results[0].union_table.size == hashed_union_oracle(hashed)
    for (p1, i1), (p2, i2) in plaintext_equal_pairs(raw):
        phi1 = outcome.results[p1].index_map.local_to_universal
        phi2 = outcome.results[p2].index_map.local_to_universal
        assert phi1[i1] == phi2[i2], ((p1, i1), (p2, i2))
    tables = {
        tuple(encode_identifier(e, G512) for e in r.union_table.entries)
        for r in outcome.results
    }
    assert len(tables) == 1
    for party_id, result in enumerate(outcome.results):
        assert sorted(result.index_map.local_to_universal) == list(range(len(raw[party_id])))
        assert result.index_map.unmatched == []

    with mock.patch.object(masking, "encrypt_identifiers", reference_identifiers), \
            mock.patch.object(protocol, "encrypt_identifiers", reference_identifiers):
        reference = run_local_session(cfg, hashed)
    for got, want in zip(outcome.results, reference.results):
        assert got.union_table == want.union_table
        assert got.index_map == want.index_map
