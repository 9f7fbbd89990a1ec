import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psualign import (
    EncryptedIdentifier,
    FeatureSpec,
    MatchConfig,
    MessageType,
    NoMatchInUnion,
    Party,
    TransportFailure,
    decode_set,
    encode_identifier,
    encode_set,
    make_group_params,
)
from psualign.corpus import generate_corpus
from psualign.simulate import build_parties, run_local_session, run_session
from psualign.transport import InProcessHub, total_message_counts

from helpers import (
    SINGLE_FEATURE_NOISY,
    hash_rows,
    overlap_count,
    relayed_records,
    run_tapped,
    session_config,
)

G512 = make_group_params("p512")


def run_noisy(raw_per_party, match=SINGLE_FEATURE_NOISY, seed=1):
    cfg = session_config(len(raw_per_party), match, seed=seed)
    group = cfg.group()
    hashed = [hash_rows(rows, match, group) for rows in raw_per_party]
    outcome = run_local_session(cfg, hashed)
    return cfg, hashed, outcome


def grams(identifier: str):
    padded = identifier.ljust(12)[:12]
    return [padded[i : i + 3] for i in range(10)]


def test_single_typo_pair_shares_an_index():
    clean = "mary kettler"
    typo = "mary kettlar"  # one substitution, interior position
    assert overlap_count(grams(clean), grams(typo)) >= 7
    raw = [[(clean,), ("other person",)], [(typo,), ("someone else",)]]
    _, _, outcome = run_noisy(raw)
    phi0 = outcome.results[0].index_map.local_to_universal
    phi1 = outcome.results[1].index_map.local_to_universal
    assert phi0[0] == phi1[0]
    assert outcome.results[0].union_table.size == 3


def test_distinct_identifiers_never_cross_link():
    raw = [
        [("qwaszxerdfcv",), ("plmoknijbuhv",)],
        [("ytrhgfbvcxza",), ("mnbvcxzlkjhg",)],
    ]
    _, _, outcome = run_noisy(raw)
    phi0 = outcome.results[0].index_map.local_to_universal
    phi1 = outcome.results[1].index_map.local_to_universal
    assert set(phi0.values()).isdisjoint(set(phi1.values()))
    assert outcome.results[0].union_table.size == 4


def test_threshold_one_still_links_identical_records():
    match = MatchConfig(
        features=(FeatureSpec("name", 12, 3),), threshold=Fraction(1), ordered=False
    )
    raw = [[("exact twin ab",)], [("exact twin ab",)]]
    _, _, outcome = run_noisy(raw, match=match)
    assert outcome.results[0].union_table.size == 1
    assert (
        outcome.results[0].index_map.local_to_universal[0]
        == outcome.results[1].index_map.local_to_universal[0]
    )


def test_no_match_lands_in_unmatched_not_error():
    """Records too far apart to merge each keep an entry of their own."""
    match = MatchConfig(
        features=(FeatureSpec("name", 12, 3),), threshold=Fraction(9, 10), ordered=False
    )
    # Interior double typo: only 8 of 10 grams survive, floor is 9, and the
    # two variants both enter the union (no merge at threshold 9 either).
    raw = [[("abcdefghijkl",)], [("abxdefghixkl",)]]
    _, hashed, outcome = run_noisy(raw, match=match)
    assert outcome.results[0].union_table.size == 2
    # each record still matches its own (trimmed-to-9) entry
    for result in outcome.results:
        assert result.index_map.local_to_universal, result.index_map
    phi0 = outcome.results[0].index_map.local_to_universal
    phi1 = outcome.results[1].index_map.local_to_universal
    assert phi0[0] != phi1[0]


def test_merged_entries_keep_full_grams_unmerged_are_trimmed():
    raw = [[("mary kettler",), ("unrelated guy",)], [("mary kettlar",)]]
    _, _, outcome = run_noisy(raw)
    lengths = sorted(
        len(entry.features[0]) for entry in outcome.results[0].union_table.entries
    )
    assert lengths == [7, 10]  # trimmed filler, full merged pair


def test_union_entries_identical_at_every_party():
    raw = [
        [("mary kettler",), ("unrelated guy",)],
        [("mary kettlar",), ("someone else",)],
        [("third person",)],
    ]
    _, _, outcome = run_noisy(raw)
    tables = [
        [encode_identifier(e, G512) for e in r.union_table.entries]
        for r in outcome.results
    ]
    assert tables[0] == tables[1] == tables[2]


def test_message_accounting_matches_ordered_rules():
    raw = [[("mary kettler",)], [("mary kettlar",), ("someone else",)]]
    cfg = session_config(2, SINGLE_FEATURE_NOISY)
    hashed = [hash_rows(rows, SINGLE_FEATURE_NOISY, cfg.group()) for rows in raw]
    _, _, taps = run_tapped(cfg, hashed)
    counts = total_message_counts([tap.inner for tap in taps])
    assert counts["SET_TRANSFER"] == 3
    assert counts["UNION_TRANSFER"] == 1
    assert counts["UID_BROADCAST"] == 1
    # One relay frame per party and hop, one return each.
    assert counts["TOKEN_RELAY"] == 2
    assert counts["TOKEN_RETURN"] == 2
    assert relayed_records(cfg, taps) == {"TOKEN_RELAY": 3, "TOKEN_RETURN": 3}


def test_four_party_run_is_stable_under_delivery_jitter():
    """Cross-pair reordering (fast peers racing the union broadcast) must
    neither fail nor change any output."""
    raw = [
        [("mary kettler",), ("unrelated guy",)],
        [("mary kettlar",), ("someone else",)],
        [("third person",), ("mary kettler",)],
        [("fourth human",)],
    ]
    cfg, hashed, plain = run_noisy(raw, seed=6)
    _, jittered, _ = run_tapped(
        cfg, hashed, max_delay=0.004, delay_rng=random.Random(99)
    )
    assert plain.results[0].union_table == jittered[0].union_table
    for a, b in zip(plain.results, jittered):
        assert a.index_map.local_to_universal == b.index_map.local_to_universal


def test_asymmetric_duplicate_grams_keep_the_orphan_its_own_entry():
    """The overlap count is index-based and thus asymmetric.

    'abababababab' has only two distinct gram values, so it reaches a
    record that does not reach it back.  Dedup merges only records that
    reach each other, so the orphan keeps an entry of its own and finds
    it in the matching phase.
    """
    absorber = "abababababab"
    orphan = "ababzzzzzzzz"
    assert overlap_count(grams(absorber), grams(orphan)) == 10
    assert overlap_count(grams(orphan), grams(absorber)) == 2
    raw = [[(absorber,)], [(orphan,), ("distinct name",)]]
    _, _, outcome = run_noisy(raw, seed=12)
    assert outcome.results[0].union_table.size == 3
    phi0 = outcome.results[0].index_map.local_to_universal
    phi1 = outcome.results[1].index_map.local_to_universal
    assert sorted(phi0) == [0] and sorted(phi1) == [0, 1]
    assert phi1[0] != phi0[0]


def test_three_party_chain_uses_fixed_scan_order():
    """Non-transitive merges resolve by ascending concatenation order."""
    rng = random.Random(0)
    # Construct three strings pairwise overlapping: a~b and b~c at >=7 grams,
    # a~c below threshold.
    a = "abcdefghijkl"
    b = "abcdefghixyz"  # shares grams 0..6 with a (7)
    c = "efghixyzqrst"  # shares a tail with b, little with a
    assert overlap_count(grams(a), grams(b)) >= 7
    raw = [[(a,)], [(b,)], [(c,)]]
    _, _, outcome = run_noisy(raw, seed=4)
    # whatever merged, all parties agree and each record resolves somewhere
    n = outcome.results[0].union_table.size
    assert 1 <= n <= 3
    for result in outcome.results:
        assert list(result.index_map.local_to_universal) == [0]


def _with_extra_feature(ident):
    return EncryptedIdentifier(ident.features + ident.features[:1])


def _with_a_token_dropped(ident):
    return EncryptedIdentifier((ident.features[0][:-1],) + ident.features[1:])


def _with_a_token_added(ident):
    first = ident.features[0]
    return EncryptedIdentifier((first + first[:1],) + ident.features[1:])


def _plant_in_set(payload, group, change):
    decoded = decode_set(payload, group)
    decoded.items[0] = change(decoded.items[0])
    return encode_set(decoded, group)


NAME_AND_CITY_NOISY = MatchConfig(
    features=(FeatureSpec("name", 12, 3), FeatureSpec("city", 6, 2)),
    threshold=Fraction(7, 10),
    ordered=False,
)


def run_planted(match, msg_type, change):
    """A 2-party session in which party 0 rewrites the first item of each
    ``msg_type`` payload it sends."""

    class PlantingParty(Party):
        def _send(self, transport, to, sent_type, origin, hop, payload):
            if sent_type is msg_type:
                payload = _plant_in_set(payload, self.group, change)
            super()._send(transport, to, sent_type, origin, hop, payload)

    cfg = session_config(2, match, seed=3, recv_timeout=5)
    group = cfg.group()
    fields = len(match.features)
    hashed = [
        hash_rows([("mary kettler", "oslo")[:fields]], match, group),
        hash_rows([("mary kettlar", "oslo")[:fields]], match, group),
    ]
    parties = build_parties(cfg, hashed)
    parties[0] = PlantingParty(
        party_id=0,
        party_count=2,
        group=group,
        match_cfg=cfg.match,
        hashed_records=hashed[0],
        rng=cfg.party_rng(0),
        session_digest=cfg.digest(),
    )
    hub = InProcessHub(2, recv_timeout=5)
    return run_session(parties, [hub.transport(0), hub.transport(1)])


@pytest.mark.parametrize(
    "match, msg_type, change, error",
    [
        (
            NAME_AND_CITY_NOISY,
            MessageType.TOKEN_RELAY,
            _with_extra_feature,
            "3 features, the session expects 2",
        ),
        (
            SINGLE_FEATURE_NOISY,
            MessageType.UID_BROADCAST,
            _with_extra_feature,
            "2 features, the session expects 1",
        ),
        (
            SINGLE_FEATURE_NOISY,
            MessageType.TOKEN_RELAY,
            _with_a_token_dropped,
            "9 tokens in feature 0, the session expects 10",
        ),
        (
            SINGLE_FEATURE_NOISY,
            MessageType.UID_BROADCAST,
            _with_a_token_added,
            "11 tokens in feature 0, the session expects 7 to 10",
        ),
    ],
    ids=["relay", "union", "relay-token-dropped", "union-token-added"],
)
def test_wrong_shape_identifier_is_rejected_on_receipt(match, msg_type, change, error):
    """A decoded identifier with the wrong feature or token count fails the session.

    Matching would otherwise find no candidate for it and fail with
    NoMatchInUnion, which names the wrong cause.
    """
    with pytest.raises(TransportFailure, match=error):
        run_planted(match, msg_type, change)


def test_foreign_elements_in_a_token_return_raise_no_match():
    """An unordered record that reaches no entry fails the session, as an ordered one does."""
    foreign = hash_rows([("qwxqwxqwxqwx",)], SINGLE_FEATURE_NOISY, G512)[0]
    with pytest.raises(NoMatchInUnion, match="party 1: record 0 reaches no union entry"):
        run_planted(SINGLE_FEATURE_NOISY, MessageType.TOKEN_RETURN, lambda _: foreign)


@st.composite
def small_sessions(draw):
    """2 or 3 parties of 1 to 4 names over a tiny alphabet, so grams repeat."""
    threshold = draw(st.sampled_from((Fraction(1, 2), Fraction(7, 10), Fraction(9, 10))))
    match = MatchConfig(
        features=(FeatureSpec("name", 8, 2),), threshold=threshold, ordered=False
    )
    name = st.text(alphabet="ab z", max_size=8).map(lambda text: (text,))
    raw = [
        draw(st.lists(name, min_size=1, max_size=4))
        for _ in range(draw(st.sampled_from((2, 3))))
    ]
    return match, raw, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(small_sessions())
def test_every_record_of_a_small_session_is_indexed(session):
    match, raw, seed = session
    _, _, outcome = run_noisy(raw, match=match, seed=seed)
    size = outcome.results[0].union_table.size
    for rows, result in zip(raw, outcome.results):
        mapping = result.index_map.local_to_universal
        assert sorted(mapping) == list(range(len(rows)))
        assert all(0 <= index < size for index in mapping.values())


@pytest.mark.parametrize(
    "corpus_seed, session_seed, union_size", [(20, 20001, 225), (209, 209001, 225)]
)
def test_noisy_names_corpus_indexes_every_record(corpus_seed, session_seed, union_size):
    """The noisy-names-p512 benchmark corpus, at seeds whose sessions once lost records."""
    columns = ("name", "street")
    corpus = generate_corpus(
        [150, 150],
        overlap=0.5,
        typo_rate=0.2,
        seed=corpus_seed,
        style="words",
        columns=columns,
        id_length=12,
    )
    match = MatchConfig(
        features=tuple(FeatureSpec(column, 12, 3) for column in columns),
        threshold=Fraction(7, 10),
        ordered=False,
    )
    cfg = session_config(2, match, seed=session_seed)
    hashed = [
        hash_rows([row.fields for row in rows], match, cfg.group())
        for rows in corpus.parties
    ]
    outcome = run_local_session(cfg, hashed)
    assert outcome.results[0].union_table.size == union_size
    for rows, result in zip(corpus.parties, outcome.results):
        assert sorted(result.index_map.local_to_universal) == list(range(len(rows)))
