import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psualign import (
    EncryptedIdentifier,
    MatchConfig,
    FeatureSpec,
    hash_identifier,
    hash_token,
    make_group_params,
    tokenize_record,
)

G23 = make_group_params(23)
G512 = make_group_params("p512")

# SHA3-256("") reference vector
EMPTY_DIGEST = "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"


def test_empty_token_matches_reference_vector():
    assert hashlib.sha3_256(b"").hexdigest() == EMPTY_DIGEST
    expected = G512.hash_to_element(int(EMPTY_DIGEST, 16))
    assert hash_token("", G512) == expected


def test_hash_token_deterministic():
    assert hash_token("abc", G512) == hash_token("abc", G512)


def test_hash_token_distinct_for_distinct_tokens():
    # Derived by computing both digests; collision odds are negligible at
    # production size.
    g2048 = make_group_params("modp2048")
    assert hash_token("ab", g2048) != hash_token("ba", g2048)
    assert hash_token("ab", G512) != hash_token("ba", G512)


def test_hash_token_lands_in_subgroup():
    for token in ["", "ab", "ba", "123", "jose", "  "]:
        assert G512.contains(hash_token(token, G512))
        assert G23.contains(hash_token(token, G23))


def test_hash_identifier_preserves_shape():
    name, city = FeatureSpec("name", 4, 2), FeatureSpec("city", 6, 3)
    unordered = MatchConfig(features=(name, city), ordered=False)
    hashed = hash_identifier(tokenize_record(["ab", "rome"], unordered), G512)
    assert [len(feature) for feature in hashed.features] == [3, 4]
    ordered = MatchConfig(features=(name, city))
    hashed = hash_identifier(tokenize_record(["ab", "rome"], ordered), G512)
    assert hashed.features == ((hash_token("ab  rome  ", G512),),)


def test_cross_party_agreement():
    cfg = MatchConfig(
        features=(FeatureSpec("name", 8, 3), FeatureSpec("city", 6, 2))
    )
    here = hash_identifier(tokenize_record(["Ana Silva", "Porto"], cfg), G512)
    there = hash_identifier(tokenize_record(["Ana Silva", "Porto"], cfg), G512)
    assert here == there


def test_toy_prime_collisions_are_expected():
    # Only 11 elements exist mod 23, so >11 distinct tokens must collide.
    tokens = [f"t{i}" for i in range(40)]
    values = {hash_token(t, G23) for t in tokens}
    assert len(values) <= 11



def reference_hash_token(token, group):
    """SHA3-256, then shift-then-square through ``pow``: no fast path."""
    value = int.from_bytes(hashlib.sha3_256(token.encode("utf-8")).digest(), "big")
    return pow(value % (group.p - 1) + 1, 2, group.p)


@st.composite
def records(draw):
    """A config, ordered or not, with a record for it; fields are ASCII, any text or numbers."""
    specs = draw(
        st.lists(
            st.builds(FeatureSpec, st.just("f"), st.integers(1, 10), st.integers(1, 5)),
            min_size=1,
            max_size=3,
        )
    )
    cfg = MatchConfig(features=tuple(specs), ordered=draw(st.booleans()))
    field = st.one_of(
        st.text(st.characters(max_codepoint=127), max_size=14),
        st.text(max_size=14),
        st.integers(-(10**6), 10**6),
    )
    fields = draw(st.lists(field, min_size=len(specs), max_size=len(specs)))
    return cfg, fields, draw(st.sampled_from([G23, G512]))


@settings(max_examples=200, deadline=None)
@given(records())
def test_hash_identifier_matches_a_per_token_reference(record):
    cfg, fields, group = record
    tokens = tokenize_record(fields, cfg)
    expected = EncryptedIdentifier(
        tuple(
            tuple(reference_hash_token(token, group) for token in feature)
            for feature in tokens
        )
    )
    assert hash_identifier(tokens, group) == expected


# Known answers on p512: one ordered record of two ASCII fields, and one
# unordered record whose field takes the non-ASCII folding route.
KNOWN_ANSWERS = [
    (
        MatchConfig(features=(FeatureSpec("name", 8, 3), FeatureSpec("city", 6, 2))),
        ["Ana Silva", "Porto"],
        [
            [
                "30e5e86aba204afbe589bc24180f28eb5855e3b00ab5026c692b499f0af3f825"
                "a1d9200d3a09e647b9f2e2c75b235523a9ec52e8de45dd4019d74ba1c3dd0524"
            ]
        ],
    ),
    (
        MatchConfig(features=(FeatureSpec("name", 4, 3),), ordered=False),
        ["José"],
        [
            [
                "0250edaf065c78c1c132354db32782a189dd7a8bf796088fa7ddcb3aff62a267"
                "504b15630690ced5f174041b564714e5ef0556651707bfd7e3768ea534440210",
                "0853dc69a9b6e078d184ad828e4de87c0489fef840470a64b020f7ac4bdbbe7d"
                "a2c99f808fb257b10fbdbc5dd169fe5936db0205d741e1bb252096462d8e8809",
            ]
        ],
    ),
]


@pytest.mark.parametrize("cfg,fields,elements", KNOWN_ANSWERS, ids=["ordered", "unordered"])
def test_hash_identifier_known_answers(cfg, fields, elements):
    hashed = hash_identifier(tokenize_record(fields, cfg), G512)
    assert [[G512.encode_element(v).hex() for v in f] for f in hashed.features] == elements
