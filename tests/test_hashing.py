import hashlib

from psualign import (
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
