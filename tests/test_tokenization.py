import unicodedata
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psualign import (
    ArityMismatch,
    FeatureSpec,
    MatchConfig,
    fold_text,
    ngrams,
    normalize_field,
    tokenize_record,
)

from helpers import overlap_count


NAME4 = FeatureSpec("name", 4, 2)


def test_normalize_pads_short_fields():
    assert normalize_field("ab", NAME4) == "ab  "


def test_normalize_truncates_long_fields():
    assert normalize_field("abcdef", NAME4) == "abcd"


def test_normalize_folds_case_and_accents():
    assert normalize_field("José", NAME4) == "jose"
    assert fold_text("SMITH") == "smith"
    assert fold_text("Ürümqi") == "urumqi"


def reference_fold(raw):
    """The folding table with no fast path: NFKD, combining marks dropped, casefold."""
    decomposed = unicodedata.normalize("NFKD", raw)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch)).casefold()


def test_fold_text_matches_the_table_on_every_ascii_code_point():
    every = "".join(map(chr, range(128)))
    for ch in every:
        assert fold_text(ch) == reference_fold(ch), hex(ord(ch))
    assert fold_text(every) == reference_fold(every)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(st.characters(max_codepoint=127)), st.text()))
@example("Ünïcödé ﬁ Ǆ ß ㎏ Ⅻ")
def test_fold_text_matches_the_table(raw):
    assert fold_text(raw) == reference_fold(raw)


def test_normalize_stringifies_numbers():
    spec = FeatureSpec("zip", 6, 2)
    assert normalize_field(12345, spec) == "12345 "
    assert normalize_field(98.5, spec) == "98.5  "


def test_ngrams_basic():
    assert ngrams("abcd", 2) == ("ab", "bc", "cd")


def test_ngrams_single_window():
    assert ngrams("abcd", 4) == ("abcd",)


def test_ngrams_street_example():
    grams = ngrams("123 main st.", 3)
    assert len(grams) == 10
    assert grams[:3] == ("123", "23 ", "3 m")


def test_ngrams_rejects_oversized_gram():
    with pytest.raises(ValueError):
        ngrams("ab", 3)


def test_feature_spec_raises_length_to_gram():
    spec = FeatureSpec("code", 2, 5)
    assert spec.length == 5
    assert spec.gram_count == 1


def test_feature_spec_rejects_nonpositive():
    with pytest.raises(ValueError):
        FeatureSpec("bad", 0, 1)
    with pytest.raises(ValueError):
        FeatureSpec("bad", 4, 0)


def test_match_config_threshold_is_exact():
    cfg = MatchConfig(features=(FeatureSpec("name", 12, 3),), threshold="0.7")
    assert cfg.threshold == Fraction(7, 10)
    # 0.7 * 10 grams must floor to exactly 7, never 8 via float noise.
    assert cfg.match_floors() == (7,)


def test_match_config_rejects_bad_threshold():
    with pytest.raises(ValueError):
        MatchConfig(features=(NAME4,), threshold=Fraction(0))
    with pytest.raises(ValueError):
        MatchConfig(features=(NAME4,), threshold=Fraction(3, 2))
    with pytest.raises(ValueError):
        MatchConfig(features=())


def test_tokenize_record_composition():
    cfg = MatchConfig(features=(NAME4,), ordered=False)
    assert tokenize_record(["ab"], cfg) == (("ab", "b ", "  "),)
    # An ordered record is one token: its normalized fields, joined.
    assert tokenize_record(["ab"], MatchConfig(features=(NAME4,))) == (("ab  ",),)
    ordered = MatchConfig(features=(NAME4, FeatureSpec("city", 6, 2)))
    assert tokenize_record(["Ann", "Berlin!"], ordered) == (("ann berlin",),)


def test_tokenize_record_deterministic():
    cfg = MatchConfig(features=(NAME4, FeatureSpec("city", 6, 2)))
    a = tokenize_record(["ann", "berlin"], cfg)
    b = tokenize_record(["ann", "berlin"], cfg)
    assert a == b


def test_tokenize_record_arity_check():
    cfg = MatchConfig(features=(NAME4, FeatureSpec("city", 6, 2)))
    with pytest.raises(ArityMismatch):
        tokenize_record(["a", "b", "c"], cfg)


@settings(max_examples=150, deadline=None)
@given(
    raw=st.text(max_size=30),
    length=st.integers(min_value=1, max_value=16),
    gram=st.integers(min_value=1, max_value=16),
)
def test_token_shape_property(raw, length, gram):
    spec = FeatureSpec("f", length, gram)
    field = normalize_field(raw, spec)
    assert len(field) == spec.length
    grams = ngrams(field, spec.ngram)
    assert len(grams) == spec.gram_count
    assert all(len(g) == spec.ngram for g in grams)
    # consecutive grams overlap in ngram - 1 characters
    for left, right in zip(grams, grams[1:]):
        assert left[1:] == right[:-1]


@pytest.mark.parametrize("length,gram", [(6, 2), (8, 3), (12, 3), (5, 5)])
def test_single_substitution_damage_bound(length, gram):
    """One changed character destroys at most min(gram, gram_count) grams."""
    spec = FeatureSpec("f", length, gram)
    base = "abcdefghijklmnop"[:length]
    grams_before = ngrams(base, gram)
    bound = min(gram, spec.gram_count)
    for position in range(length):
        mutated = base[:position] + "z" + base[position + 1 :]
        grams_after = ngrams(mutated, gram)
        changed = sum(1 for a, b in zip(grams_before, grams_after) if a != b)
        assert changed <= bound
        # and the multiset overlap keeps at least gram_count - bound indices
        assert overlap_count(grams_before, grams_after) >= spec.gram_count - bound
