import random
from fractions import Fraction

import pytest

from psualign import (
    CompareResult,
    EncryptedIdentifier,
    FeatureSpec,
    MatchConfig,
    ShapeMismatch,
    compare,
)

from helpers import overlap_count


def ident(*features):
    return EncryptedIdentifier(tuple(tuple(f) for f in features))


def cfg_for(gram_count, threshold, features=1):
    # length = gram_count + ngram - 1 with ngram=3
    return MatchConfig(
        features=tuple(
            FeatureSpec(f"f{i}", gram_count + 2, 3) for i in range(features)
        ),
        threshold=Fraction(threshold),
        ordered=False,
    )


def test_identical_identifiers_match_at_any_threshold():
    x = ident(range(10))
    for threshold in ("0.1", "0.5", "1"):
        cfg = cfg_for(10, Fraction(threshold))
        result = compare(x, x, cfg)
        assert result.is_match
        assert result.matched_indices == (tuple(range(10)),)


def test_threshold_boundary_seven_of_ten():
    cfg = cfg_for(10, Fraction(7, 10))
    base = list(range(100, 110))
    sharing7 = base[:7] + [900, 901, 902]
    sharing6 = base[:6] + [900, 901, 902, 903]
    x = ident(base)
    assert overlap_count(base, sharing7) == 7  # independent oracle
    assert overlap_count(base, sharing6) == 6
    assert compare(x, ident(sharing7), cfg).is_match
    assert not compare(x, ident(sharing6), cfg).is_match


def test_every_feature_must_reach_its_floor():
    cfg = cfg_for(10, Fraction(7, 10), features=2)
    x = ident(range(10), range(20, 30))
    y = ident(range(10), list(range(20, 26)) + [800, 801, 802, 803])
    result = compare(x, y, cfg)
    assert not result.is_match
    assert len(result.matched_indices[0]) == 10
    assert len(result.matched_indices[1]) == 6


def test_shape_mismatch():
    cfg = cfg_for(10, Fraction(7, 10), features=2)
    with pytest.raises(ShapeMismatch):
        compare(ident(range(10), range(10)), ident(range(10)), cfg)
    with pytest.raises(ShapeMismatch):
        compare(ident(range(10)), ident(range(10)), cfg)


def test_duplicate_tokens_count_once_per_index():
    cfg = cfg_for(4, Fraction(1, 2))
    x = ident([5, 5, 5, 7])
    y = ident([5, 1, 2, 3])
    result = compare(x, y, cfg)
    # indices 0,1,2 all carry value 5 and each counts
    assert result.matched_indices == ((0, 1, 2),)
    assert result.is_match  # 3 >= ceil(0.5 * 4) = 2


def test_reflexive_and_symmetric_on_random_inputs():
    """Symmetry holds while no feature repeats a value; most pairs must decide it.

    ``y`` keeps 8 - k of ``x``'s values, k uniform in 0..4, and fills the
    rest with values ``x`` lacks, so about 3 in 5 pairs reach the floor
    of 6 and the rest miss it; the counts below keep either side from
    passing vacuously.
    """
    rng = random.Random(42)
    cfg = cfg_for(8, Fraction(3, 4))
    matches = 0
    for _ in range(200):
        tokens_x = rng.sample(range(50), 8)
        fresh = rng.sample([v for v in range(50) if v not in tokens_x], 4)
        k = rng.randint(0, 4)
        tokens_y = rng.sample(tokens_x, 8 - k) + fresh[:k]
        rng.shuffle(tokens_y)
        x, y = ident(tokens_x), ident(tokens_y)
        assert compare(x, x, cfg).is_match
        assert compare(y, y, cfg).is_match
        forward = compare(x, y, cfg).is_match
        assert forward == compare(y, x, cfg).is_match
        assert forward == (overlap_count(tokens_x, tokens_y) >= 6)
        matches += forward
    assert 80 <= matches <= 160, matches


def test_repeated_values_break_symmetry():
    """Repeated values: abab... reaches abzz... with 6 of 6, the reverse with 2.

    The first argument's repeated values each count, so ``compare`` is
    not symmetric once a feature repeats a value.
    """
    cfg = cfg_for(6, Fraction(2, 3))
    abab = ident([1, 2, 1, 2, 1, 2])
    abzz = ident([1, 2, 9, 9, 9, 9])
    assert compare(abab, abzz, cfg).is_match
    assert not compare(abzz, abab, cfg).is_match
    assert compare(abzz, abab, cfg).matched_indices == ((0, 1),)


def test_relation_is_not_transitive():
    cfg = cfg_for(10, Fraction(7, 10))
    a = ident(range(0, 10))
    b = ident([0, 1, 2, 3, 4, 5, 6, 100, 101, 102])
    c = ident([100, 101, 102, 3, 4, 5, 6, 201, 202, 203])
    assert overlap_count(a.features[0], b.features[0]) == 7
    assert overlap_count(b.features[0], c.features[0]) == 7
    assert overlap_count(a.features[0], c.features[0]) == 4
    assert compare(a, b, cfg).is_match
    assert compare(b, c, cfg).is_match
    assert not compare(a, c, cfg).is_match


def test_compare_result_type():
    cfg = cfg_for(3, Fraction(1))
    result = compare(ident([1, 2, 3]), ident([3, 2, 1]), cfg)
    assert isinstance(result, CompareResult)
    assert result.is_match
