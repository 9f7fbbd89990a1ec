"""Identifier normalization and tokenization.

Unordered (typo-tolerant) sessions cut every normalized field into its
sliding-window n-grams, one feature per field.  Ordered (exact) sessions
tokenize a record as one feature holding one token, the concatenation of
its normalized fields, so each record masks to one group element.  The
paper's ordered variant keeps the per-gram sequence of every field; two
records match under it exactly when their normalized fields are equal,
which is the relation one element per record keeps.  Its per-gram
representation and exponent counts are not kept: a party that knows the
final value of every gram it holds could read every union entry built
from those grams, while one element per record lets it recognize only
the entries equal to its own records.  A vocabulary with fewer distinct
grams than records costs more exponentiations this way (README,
"Ordered records").
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityMismatch

PAD_CHAR = " "


def fold_text(raw: str) -> str:
    """Case-fold and accent-strip so 'José' and 'JOSE' tokenize identically.

    NFKD compatibility decomposition, then combining marks dropped, then
    casefold.  Every party must apply this exact table before length
    normalization or matching silently fails, so it is not configurable.
    ASCII text has no compatibility forms and no combining marks, so for
    it the table is casefold alone.
    """
    if raw.isascii():
        return raw.casefold()
    decomposed = unicodedata.normalize("NFKD", raw)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return stripped.casefold()


def stringify(value) -> str:
    """Render a field value as text; numbers become plain decimal strings."""
    if isinstance(value, str):
        return value
    return str(value)


@dataclass(frozen=True)
class FeatureSpec:
    """Canonical length and gram size for one identifying feature.

    A gram size larger than the length is legal in configuration; the
    length is raised to the gram size so at least one gram exists.
    Ordered sessions cut no grams, so there the gram size acts only
    through that raise.
    """

    name: str
    length: int
    ngram: int

    def __post_init__(self):
        if self.ngram < 1:
            raise ValueError(f"feature {self.name!r}: ngram must be positive")
        if self.length < 1:
            raise ValueError(f"feature {self.name!r}: length must be positive")
        if self.ngram > self.length:
            object.__setattr__(self, "length", self.ngram)

    @property
    def gram_count(self) -> int:
        return self.length - self.ngram + 1


@dataclass(frozen=True)
class MatchConfig:
    """Shared matching parameters: feature shapes, threshold, variant.

    The threshold is kept as an exact rational so the per-feature floor
    ceil(threshold * gram_count) never suffers float rounding (0.7 * 10
    must floor to 7, not 8).  Feature order is normative and must be
    identical at every party.
    """

    features: tuple[FeatureSpec, ...]
    threshold: Fraction = Fraction(1)
    ordered: bool = True

    def __post_init__(self):
        if not self.features:
            raise ValueError("at least one feature is required")
        object.__setattr__(self, "features", tuple(self.features))
        if not isinstance(self.threshold, Fraction):
            object.__setattr__(self, "threshold", Fraction(str(self.threshold)))
        if not 0 < self.threshold <= 1:
            raise ValueError(f"threshold {self.threshold} outside (0, 1]")

    @property
    def d_match(self) -> int:
        return len(self.features)

    def match_floor(self, spec: FeatureSpec) -> int:
        return math.ceil(self.threshold * spec.gram_count)

    def match_floors(self) -> tuple[int, ...]:
        return tuple(self.match_floor(spec) for spec in self.features)


def normalize_field(raw, spec: FeatureSpec) -> str:
    """Fold, then right-pad with spaces or truncate to the canonical length."""
    length = spec.length
    return fold_text(stringify(raw))[:length].ljust(length, PAD_CHAR)


def ngrams(field: str, size: int) -> tuple[str, ...]:
    """All length-``size`` substrings of ``field``, sliding by one."""
    if size < 1:
        raise ValueError("gram size must be positive")
    if size > len(field):
        raise ValueError(f"gram size {size} exceeds field length {len(field)}")
    grams = []
    for start in range(len(field) - size + 1):
        grams.append(field[start : start + size])
    return tuple(grams)


def tokenize_record(fields, cfg: MatchConfig) -> tuple[tuple[str, ...], ...]:
    """Normalize and tokenize one record's identifier fields.

    Returns one ordered tuple of token strings per feature.  Ordered: one
    feature holding the normalized fields joined.  Each has its feature's
    fixed length, so the join is injective without a separator.
    Unordered: one feature of n-grams per normalized field.
    """
    specs = cfg.features
    if len(fields) != len(specs):
        raise ArityMismatch(
            f"record has {len(fields)} identifier fields, config expects {len(specs)}"
        )
    if cfg.ordered:
        joined = "".join(map(normalize_field, fields, specs))
        return ((joined,),)
    features = []
    for field, spec in zip(fields, specs):
        features.append(ngrams(normalize_field(field, spec), spec.ngram))
    return tuple(features)
