"""Harness configuration: one JSON document shared by every party.

The same file drives local simulation and networked runs.  Fields that
every party must agree on (party count, variant, group, match shapes)
feed the session digest exchanged during the handshake, together with
the set payload layout's version; a mismatch aborts before any
identifier data flows.  Unknown keys are ignored.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError
from .groups import DEFAULT_PRESET, GroupParams, make_group_params
from .masking import MAX_FEATURE_TOKENS, WIRE_LAYOUT_VERSION
from .tokenization import FeatureSpec, MatchConfig

VARIANTS = ("ordered", "unordered")
DEFAULT_TIMEOUT = 60.0


@dataclass(frozen=True)
class DatasetSpec:
    """Where one party's records live and which columns identify them."""

    csv_path: Path
    id_columns: tuple[str, ...]
    delimiter: str = ","
    has_header: bool = True
    listen: str | None = None  # host:port, networked runs only


@dataclass(frozen=True)
class SessionConfig:
    party_count: int
    variant: str
    group_source: str  # preset name or "hex:<digits>"
    match: MatchConfig
    datasets: tuple[DatasetSpec, ...]
    seed: int | None = None
    recv_timeout: float = DEFAULT_TIMEOUT
    output_dir: Path = Path("out")
    provenance_path: Path | None = None

    def __post_init__(self):
        # The digest hashes ``variant`` while parties follow ``match.ordered``.
        if self.variant != ("ordered" if self.match.ordered else "unordered"):
            raise ConfigError(
                f"variant {self.variant!r} disagrees with a match config of "
                f"ordered={self.match.ordered}"
            )

    def group(self) -> GroupParams:
        if self.group_source.startswith("hex:"):
            return make_group_params(int(self.group_source[4:], 16))
        return make_group_params(self.group_source)

    def digest(self) -> bytes:
        """Hash of the fields every party must agree on, and of the wire layout.

        Peers on different set or relay layouts then fail at the handshake
        with a digest mismatch, not on their first undecodable payload.
        """
        shared = {
            "wire_layout": WIRE_LAYOUT_VERSION,
            "party_count": self.party_count,
            "variant": self.variant,
            "group": self.group_source,
            "threshold": str(self.match.threshold),
            "features": [
                [spec.name, spec.length, spec.ngram] for spec in self.match.features
            ],
        }
        canonical = json.dumps(shared, sort_keys=True, separators=(",", ":"))
        return hashlib.sha3_256(canonical.encode("utf-8")).digest()

    def party_rng(self, party_id: int):
        """Per-party randomness: seeded stream for tests, OS entropy otherwise."""
        if self.seed is None:
            return random.SystemRandom()
        return random.Random(f"{self.seed}/party/{party_id}")


def _expect(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    # JSON true and false load as bool, a subclass of int, but are no number.
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{where}: key {key!r} must be {kind.__name__}")
    return value


def _flag(mapping: dict, key: str, default: bool, where: str) -> bool:
    value = mapping.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: key {key!r} must be true or false")
    return value


def _parse_features(raw, where: str) -> tuple[FeatureSpec, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where}: 'features' must be a non-empty list")
    features = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: feature {i} must be an object")
        features.append(
            FeatureSpec(
                name=_expect(item, "name", str, f"{where}.features[{i}]"),
                length=_expect(item, "length", int, f"{where}.features[{i}]"),
                ngram=_expect(item, "ngram", int, f"{where}.features[{i}]"),
            )
        )
    return tuple(features)


def _parse_match(raw, variant: str, where: str) -> MatchConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: 'match' must be an object")
    threshold = raw.get("threshold", 1)
    try:
        fraction = Fraction(str(threshold))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{where}: unparseable threshold {threshold!r}") from None
    try:
        match = MatchConfig(
            features=_parse_features(raw.get("features"), where),
            threshold=fraction,
            ordered=(variant == "ordered"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    for spec in match.features:
        if not match.ordered and spec.gram_count > MAX_FEATURE_TOKENS:
            raise ConfigError(
                f"{where}: feature {spec.name!r} cuts {spec.gram_count} grams, "
                f"more than the {MAX_FEATURE_TOKENS} a feature can carry"
            )
    return match


def _parse_dataset(raw, base: Path, index: int) -> DatasetSpec:
    where = f"parties[{index}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: must be an object")
    columns = raw.get("id_columns")
    if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
        raise ConfigError(f"{where}: 'id_columns' must be a list of strings")
    if not columns:
        raise ConfigError(f"{where}: 'id_columns' must not be empty")
    listen = raw.get("listen")
    if listen is not None:
        if not isinstance(listen, str):
            raise ConfigError(f"{where}: 'listen' must be a host:port string")
        parse_endpoint(listen)
    delimiter = raw.get("delimiter", ",")
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ConfigError(f"{where}: 'delimiter' must be one character")
    return DatasetSpec(
        csv_path=base / _expect(raw, "csv", str, where),
        id_columns=tuple(columns),
        delimiter=delimiter,
        has_header=_flag(raw, "has_header", True, where),
        listen=listen,
    )


def parse_config(document: dict, base: Path) -> SessionConfig:
    if not isinstance(document, dict):
        raise ConfigError("config root must be a JSON object")
    where = "config"
    party_count = _expect(document, "party_count", int, where)
    if party_count < 2:
        raise ConfigError("party_count must be at least 2")
    variant = _expect(document, "variant", str, where)
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")

    if "group_hex" in document:
        digits = _expect(document, "group_hex", str, where)
        try:
            int(digits, 16)
        except ValueError:
            raise ConfigError(f"'group_hex' {digits!r} is not a hexadecimal number") from None
        group_source = "hex:" + digits
    else:
        group_source = document.get("group", DEFAULT_PRESET)
        if not isinstance(group_source, str):
            raise ConfigError("'group' must be a preset name string")

    match = _parse_match(document.get("match"), variant, where)

    raw_parties = document.get("parties")
    if not isinstance(raw_parties, list) or len(raw_parties) != party_count:
        raise ConfigError("'parties' must list exactly party_count entries")
    datasets = tuple(
        _parse_dataset(raw, base, i) for i, raw in enumerate(raw_parties)
    )
    for spec in datasets:
        if len(spec.id_columns) != match.d_match:
            raise ConfigError(
                f"dataset {spec.csv_path.name}: {len(spec.id_columns)} id columns "
                f"but {match.d_match} features configured"
            )

    seed = document.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ConfigError("'seed' must be an integer")
    if _flag(document, "production", False, where) and seed is not None:
        raise ConfigError("production mode refuses a configured seed")

    timeout = document.get("timeout_s", DEFAULT_TIMEOUT)
    if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or not 0 < timeout < math.inf:
        raise ConfigError("'timeout_s' must be a positive number")

    output_dir = document.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("'output_dir' must be a path string")
    provenance = document.get("provenance")
    if provenance is not None and not isinstance(provenance, str):
        raise ConfigError("'provenance' must be a path string")

    return SessionConfig(
        party_count=party_count,
        variant=variant,
        group_source=group_source,
        match=match,
        datasets=datasets,
        seed=seed,
        recv_timeout=float(timeout),
        output_dir=base / output_dir,
        provenance_path=(base / provenance) if provenance else None,
    )


def load_config(path) -> SessionConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(document, path.parent)


def parse_endpoint(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"endpoint {value!r} is not host:port")
    try:
        number = int(port)
    except ValueError:
        raise ConfigError(f"endpoint {value!r} has a non-numeric port") from None
    if not 0 <= number <= 0xFFFF:
        raise ConfigError(f"endpoint {value!r} has a port outside 0-65535")
    return host, number
