"""Multi-party private set union for privacy-preserving entity alignment.

Parties tokenize their identifiers into n-grams, hash them into a
safe-prime quadratic-residue subgroup, and run a commutative-masking
union protocol that yields a shared universal index per record without
revealing which records are shared.  Two variants: ordered (exact) and
unordered (typo-tolerant threshold matching).
"""

from .bloom import BloomFilter, bloom_encode, bloom_prefilter
from .compare import CompareResult, compare
from .config import DatasetSpec, SessionConfig, load_config
from .errors import (
    ArityMismatch,
    ConfigDigestMismatch,
    ConfigError,
    ConfigMismatch,
    DatasetError,
    FramingError,
    GroupParameterError,
    HandshakeTimeout,
    MissingOutput,
    NoMatchInUnion,
    NotPrimeError,
    NotSafePrimeError,
    PeerSilent,
    PeerUnreachable,
    PhaseViolation,
    ProtocolAbort,
    ProtocolError,
    PsuAlignError,
    RngFailure,
    ShapeMismatch,
    TooSmallPrimeError,
    TransportFailure,
)
from .evaluate import EvaluationReport, build_report
from .groups import GroupParams, PRESETS, is_probable_prime, make_group_params
from .hashing import hash_identifier, hash_token
from .masking import (
    EncryptedIdentifier,
    EncryptedSet,
    compose,
    decode_identifier,
    decode_set,
    encode_identifier,
    encode_set,
    encrypt_identifier,
    encrypt_set,
)
from .messages import MessageType, ProtocolMessage, decode_frame, encode_frame
from .protocol import Party, PartyResult, Phase, UniversalIndexMap
from .simulate import SessionOutcome, run_local_session, run_tcp_session
from .tokenization import (
    FeatureSpec,
    MatchConfig,
    fold_text,
    ngrams,
    normalize_field,
    tokenize_record,
)
from .transport import InProcessHub, InProcessTransport, TcpTransport
from .union import UnionTable, assign_universal_indices, dedup_exact, dedup_noisy, fingerprint

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch",
    "BloomFilter",
    "CompareResult",
    "ConfigDigestMismatch",
    "ConfigError",
    "ConfigMismatch",
    "DatasetError",
    "DatasetSpec",
    "EncryptedIdentifier",
    "EncryptedSet",
    "EvaluationReport",
    "FeatureSpec",
    "FramingError",
    "GroupParameterError",
    "GroupParams",
    "HandshakeTimeout",
    "InProcessHub",
    "InProcessTransport",
    "MatchConfig",
    "MessageType",
    "MissingOutput",
    "NoMatchInUnion",
    "NotPrimeError",
    "NotSafePrimeError",
    "PRESETS",
    "Party",
    "PartyResult",
    "PeerSilent",
    "PeerUnreachable",
    "Phase",
    "PhaseViolation",
    "ProtocolAbort",
    "ProtocolError",
    "ProtocolMessage",
    "PsuAlignError",
    "RngFailure",
    "SessionConfig",
    "SessionOutcome",
    "ShapeMismatch",
    "TcpTransport",
    "TooSmallPrimeError",
    "TransportFailure",
    "UnionTable",
    "UniversalIndexMap",
    "assign_universal_indices",
    "bloom_encode",
    "bloom_prefilter",
    "build_report",
    "compare",
    "compose",
    "decode_frame",
    "decode_identifier",
    "decode_set",
    "dedup_exact",
    "dedup_noisy",
    "encode_frame",
    "encode_identifier",
    "encode_set",
    "encrypt_identifier",
    "encrypt_set",
    "fingerprint",
    "fold_text",
    "hash_identifier",
    "hash_token",
    "is_probable_prime",
    "load_config",
    "make_group_params",
    "ngrams",
    "normalize_field",
    "run_local_session",
    "run_tcp_session",
    "tokenize_record",
]
