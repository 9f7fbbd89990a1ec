"""Exception types shared across the package."""


class PsuAlignError(Exception):
    """Base class for every error raised by this package."""


# --- group parameters ---------------------------------------------------


class GroupParameterError(PsuAlignError, ValueError):
    """Invalid safe-prime group parameters."""


class NotPrimeError(GroupParameterError):
    """The candidate modulus failed the primality test."""


class NotSafePrimeError(GroupParameterError):
    """The modulus is prime but (p - 1) / 2 is not."""


class TooSmallPrimeError(GroupParameterError):
    """Moduli below 7 leave no room for a nontrivial subgroup."""


class RngFailure(PsuAlignError):
    """The randomness source could not produce a secret exponent."""


# --- tokenization and comparison ----------------------------------------


class ArityMismatch(PsuAlignError, ValueError):
    """A record does not carry the configured number of identifier fields."""


class ShapeMismatch(PsuAlignError, ValueError):
    """Two identifiers disagree on their feature count."""


class ConfigMismatch(PsuAlignError, ValueError):
    """Two Bloom filters were built with different (size, hash_count)."""


# --- transport ----------------------------------------------------------


class TransportFailure(PsuAlignError):
    """Message delivery failed; the session cannot continue."""


class PeerUnreachable(TransportFailure):
    """The destination party id is unknown or its endpoint is gone."""


class PeerSilent(TransportFailure):
    """No message arrived before the receive deadline."""


class FramingError(TransportFailure):
    """A wire frame could not be parsed."""


class ConfigDigestMismatch(TransportFailure):
    """A peer handshook with a different session configuration digest."""


class HandshakeTimeout(TransportFailure):
    """Not all peers became reachable before the handshake deadline."""


# --- protocol -----------------------------------------------------------


class ProtocolError(PsuAlignError):
    """A party observed a violation of the protocol contract."""


class PhaseViolation(ProtocolError):
    """A message arrived that is illegal in the current protocol phase."""


class NoMatchInUnion(ProtocolError):
    """A record's lookup found no union entry; parties disagree on group
    parameters or hashing, or a peer altered the record on its way."""


class ProtocolAbort(ProtocolError):
    """A peer aborted the session; the run is unrecoverable."""


# --- harness ------------------------------------------------------------


class ConfigError(PsuAlignError, ValueError):
    """The harness configuration file is invalid."""


class DatasetError(PsuAlignError, ValueError):
    """A dataset file is missing required identifier columns or is malformed."""


class MissingOutput(PsuAlignError):
    """Evaluation was requested but protocol output files are absent, malformed or from different sessions."""
