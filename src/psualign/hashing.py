"""SHA3-based mapping of tokens onto the quadratic-residue subgroup.

A token is an n-gram in unordered sessions and a whole normalized record
in ordered ones, so an ordered record hashes to one element.  A token's
digest enters the group through ``GroupParams.hash_to_element``.  A
hashed identifier is an :class:`~psualign.masking.EncryptedIdentifier`
with zero masking layers, the value type every masking pass takes and
returns.
"""

from __future__ import annotations

import hashlib

from .groups import GroupParams
from .masking import EncryptedIdentifier


def hash_token(token: str, group: GroupParams) -> int:
    """Digest a token with SHA3-256 and project it into the subgroup.

    The 32-byte digest is read as a big-endian integer.  The byte order
    must be fixed bit-exactly: parties that disagree here produce
    disjoint element sets and the union degenerates.
    """
    digest = hashlib.sha3_256(token.encode("utf-8")).digest()
    return group.hash_to_element(int.from_bytes(digest, "big"))


def hash_identifier(
    tokens: tuple[tuple[str, ...], ...], group: GroupParams
) -> EncryptedIdentifier:
    """Hash every token of ``tokenize_record``'s per-feature tuples, keeping their shape."""
    features = []
    for feature in tokens:
        hashed = []
        for token in feature:
            hashed.append(hash_token(token, group))
        features.append(tuple(hashed))
    return EncryptedIdentifier(tuple(features))
