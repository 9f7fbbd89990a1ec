"""Accuracy accounting against plaintext ground truth.

A link is an unordered cross-party pair of records that ended up with
the same universal index.  Ground truth comes from exact plaintext
identifier equality, or from the corpus provenance map when evaluating
noisy runs (a corrupted copy is still the same entity).  Only a trusted
test context can run this; it needs every party's plaintext.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .protocol import UniversalIndexMap

Link = tuple[tuple[int, int], tuple[int, int]]  # ((party, row), (party, row))


@dataclass
class EvaluationReport:
    n_protocol: int
    n_oracle: int
    e1_false_negatives: int
    e2_false_positives: int
    matched_pairs: int
    true_pairs: int
    reported_pairs: int
    precision: float
    recall: float
    message_counts: dict = field(default_factory=dict)
    message_bytes: dict = field(default_factory=dict)
    wall_time: float = 0.0
    session_id: str = ""


def _pairs_from_groups(groups: dict) -> set[Link]:
    """All unordered cross-party pairs within each group of records."""
    links: set[Link] = set()
    for members in groups.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                left, right = members[a], members[b]
                if left[0] == right[0]:
                    continue  # same party: not a cross-party link
                links.add((left, right) if left < right else (right, left))
    return links


def exact_true_links(id_rows_per_party) -> set[Link]:
    """Ground truth by exact plaintext identifier-tuple equality."""
    groups: dict[tuple, list] = {}
    for party_id, id_rows in enumerate(id_rows_per_party):
        for row_index, fields in enumerate(id_rows):
            groups.setdefault(tuple(fields), []).append((party_id, row_index))
    return _pairs_from_groups(groups)


def provenance_true_links(provenance_rows) -> set[Link]:
    """Ground truth by entity identity from a corpus provenance map."""
    groups: dict[int, list] = {}
    for party_id, rows in enumerate(provenance_rows):
        for row_index, row in enumerate(rows):
            groups.setdefault(row["entity"], []).append((party_id, row_index))
    return _pairs_from_groups(groups)


def reported_links(index_maps: list[UniversalIndexMap]) -> set[Link]:
    """Links implied by the universal indices the protocol assigned."""
    groups: dict[int, list] = {}
    for index_map in index_maps:
        for row_index, universal in index_map.local_to_universal.items():
            groups.setdefault(universal, []).append((index_map.party_id, row_index))
    return _pairs_from_groups(groups)


def oracle_union_size(hashed_per_party) -> int:
    """Plaintext-side union cardinality over tokenized-hashed identifiers."""
    return len({ident for hashed in hashed_per_party for ident in hashed})


def build_report(
    n_protocol: int,
    n_oracle: int,
    true_links: set[Link],
    protocol_links: set[Link],
    message_counts: dict | None = None,
    message_bytes: dict | None = None,
    wall_time: float = 0.0,
    session_id: str = "",
) -> EvaluationReport:
    matched = len(true_links & protocol_links)
    reported = len(protocol_links)
    true_count = len(true_links)
    return EvaluationReport(
        n_protocol=n_protocol,
        n_oracle=n_oracle,
        e1_false_negatives=true_count - matched,
        e2_false_positives=reported - matched,
        matched_pairs=matched,
        true_pairs=true_count,
        reported_pairs=reported,
        precision=(matched / reported) if reported else 1.0,
        recall=(matched / true_count) if true_count else 1.0,
        message_counts=dict(message_counts or {}),
        message_bytes=dict(message_bytes or {}),
        wall_time=wall_time,
        session_id=session_id,
    )


def write_report(report: EvaluationReport, path: Path) -> None:
    path.write_text(
        json.dumps(asdict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
