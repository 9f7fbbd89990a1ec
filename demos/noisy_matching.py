"""Typo-tolerant alignment: the unordered variant links noisy identifiers.

One party holds clean records, the other has typos.  At threshold 0.7 a
single substitution still links (one changed character kills at most 3
of the 10 grams of a 12-character field); at 0.9 most typos break the
link.
"""

from fractions import Fraction

from psualign import FeatureSpec, MatchConfig, hash_identifier, tokenize_record
from psualign.config import SessionConfig
from psualign.simulate import run_local_session

clean = [("maria fontes",), ("joao pereira",), ("rita azevedo",)]
noisy = [("maria fentes",), ("joao pereida",), ("nuno tavares",)]


def run(threshold):
    match = MatchConfig(
        features=(FeatureSpec("name", 12, 3),), threshold=threshold, ordered=False
    )
    cfg = SessionConfig(
        party_count=2,
        variant="unordered",
        group_source="p512",
        match=match,
        datasets=(),
        seed=99,
    )
    group = cfg.group()
    hashed = [
        [hash_identifier(tokenize_record(row, match), group) for row in rows]
        for rows in (clean, noisy)
    ]
    return run_local_session(cfg, hashed)


for threshold in (Fraction(7, 10), Fraction(9, 10)):
    outcome = run(threshold)
    phi_clean = outcome.results[0].index_map.local_to_universal
    phi_noisy = outcome.results[1].index_map.local_to_universal
    print(f"threshold {threshold}: union size {outcome.results[0].union_table.size}")
    for i, (row_clean, row_noisy) in enumerate(zip(clean, noisy)):
        linked = phi_clean.get(i) == phi_noisy.get(i)
        print(
            f"  {row_clean[0]!r} vs {row_noisy[0]!r}: "
            f"{'same index' if linked else 'separate indices'}"
        )
    print()

print("lower thresholds tolerate more noise; higher ones suppress wrong links.")
