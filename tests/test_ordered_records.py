"""Ordered sessions mask one group element per record.

The oracle here normalizes plaintext on its own (lower-case, then pad or
truncate), so a fault in tokenization cannot hide itself.  The seeded
digests pin every output of one session per variant.  The ordered one is
the baseline since ordered records became one element.  The unordered
one is the baseline since round one masks each hop's sets in one pass
and the active party finishes every set it keeps: that changed the order
in which the parties draw from their rngs, and so which grams the active
party's noisy dedup trims.
"""

import hashlib

import pytest

from psualign import FeatureSpec, MatchConfig, encode_identifier
from psualign.config import parse_config
from psualign.corpus import generate_corpus, write_corpus
from psualign.simulate import load_party_inputs, output_paths, run_local_session, write_outputs

from helpers import hash_rows, session_config

LENGTH = 12


def match_for(columns) -> MatchConfig:
    return MatchConfig(features=tuple(FeatureSpec(column, LENGTH, 3) for column in columns))


def run_rows(raw_per_party, match):
    cfg = session_config(len(raw_per_party), match)
    hashed = [hash_rows(rows, match, cfg.group()) for rows in raw_per_party]
    return run_local_session(cfg, hashed).results


def oracle_problems(raw_per_party, results, length: int) -> list[str]:
    """Every record indexed, and equal indices exactly for equal normalized records."""
    key_of_index, index_of_key = {}, {}
    problems = []
    for party, (rows, result) in enumerate(zip(raw_per_party, results)):
        mapping = result.index_map.local_to_universal
        if sorted(mapping) != list(range(len(rows))):
            problems.append(f"party {party} indexed rows {sorted(mapping)} of {len(rows)}")
        for row, fields in enumerate(rows):
            key = tuple(value.lower()[:length].ljust(length) for value in fields)
            index = mapping.get(row)
            if index_of_key.setdefault(key, index) != index:
                problems.append(f"{key} got indices {index_of_key[key]} and {index}")
            if key_of_index.setdefault(index, key) != key:
                problems.append(f"index {index} holds {key_of_index[index]} and {key}")
    size = results[0].union_table.size
    if size != len(index_of_key):
        problems.append(f"union of {size} entries, {len(index_of_key)} distinct records")
    return problems


@pytest.mark.parametrize("style, columns", [("random", ("id",)), ("words", ("name", "street"))])
@pytest.mark.parametrize("corpus_seed", [1, 2])
@pytest.mark.parametrize("party_count", [2, 3, 4])
def test_ordered_sessions_match_the_plaintext_oracle(party_count, corpus_seed, style, columns):
    """Corrupted copies must land apart from their clean ones, and shared
    records together."""
    corpus = generate_corpus(
        [8] * party_count,
        overlap=0.5,
        typo_rate=0.25,
        seed=corpus_seed,
        style=style,
        columns=columns,
        id_length=LENGTH,
    )
    raw = [[row.fields for row in rows] for rows in corpus.parties]
    results = run_rows(raw, match_for(columns))
    assert oracle_problems(raw, results, LENGTH) == []
    for result in results:
        assert result.union_table == results[0].union_table
        assert all(tuple(map(len, entry.features)) == (1,) for entry in result.union_table.entries)


def test_fields_that_join_to_the_same_text_get_different_indices():
    match = MatchConfig(features=(FeatureSpec("a", 2, 1), FeatureSpec("b", 2, 1)))
    raw = [[("ab", "c")], [("a", "bc"), ("ab", "c")]]
    results = run_rows(raw, match)
    assert results[0].union_table.size == 2
    left, right = results[1].index_map.local_to_universal.values()
    assert left != right
    assert results[0].index_map.local_to_universal[0] == right


def test_a_party_reads_no_union_entry_it_does_not_hold():
    """Party 0 knows the final value of every element its records hold,
    which are those of the entries it is indexed to.  No other entry may
    share an element with them.  With one element per n-gram all 150
    entries it does not hold would share one."""
    columns = ("name", "street")
    corpus = generate_corpus(
        [300, 300], overlap=0.5, typo_rate=0.0, seed=1, style="words", columns=columns
    )
    raw = [[row.fields for row in rows] for rows in corpus.parties]
    result = run_rows(raw, match_for(columns))[0]
    entries = result.union_table.entries
    held = set(result.index_map.local_to_universal.values())
    known = {value for index in held for feature in entries[index].features for value in feature}
    others = [entry for index, entry in enumerate(entries) if index not in held]
    assert len(others) == 150
    readable = [
        entry
        for entry in others
        if any(value in known for feature in entry.features for value in feature)
    ]
    assert readable == []


# (union entries, index maps and aligned CSVs) per variant.  The ordered
# union digest is that of the fingerprints of the full-element entries
# that the tables held before the broadcast carried fingerprints; the
# other ordered digest is unchanged since then.
SEEDED_DIGESTS = {
    "unordered": (
        "7c620e57b4dbb19ec85cd7f9aae210525f91d736d2e3295b7ad192c286955a35",
        "0ccadd7f680c8b23f297bc705940791e4011f5996d9acfd8e88d5a5ad7866125",
    ),
    "ordered": (
        "8417d52b5cf5e36da938793ead7a879f11b2c613f21a9ca520d062c77823b900",
        "06bee3aa99585bed31173d76f0c5f95b3ff60a6b36c3b0c86397814aa08b2e98",
    ),
}


@pytest.mark.parametrize("variant", ["unordered", "ordered"])
def test_seeded_outputs_keep_their_recorded_digest(tmp_path, variant):
    """The union table, and apart from it the index maps and aligned CSVs, of one seeded session."""
    columns = ("name", "street")
    corpus = generate_corpus(
        [10, 10, 10], overlap=0.5, typo_rate=0.3, seed=3, style="words", columns=columns
    )
    write_corpus(corpus, tmp_path)
    cfg = parse_config(
        {
            "party_count": 3,
            "variant": variant,
            "group": "p512",
            "match": {
                "threshold": "0.7",
                "features": [{"name": c, "length": LENGTH, "ngram": 3} for c in columns],
            },
            "seed": 5,
            "parties": [{"csv": f"party{k}.csv", "id_columns": list(columns)} for k in range(3)],
        },
        tmp_path,
    )
    loaded, hashed = load_party_inputs(cfg)
    outcome = run_local_session(cfg, hashed)
    write_outputs(cfg, loaded, hashed, outcome)
    group = cfg.group()
    union, outputs = hashlib.sha256(), hashlib.sha256()
    for result in outcome.results:
        for entry in result.union_table.entries:
            union.update(encode_identifier(entry, group))
        index_map = result.index_map
        outputs.update(repr((sorted(index_map.local_to_universal.items()), index_map.unmatched)).encode())
    for path in output_paths(cfg.output_dir, cfg.party_count)[0]:
        outputs.update(path.read_bytes())
    assert (union.hexdigest(), outputs.hexdigest()) == SEEDED_DIGESTS[variant]
