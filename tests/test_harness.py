import json
import math
from fractions import Fraction

import pytest

from psualign import ConfigError, DatasetError, load_config
from psualign.config import parse_endpoint
from psualign.corpus import generate_corpus, load_provenance, write_corpus
from psualign.datasets import (
    load_dataset,
    read_aligned_csv,
    write_aligned_csv,
)
from psualign.evaluate import (
    build_report,
    exact_true_links,
    provenance_true_links,
    reported_links,
)
from psualign.protocol import UniversalIndexMap


BASE_CONFIG = {
    "party_count": 2,
    "variant": "ordered",
    "group": "p23",
    "match": {
        "threshold": "0.7",
        "features": [{"name": "name", "length": 12, "ngram": 3}],
    },
    "seed": 1,
    "parties": [
        {"csv": "party0.csv", "id_columns": ["name"]},
        {"csv": "party1.csv", "id_columns": ["name"]},
    ],
}


def write_config(tmp_path, overrides=None, **kwargs):
    document = json.loads(json.dumps(BASE_CONFIG))
    document.update(overrides or {})
    document.update(kwargs)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return path


# --- config -----------------------------------------------------------------


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.party_count == 2
    assert cfg.match.threshold == Fraction(7, 10)
    assert cfg.match.ordered
    assert cfg.datasets[0].csv_path == tmp_path / "party0.csv"
    assert cfg.group().p == 23


def test_config_digest_changes_with_threshold(tmp_path):
    one = load_config(write_config(tmp_path))
    two_doc = {"match": {**BASE_CONFIG["match"], "threshold": "0.8"}}
    two = load_config(write_config(tmp_path, two_doc))
    assert one.digest() != two.digest()


def test_config_digest_ignores_seed_and_paths(tmp_path):
    one = load_config(write_config(tmp_path, seed=1))
    two = load_config(write_config(tmp_path, seed=999))
    leftover_bloom = load_config(write_config(tmp_path, bloom={"bits": 1000}))
    assert one.digest() == two.digest() == leftover_bloom.digest()


def test_config_rejects_variant_typos(tmp_path):
    with pytest.raises(ConfigError, match="variant"):
        load_config(write_config(tmp_path, variant="fuzzy"))


def test_config_rejects_party_count_mismatch(tmp_path):
    with pytest.raises(ConfigError, match="parties"):
        load_config(write_config(tmp_path, party_count=3))


def test_config_rejects_production_with_seed(tmp_path):
    with pytest.raises(ConfigError, match="production"):
        load_config(write_config(tmp_path, production=True, seed=5))


def test_config_rejects_id_column_arity(tmp_path):
    doc = {
        "parties": [
            {"csv": "party0.csv", "id_columns": ["name", "city"]},
            {"csv": "party1.csv", "id_columns": ["name", "city"]},
        ]
    }
    with pytest.raises(ConfigError, match="id columns"):
        load_config(write_config(tmp_path, doc))


def test_config_explicit_modulus(tmp_path):
    cfg = load_config(write_config(tmp_path, group_hex="17"))
    assert cfg.group().p == 23
    assert cfg.group_source == "hex:17"


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
    with pytest.raises(ConfigError):
        parse_endpoint("no-port")
    with pytest.raises(ConfigError):
        parse_endpoint("host:abc")


# --- corpus -----------------------------------------------------------------


def test_corpus_shared_entity_count():
    corpus = generate_corpus([50, 50], overlap=0.3, typo_rate=0.0, seed=1)
    entities0 = {row.entity for row in corpus.parties[0]}
    entities1 = {row.entity for row in corpus.parties[1]}
    assert len(entities0 & entities1) == 15
    assert corpus.meta["shared_entities"] == 15


def test_corpus_typo_count_is_exact():
    corpus = generate_corpus([20, 20], overlap=1.0, typo_rate=0.2, seed=2)
    corrupted = [row for row in corpus.parties[1] if row.corrupted]
    assert len(corrupted) == math.ceil(0.2 * 20)
    assert not any(row.corrupted for row in corpus.parties[0])


def test_corpus_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    write_corpus(generate_corpus([10, 12], 0.5, 0.3, seed=9), a_dir)
    write_corpus(generate_corpus([10, 12], 0.5, 0.3, seed=9), b_dir)
    for name in ["party0.csv", "party1.csv", "provenance.json"]:
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_corpus_corruption_is_single_substitution():
    corpus = generate_corpus(
        [8, 8], overlap=1.0, typo_rate=1.0, seed=3, style="random", id_length=12
    )
    clean = {row.entity: row.fields[0] for row in corpus.parties[0]}
    for row in corpus.parties[1]:
        assert row.corrupted
        original = clean[row.entity]
        assert len(original) == len(row.fields[0]) == 12
        diffs = sum(1 for a, b in zip(original, row.fields[0]) if a != b)
        assert diffs == 1


def test_corpus_identifiers_unique_across_entities():
    corpus = generate_corpus([60, 60], overlap=0.0, typo_rate=0.0, seed=4)
    values = [row.fields for rows in corpus.parties for row in rows]
    assert len(set(values)) == len(values)


def test_corpus_provenance_roundtrip(tmp_path):
    corpus = generate_corpus([5, 6], 0.4, 0.5, seed=5)
    _, provenance_path = write_corpus(corpus, tmp_path)
    rows = load_provenance(provenance_path)
    assert len(rows) == 2
    assert [len(r) for r in rows] == [5, 6]
    assert all({"entity", "corrupted"} <= set(r.keys()) for r in rows[0])


# --- datasets ----------------------------------------------------------------


def test_load_dataset_and_projection(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,name,city\n1,ann,oslo\n2,bob,rome\n")
    from psualign.config import DatasetSpec

    spec = DatasetSpec(csv_path=path, id_columns=("name", "city"))
    loaded = load_dataset(spec)
    assert loaded.id_rows == [("ann", "oslo"), ("bob", "rome")]
    assert loaded.header == ["id", "name", "city"]


def test_load_dataset_missing_column_names_it(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,name\n1,ann\n")
    from psualign.config import DatasetSpec

    spec = DatasetSpec(csv_path=path, id_columns=("city",))
    with pytest.raises(DatasetError, match="'city'"):
        load_dataset(spec)


def test_load_dataset_headerless_positions(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("ann,oslo\nbob,rome\n")
    from psualign.config import DatasetSpec

    spec = DatasetSpec(csv_path=path, id_columns=("0",), has_header=False)
    loaded = load_dataset(spec)
    assert loaded.id_rows == [("ann",), ("bob",)]


def test_aligned_csv_roundtrip(tmp_path):
    src = tmp_path / "d.csv"
    src.write_text("name\nann\nbob\ncid\n")
    from psualign.config import DatasetSpec

    loaded = load_dataset(DatasetSpec(csv_path=src, id_columns=("name",)))
    index_map = UniversalIndexMap(0, {0: 4, 2: 1}, [1])
    out = tmp_path / "aligned.csv"
    write_aligned_csv(out, loaded, index_map)
    text = out.read_text()
    assert text.splitlines() == ["name,universal_index", "ann,4", "bob,", "cid,1"]
    back = read_aligned_csv(out, 0)
    assert back.local_to_universal == {0: 4, 2: 1}
    assert back.unmatched == [1]


def test_aligned_csv_fresh_indices(tmp_path):
    src = tmp_path / "d.csv"
    src.write_text("name\nann\nbob\n")
    from psualign.config import DatasetSpec

    loaded = load_dataset(DatasetSpec(csv_path=src, id_columns=("name",)))
    index_map = UniversalIndexMap(0, {0: 2}, [1])
    out = tmp_path / "aligned.csv"
    write_aligned_csv(out, loaded, index_map, fresh_start=10)
    assert out.read_text().splitlines()[2] == "bob,10"


# --- evaluation ---------------------------------------------------------------


def test_exact_links_and_report_identities():
    id_rows = [
        [("ann",), ("bob",), ("ann",)],
        [("ann",), ("cid",)],
    ]
    true_links = exact_true_links(id_rows)
    # both copies of ann at party 0 link to ann at party 1
    assert true_links == {
        (((0, 0)), ((1, 0))),
        (((0, 2)), ((1, 0))),
    }
    maps = [
        UniversalIndexMap(0, {0: 0, 1: 1, 2: 0}, []),
        UniversalIndexMap(1, {0: 0, 1: 5}, []),
    ]
    protocol_links = reported_links(maps)
    report = build_report(3, 3, true_links, protocol_links)
    assert report.e1_false_negatives == 0
    assert report.e2_false_positives == 0
    assert report.matched_pairs + report.e1_false_negatives == report.true_pairs
    assert report.matched_pairs + report.e2_false_positives == report.reported_pairs
    assert report.precision == report.recall == 1.0


def test_report_counts_wrong_links():
    true_links = set()
    maps = [
        UniversalIndexMap(0, {0: 7}, []),
        UniversalIndexMap(1, {0: 7}, []),
    ]
    report = build_report(2, 2, true_links, reported_links(maps))
    assert report.e2_false_positives == 1
    assert report.precision == 0.0
    assert report.recall == 1.0  # vacuous: no true links to find


def test_provenance_links():
    rows = [
        [{"entity": 1, "corrupted": False}, {"entity": 2, "corrupted": False}],
        [{"entity": 2, "corrupted": True}],
    ]
    assert provenance_true_links(rows) == {(((0, 1)), ((1, 0)))}


def test_empty_datasets_vacuous_report():
    report = build_report(0, 0, set(), set())
    assert report.precision == 1.0 and report.recall == 1.0
    assert report.true_pairs == report.reported_pairs == 0
