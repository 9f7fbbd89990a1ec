"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines immediately).
"""

import functools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from psualign import (
    EncryptedIdentifier,
    FeatureSpec,
    MatchConfig,
    bloom_encode,
    bloom_prefilter,
    compare,
    compose,
    decode_identifier,
    decode_set,
    encode_identifier,
    encrypt_identifier,
    fingerprint,
    make_group_params,
)
from psualign.config import SessionConfig
from psualign.corpus import generate_corpus
from psualign.datasets import hash_dataset, load_dataset
from psualign.evaluate import provenance_true_links, reported_links
from psualign.groups import powmod
from psualign.messages import MessageType
from psualign.simulate import run_local_session, run_tcp_session, write_outputs
from psualign.transport import total_message_counts

from helpers import (
    TWO_FEATURES,
    hash_rows,
    hashed_union_oracle,
    overlap_count,
    plaintext_equal_pairs,
    random_instance,
    relayed_records,
    run_tapped,
    session_config,
)

G23 = make_group_params(23)
G512 = make_group_params("p512")

PAYLOAD_TYPES_SET = (
    MessageType.SET_TRANSFER,
    MessageType.UNION_TRANSFER,
    MessageType.UID_BROADCAST,
)
PAYLOAD_TYPES_RELAY = (MessageType.TOKEN_RELAY, MessageType.TOKEN_RETURN)


def _transcript_elements(messages, group):
    """Every group element carried by any protocol payload of a run."""
    for message in messages:
        if message.msg_type in PAYLOAD_TYPES_SET:
            for item in decode_set(message.payload, group).items:
                for feature in item.features:
                    yield from feature
        elif message.msg_type in PAYLOAD_TYPES_RELAY:
            ident, _ = decode_identifier(message.payload, group, 4)
            for feature in ident.features:
                yield from feature


@dataclass
class OrderedRuns:
    instances: int
    elapsed: float
    plaintext_leaks: int


@functools.lru_cache(maxsize=1)
def ordered_acceptance_runs() -> OrderedRuns:
    """100 seeded random ordered instances, shared by criteria 1 and 9."""
    started = time.monotonic()
    leaks = 0
    for seed in range(100):
        rng = random.Random(f"acceptance1/{seed}")
        party_count = 2 + seed % 3
        max_rows = 28 if seed % 10 == 0 else 10  # all well below the 64 cap
        raw = random_instance(rng, party_count, max_rows=max_rows)
        cfg = session_config(party_count, TWO_FEATURES, seed=seed)
        hashed = [hash_rows(rows, TWO_FEATURES, G512) for rows in raw]
        _, results, taps = run_tapped(cfg, hashed)

        # criterion 1: union size equals the brute-force oracle
        assert results[0].union_table.size == hashed_union_oracle(hashed), seed
        # ... and every plaintext-equal cross-party pair shares an index
        for (p1, i1), (p2, i2) in plaintext_equal_pairs(raw):
            phi1 = results[p1].index_map.local_to_universal
            phi2 = results[p2].index_map.local_to_universal
            assert phi1[i1] == phi2[i2], (seed, (p1, i1), (p2, i2))
        for party_id, result in enumerate(results):
            assert len(result.index_map.local_to_universal) == len(raw[party_id])

        # criterion 9: transmitted payloads never contain plaintext hashes
        plaintext = {
            value
            for party in hashed
            for ident in party
            for feature in ident.features
            for value in feature
        }
        sent = (message for tap in taps for message in tap.sent)
        for value in _transcript_elements(sent, G512):
            if value in plaintext:
                leaks += 1
    return OrderedRuns(
        instances=100, elapsed=time.monotonic() - started, plaintext_leaks=leaks
    )


def test_criterion_01_ordered_oracle_equivalence():
    runs = ordered_acceptance_runs()
    assert runs.instances == 100
    assert runs.elapsed < 120, f"runtime budget exceeded: {runs.elapsed:.1f}s"
    print(
        f"ACCEPTANCE 1 PASS - ordered oracle equivalence 100/100 "
        f"in {runs.elapsed:.1f}s"
    )


def test_criterion_02_commutativity_thousand_triples():
    rng = random.Random("acceptance2")
    for group in (G23, G512):
        for _ in range(500):
            x = group.hash_to_element(rng.getrandbits(300))
            s1 = rng.randrange(1, group.q)
            s2 = rng.randrange(1, group.q)
            one = powmod(powmod(x, s1, group.p), s2, group.p)
            two = powmod(powmod(x, s2, group.p), s1, group.p)
            direct = powmod(x, (s1 * s2) % group.q, group.p)
            assert one == two == direct
    print("ACCEPTANCE 2 PASS - commutativity on 1000 triples (p23 and p512)")


def test_criterion_03_union_exponent_product_white_box():
    for party_count in (2, 3, 4):
        rng = random.Random(f"acceptance3/{party_count}")
        raw = random_instance(rng, party_count, max_rows=8)
        cfg = session_config(party_count, TWO_FEATURES, seed=31 + party_count)
        hashed = [hash_rows(rows, TWO_FEATURES, G512) for rows in raw]
        parties, results, _ = run_tapped(cfg, hashed)
        total = 1
        for party in parties:
            for exponent in party.exponents:
                total = (total * exponent) % G512.q
        full = {compose(ident, [total], G512) for party in hashed for ident in party}
        ordered = sorted(full, key=lambda entry: encode_identifier(entry, G512))
        assert list(results[0].union_table.entries) == fingerprint(ordered, G512), party_count
    print(
        "ACCEPTANCE 3 PASS - union entry i is the fingerprint of the i-th smallest "
        "hash^(prod of exponents), P in {2,3,4}"
    )


def test_criterion_04_message_accounting():
    for party_count in (2, 3, 4):
        rng = random.Random(f"acceptance4/{party_count}")
        raw = random_instance(rng, party_count, max_rows=6)
        sizes = [len(rows) for rows in raw]
        cfg = session_config(party_count, TWO_FEATURES, seed=41 + party_count)
        hashed = [hash_rows(rows, TWO_FEATURES, G512) for rows in raw]
        _, _, taps = run_tapped(cfg, hashed)
        counts = total_message_counts([tap.inner for tap in taps])
        relays = sum(1 for size in sizes if size)
        assert counts["SET_TRANSFER"] == party_count**2 - 1, counts
        assert counts["TOKEN_RELAY"] == relays * (party_count - 1), counts
        assert counts["TOKEN_RETURN"] == relays, counts
        assert counts["UNION_TRANSFER"] == party_count - 1, counts
        assert counts["UID_BROADCAST"] == party_count - 1, counts
        carried = relayed_records(cfg, taps)
        assert carried["TOKEN_RELAY"] == sum(sizes) * (party_count - 1), carried
        assert carried["TOKEN_RETURN"] == sum(sizes), carried
    print(
        "ACCEPTANCE 4 PASS - P^2 - 1 set transfers, sum(N_k)(P-1) relayed records in "
        "(P-1) frames per origin with N_k > 0, P in {2,3,4}"
    )


# --- noisy corpus shared by criteria 5 and 7b ---------------------------------


def _noisy_match_cfg(threshold: Fraction) -> MatchConfig:
    return MatchConfig(
        features=(FeatureSpec("name", 12, 3),), threshold=threshold, ordered=False
    )


def _grams(value: str) -> list[str]:
    padded = value.ljust(12)[:12]
    return [padded[i : i + 3] for i in range(10)]


@functools.lru_cache(maxsize=1)
def noisy_corpus():
    corpus = generate_corpus(
        [30, 30], overlap=0.5, typo_rate=1.0, seed=501, style="random", id_length=12
    )
    # The oracle below assumes distinct grams inside each identifier; the
    # fixed seed satisfies it, assert so regressions stay loud.
    for rows in corpus.parties:
        for row in rows:
            grams = _grams(row.fields[0])
            assert len(set(grams)) == len(grams)
    return corpus


def _run_noisy_corpus(corpus, threshold: Fraction, seed: int):
    match = _noisy_match_cfg(threshold)
    cfg = session_config(len(corpus.parties), match, seed=seed)
    raw = [[row.fields for row in rows] for rows in corpus.parties]
    hashed = [hash_rows(rows, match, G512) for rows in raw]
    outcome = run_local_session(cfg, hashed)
    return raw, hashed, outcome


def _predicted_links(corpus, floor: int):
    predicted = set()
    for i, row_a in enumerate(corpus.parties[0]):
        grams_a = _grams(row_a.fields[0])
        for j, row_b in enumerate(corpus.parties[1]):
            if overlap_count(grams_a, _grams(row_b.fields[0])) >= floor:
                predicted.add(((0, i), (1, j)))
    return predicted


def test_criterion_05_noisy_matching_bound():
    corpus = noisy_corpus()
    true_pairs = provenance_true_links(
        [[{"entity": r.entity, "corrupted": r.corrupted} for r in rows]
         for rows in corpus.parties]
    )
    corrupted_pairs = {
        pair
        for pair in true_pairs
        if corpus.parties[pair[1][0]][pair[1][1]].corrupted
    }
    assert len(corrupted_pairs) == 15  # every shared entity got its typo

    # lambda = 0.7: one substitution kills at most 3 of 10 grams, so every
    # corrupted pair stays above the floor of 7; recall must be exactly 1.
    _, _, outcome = _run_noisy_corpus(corpus, Fraction(7, 10), seed=57)
    links = reported_links([r.index_map for r in outcome.results])
    predicted = _predicted_links(corpus, floor=7)
    assert links == predicted, "protocol links diverge from the overlap oracle"
    assert corrupted_pairs <= links
    recall = len(links & true_pairs) / len(true_pairs)
    assert recall == 1.0

    # lambda = 0.9: floor 9 exceeds the 7 guaranteed surviving grams except
    # for substitutions at the string boundary; recall drops below 1.
    _, _, outcome = _run_noisy_corpus(corpus, Fraction(9, 10), seed=58)
    links9 = reported_links([r.index_map for r in outcome.results])
    predicted9 = _predicted_links(corpus, floor=9)
    assert links9 == predicted9, "protocol links diverge from the overlap oracle"
    recall9 = len(links9 & true_pairs) / len(true_pairs)
    assert recall9 < 1.0
    print(
        f"ACCEPTANCE 5 PASS - noisy recall 1.0 at threshold 0.7, "
        f"{recall9:.2f} at 0.9, both oracle-exact"
    )


def test_criterion_06_false_positive_suppression():
    for seed in range(20):
        corpus = generate_corpus(
            [100, 100], overlap=0.0, typo_rate=0.0, seed=600 + seed,
            style="random", id_length=12,
        )
        _, _, outcome = _run_noisy_corpus(corpus, Fraction(7, 10), seed=seed)
        report = evaluate_outcome_stub(corpus, outcome)
        if report:
            colliding = describe_collisions(corpus, outcome)
            raise AssertionError(
                f"seed {seed}: {report} false links; colliding token sets: {colliding}"
            )
    print("ACCEPTANCE 6 PASS - zero false positives across 20 disjoint corpora")


def evaluate_outcome_stub(corpus, outcome) -> int:
    true_links = provenance_true_links(
        [[{"entity": r.entity, "corrupted": r.corrupted} for r in rows]
         for rows in corpus.parties]
    )
    links = reported_links([r.index_map for r in outcome.results])
    return len(links - true_links)


def describe_collisions(corpus, outcome):
    true_links = provenance_true_links(
        [[{"entity": r.entity, "corrupted": r.corrupted} for r in rows]
         for rows in corpus.parties]
    )
    links = reported_links([r.index_map for r in outcome.results])
    out = []
    for (p1, i1), (p2, i2) in links - true_links:
        out.append(
            {
                "left": corpus.parties[p1][i1].fields,
                "right": corpus.parties[p2][i2].fields,
                "left_grams": _grams(corpus.parties[p1][i1].fields[0]),
                "right_grams": _grams(corpus.parties[p2][i2].fields[0]),
            }
        )
    return out


def test_criterion_07_bloom_properties():
    # (a) permuting per-feature token order never changes the filter
    rng = random.Random("acceptance7a")
    for _ in range(1000):
        features = tuple(
            tuple(rng.randrange(1, G512.p) for _ in range(rng.randint(0, 8)))
            for _ in range(rng.randint(1, 3))
        )
        ident = EncryptedIdentifier(features)
        permuted = EncryptedIdentifier(
            tuple(tuple(rng.sample(f, len(f))) for f in features)
        )
        a = bloom_encode(ident, G512, 1 << 14, 4)
        b = bloom_encode(permuted, G512, 1 << 14, 4)
        assert a == b

    # (b) soundness on criterion-5 material: prefilter False => compare False
    corpus = noisy_corpus()
    match = _noisy_match_cfg(Fraction(7, 10))
    rng = random.Random("acceptance7b")
    exponent = rng.randrange(1, G512.q)
    masked = [
        encrypt_identifier(ident, exponent, G512, rng)
        for rows in [[r.fields for r in party] for party in corpus.parties]
        for ident in hash_rows(rows, match, G512)
    ]
    filters = [bloom_encode(item, G512, 1 << 14, 4) for item in masked]
    checked = rejected = 0
    for i in range(len(masked)):
        for j in range(i + 1, len(masked)):
            checked += 1
            if not bloom_prefilter(filters[i], filters[j], match):
                rejected += 1
                assert not compare(masked[i], masked[j], match).is_match
    assert checked == 60 * 59 // 2
    assert rejected > 0  # the prefilter actually prunes disjoint pairs
    print("ACCEPTANCE 7 PASS - filters order-insensitive (1000 cases); prefilter sound on all corpus pairs")


@pytest.mark.parametrize("variant", ["ordered", "unordered"])
def test_criterion_08_backend_equivalence(tmp_path, variant):
    ordered = variant == "ordered"
    typo_rate, threshold = (0.0, Fraction(1)) if ordered else (0.3, Fraction(7, 10))
    corpus = generate_corpus([20, 20], overlap=0.4, typo_rate=typo_rate, seed=801)
    corpus_dir = tmp_path / "corpus"
    from psualign.corpus import write_corpus
    from psualign.config import DatasetSpec

    csv_paths, _ = write_corpus(corpus, corpus_dir)

    def config_for(out_name):
        return SessionConfig(
            party_count=2,
            variant=variant,
            group_source="p512",
            match=MatchConfig(
                features=(FeatureSpec("name", 12, 3),),
                threshold=threshold,
                ordered=ordered,
            ),
            datasets=tuple(
                DatasetSpec(csv_path=path, id_columns=("name",))
                for path in csv_paths
            ),
            seed=88,
            recv_timeout=30,
            output_dir=tmp_path / out_name,
        )

    cfg_local = config_for("local")
    loaded = [load_dataset(spec) for spec in cfg_local.datasets]
    hashed = [hash_dataset(data, cfg_local.match, G512) for data in loaded]
    local = run_local_session(cfg_local, hashed)
    write_outputs(cfg_local, loaded, hashed, local)

    cfg_tcp = config_for("tcp")
    tcp = run_tcp_session(cfg_tcp, hashed)
    write_outputs(cfg_tcp, loaded, hashed, tcp)

    for k in range(2):
        a = (tmp_path / "local" / f"aligned_party{k}.csv").read_bytes()
        b = (tmp_path / "tcp" / f"aligned_party{k}.csv").read_bytes()
        assert a == b, f"aligned CSVs differ for party {k}"
        local_table = [
            encode_identifier(e, G512)
            for e in local.results[k].union_table.entries
        ]
        tcp_table = [
            encode_identifier(e, G512) for e in tcp.results[k].union_table.entries
        ]
        assert local_table == tcp_table, f"union tables differ for party {k}"
        assert (
            local.results[k].index_map.local_to_universal
            == tcp.results[k].index_map.local_to_universal
        )

    def canonical_report(path):
        doc = json.loads(path.read_text())
        doc["wall_time"] = 0.0  # the one timing-dependent field
        return json.dumps(doc, sort_keys=True)

    assert canonical_report(tmp_path / "local" / "report.json") == canonical_report(
        tmp_path / "tcp" / "report.json"
    )
    print("ACCEPTANCE 8 PASS - in-process and TCP backends byte-identical")


def test_criterion_09_transcript_sanity():
    runs = ordered_acceptance_runs()
    assert runs.plaintext_leaks == 0
    print(
        "ACCEPTANCE 9 PASS - no plaintext hashed token on the wire "
        f"across {runs.instances} runs (probabilistic evidence, not a proof)"
    )


def test_criterion_10_degenerate_cases():
    # one empty party
    raw = [[("ann", "rome")], [], [("ann", "rome"), ("bob", "oslo")]]
    cfg = session_config(3, TWO_FEATURES, seed=101)
    hashed = [hash_rows(rows, TWO_FEATURES, G512) for rows in raw]
    outcome = run_local_session(cfg, hashed)
    assert outcome.results[0].union_table.size == hashed_union_oracle(hashed) == 2
    assert outcome.results[1].index_map.local_to_universal == {}

    # all parties identical
    raw = [[("x", "y"), ("z", "w")]] * 4
    cfg = session_config(4, TWO_FEATURES, seed=102)
    hashed = [hash_rows(rows, TWO_FEATURES, G512) for rows in raw]
    outcome = run_local_session(cfg, hashed)
    assert outcome.results[0].union_table.size == 2
    maps = [r.index_map.local_to_universal for r in outcome.results]
    assert all(m == maps[0] for m in maps)

    # duplicates concentrated at a single party
    raw = [[("dup", "dup")] * 5, [("other", "row")]]
    cfg = session_config(2, TWO_FEATURES, seed=103)
    hashed = [hash_rows(rows, TWO_FEATURES, G512) for rows in raw]
    outcome = run_local_session(cfg, hashed)
    assert outcome.results[0].union_table.size == 2
    phi0 = outcome.results[0].index_map.local_to_universal
    assert len(phi0) == 5 and len(set(phi0.values())) == 1
    print("ACCEPTANCE 10 PASS - empty, identical, and duplicate-heavy parties complete correctly")
