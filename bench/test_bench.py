"""Tests of the benchmark's own output checks, on small sessions.

Run from the root of the repository with ``python -m pytest bench -q``.
Each check must pass on a real session and reject a deliberately wrong
result; a small size of every workload must run end to end in seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import run
from psualign.corpus import Corpus, CorpusRow
from tracing import LAYER_METRICS, RecordingTransport, Tracer
from workloads import LENGTH, NGRAM, WORKLOADS, prepare, run_prepared

SMALL = {"exact-names-modp2048": 4, "exact-ids-p512-tcp": 40, "noisy-names-p512": 20}
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def small_workload(name: str):
    return dataclasses.replace(WORKLOADS[name], records_per_party=SMALL[name])


@functools.lru_cache(maxsize=None)
def small_session(name: str):
    workload = small_workload(name)
    corpus = workload.corpus(7)
    prepared = prepare(workload, corpus, 7)
    session = run_prepared(prepared, lambda t, party: RecordingTransport(t, party, Tracer()))
    return workload, corpus, prepared, session


def ordered_rows(corpus):
    return [[row.fields for row in rows] for rows in corpus.parties]


@pytest.mark.parametrize("name", ["exact-names-modp2048", "exact-ids-p512-tcp"])
def test_ordered_checks_pass_and_reject_a_swapped_index(name):
    _, corpus, _, session = small_session(name)
    rows = ordered_rows(corpus)
    assert checks.ordered(rows, session.results, LENGTH) == []

    results = copy.deepcopy(session.results)
    mapping = results[0].index_map.local_to_universal
    first = next(row for row in mapping if mapping[row] != mapping[0])
    mapping[0], mapping[first] = mapping[first], mapping[0]
    assert checks.ordered(rows, results, LENGTH)


def test_ordered_check_rejects_an_index_outside_the_union():
    _, corpus, _, session = small_session("exact-ids-p512-tcp")
    results = copy.deepcopy(session.results)
    results[1].index_map.local_to_universal[0] = results[1].union_table.size
    assert checks.ordered(ordered_rows(corpus), results, LENGTH)


def test_union_table_check_rejects_a_differing_table():
    _, _, prepared, session = small_session("exact-ids-p512-tcp")
    width = prepared.cfg.group().element_width
    assert checks.union_tables(session.results, width) == []
    results = copy.deepcopy(session.results)
    entries = results[1].union_table.entries
    object.__setattr__(results[1].union_table, "entries", (entries[1], entries[0], *entries[2:]))
    assert checks.union_tables(results, width)


def noisy_check(workload, corpus, results):
    return checks.noisy(corpus, results, LENGTH, NGRAM, workload.threshold)


def test_noisy_checks_pass_and_reject_a_dropped_same_entity_link():
    workload, corpus, _, session = small_session("noisy-names-p512")
    assert noisy_check(workload, corpus, session.results) == ([], 0, 0)

    shared = {row.entity for row in corpus.parties[0]} & {row.entity for row in corpus.parties[1]}
    row = next(
        i for i, r in enumerate(corpus.parties[1]) if r.entity in shared and not r.corrupted
    )
    results = copy.deepcopy(session.results)
    del results[1].index_map.local_to_universal[row]
    results[1].index_map.unmatched.append(row)
    problems, unmatched, excused = noisy_check(workload, corpus, results)
    assert any("no other record explains the split" in problem for problem in problems)
    assert (unmatched, excused) == (1, 0)


def fake_results(indices, size):
    """Session results holding only index maps; ``None`` marks an unmatched record."""
    return [
        SimpleNamespace(
            union_table=SimpleNamespace(size=size),
            index_map=SimpleNamespace(
                local_to_universal={r: i for r, i in enumerate(party) if i is not None},
                unmatched=[r for r, i in enumerate(party) if i is None],
            ),
        )
        for party in indices
    ]


# Entity 9's clean and corrupted copies, and entity 42, which reaches the
# floor against the clean copy only (corpus seed 209).
ANNA = CorpusRow(9, False, ("anna novak", "708 maple st"))
ANNA_TYPO = CorpusRow(9, True, ("a4na novak", "708 raple st"))
SARA = CorpusRow(42, False, ("sara novak", "334 maple st"))
# Entity 54's two copies, and entity 59, whose repeated gram "mar" reaches
# the floor against them, while they fall one gram short against it (corpus
# seed 20).
EMMA = CorpusRow(54, False, ("emma martin", "418 hill st"))
MARI = CorpusRow(59, False, ("mari martin", "617 hill st"))


@pytest.mark.parametrize(
    "copies, third, indices",
    [
        ((ANNA, ANNA_TYPO), SARA, [[0, 0], [1]]),
        ((ANNA, ANNA_TYPO), SARA, [[0, 0], [None]]),
        ((EMMA, EMMA), MARI, [[None, 0], [None]]),
    ],
)
def test_noisy_check_excuses_only_a_split_that_a_third_record_explains(copies, third, indices):
    workload = WORKLOADS["noisy-names-p512"]
    size = 1 + max(i for party in indices for i in party if i is not None)
    with_third = Corpus(workload.columns, [[copies[0], third], [copies[1]]], {})
    unmatched = sum(i is None for party in indices for i in party)
    assert noisy_check(workload, with_third, fake_results(indices, size)) == ([], unmatched, 1)

    alone = Corpus(workload.columns, [[copies[0]], [copies[1]]], {})
    split = fake_results([indices[0][:1], indices[1]], size)
    problems, _, excused = noisy_check(workload, alone, split)
    assert excused == 0
    assert any("no other record explains the split" in problem for problem in problems)
    assert noisy_check(workload, alone, fake_results([[0], [0]], size=1)) == ([], 0, 0)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_leak_check_passes_and_rejects_a_planted_token(name):
    _, _, prepared, session = small_session(name)
    group = prepared.cfg.group()
    frames = [frame for wrapped in session.wrapped for frame in wrapped.payloads]
    assert checks.plaintext_leaks(frames, prepared.hashed, group) == 0

    index, (msg_type, payload) = next(
        (i, f) for i, f in enumerate(frames) if f[0] in checks.RELAY_PAYLOADS
    )
    token = group.encode_element(prepared.hashed[0][0].features[0][0])
    start = 4 + 1 + 2  # relay id, feature count, token count
    planted = payload[:start] + token + payload[start + len(token):]
    frames[index] = (msg_type, planted)
    assert checks.plaintext_leaks(frames, prepared.hashed, group) == 1


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_runs_end_to_end(name, trace):
    workload = small_workload(name)
    result, summary, _ = run.measure(workload, seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = [(metric, value["unit"]) for metric, value in result["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in declared]
    if not trace:
        assert len(summary["samples"]["setup_s"]) >= 3
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert not [t.name for t in threading.enumerate() if t.name.startswith("psu-")]


def test_benchmark_declares_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [name for name, _ in LAYER_METRICS]
