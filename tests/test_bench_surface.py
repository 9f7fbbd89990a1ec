"""The package surface the benchmark harness uses still exists and runs.

The harness in ``bench/`` has its own suite; this module keeps the names
and call shapes it relies on under the main suite too.  It imports
``bench/checks.py``, ``bench/tracing.py`` and ``bench/workloads.py``
without installing the tracer or writing anything.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from psualign import (
    EncryptedIdentifier,
    MessageType,
    decode_identifier,
    decode_set,
    encode_set,
)
from psualign.transport import TcpTransport

from helpers import (
    SINGLE_FEATURE_NOISY,
    TWO_FEATURES,
    hash_rows,
    run_tapped,
    session_config,
)

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, BENCH)
try:
    import checks
    import tracing
    import workloads
finally:
    sys.path.remove(BENCH)


def small(name: str, records: int = 5):
    return dataclasses.replace(workloads.WORKLOADS[name], records_per_party=records)


def test_every_traced_name_resolves_to_a_callable():
    for module_name, attr, _, _ in tracing.TRACED:
        module = importlib.import_module(f"psualign.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_prepare_builds_every_workload(name):
    workload = small(name)
    prepared = workloads.prepare(workload, workload.corpus(1), 1000)
    try:
        assert len(prepared.parties) == len(prepared.transports) == workload.party_count
        assert all(
            isinstance(t, TcpTransport) == workload.tcp for t in prepared.transports
        )
    finally:
        prepared.close()


@pytest.mark.parametrize("name", ["noisy-names-p512", "exact-ids-p512-tcp"])
def test_small_session_runs_through_the_harness(name):
    workload = small(name)
    prepared = workloads.prepare(workload, workload.corpus(1), 1000)
    session = workloads.run_prepared(prepared)
    assert len(session.results) == workload.party_count
    for result in session.results:
        index_map = result.index_map
        assert len(index_map.local_to_universal) + len(index_map.unmatched) == 5
    assert all(sum(w.bytes.values()) > 0 for w in session.wrapped)


@pytest.mark.parametrize("name", ["noisy-names-p512", "exact-ids-p512-tcp"])
def test_harness_byte_counts_agree_with_the_transports(name):
    """The bench counts bytes itself; the package's counters must agree."""
    workload = small(name)
    prepared = workloads.prepare(workload, workload.corpus(1), 1000)
    session = workloads.run_prepared(prepared)
    for wrapped in session.wrapped:
        counted = {t.name: wrapped.bytes.get(t, 0) for t in MessageType}
        assert counted == wrapped.inner.message_bytes()


def test_leak_check_reads_the_set_layout():
    """0 plaintext tokens on the wire, then exactly the 1 planted in a set."""
    cfg = session_config(2, SINGLE_FEATURE_NOISY, seed=5)
    group = cfg.group()
    rows = [[("anna novak",), ("bob smith",)], [("anna novok",), ("carl jones",)]]
    hashed = [hash_rows(party_rows, SINGLE_FEATURE_NOISY, group) for party_rows in rows]
    _, _, taps = run_tapped(cfg, hashed)
    frames = [(m.msg_type, m.payload) for tap in taps for m in tap.sent]
    assert checks.plaintext_leaks(frames, hashed, group) == 0

    at = next(k for k, (t, _) in enumerate(frames) if t is MessageType.SET_TRANSFER)
    enc_set = decode_set(frames[at][1], group)
    first = enc_set.items[0].features
    planted = ((hashed[0][0].features[0][0],) + first[0][1:],) + first[1:]
    enc_set.items[0] = EncryptedIdentifier(planted)
    frames[at] = (MessageType.SET_TRANSFER, encode_set(enc_set, group))
    assert checks.plaintext_leaks(frames, hashed, group) == 1


def test_leak_check_reads_every_record_of_a_relay_batch():
    """0 plaintext tokens, then exactly the 1 planted in a relay's last token."""
    cfg = session_config(2, TWO_FEATURES, seed=5)
    group = cfg.group()
    rows = [
        [("anna", "rome"), ("bob", "oslo"), ("carl", "kyiv")],
        [("anna", "rome"), ("dora", "lima")],
    ]
    hashed = [hash_rows(party_rows, TWO_FEATURES, group) for party_rows in rows]
    _, _, taps = run_tapped(cfg, hashed)
    frames = [(m.msg_type, m.payload) for tap in taps for m in tap.sent]
    assert checks.plaintext_leaks(frames, hashed, group) == 0

    at = next(k for k, (t, _) in enumerate(frames) if t is MessageType.TOKEN_RELAY)
    relay = decode_set(frames[at][1], group)
    assert len(relay.items) == 3
    *head, last = relay.items[-1].features
    planted = tuple(head) + (last[:-1] + (hashed[0][0].features[0][0],),)
    relay.items[-1] = EncryptedIdentifier(planted)
    frames[at] = (MessageType.TOKEN_RELAY, encode_set(relay, group))
    assert checks.plaintext_leaks(frames, hashed, group) == 1


@pytest.mark.parametrize(
    "match", [TWO_FEATURES, SINGLE_FEATURE_NOISY], ids=["ordered", "unordered"]
)
def test_identifier_reader_at_byte_4_sees_every_element_of_a_payload(match):
    """The leak check reads relays as an identifier at byte 4; that is the table.

    Over every set, union, relay and return frame of a 3-party session,
    the elements read there are the payload's distinct elements, in the
    order the items first use them.  The broadcast carries fingerprints,
    which the leak check reads through ``decode_set``: what it reads there
    is the union table, in index order.
    """
    cfg = session_config(3, match, seed=8)
    group = cfg.group()
    rows = [
        [("anna novak", "rome"), ("bob smith", "oslo")],
        [("anna novok", "rome")],
        [("carl jones", "kyiv"), ("bob smith", "oslo"), ("dora lima", "lima")],
    ]
    fields = len(match.features)
    hashed = [hash_rows([r[:fields] for r in party_rows], match, group) for party_rows in rows]
    _, results, taps = run_tapped(cfg, hashed)
    read = set()
    for tap in taps:
        for message in tap.sent:
            if message.msg_type is MessageType.UID_BROADCAST:
                broadcast = decode_set(message.payload, group)
                assert broadcast.fingerprints
                assert tuple(broadcast.items) == results[0].union_table.entries
                read.add(message.msg_type)
            elif message.msg_type in checks.SET_PAYLOADS + checks.RELAY_PAYLOADS:
                table, _ = decode_identifier(message.payload, group, 4)
                items = decode_set(message.payload, group).items
                distinct = dict.fromkeys(
                    value for item in items for feature in item.features for value in feature
                )
                assert [v for chunk in table.features for v in chunk] == list(distinct)
                read.add(message.msg_type)
    assert read == set(checks.SET_PAYLOADS + checks.RELAY_PAYLOADS)
