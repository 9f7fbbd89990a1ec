"""The order in which a party's frames arrive does not change its outputs.

Two interleavings reach code that an in-order run never does: a set that
reaches party 1 before the last hello, which party 1 holds until its own
set is out, and a relay that reaches party 2 before the union broadcast,
which party 2 serves at once.  A :class:`HoldingHub` forces both.
"""

import time
from fractions import Fraction

import pytest

from psualign import FeatureSpec, MatchConfig
from psualign.corpus import generate_corpus
from psualign.messages import MessageType
from psualign.simulate import build_parties, run_local_session, run_session
from psualign.transport import total_message_bytes

from helpers import HoldingHub, hash_rows, session_config

COLUMNS = ("name", "street")
HELLO = MessageType.HELLO
SET = MessageType.SET_TRANSFER
BROADCAST = MessageType.UID_BROADCAST
RELAY = MessageType.TOKEN_RELAY


def first(taken, msg_type) -> int:
    return taken.index(msg_type)


def last(taken, msg_type) -> int:
    return len(taken) - 1 - taken[::-1].index(msg_type)


@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
@pytest.mark.parametrize("party_count", [3, 4])
def test_held_sets_and_early_relays_give_the_in_order_outputs(party_count, ordered):
    match = MatchConfig(
        features=tuple(FeatureSpec(column, 12, 3) for column in COLUMNS),
        threshold=Fraction(7, 10),
        ordered=ordered,
    )
    corpus = generate_corpus(
        [20] * party_count, overlap=0.5, typo_rate=0.3, seed=20, style="words", columns=COLUMNS
    )
    cfg = session_config(party_count, match, recv_timeout=10)
    hashed = [hash_rows([row.fields for row in rows], match, cfg.group()) for rows in corpus.parties]
    in_order = run_local_session(cfg, hashed)

    holding = HoldingHub(
        party_count,
        cfg.recv_timeout,
        {
            # The last party's hello to party 1 waits for a set to reach party 1.
            (HELLO, party_count - 1, 1): {SET},
            # Party 0's broadcast to party 2 waits for a relay to reach party 2.
            (BROADCAST, 0, 2): {RELAY},
        },
    )
    started = time.monotonic()
    results = run_session(
        build_parties(cfg, hashed), [holding.transport(k) for k in range(party_count)]
    )
    assert time.monotonic() - started < 5.0

    taken_1, taken_2 = holding.taken[1], holding.taken[2]
    assert first(taken_1, SET) < last(taken_1, HELLO), taken_1
    assert first(taken_2, RELAY) < first(taken_2, BROADCAST), taken_2
    for held, reference in zip(results, in_order.results):
        assert held.union_table == reference.union_table
        assert held.index_map.local_to_universal == reference.index_map.local_to_universal
    assert total_message_bytes(holding.endpoints) == in_order.message_bytes
