"""The order in which a party's frames arrive does not change its outputs.

Four interleavings are forced by a :class:`HoldingHub`, and two more at
P = 4.  Two reach code that an in-order run never does: a set that
reaches party 1 before the last hello, which party 1 holds until its own
set is out, and a relay that reaches party 2 before the union broadcast,
which party 2 serves at once.  Two reorder round one's multi-sender
receives: the active party takes origin 1's last-hop set before origin
0's, and party 0 takes the active party's hop-1 set after origin P - 2's.
At P = 4 two holds reorder the hops a party awaits: party 0 holds origin
1's hop-2 set before its hop-1 pass, and the active party holds its own
full set before its finishing pass.
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
    return [key[0] for key in taken].index(msg_type)


def last(taken, msg_type) -> int:
    types = [key[0] for key in taken]
    return len(types) - 1 - types[::-1].index(msg_type)


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

    active = party_count - 1
    holds = {
        # The last party's hello to party 1 waits for a set to reach party 1.
        (HELLO, active, 0, 1): {SET},
        # Party 0's broadcast to party 2 waits for a relay to reach party 2.
        (BROADCAST, 0, party_count, 2): {RELAY},
        # Origin 0's last-hop set waits for origin 1's to reach the active party.
        (SET, 0, active, active): {(SET, 1, active)},
        # The active party's hop-1 set waits for origin P - 2's to reach party 0.
        (SET, active, 1, 0): {(SET, party_count - 2, 1)},
    }
    if party_count == 4:
        # Origin 2's hop-1 set, and so the active party's after it, waits
        # for origin 1's hop-2 set to reach party 0.
        holds[SET, 2, 1, 0] = {(SET, 1, 2)}
        # Origin 1's last-hop set, and so origin 0's after it, waits for the
        # active party's own full set to reach it.
        holds[SET, 1, active, active] = {(SET, active, party_count)}
    holding = HoldingHub(party_count, cfg.recv_timeout, holds)
    started = time.monotonic()
    results = run_session(
        build_parties(cfg, hashed), [holding.transport(k) for k in range(party_count)]
    )
    assert time.monotonic() - started < 5.0

    taken_0, taken_1, taken_2 = holding.taken[:3]
    taken_active = holding.taken[active]
    assert first(taken_1, SET) < last(taken_1, HELLO), taken_1
    assert first(taken_2, RELAY) < first(taken_2, BROADCAST), taken_2
    assert taken_active.index((SET, 1, active)) < taken_active.index((SET, 0, active)), taken_active
    assert taken_0.index((SET, party_count - 2, 1)) < taken_0.index((SET, active, 1)), taken_0
    if party_count == 4:
        assert taken_0.index((SET, 1, 2)) < taken_0.index((SET, 2, 1)), taken_0
        assert taken_active.index((SET, active, 4)) < taken_active.index((SET, 1, active)), taken_active
    for held, reference in zip(results, in_order.results):
        assert held.union_table == reference.union_table
        assert held.index_map.local_to_universal == reference.index_map.local_to_universal
    assert total_message_bytes(holding.endpoints) == in_order.message_bytes
