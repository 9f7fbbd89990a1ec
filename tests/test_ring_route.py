"""The ring schedule: who sends each message of a session, and to whom.

Every key (type, origin, hop) of a session is enumerated here and routed
through ``ring_route``.  The frame totals are the ones README's "Protocol
shape and accounting" states, and each party's receive tables equal the
ones that per-phase hop formulas give, kept below as an independent
reference.
"""

import random
from collections import Counter

import pytest

from helpers import TWO_FEATURES
from psualign import Party, make_group_params
from psualign.messages import MessageType
from psualign.protocol import ring_route

HELLO = MessageType.HELLO
SET = MessageType.SET_TRANSFER
UNION = MessageType.UNION_TRANSFER
BROADCAST = MessageType.UID_BROADCAST
RELAY = MessageType.TOKEN_RELAY
RETURN = MessageType.TOKEN_RETURN

# The handshake's hellos share round one's table, and the union broadcast
# matching's.
PHASE_TYPES = {
    "round_one": (HELLO, SET),
    "round_two": (UNION,),
    "matching": (BROADCAST, RELAY, RETURN),
}


def session_keys(P: int, relaying: list[int]) -> list[tuple[MessageType, int, int]]:
    """Every (type, origin, hop) of a session in which ``relaying`` have records."""
    return (
        [(HELLO, k, 0) for k in range(P)]
        + [(SET, k, h) for k in range(P) for h in range(1, P + 1)]
        + [(UNION, P - 1, h) for h in range(1, P)]
        + [(BROADCAST, 0, P)]
        + [(RELAY, k, h) for k in relaying for h in range(P - 1)]
        + [(RETURN, k, P - 1) for k in relaying]
    )


def reference_tables(P: int, me: int, relaying: list[int]) -> dict[str, dict]:
    """Party ``me``'s receive table per phase, from the per-phase hop formulas."""

    def sender(msg_type, origin, hop):
        if msg_type is SET:
            return (origin + hop - 1) % P
        if msg_type in (UNION, BROADCAST):
            return P - hop
        return (origin + hop) % P

    def table(keys):
        return {key: sender(*key) for key in keys}

    active = P - 1
    round_one = [(SET, k, (me - k) % P) for k in range(P) if k != me]
    if me == active:
        round_one += [(SET, k, P) for k in range(1, P)]
    matching = [(RELAY, k, (me - k - 1) % P) for k in relaying if k != me]
    if me in relaying:
        matching.append((RETURN, me, P - 1))
    hellos = [(HELLO, k, 0) for k in range(P) if k != me]
    broadcast = [] if me == 0 else [(BROADCAST, 0, P)]
    return {
        "round_one": table(hellos + round_one),
        "round_two": table([] if me == active else [(UNION, active, active - me)]),
        "matching": table(broadcast + matching),
    }


def relaying_patterns(P: int) -> list[list[int]]:
    """Every origin relays, or only the even ones."""
    return [list(range(P)), list(range(0, P, 2))]


@pytest.mark.parametrize("P", range(2, 7))
def test_frame_totals_follow_the_accounting_formulas(P):
    for relaying in relaying_patterns(P):
        frames = Counter()
        for key in session_keys(P, relaying):
            sender, receiver = ring_route(P, *key)
            assert 0 <= sender < P, key
            if receiver is None:
                frames[key[0]] += P - 1
            elif receiver != sender:
                assert 0 <= receiver < P, key
                frames[key[0]] += 1
        k = len(relaying)
        assert frames == {
            HELLO: P * (P - 1),
            SET: P * P - 1,
            UNION: P - 1,
            BROADCAST: P - 1,
            RELAY: (P - 1) * k,
            RETURN: k,
        }


@pytest.mark.parametrize("P", range(2, 7))
def test_only_origin_0s_full_set_is_routed_to_its_own_sender(P):
    routes = {key: ring_route(P, *key) for key in session_keys(P, list(range(P)))}
    kept = [key for key, (sender, receiver) in routes.items() if sender == receiver]
    assert kept == [(SET, 0, P)]


@pytest.mark.parametrize("P", range(2, 7))
def test_receive_tables_match_the_per_phase_hop_formulas(P):
    group = make_group_params("p512")
    for relaying in relaying_patterns(P):
        keys = session_keys(P, relaying)
        for me in range(P):
            party = Party(me, P, group, TWO_FEATURES, [], random.Random(me))
            expected = reference_tables(P, me, relaying)
            for phase, types in PHASE_TYPES.items():
                table = party._expect(key for key in keys if key[0] in types)
                assert table == expected[phase], (phase, me, relaying)
