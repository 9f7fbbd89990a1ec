"""The ring schedule: who sends each message of a session, and to whom.

Every key (type, origin, hop) of a session is enumerated here and routed
through ``ring_route``.  The frame totals are the ones README's "Protocol
shape and accounting" states, and each party's receive tables equal the
ones that per-phase hop formulas give, kept below as an independent
reference.  A replay of round one's pass order over the routes shows that
every set gathers every layer once and that no party waits on itself.
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

    active = P - 1

    def sender(msg_type, origin, hop):
        if msg_type is SET:
            # The active party's set walks the whole ring, every other
            # origin's the parties before the active one.
            return (origin + hop - 1) % (P if origin == active else active)
        if msg_type in (UNION, BROADCAST):
            return P - hop
        return (origin + hop) % P

    def table(keys):
        return {key: sender(*key) for key in keys}

    if me == active:
        round_one = [(SET, k, P - 1) for k in range(active)] + [(SET, active, P)]
    else:
        round_one = [(SET, k, (me - k) % active) for k in range(active) if k != me]
        round_one.append((SET, active, me + 1))
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
            SET: P * P - P + 1,
            UNION: P - 1,
            BROADCAST: P - 1,
            RELAY: (P - 1) * k,
            RETURN: k,
        }


@pytest.mark.parametrize("P", range(2, 7))
def test_only_origin_0s_full_set_is_routed_to_its_own_sender(P):
    """Every origin's full set but the active party's own is routed to its
    own sender, the active party, which keeps it; at P = 2 that is origin
    0's alone."""
    routes = {key: ring_route(P, *key) for key in session_keys(P, list(range(P)))}
    kept = [(key, sender) for key, (sender, receiver) in routes.items() if sender == receiver]
    assert kept == [((SET, k, P), P - 1) for k in range(P - 1)]


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


def replay_round_one(P: int):
    """Round one's pass order, replayed over ``ring_route`` until no pass can run.

    Every party masks its own set first, then the sets routed to it one
    hop at a time, in ascending hop order, each hop's sets in one pass
    once they have all arrived.  Returns the hops each party still waits
    on, the (hop, origin) of the sets in each pass a party made, the
    parties whose layer each origin's set gathered, in order, the party
    that kept each set and the set frames sent.
    """
    routes = {(k, h): ring_route(P, SET, k, h) for k in range(P) for h in range(1, P + 1)}
    routed = {
        me: sorted((h, k) for (k, h), (sender, receiver) in routes.items()
                   if receiver == me != sender)
        for me in range(P)
    }
    waiting = {me: sorted({h for h, _ in routed[me]}) for me in range(P)}
    made = {me: [[(0, me)]] for me in range(P)}
    layers = {k: [] for k in range(P)}
    arrived, kept, frames = set(), {}, 0

    def mask(me, k, h):
        nonlocal frames
        layers[k].append(me)
        sender, receiver = routes[k, h + 1]
        assert sender == me, (k, h, sender, me)
        if receiver == me:
            kept[k] = me
        else:
            arrived.add((receiver, h + 1, k))
            frames += 1

    for me in range(P):
        mask(me, me, 0)
    ready = True
    while ready:
        ready = [me for me in range(P) if waiting[me] and all(
            (me, h, k) in arrived for h, k in routed[me] if h == waiting[me][0])]
        for me in ready:
            hop = waiting[me].pop(0)
            made[me].append([(h, k) for h, k in routed[me] if h == hop])
            for h, k in made[me][-1]:
                if h == P:
                    kept[k] = me
                else:
                    mask(me, k, h)
    return waiting, made, layers, kept, frames


@pytest.mark.parametrize("P", range(2, 9))
def test_round_one_pass_order_masks_every_set_once_and_never_waits_on_itself(P):
    waiting, made, layers, kept, frames = replay_round_one(P)
    active = P - 1
    # No party is left waiting, so none waits on a set that needs its own later work.
    assert waiting == {me: [] for me in range(P)}
    for me in range(P):
        masked = [k for batch in made[me] for h, k in batch if h < P]
        assert masked[0] == me and sorted(masked) == list(range(P)), (me, made[me])
    # Every set reaches the active party with P layers, one per party, its
    # origin's first; the active party masks every other origin's last.
    for k in range(P):
        assert kept[k] == active
        assert layers[k][0] == k and sorted(layers[k]) == list(range(P)), layers[k]
        assert k == active or layers[k][-1] == active, layers[k]
    # The active party finishes every other origin's set in one pass.
    assert made[active][1] == [(P - 1, k) for k in range(active)]
    assert frames == P * P - P + 1
