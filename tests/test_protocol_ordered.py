import functools
import itertools
import random
import threading
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psualign import (
    ConfigDigestMismatch,
    EncryptedSet,
    FeatureSpec,
    MatchConfig,
    NoMatchInUnion,
    Party,
    PeerSilent,
    PhaseViolation,
    ProtocolAbort,
    TransportFailure,
    compose,
    decode_set,
    encode_identifier,
    encode_set,
    fingerprint,
    make_group_params,
)
from psualign import config, groups
from psualign.messages import MessageType, ProtocolMessage
from psualign.simulate import build_parties, run_local_session, run_session
from psualign.transport import InProcessHub, TcpTransport, total_message_counts

from helpers import (
    TWO_FEATURES,
    hash_rows,
    hashed_union_oracle,
    plaintext_equal_pairs,
    random_instance,
    relayed_records,
    run_tapped,
    session_config,
)

G512 = make_group_params("p512")


def run_ordered(raw_per_party, seed=1, group="p512"):
    cfg = session_config(len(raw_per_party), TWO_FEATURES, group=group, seed=seed)
    group_params = cfg.group()
    hashed = [hash_rows(rows, TWO_FEATURES, group_params) for rows in raw_per_party]
    outcome = run_local_session(cfg, hashed)
    return cfg, hashed, outcome


def test_two_parties_single_shared_identifier():
    raw = [[("alice", "rome")], [("alice", "rome")]]
    cfg, hashed, outcome = run_ordered(raw)
    assert outcome.results[0].union_table.size == 1
    for result in outcome.results:
        assert result.index_map.local_to_universal == {0: 0}
        assert result.index_map.unmatched == []


def test_white_box_exponent_product():
    """Every union entry is the fingerprint of a hashed identifier powered by the full product."""
    raw = [
        [("alice", "rome"), ("bob", "oslo")],
        [("carol", "bern"), ("alice", "rome")],
    ]
    cfg = session_config(len(raw), TWO_FEATURES, seed=5)
    hashed = [hash_rows(rows, TWO_FEATURES, G512) for rows in raw]
    parties, results, _ = run_tapped(cfg, hashed)
    q = G512.q
    total = 1
    for party in parties:
        for exponent in party.exponents:
            total = (total * exponent) % q
    expected = {
        encode_identifier(fingerprint([compose(ident, [total], G512)], G512)[0], G512)
        for party in hashed
        for ident in party
    }
    actual = {
        encode_identifier(entry, G512)
        for entry in results[0].union_table.entries
    }
    assert actual == expected


def test_three_parties_with_empty_party():
    raw = [
        [("alice", "rome"), ("bob", "oslo")],
        [],
        [("bob", "oslo"), ("dina", "kiev")],
    ]
    cfg, hashed, outcome = run_ordered(raw)
    assert outcome.results[0].union_table.size == hashed_union_oracle(hashed)
    assert outcome.results[1].index_map.local_to_universal == {}
    # bob is shared between parties 0 and 2
    phi0 = outcome.results[0].index_map.local_to_universal
    phi2 = outcome.results[2].index_map.local_to_universal
    assert phi0[1] == phi2[0]


def test_all_parties_identical_single_record():
    raw = [[("eve", "lima")]] * 3
    cfg, hashed, outcome = run_ordered(raw)
    assert outcome.results[0].union_table.size == 1
    for result in outcome.results:
        assert result.index_map.local_to_universal == {0: 0}


def test_duplicates_within_one_party_share_an_index():
    raw = [[("bob", "oslo"), ("bob", "oslo"), ("ann", "kiev")], [("ann", "kiev")]]
    cfg, hashed, outcome = run_ordered(raw)
    phi0 = outcome.results[0].index_map.local_to_universal
    assert phi0[0] == phi0[1]
    assert outcome.results[0].union_table.size == 2


def test_message_accounting_and_peer_sizes():
    raw = [
        [("a", "x"), ("b", "y")],
        [("c", "z")],
        [("a", "x"), ("d", "w"), ("e", "v")],
    ]
    cfg = session_config(3, TWO_FEATURES)
    hashed = [hash_rows(rows, TWO_FEATURES, cfg.group()) for rows in raw]
    _, results, taps = run_tapped(cfg, hashed)
    counts = total_message_counts([tap.inner for tap in taps])
    sizes = [2, 1, 3]
    P = 3
    assert counts["SET_TRANSFER"] == P * P - 1
    assert counts["UNION_TRANSFER"] == P - 1
    assert counts["UID_BROADCAST"] == P - 1
    # Each party relays its records in one frame per hop and gets one return.
    assert counts["TOKEN_RELAY"] == P * (P - 1)
    assert counts["TOKEN_RETURN"] == P
    assert counts["HELLO"] == P * (P - 1)
    carried = relayed_records(cfg, taps)
    assert carried == {"TOKEN_RELAY": sum(sizes) * (P - 1), "TOKEN_RETURN": sum(sizes)}
    for result in results:
        assert result.peer_sizes == {0: 2, 1: 1, 2: 3}


UNORDERED_TWO_FEATURES = MatchConfig(
    features=TWO_FEATURES.features, threshold=Fraction(1), ordered=False
)


@pytest.mark.parametrize("party_count", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "match", [TWO_FEATURES, UNORDERED_TWO_FEATURES], ids=["ordered", "unordered"]
)
def test_no_frame_goes_back_to_its_sender(match, party_count):
    """The active party keeps origin 0's final set instead of sending it to itself."""
    raw = random_instance(random.Random(f"no-self-send/{party_count}"), party_count, 8)
    cfg = session_config(party_count, match, seed=60 + party_count)
    hashed = [hash_rows(rows, match, cfg.group()) for rows in raw]
    _, results, taps = run_tapped(cfg, hashed)
    for sender, tap in enumerate(taps):
        assert sender not in tap.receivers, (sender, tap.receivers)
    sets = [m for tap in taps for m in tap.sent if m.msg_type is MessageType.SET_TRANSFER]
    assert len(sets) == party_count**2 - 1
    assert (0, party_count) not in {(m.origin, m.hop) for m in sets}
    assert results[0].union_table.size == hashed_union_oracle(hashed)
    for result in results:
        assert result.union_table == results[0].union_table


SHORT_IDS = MatchConfig(
    features=(FeatureSpec("id", 3, 3),), threshold=Fraction(1), ordered=True
)


def test_an_origin_with_511_records_sends_one_relay_and_gets_one_return():
    """511 records travel as one relay frame and come back as one return.

    The records stay in record order, so each record's position in the
    returned payload is its relay id, and every record is indexed as the
    plaintext oracle says.
    """
    codes = ["".join(code) for code in itertools.product("abcdefghi", repeat=3)]
    raw = [
        [(code,) for code in codes[:511]],
        [(codes[0],), (codes[255],), (codes[-1],), (codes[510],)],
    ]
    cfg = session_config(2, SHORT_IDS)
    hashed = [hash_rows(rows, SHORT_IDS, cfg.group()) for rows in raw]
    _, results, taps = run_tapped(cfg, hashed)
    from_origin_0 = [m for m in taps[0].sent if m.msg_type.name == "TOKEN_RELAY"]
    assert [m.payload[:4] for m in from_origin_0] == [(511).to_bytes(4, "big")]
    returns_to_0 = [m for m in taps[1].sent if m.msg_type.name == "TOKEN_RETURN"]
    assert [m.payload[:4] for m in returns_to_0] == [(511).to_bytes(4, "big")]
    assert relayed_records(cfg, taps) == {"TOKEN_RELAY": 515, "TOKEN_RETURN": 515}

    assert results[0].union_table.size == hashed_union_oracle(hashed)
    for party_id, result in enumerate(results):
        assert len(result.index_map.local_to_universal) == len(raw[party_id])
    indices = {}
    for party_id, rows in enumerate(raw):
        for row, fields in enumerate(rows):
            index = results[party_id].index_map.local_to_universal[row]
            assert indices.setdefault(fields, index) == index
    assert len(set(indices.values())) == len(indices)


def test_same_seed_reproduces_union_and_indices():
    raw = random_instance(random.Random(7), 3)
    _, _, one = run_ordered(raw, seed=42)
    _, _, two = run_ordered(raw, seed=42)
    assert one.results[0].union_table == two.results[0].union_table
    for a, b in zip(one.results, two.results):
        assert a.index_map.local_to_universal == b.index_map.local_to_universal


def test_union_and_indices_identical_without_libcrypto(monkeypatch):
    raw = random_instance(random.Random(1), 2, max_rows=4)
    _, _, fast = run_ordered(raw, seed=42)
    monkeypatch.setattr(groups, "_libcrypto", None)
    _, _, slow = run_ordered(raw, seed=42)
    assert fast.results[0].union_table == slow.results[0].union_table
    for a, b in zip(fast.results, slow.results):
        assert a.index_map.local_to_universal == b.index_map.local_to_universal


def test_randomized_instances_match_oracle():
    rng = random.Random(2024)
    for trial in range(6):
        party_count = 2 + trial % 3
        raw = random_instance(rng, party_count, max_rows=10)
        cfg, hashed, outcome = run_ordered(raw, seed=trial, group="p512")
        assert outcome.results[0].union_table.size == hashed_union_oracle(hashed)
        for (p1, i1), (p2, i2) in plaintext_equal_pairs(raw):
            phi1 = outcome.results[p1].index_map.local_to_universal
            phi2 = outcome.results[p2].index_map.local_to_universal
            assert phi1[i1] == phi2[i2]
        # ordered mode: every record mapped
        for party_id, result in enumerate(outcome.results):
            assert len(result.index_map.local_to_universal) == len(raw[party_id])


_identifier = st.tuples(st.text(max_size=10), st.text(max_size=8))


@settings(max_examples=25, deadline=None)
@given(
    pool=st.lists(_identifier, min_size=1, max_size=5),
    picks=st.lists(st.lists(st.integers(min_value=0), max_size=6), min_size=2, max_size=3),
)
def test_pipeline_matches_oracle_on_arbitrary_text(pool, picks):
    """Whole-pipeline property: any unicode identifiers, oracle-equal union."""
    raw = [[pool[i % len(pool)] for i in party] for party in picks]
    cfg = session_config(len(raw), TWO_FEATURES, group="p512", seed=77)
    group = cfg.group()
    hashed = [hash_rows(rows, TWO_FEATURES, group) for rows in raw]
    outcome = run_local_session(cfg, hashed)
    assert outcome.results[0].union_table.size == hashed_union_oracle(hashed)
    for (p1, i1), (p2, i2) in plaintext_equal_pairs(raw):
        assert (
            outcome.results[p1].index_map.local_to_universal[i1]
            == outcome.results[p2].index_map.local_to_universal[i2]
        )


def test_a_party_with_full_width_exponents_interoperates_with_short_ones():
    """The exponent width is each party's own choice: modp2048 parties draw
    320-bit exponents, and one that redraws at full width still gives the
    oracle's union and an index exactly where two records are equal."""
    raw = [
        [("alice", "rome"), ("bob", "oslo"), ("carol", "bern")],
        [("bob", "oslo"), ("dina", "kiev")],
        [("alice", "rome"), ("dina", "kiev"), ("eve", "lima"), ("bob", "oslo")],
    ]
    cfg = session_config(len(raw), TWO_FEATURES, group="modp2048", seed=4)
    group = cfg.group()
    hashed = [hash_rows(rows, TWO_FEATURES, group) for rows in raw]
    parties = build_parties(cfg, hashed)
    rng = random.Random(8)
    parties[1].exponents = tuple(rng.randrange(1, group.q) for _ in range(3))
    widths = [max(e.bit_length() for e in party.exponents) for party in parties]
    assert widths[0] <= 320 and widths[2] <= 320 and widths[1] > 2000
    hub = InProcessHub(cfg.party_count, recv_timeout=cfg.recv_timeout)
    results = run_session(parties, [hub.transport(k) for k in range(cfg.party_count)])
    assert results[0].union_table.size == hashed_union_oracle(hashed) == 5
    records = [
        (row, results[k].index_map.local_to_universal[i])
        for k, rows in enumerate(raw)
        for i, row in enumerate(rows)
    ]
    for row_a, index_a in records:
        for row_b, index_b in records:
            assert (index_a == index_b) == (row_a == row_b)


def test_injectivity_for_distinct_records():
    raw = [[("a", "x"), ("b", "y"), ("c", "z")], [("d", "w")]]
    _, _, outcome = run_ordered(raw)
    phi0 = outcome.results[0].index_map.local_to_universal
    assert len(set(phi0.values())) == 3


def test_randomized_delivery_delays_do_not_change_results():
    raw = [[("a", "x"), ("b", "y")], [("b", "y"), ("c", "z")]]
    cfg = session_config(len(raw), TWO_FEATURES, seed=9)
    hashed = [hash_rows(rows, TWO_FEATURES, G512) for rows in raw]
    _, slow, _ = run_tapped(cfg, hashed, max_delay=0.003, delay_rng=random.Random(123))
    _, _, fast = run_ordered(raw, seed=9)
    assert slow[0].union_table == fast.results[0].union_table
    for a, b in zip(slow, fast.results):
        assert a.index_map.local_to_universal == b.index_map.local_to_universal


def test_all_parties_empty_union_is_empty_and_broadcast_happens():
    raw = [[], [], []]
    cfg, hashed, outcome = run_ordered(raw)
    assert outcome.results[0].union_table.size == 0
    for result in outcome.results:
        assert result.index_map.local_to_universal == {}
    counts = outcome.message_counts
    assert counts["SET_TRANSFER"] == 8
    assert counts["UID_BROADCAST"] == 2  # empty union still distributed
    assert counts["TOKEN_RELAY"] == 0


def test_digest_mismatch_aborts_before_any_identifier_flows():
    cfg = session_config(2, TWO_FEATURES, seed=3)
    group = cfg.group()
    hashed = [
        hash_rows([("al", "ro")], TWO_FEATURES, group),
        hash_rows([("bo", "pa")], TWO_FEATURES, group),
    ]
    parties = build_parties(cfg, hashed)
    parties[0].session_digest = b"something else"
    hub = InProcessHub(2, recv_timeout=5)
    transports = [hub.transport(0), hub.transport(1)]
    with pytest.raises(ConfigDigestMismatch):
        run_session(parties, transports)
    # nothing beyond session setup was transmitted
    counts = total_message_counts(transports)
    assert counts["SET_TRANSFER"] == 0
    assert counts["TOKEN_RELAY"] == 0


def test_a_peer_on_the_element_broadcast_layout_fails_at_hello():
    """Layout 6 broadcast the union's group elements; its peers disagree at HELLO."""
    cfg = session_config(2, TWO_FEATURES, seed=3)
    group = cfg.group()
    hashed = [hash_rows([("al", "ro")], TWO_FEATURES, group)] * 2
    parties = build_parties(cfg, hashed)
    with mock.patch.object(config, "WIRE_LAYOUT_VERSION", 6):
        parties[0].session_digest = cfg.digest()
    hub = InProcessHub(2, recv_timeout=5)
    transports = [hub.transport(0), hub.transport(1)]
    with pytest.raises(ConfigDigestMismatch, match="runs a different session configuration"):
        run_session(parties, transports)
    assert total_message_counts(transports)["SET_TRANSFER"] == 0


def test_no_match_in_union_is_fatal():
    class BrokenParty(Party):
        def _closing_exponent(self):
            return 1  # wrong layer: the final lookup cannot succeed

    cfg = session_config(2, TWO_FEATURES, seed=3)
    group = cfg.group()
    hashed = [
        hash_rows([("al", "ro")], TWO_FEATURES, group),
        hash_rows([("bo", "pa")], TWO_FEATURES, group),
    ]
    parties = build_parties(cfg, hashed)
    broken = BrokenParty(
        party_id=0,
        party_count=2,
        group=group,
        match_cfg=cfg.match,
        hashed_records=hashed[0],
        rng=cfg.party_rng(0),
        session_digest=cfg.digest(),
    )
    parties[0] = broken
    hub = InProcessHub(2, recv_timeout=5)
    with pytest.raises(NoMatchInUnion):
        run_session(parties, [hub.transport(0), hub.transport(1)])


def test_out_of_phase_message_raises():
    cfg = session_config(2, TWO_FEATURES, seed=3)
    group = cfg.group()
    hub = InProcessHub(2, recv_timeout=5)
    party = Party(
        party_id=1,
        party_count=2,
        group=group,
        match_cfg=cfg.match,
        hashed_records=[],
        rng=cfg.party_rng(1),
        session_digest=cfg.digest(),
    )
    from psualign.messages import MessageType, ProtocolMessage

    intruder = hub.transport(0)
    intruder.send(1, ProtocolMessage(MessageType.HELLO, 0, 0, cfg.digest()))
    intruder.send(1, ProtocolMessage(MessageType.TOKEN_RELAY, 0, 0, b"\0\0\0\0"))
    with pytest.raises(PhaseViolation):
        party.run(hub.transport(1))


def test_abort_propagates_to_peers():
    cfg = session_config(2, TWO_FEATURES, seed=3)
    group = cfg.group()
    hub = InProcessHub(2, recv_timeout=5)
    party = Party(
        party_id=1,
        party_count=2,
        group=group,
        match_cfg=cfg.match,
        hashed_records=[],
        rng=cfg.party_rng(1),
        session_digest=cfg.digest(),
    )
    from psualign.messages import MessageType, ProtocolMessage

    intruder = hub.transport(0)
    intruder.send(1, ProtocolMessage(MessageType.ABORT, 0, 0, b"boom"))
    with pytest.raises(ProtocolAbort, match="boom"):
        party.run(hub.transport(1))


def test_message_from_an_unknown_party_id_is_rejected_at_once():
    """A HELLO from party 7 of 3 must not stand in for party 2's greeting."""
    from psualign.messages import MessageType, ProtocolMessage
    from psualign.protocol import Phase

    cfg = session_config(3, TWO_FEATURES, seed=3)
    hub = InProcessHub(3, recv_timeout=2)
    party = Party(
        party_id=1,
        party_count=3,
        group=cfg.group(),
        match_cfg=cfg.match,
        hashed_records=[],
        rng=cfg.party_rng(1),
        session_digest=cfg.digest(),
    )
    intruder = hub.transport(0)
    for origin in (0, 7):
        intruder.send(1, ProtocolMessage(MessageType.HELLO, origin, 0, cfg.digest()))
    started = time.monotonic()
    with pytest.raises(PhaseViolation, match="cannot accept HELLO for origin 7 at hop 0"):
        party.run(hub.transport(1))
    assert time.monotonic() - started < 1.0
    assert party.phase is Phase.HANDSHAKE


def test_a_hello_from_a_party_other_than_its_origin_is_rejected_at_once():
    """Party 2 greets party 1 twice, once as party 0; the handshake must not pass."""
    from psualign.protocol import Phase

    cfg = session_config(3, TWO_FEATURES, seed=3)
    hub = InProcessHub(3, recv_timeout=2)
    party = Party(
        party_id=1,
        party_count=3,
        group=cfg.group(),
        match_cfg=cfg.match,
        hashed_records=[],
        rng=cfg.party_rng(1),
        session_digest=cfg.digest(),
    )
    impostor = hub.transport(2)
    for origin in (0, 2):
        impostor.send(1, ProtocolMessage(MessageType.HELLO, origin, 0, cfg.digest()))
    started = time.monotonic()
    with pytest.raises(
        PhaseViolation, match="hello for party 0 came from party 2, expected party 0"
    ):
        party.run(hub.transport(1))
    assert time.monotonic() - started < 1.0
    assert party.phase is Phase.HANDSHAKE


class ForgingTransport:
    """A hub endpoint that puts one frame straight into its receiver's
    queue under another party's id.

    ``target`` is the (type, receiver, origin) of the frame to forge.
    """

    def __init__(self, inner, target, claimed: int):
        self.inner = inner
        self.target = target
        self.claimed = claimed

    def establish(self, timeout=None) -> None:
        self.inner.establish(timeout)

    def send(self, to, message) -> None:
        if (message.msg_type, to, message.origin) == self.target:
            self.inner.hub.queues[to].put((self.claimed, message))
        else:
            self.inner.send(to, message)

    def recv(self, timeout=None):
        return self.inner.recv(timeout)


@pytest.mark.parametrize(
    "forger, target, claimed, error",
    [
        (0, (MessageType.SET_TRANSFER, 1, 0), 2,
         "set for origin 0 at hop 1 came from party 2, expected party 0"),
        (2, (MessageType.UNION_TRANSFER, 1, 2), 0,
         "union at hop 1 came from party 0, expected party 2"),
        (0, (MessageType.UID_BROADCAST, 2, 0), 1,
         "union broadcast came from party 1, expected party 0"),
        (0, (MessageType.TOKEN_RELAY, 1, 0), 2,
         "relay from origin 0 at hop 0 came from party 2, expected party 0"),
        (2, (MessageType.TOKEN_RETURN, 0, 0), 1,
         "token return came from party 1, expected party 2"),
    ],
    ids=["set", "union", "broadcast", "relay", "return"],
)
def test_a_ring_message_from_the_wrong_sender_is_rejected(forger, target, claimed, error):
    """Three parties with records; one frame arrives under another party's id."""
    raw = [[("a", "x")], [("b", "y")], [("a", "x"), ("c", "z")]]
    cfg = session_config(3, TWO_FEATURES, seed=3)
    hashed = [hash_rows(rows, TWO_FEATURES, cfg.group()) for rows in raw]
    hub = InProcessHub(3, recv_timeout=5)
    transports = [hub.transport(k) for k in range(3)]
    transports[forger] = ForgingTransport(transports[forger], target, claimed)
    with pytest.raises(PhaseViolation, match=error):
        run_session(build_parties(cfg, hashed), transports)


class RelayoutTransport:
    """A hub endpoint that re-encodes each payload of one type in the other set layout:
    the fingerprints of its elements, or a broadcast's fingerprints as elements."""

    def __init__(self, inner, msg_type, group):
        self.inner = inner
        self.msg_type = msg_type
        self.group = group

    def establish(self, timeout=None) -> None:
        self.inner.establish(timeout)

    def send(self, to, message) -> None:
        if message.msg_type is self.msg_type:
            decoded = decode_set(message.payload, self.group)
            if decoded.fingerprints:
                other = EncryptedSet(decoded.items)
            else:
                other = EncryptedSet(fingerprint(decoded.items, self.group), fingerprints=True)
            payload = encode_set(other, self.group)
            message = ProtocolMessage(message.msg_type, message.origin, message.hop, payload)
        self.inner.send(to, message)

    def recv(self, timeout=None):
        return self.inner.recv(timeout)


@pytest.mark.parametrize("msg_type", [
    MessageType.SET_TRANSFER,
    MessageType.UNION_TRANSFER,
    MessageType.UID_BROADCAST,
    MessageType.TOKEN_RELAY,
    MessageType.TOKEN_RETURN,
], ids=lambda t: t.name)
def test_only_the_union_broadcast_carries_fingerprints(msg_type):
    """A fingerprint payload on any other type, and an element payload on the
    broadcast, fail the receiver with TransportFailure."""
    raw = [[("a", "x")], [("b", "y")], [("a", "x"), ("c", "z")]]
    cfg = session_config(3, TWO_FEATURES, seed=3)
    group = cfg.group()
    hashed = [hash_rows(rows, TWO_FEATURES, group) for rows in raw]
    hub = InProcessHub(3, recv_timeout=5)
    transports = [RelayoutTransport(hub.transport(k), msg_type, group) for k in range(3)]
    kinds = ("group element", "fingerprint")
    broadcast = msg_type is MessageType.UID_BROADCAST
    error = f"a {kinds[not broadcast]} payload where a {kinds[broadcast]} one is expected"
    with pytest.raises(TransportFailure, match=f"undecodable set payload: {error}"):
        run_session(build_parties(cfg, hashed), transports)


@pytest.mark.parametrize("claimed", [0, 1])
def test_a_final_set_for_origin_0_over_the_wire_is_rejected(claimed):
    """Party 1 of 2 masks origin 0's set last and keeps it; none may arrive."""
    cfg = session_config(2, TWO_FEATURES, seed=3)
    hub = InProcessHub(2, recv_timeout=2)
    party = Party(
        party_id=1,
        party_count=2,
        group=cfg.group(),
        match_cfg=cfg.match,
        hashed_records=[],
        rng=cfg.party_rng(1),
        session_digest=cfg.digest(),
    )
    hub.queues[1].put((0, ProtocolMessage(MessageType.HELLO, 0, 0, cfg.digest())))
    hub.queues[1].put((claimed, ProtocolMessage(MessageType.SET_TRANSFER, 0, 2, b"")))
    started = time.monotonic()
    with pytest.raises(
        PhaseViolation, match="round_one cannot accept SET_TRANSFER for origin 0 at hop 2"
    ):
        party.run(hub.transport(1))
    assert time.monotonic() - started < 1.0


def _early_arrival_cases():
    """Frames queued for party 1 of 2, which holds one record, and the violation each ends in."""
    empty = encode_set(EncryptedSet([]), G512)
    hello = (MessageType.HELLO, 0, 0, None)
    both_sets = [(MessageType.SET_TRANSFER, 0, 1, empty), (MessageType.SET_TRANSFER, 1, 2, empty)]
    return [
        # Hop 5 does not exist in a 2-party ring.
        ([(MessageType.SET_TRANSFER, 0, 5, b""), hello],
         "handshake cannot accept SET_TRANSFER for origin 0 at hop 5"),
        # A second copy of a set held during the handshake.
        (both_sets + [(MessageType.SET_TRANSFER, 0, 1, empty), hello],
         "handshake cannot accept SET_TRANSFER for origin 0 at hop 1"),
        # Ahead of the union broadcast; party 0 holds no records, so
        # matching awaits only the broadcast.
        ([hello] + both_sets + [
            (MessageType.TOKEN_RELAY, 0, 0, empty),
            (MessageType.UID_BROADCAST, 0, 2, empty),
        ], "matching cannot accept TOKEN_RELAY for origin 0 at hop 0"),
        # Party 1 awaits its return only once its relay is out, which
        # takes the union.
        ([hello] + both_sets + [
            (MessageType.TOKEN_RETURN, 1, 1, empty),
            (MessageType.UID_BROADCAST, 0, 2, empty),
        ], "matching cannot accept TOKEN_RETURN for origin 1 at hop 1"),
    ]


@pytest.mark.parametrize(
    "queued, error",
    _early_arrival_cases(),
    ids=["illegal-hop", "left-over-set", "left-over-relay", "early-return"],
)
def test_a_parked_early_arrival_is_still_judged(queued, error):
    """An early arrival is judged on arrival, by the table of the phase it reaches."""
    cfg = session_config(2, TWO_FEATURES, seed=3)
    hub = InProcessHub(2, recv_timeout=2)
    party = Party(
        party_id=1,
        party_count=2,
        group=cfg.group(),
        match_cfg=cfg.match,
        hashed_records=hash_rows([("a", "x")], TWO_FEATURES, cfg.group()),
        rng=cfg.party_rng(1),
        session_digest=cfg.digest(),
    )
    for msg_type, origin, hop, payload in queued:
        payload = cfg.digest() if payload is None else payload
        hub.queues[1].put((0, ProtocolMessage(msg_type, origin, hop, payload)))
    started = time.monotonic()
    with pytest.raises(PhaseViolation, match=error):
        party.run(hub.transport(1))
    assert time.monotonic() - started < 1.0


class Endpoint:
    """A hub endpoint with a receive deadline of its own.

    A ``mute`` endpoint sends its HELLOs and swallows every later frame.
    """

    def __init__(self, inner, recv_timeout: float, mute: bool = False):
        self.inner = inner
        self.recv_timeout = recv_timeout
        self.mute = mute

    def establish(self, timeout=None) -> None:
        self.inner.establish(timeout)

    def send(self, to, message) -> None:
        if not self.mute or message.msg_type is MessageType.HELLO:
            self.inner.send(to, message)

    def recv(self, timeout=None):
        return self.inner.recv(self.recv_timeout)


def _errors_of(parties, transports):
    """Run every party on its own thread; return each one's exception, or None."""
    errors = [None] * len(parties)

    def drive(index):
        try:
            parties[index].run(transports[index])
        except Exception as exc:
            errors[index] = exc

    threads = [threading.Thread(target=drive, args=(k,)) for k in range(len(parties))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


def test_a_silent_peer_is_named():
    """Party 0 greets, then sends nothing; party 1 names it within 2 x recv_timeout.

    Party 1's deadline is 0.5 s and its peers' 5 s, so party 1 is the
    first to give up and the others end on its abort.
    """
    raw = [[("a", "x")], [("b", "y")], [("a", "x"), ("c", "z")]]
    cfg = session_config(3, TWO_FEATURES, seed=3)
    hashed = [hash_rows(rows, TWO_FEATURES, cfg.group()) for rows in raw]
    hub = InProcessHub(3, recv_timeout=5)
    transports = [hub.transport(k) for k in range(3)]
    transports[0] = Endpoint(transports[0], 5, mute=True)
    transports[1] = Endpoint(transports[1], 0.5)
    started = time.monotonic()
    errors = _errors_of(build_parties(cfg, hashed), transports)
    assert time.monotonic() - started < 2 * 0.5
    assert isinstance(errors[1], PeerSilent), errors
    assert "party 1 in phase round_one heard nothing from parties [0]" in str(errors[1])
    assert all(isinstance(error, ProtocolAbort) for error in (errors[0], errors[2])), errors


def test_a_silent_tcp_peer_is_named():
    """Over TCP, party 0 greets and never sends its set; party 1 names it."""
    cfg = session_config(2, TWO_FEATURES, seed=3)
    transports = [
        TcpTransport(k, 2, ("127.0.0.1", 0), {}, recv_timeout=0.5) for k in range(2)
    ]
    for transport in transports:
        transport.listen()
    for k, transport in enumerate(transports):
        transport.peer_addrs = {1 - k: transports[1 - k].listen_addr}

    def greet():
        transports[0].establish()
        transports[0].send(1, ProtocolMessage(MessageType.HELLO, 0, 0, cfg.digest()))

    greeter = threading.Thread(target=greet)
    party = build_parties(cfg, [[], hash_rows([("b", "y")], TWO_FEATURES, cfg.group())])[1]
    try:
        greeter.start()
        started = time.monotonic()
        with pytest.raises(
            PeerSilent, match=r"party 1 in phase round_one heard nothing from parties \[0\]"
        ):
            party.run(transports[1])
        assert time.monotonic() - started < 2 * 0.5
    finally:
        greeter.join()
        for transport in transports:
            transport.close()


def _record_added(payload, group, send):
    returned = decode_set(payload, group)
    send(encode_set(EncryptedSet(returned.items + returned.items[:1]), group))


def _repeated(payload, group, send):
    send(payload)
    send(payload)


def _record_dropped(payload, group, send):
    returned = decode_set(payload, group)
    send(encode_set(EncryptedSet(returned.items[:-1]), group))


@pytest.mark.parametrize(
    "tamper, error",
    [
        (_record_added, "token return of 5 records for party 1, which has 4 pending"),
        (_repeated, "matching cannot accept TOKEN_RETURN for origin 1 at hop 1"),
        (_record_dropped, "token return of 3 records for party 1, which has 4 pending"),
    ],
    ids=["out-of-range-record", "repeated-record", "wrong-record-count"],
)
def test_token_return_for_a_record_not_pending_is_rejected(tamper, error):
    """Party 0 tampers with the return it sends back to party 1.

    A return must hold exactly party 1's four records, once.  Party 0
    holds back its own relay until the return is out, so party 1 is
    still serving when a repeated return arrives.
    """
    from psualign.messages import MessageType

    class TamperingParty(Party):
        held = None

        def _send(self, transport, to, msg_type, origin, hop, payload):
            send = functools.partial(
                super()._send, transport, to, msg_type, origin, hop
            )
            if msg_type is MessageType.TOKEN_RELAY:
                self.held = send, payload
            elif msg_type is MessageType.TOKEN_RETURN:
                tamper(payload, self.group, send)
                held_send, held_payload = self.held
                held_send(held_payload)
            else:
                send(payload)

    cfg = session_config(2, TWO_FEATURES, seed=3)
    group = cfg.group()
    hashed = [
        hash_rows([("a", "b")], TWO_FEATURES, group),
        hash_rows([(c, c) for c in "abcd"], TWO_FEATURES, group),
    ]
    parties = build_parties(cfg, hashed)
    parties[0] = TamperingParty(
        party_id=0,
        party_count=2,
        group=group,
        match_cfg=cfg.match,
        hashed_records=hashed[0],
        rng=cfg.party_rng(0),
        session_digest=cfg.digest(),
    )
    hub = InProcessHub(2, recv_timeout=5)
    with pytest.raises(PhaseViolation, match=error):
        run_session(parties, [hub.transport(0), hub.transport(1)])


def test_a_relay_not_holding_exactly_the_origin_records_is_rejected():
    """Party 0 relays its one record twice, then not at all; party 1 serves one."""
    from psualign.messages import MessageType

    class ResizingParty(Party):
        def _send(self, transport, to, msg_type, origin, hop, payload):
            if msg_type is MessageType.TOKEN_RELAY:
                items = decode_set(payload, self.group).items
                payload = encode_set(EncryptedSet(resize(items)), self.group)
            super()._send(transport, to, msg_type, origin, hop, payload)

    cfg = session_config(2, TWO_FEATURES, seed=3)
    group = cfg.group()
    hashed = [
        hash_rows([("al", "ro")], TWO_FEATURES, group),
        hash_rows([("bo", "pa")], TWO_FEATURES, group),
    ]
    cases = [
        (lambda items: items + items[-1:], "relay of 2 records from origin 0, whose set held 1"),
        (lambda items: items[:-1], "relay of 0 records from origin 0, whose set held 1"),
    ]
    for resize, error in cases:
        parties = build_parties(cfg, hashed)
        parties[0] = ResizingParty(
            party_id=0,
            party_count=2,
            group=group,
            match_cfg=cfg.match,
            hashed_records=hashed[0],
            rng=cfg.party_rng(0),
            session_digest=cfg.digest(),
        )
        hub = InProcessHub(2, recv_timeout=5)
        with pytest.raises(PhaseViolation, match=error):
            run_session(parties, [hub.transport(0), hub.transport(1)])
