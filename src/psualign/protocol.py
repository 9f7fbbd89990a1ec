"""Party state machines driving both protocol variants.

A session runs four phases in fixed order:

1. handshake -- every pair exchanges a config digest (HELLO).
2. first masking round -- each dataset gathers every party's first
   exponent once.  The active party, P - 1, applies the last layer to
   every set and keeps it: its own set walks the whole ring back to it
   (P sends), and every other origin's walks the other parties in ring
   order, then reaches it (P - 1 sends).  A session sends P² - P + 1 set
   frames, and no party ever sends to itself.
3. union construction -- the active party deduplicates, masks the
   provisional union with its (third * second) exponent, and the union
   walks down the ring gathering every party's layer; the final holder
   (party 0) sorts the finished union by value (position = universal
   index) and broadcasts, in that order, each entry with every element
   replaced by its 16-byte fingerprint.
4. matching -- every party takes the broadcast's item order as the
   index order, and each party with at least one record relays them
   around the ring as one set payload in record order (not shuffled):
   one TOKEN_RELAY frame per hop, one TOKEN_RETURN.  The relay gathers
   the remaining exponents, and every record in it is fingerprinted and
   looked up in the union on return, its position in the payload being
   its relay id.  Nothing new leaks: record order was already public
   through relay ids, the table's equality pattern through deterministic
   masking, and whether an origin relays at all depends only on N_k,
   which every peer learns in round one.

Every message has one fixed sender and receiver, given by its type, origin
and hop (``ring_route``), and the party sends each message where its
route says.  Each phase receives from a table of the (type, origin, hop)
routed to the party that it still awaits, each mapped to its sender: the
hellos with round one's sets, the union hop, and the union broadcast with
the relays and the party's own return, which joins once its relay is out.
Every message is judged on arrival: one that is not in the table, or not
from its sender, raises PhaseViolation before its payload is decoded; a
received entry is struck out, so no message is taken twice.  A relay or
return whose record count is not its origin's round-one set size also
raises PhaseViolation, and a received identifier whose feature count or
per-feature token count the session cannot produce raises
TransportFailure.  Receive deadlines belong to the transport; when one
passes, the party raises PeerSilent naming its phase and the peers its
table still awaits.

On arrival a relay is served and a hello's digest checked; any other
message is held until its phase awaits it.  Round one awaits every hello,
masks the party's own set, then awaits and masks the sets routed to it
one hop at a time, ascending: each hop's sets in one pass, in origin
order.  Round two awaits the union hop.  Matching awaits the broadcast,
opens the party's relay, awaits its return, then serves the relays still
due.  A hop-h set needs only hop h - 1 work, so nothing waits on itself,
and each pass runs at its place in this fixed order, not when a message
arrives, so the rng is drawn in the same order whatever the
interleaving.  The active party's last pass finishes every set it keeps,
whose bases share one layer state, so it raises each of them once.  An
origin opens its relay once it holds the union, so no relay reaches a
party before its own union hop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from operator import itemgetter

from .errors import (
    ConfigDigestMismatch,
    NoMatchInUnion,
    PeerSilent,
    PhaseViolation,
    ProtocolAbort,
    TransportFailure,
)
from .groups import GroupParams
from .masking import (
    EncryptedIdentifier,
    EncryptedSet,
    decode_set,
    encode_set,
    encrypt_identifiers,
    encrypt_set,
    encrypt_sets,
)
from .messages import MessageType, ProtocolMessage
from .tokenization import MatchConfig
from .union import (
    UnionTable,
    assign_universal_indices,
    dedup_exact,
    dedup_noisy,
    entry_locator,
    fingerprint,
)


# How a PhaseViolation names a message that came from the wrong sender.
_WHAT = {
    MessageType.HELLO: "hello for party {origin}",
    MessageType.SET_TRANSFER: "set for origin {origin} at hop {hop}",
    MessageType.UNION_TRANSFER: "union at hop {hop}",
    MessageType.UID_BROADCAST: "union broadcast",
    MessageType.TOKEN_RELAY: "relay from origin {origin} at hop {hop}",
    MessageType.TOKEN_RETURN: "token return",
}


def ring_route(party_count: int, msg_type: MessageType, origin: int, hop: int):
    """Who sends hop ``hop`` of ``origin``'s ``msg_type``, and to whom.

    Returns ``(sender, receiver)``; receiver None means every peer.  A
    hello (hop 0) goes from its origin to every peer.  A set carries layer
    h on hop h, and the active party, A = P - 1, masks it last and keeps
    it.  A's own set walks the ring: hop h from A + h - 1 to A + h, mod P,
    so hop P comes back to A.  The set of an origin k < A walks the other
    P - 1 parties: hop h from k + h - 1 to k + h, mod P - 1, except that
    hop P - 1 goes to A; its full set (hop P) stays at A.  The union walks
    down the ring, hop h from P - h to P - h - 1, and party 0 broadcasts
    hop P.  A relay walks up the ring, hop h from k + h to k + h + 1, mod
    P, so hop P - 1 is the return to its origin.
    """
    if msg_type is MessageType.HELLO:
        return origin, None
    if msg_type is MessageType.SET_TRANSFER:
        active = party_count - 1
        # The parties that mask the set before its hop to the active party.
        ring = party_count if origin == active else active
        if hop > ring:
            return active, active
        sender = (origin + hop - 1) % ring
        return sender, (sender + 1) % ring if hop < ring else active
    if msg_type in (MessageType.UNION_TRANSFER, MessageType.UID_BROADCAST):
        sender = party_count - hop
        return sender, sender - 1 if hop < party_count else None
    sender = (origin + hop) % party_count
    return sender, (sender + 1) % party_count


class Phase(Enum):
    HANDSHAKE = "handshake"
    ROUND_ONE = "round_one"
    ROUND_TWO = "round_two"
    MATCHING = "matching"
    DONE = "done"


@dataclass
class UniversalIndexMap:
    """Map from a party's local record indices to universal indices.

    A session's map is total in both variants: every record gets an
    index, and a record that reaches no union entry fails the session
    with :class:`NoMatchInUnion`.  ``unmatched`` is always left empty
    by a session; it remains only for readers that still expect it.
    """

    party_id: int
    local_to_universal: dict[int, int] = field(default_factory=dict)
    unmatched: list[int] = field(default_factory=list)


@dataclass
class PartyResult:
    """Everything a party knows after a successful run."""

    party_id: int
    index_map: UniversalIndexMap
    union_table: UnionTable
    peer_sizes: dict[int, int]
    wall_time: float


class Party:
    """Single-owner state machine for one protocol participant.

    Exactly one executor may drive ``run``; the transport feeds it a
    serialized message stream.  The active role (union construction)
    belongs to the highest party id.
    """

    def __init__(
        self,
        party_id: int,
        party_count: int,
        group: GroupParams,
        match_cfg: MatchConfig,
        hashed_records: list[EncryptedIdentifier],
        rng,
        session_digest: bytes = b"",
    ):
        if party_count < 2:
            raise ValueError("the protocol needs at least two parties")
        if not 0 <= party_id < party_count:
            raise ValueError(f"party id {party_id} outside [0, {party_count})")
        self.party_id = party_id
        self.party_count = party_count
        self.group = group
        self.match_cfg = match_cfg
        self.hashed_records = list(hashed_records)
        self.rng = rng
        self.session_digest = session_digest
        # (least, most) tokens per feature.  An ordered record is one
        # element.  Unordered sets and relays carry every gram, and union
        # entries may be trimmed to the match floor.
        if match_cfg.ordered:
            self._item_shape = self._entry_shape = ((1, 1),)
        else:
            grams = [spec.gram_count for spec in match_cfg.features]
            self._item_shape = tuple((g, g) for g in grams)
            self._entry_shape = tuple(zip(match_cfg.match_floors(), grams))
        # Three per-party secret exponents, consumed by different passes:
        # [0] masks circulating sets, [1] opens matching relays, [1]*[2]
        # masks the union; drawn up front so seeded runs are reproducible.
        self.exponents = (
            group.sample_exponent(rng),
            group.sample_exponent(rng),
            group.sample_exponent(rng),
        )
        self.phase = Phase.HANDSHAKE
        self.peer_sizes: dict[int, int] = {party_id: len(self.hashed_records)}
        self.union_table: UnionTable | None = None
        self.index_map: UniversalIndexMap | None = None
        # Messages taken but not yet awaited, by (type, origin, hop).
        self._held: dict[tuple[MessageType, int, int], ProtocolMessage] = {}

    # -- helpers -------------------------------------------------------------

    def _send(self, transport, to: int, msg_type: MessageType, origin: int, hop: int, payload: bytes) -> None:
        transport.send(to, ProtocolMessage(msg_type, origin, hop, payload))

    def _expect(self, keys) -> dict[tuple[MessageType, int, int], int]:
        """A phase's receive table: each of ``keys`` routed here from a peer, and its sender."""
        table = {}
        for key in keys:
            sender, receiver = ring_route(self.party_count, *key)
            if sender != self.party_id and receiver in (self.party_id, None):
                table[key] = sender
        return table

    def _pass_on(self, transport, msg_type: MessageType, origin: int, hop: int, masked: EncryptedSet) -> bool:
        """Send ``masked`` as hop ``hop`` of ``origin``'s ``msg_type`` where it is routed.

        A relay routed back to its origin goes as its TOKEN_RETURN, and a
        union routed to every peer as the UID_BROADCAST from its sender.
        Returns whether ``masked`` is routed to this party itself, which
        keeps it instead: the full set of every origin but the active
        party, masked last by the active party.
        """
        sender, receiver = ring_route(self.party_count, msg_type, origin, hop)
        if receiver == sender:
            return True
        if receiver is None:
            msg_type, origin = MessageType.UID_BROADCAST, sender
        elif msg_type is MessageType.TOKEN_RELAY and receiver == origin:
            msg_type = MessageType.TOKEN_RETURN
        payload = encode_set(masked, self.group)
        for peer in range(self.party_count) if receiver is None else (receiver,):
            if peer != sender:
                self._send(transport, peer, msg_type, origin, hop, payload)
        return False

    def _recv(self, transport, expected):
        """Take the next message, check it against ``expected`` and strike it from the table.

        ``expected`` maps each (type, origin, hop) the party may still
        receive to the party that sends it; anything else, or a message
        from another party, is a phase violation.  An ABORT from its own
        sender raises ProtocolAbort; a receive deadline raises PeerSilent
        naming the parties the table still waits on.
        """
        try:
            sender, msg = transport.recv()
        except PeerSilent as exc:
            raise PeerSilent(
                f"party {self.party_id} in phase {self.phase.value} heard "
                f"nothing from parties {sorted(set(expected.values()))} ({exc})"
            ) from exc
        if msg.msg_type is MessageType.ABORT and sender == msg.origin:
            reason = msg.payload.decode("utf-8", "replace")
            raise ProtocolAbort(f"party {msg.origin} aborted: {reason}")
        routed_from = expected.pop((msg.msg_type, msg.origin, msg.hop), None)
        if routed_from is None:
            raise PhaseViolation(
                f"party {self.party_id} in phase {self.phase.value} cannot accept "
                f"{msg.msg_type.name} for origin {msg.origin} at hop {msg.hop}"
            )
        if sender != routed_from:
            what = _WHAT[msg.msg_type].format(origin=msg.origin, hop=msg.hop)
            raise PhaseViolation(
                f"{what} came from party {sender}, expected party {routed_from}"
            )
        return msg

    def _take(self, transport, expected) -> None:
        """Receive one message: serve a relay at once, check a hello's digest, hold the rest."""
        msg = self._recv(transport, expected)
        if msg.msg_type is MessageType.TOKEN_RELAY:
            self._serve_relay(transport, msg)
            return
        if msg.msg_type is MessageType.HELLO and msg.payload != self.session_digest:
            raise ConfigDigestMismatch(f"party {msg.origin} runs a different session configuration")
        self._held[msg.msg_type, msg.origin, msg.hop] = msg

    def _await(self, transport, expected, keys) -> list[ProtocolMessage]:
        """Take messages until each of ``keys`` is held; return them in ``keys`` order."""
        while not all(key in self._held for key in keys):
            self._take(transport, expected)
        return [self._held.pop(key) for key in keys]

    def _decode_set(self, msg, shape) -> EncryptedSet:
        """Decode ``msg``'s payload: fingerprints on the union broadcast, group elements elsewhere."""
        try:
            return decode_set(
                msg.payload,
                self.group,
                lambda counts: self._check_shape(counts, shape),
                fingerprints=msg.msg_type is MessageType.UID_BROADCAST,
            )
        except ValueError as exc:
            raise TransportFailure(f"undecodable set payload: {exc}") from exc

    def _check_shape(self, counts: tuple[int, ...], shape) -> None:
        """Reject an item shape, one token count per feature, that does not fit ``shape``.

        ``shape`` holds one (least, most) token bound per feature.  A set
        payload lists each distinct item shape once, so this runs once per
        shape, not once per identifier.
        """
        if len(counts) != len(shape):
            raise TransportFailure(
                f"received an identifier with {len(counts)} features, "
                f"the session expects {len(shape)}"
            )
        for position, (count, (least, most)) in enumerate(zip(counts, shape)):
            if not least <= count <= most:
                expected = most if least == most else f"{least} to {most}"
                raise TransportFailure(
                    f"received an identifier with {count} tokens in feature "
                    f"{position}, the session expects {expected}"
                )

    def _abort(self, transport, reason: str) -> None:
        payload = reason.encode("utf-8")[:200]
        message = ProtocolMessage(MessageType.ABORT, self.party_id, 0, payload)
        for peer in range(self.party_count):
            if peer == self.party_id:
                continue
            try:
                transport.send(peer, message)
            except TransportFailure:
                pass

    # -- run -----------------------------------------------------------------

    def run(self, transport) -> PartyResult:
        started = time.monotonic()
        try:
            self._round_two(transport, self._round_one(transport))
            self._matching(transport)
        except ProtocolAbort:
            raise
        except BaseException as exc:
            self._abort(transport, f"{type(exc).__name__}: {exc}")
            raise
        self.phase = Phase.DONE
        assert self.index_map is not None and self.union_table is not None
        return PartyResult(
            party_id=self.party_id,
            index_map=self.index_map,
            union_table=self.union_table,
            peer_sizes=dict(self.peer_sizes),
            wall_time=time.monotonic() - started,
        )

    # -- phases 1 and 2: handshake and first masking round ----------------------

    def _round_one(self, transport) -> dict[int, EncryptedSet]:
        """Returns the full sets this party keeps: every origin's, at the active party."""
        transport.establish()
        hello = ProtocolMessage(MessageType.HELLO, self.party_id, 0, self.session_digest)
        for peer in range(self.party_count):
            if peer != self.party_id:
                transport.send(peer, hello)
        count = self.party_count
        # Every peer's hello and every other origin's set, once; the active
        # party also receives its own full set.
        expected = self._expect(
            [(MessageType.HELLO, origin, 0) for origin in range(count)]
            + [(MessageType.SET_TRANSFER, origin, hop)
               for origin in range(count) for hop in range(1, count + 1)]
        )
        routed = sorted(
            (key for key in expected if key[0] is MessageType.SET_TRANSFER), key=itemgetter(2, 1)
        )
        self._await(transport, expected, [key for key in expected if key[0] is MessageType.HELLO])
        # Every hello has matched: this party's own set goes first, then the
        # sets routed here, one pass per hop in ascending order, each pass's
        # sets in origin order.
        self.phase = Phase.ROUND_ONE
        kept = self._mask_sets(transport, 0, {self.party_id: EncryptedSet(self.hashed_records)})
        for hop, keys in groupby(routed, key=itemgetter(2)):
            msgs = self._await(transport, expected, list(keys))
            sets = {msg.origin: self._decode_set(msg, self._item_shape) for msg in msgs}
            if hop == count:
                # The active party's own set, back with every layer.
                kept.update(sets)
            else:
                self.peer_sizes.update((origin, len(enc_set.items)) for origin, enc_set in sets.items())
                kept.update(self._mask_sets(transport, hop, sets))
        self.phase = Phase.ROUND_TWO
        return kept

    def _mask_sets(self, transport, hop: int, sets: dict[int, EncryptedSet]) -> dict[int, EncryptedSet]:
        """Add this party's layer to each origin's hop-``hop`` set, in one pass, and pass each on.

        Returns the sets routed back to this party, which it keeps.
        """
        masked = encrypt_sets(list(sets.values()), self.exponents[0], self.group, self.rng)
        kept = {}
        for origin, outgoing in zip(sets, masked):
            if self._pass_on(transport, MessageType.SET_TRANSFER, origin, hop + 1, outgoing):
                kept[origin] = outgoing
        return kept

    # -- phase 3: union construction ---------------------------------------------

    def _union_exponent(self) -> int:
        return (self.exponents[2] * self.exponents[1]) % self.group.q

    def _round_two(self, transport, kept: dict[int, EncryptedSet]) -> None:
        active = self.party_count - 1
        # The union starts its walk at the active party, the one no hop is routed to.
        expected = self._expect(
            (MessageType.UNION_TRANSFER, active, hop) for hop in range(1, self.party_count)
        )
        if expected:
            (msg,) = self._await(transport, expected, list(expected))
            hop, union = msg.hop, self._decode_set(msg, self._entry_shape)
        else:
            # The provisional union: every origin's full set, in origin order, deduplicated.
            items = [item for origin in sorted(kept) for item in kept[origin].items]
            if self.match_cfg.ordered:
                union = EncryptedSet(dedup_exact(items))
            else:
                union = EncryptedSet(dedup_noisy(items, self.match_cfg, self.rng))
            hop = 0
        masked = encrypt_set(union, self._union_exponent(), self.group, self.rng)
        if hop + 1 == self.party_count:
            # Party 0 holds the finished union: it orders the elements,
            # then keeps and broadcasts their fingerprints in that order.
            ordered = assign_universal_indices(masked.items)
            self.union_table = UnionTable(tuple(fingerprint(ordered.entries, self.group)))
            masked = EncryptedSet(list(self.union_table.entries), fingerprints=True)
        self._pass_on(transport, MessageType.UNION_TRANSFER, active, hop + 1, masked)
        self.phase = Phase.MATCHING

    # -- phase 4: matching -----------------------------------------------------------

    def _relay_exponent(self) -> int:
        e1, e2, e3 = self.exponents
        return (e1 * e2 * e3) % self.group.q

    def _closing_exponent(self) -> int:
        e1, _, e3 = self.exponents
        return (e1 * e3) % self.group.q

    def _masked(self, records, exponent: int) -> EncryptedSet:
        """``records`` raised to ``exponent`` in record order, as one pass."""
        return EncryptedSet(
            encrypt_identifiers(records, exponent, self.group, self.rng)
        )

    def _matching(self, transport) -> None:
        # Party 0 built the union while broadcasting it; the others await it
        # here.  Every origin with records relays them for P - 1 hops.
        count = self.party_count
        origins = [origin for origin, size in self.peer_sizes.items() if size]
        expected = self._expect(
            [(MessageType.UID_BROADCAST, 0, count)]
            + [(MessageType.TOKEN_RELAY, origin, hop) for origin in origins for hop in range(count - 1)]
        )
        self.index_map = UniversalIndexMap(self.party_id)
        if self.union_table is None:
            (msg,) = self._await(transport, expected, [(MessageType.UID_BROADCAST, 0, count)])
            self.union_table = UnionTable(tuple(self._decode_set(msg, self._entry_shape).items))
        if self.hashed_records:
            # The opened records and their memo die once sent.
            self._pass_on(transport, MessageType.TOKEN_RELAY, self.party_id, 0,
                          self._masked(self.hashed_records, self.exponents[1]))
            returned = (MessageType.TOKEN_RETURN, self.party_id, count - 1)
            expected.update(self._expect([returned]))
            # Built while the peers add their layers.
            locate = entry_locator(self.union_table, self.match_cfg)
            (msg,) = self._await(transport, expected, [returned])
            self.index_map = self._close_return(msg, locate)
        while expected:
            self._take(transport, expected)

    def _serve_relay(self, transport, msg) -> None:
        """Add this party's layer to one origin's relay, as a pass of its own, and pass it on."""
        relay = self._decode_set(msg, self._item_shape)
        if len(relay.items) != self.peer_sizes[msg.origin]:
            raise PhaseViolation(
                f"relay of {len(relay.items)} records from origin {msg.origin}, "
                f"whose set held {self.peer_sizes[msg.origin]}"
            )
        masked = self._masked(relay.items, self._relay_exponent())
        self._pass_on(transport, MessageType.TOKEN_RELAY, msg.origin, msg.hop + 1, masked)

    def _close_return(self, msg, locate) -> UniversalIndexMap:
        """Remove this party's own layers and look every record's fingerprint up in the union."""
        returned = self._decode_set(msg, self._item_shape)
        if len(returned.items) != len(self.hashed_records):
            raise PhaseViolation(
                f"token return of {len(returned.items)} records for party "
                f"{self.party_id}, which has {len(self.hashed_records)} pending"
            )
        closed = self._masked(returned.items, self._closing_exponent())
        result = UniversalIndexMap(self.party_id)
        for relay_id, final in enumerate(fingerprint(closed.items, self.group)):
            index = locate(final)
            if index is None:
                raise NoMatchInUnion(
                    f"party {self.party_id}: record {relay_id} reaches no union "
                    "entry; parties disagree on group parameters or hashing, or a "
                    "peer altered the record"
                )
            result.local_to_universal[relay_id] = index
        return result
