"""Party state machines driving both protocol variants.

A session runs five phases in fixed order:

1. handshake -- every pair exchanges a config digest (HELLO).
2. first masking round -- each dataset circulates the ring; every party
   applies its first exponent once; the last applier forwards the fully
   masked set to the active party.  P sends per dataset, except for
   origin 0, whose last layer the active party applies itself and keeps:
   P - 1 sends.  A session sends P² - 1 set frames, and no party ever
   sends to itself.
3. union construction -- the active party deduplicates, masks the
   provisional union with its (third * second) exponent, and the union
   walks down the ring gathering every party's layer; the final holder
   (party 0) broadcasts the finished union.
4. index derivation -- every party sorts the broadcast entries by their
   canonical serialization; position = universal index.
5. private matching -- each party with at least one record relays them
   around the ring as one set payload in record order (not shuffled):
   one TOKEN_RELAY frame per hop, one TOKEN_RETURN.  The relay gathers
   the remaining exponents, and every record in it is looked up in the
   union on return, its position in the payload being its relay id.
   Nothing new leaks: record order was already public through relay ids,
   the table's equality pattern through deterministic masking, and
   whether an origin relays at all depends only on N_k, which every peer
   learns in round one.

Messages that do not belong to the current phase, messages from a party
id outside ``[0, P)``, a HELLO whose sender is not its origin, a ring
message (set, union, broadcast, relay or return) whose sender is not
the party its origin and hop imply, a fully
masked set for origin 0 arriving over the wire, a second relay from one
origin or a relay whose record count is not the origin's round-one set
size, and a token return that is repeated or does not hold exactly the
origin's records raise PhaseViolation.  A received identifier whose
feature count or per-feature token count the session cannot produce
raises TransportFailure.  Receive deadlines belong to the transport.
Two interleavings are legal and buffered: a SET_TRANSFER arriving while
a slower peer is still handshaking, and a TOKEN_RELAY / TOKEN_RETURN
arriving while the union broadcast is still in flight; both stem from
senders that are one phase ahead, not from protocol violations.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    ConfigDigestMismatch,
    NoMatchInUnion,
    PhaseViolation,
    ProtocolAbort,
    TransportFailure,
)
from .groups import GroupParams
from .masking import (
    ORDERED,
    UNORDERED,
    EncryptedIdentifier,
    EncryptedSet,
    decode_set,
    encode_set,
    encrypt_identifiers,
    encrypt_set,
)
from .messages import MessageType, ProtocolMessage
from .tokenization import MatchConfig
from .union import (
    UnionTable,
    assign_universal_indices,
    dedup_exact,
    dedup_noisy,
    entry_locator,
)


class Phase(Enum):
    HANDSHAKE = "handshake"
    ROUND_ONE = "round_one"
    ROUND_TWO = "round_two"
    AWAIT_UNION = "await_union"
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
        self.mode = ORDERED if match_cfg.ordered else UNORDERED
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
        self._deferred: deque[tuple[int, ProtocolMessage]] = deque()
        self._finals: dict[int, EncryptedSet] = {}

    # -- helpers -------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self.party_id == self.party_count - 1

    @property
    def active_id(self) -> int:
        return self.party_count - 1

    @property
    def next_id(self) -> int:
        return (self.party_id + 1) % self.party_count

    def _send(self, transport, to: int, msg_type: MessageType, origin: int, hop: int, payload: bytes) -> None:
        transport.send(to, ProtocolMessage(msg_type, origin, hop, payload))

    def _recv(self, transport, expected, buffer=frozenset()):
        """Next message whose type is in ``expected``.

        Types in ``buffer`` are legal early arrivals from peers one phase
        ahead; they are parked and replayed once the phase advances.
        Anything else is a phase violation, as is any message from a party
        id outside ``[0, P)``.  ABORT always raises.
        """
        for index, (sender, msg) in enumerate(self._deferred):
            if msg.msg_type in expected:
                del self._deferred[index]
                return sender, msg
        while True:
            sender, msg = transport.recv()
            if not 0 <= msg.origin < self.party_count:
                raise PhaseViolation(
                    f"party {self.party_id} in phase {self.phase.value} got "
                    f"{msg.msg_type.name} from unknown party {msg.origin}"
                )
            if msg.msg_type is MessageType.ABORT:
                reason = msg.payload.decode("utf-8", "replace")
                raise ProtocolAbort(f"party {msg.origin} aborted: {reason}")
            if msg.msg_type in expected:
                return sender, msg
            if msg.msg_type in buffer:
                self._deferred.append((sender, msg))
                continue
            raise PhaseViolation(
                f"party {self.party_id} in phase {self.phase.value} "
                f"cannot accept {msg.msg_type.name}"
            )

    def _check_sender(self, sender: int, expected: int, what: str) -> None:
        """Reject a ring message that did not come from the party its place implies."""
        if sender != expected:
            raise PhaseViolation(
                f"{what} came from party {sender}, expected party {expected}"
            )

    def _decode_set(self, payload: bytes, shape) -> EncryptedSet:
        try:
            return decode_set(
                payload, self.group, lambda counts: self._check_shape(counts, shape)
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
            self._handshake(transport)
            self._round_one(transport)
            self._round_two(transport)
            self._await_union(transport)
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

    # -- phase 1: handshake ----------------------------------------------------

    def _handshake(self, transport) -> None:
        transport.establish()
        hello = ProtocolMessage(MessageType.HELLO, self.party_id, 0, self.session_digest)
        for peer in range(self.party_count):
            if peer != self.party_id:
                transport.send(peer, hello)
        seen: set[int] = set()
        while len(seen) < self.party_count - 1:
            sender, msg = self._recv(
                transport, {MessageType.HELLO}, buffer={MessageType.SET_TRANSFER}
            )
            self._check_sender(sender, msg.origin, f"hello for party {msg.origin}")
            if msg.origin in seen or msg.origin == self.party_id:
                raise PhaseViolation(f"duplicate hello from party {msg.origin}")
            if msg.payload != self.session_digest:
                raise ConfigDigestMismatch(
                    f"party {msg.origin} runs a different session configuration"
                )
            seen.add(msg.origin)
        self.phase = Phase.ROUND_ONE

    # -- phase 2: first masking round -------------------------------------------

    def _round_one(self, transport) -> None:
        own = EncryptedSet(self.hashed_records)
        masked = encrypt_set(own, self.exponents[0], self.group, self.mode, self.rng)
        self._send(
            transport,
            self.next_id,
            MessageType.SET_TRANSFER,
            origin=self.party_id,
            hop=1,
            payload=encode_set(masked, self.group),
        )
        pending_hops = self.party_count - 1
        want_finals = self.party_count if self.is_active else 0
        while pending_hops > 0 or len(self._finals) < want_finals:
            sender, msg = self._recv(transport, {MessageType.SET_TRANSFER})
            # Hop h of a set is sent by the party that applied layer h.
            expected_sender = (msg.origin + msg.hop - 1) % self.party_count
            what = f"set for origin {msg.origin} at hop {msg.hop}"
            if msg.hop == self.party_count:
                if not self.is_active:
                    raise PhaseViolation("fully masked set delivered to a passive party")
                if expected_sender == self.party_id:
                    raise PhaseViolation(
                        f"{what} arrived over the wire, but party {self.party_id} "
                        "applies its last layer and keeps it"
                    )
                self._check_sender(sender, expected_sender, what)
                if msg.origin in self._finals:
                    raise PhaseViolation(f"second final set for origin {msg.origin}")
                self._finals[msg.origin] = self._decode_set(msg.payload, self._item_shape)
            elif 1 <= msg.hop < self.party_count:
                expected_holder = (msg.origin + msg.hop) % self.party_count
                if expected_holder != self.party_id:
                    raise PhaseViolation(
                        f"{what} reached party {self.party_id}, expected {expected_holder}"
                    )
                self._check_sender(sender, expected_sender, what)
                incoming = self._decode_set(msg.payload, self._item_shape)
                self.peer_sizes[msg.origin] = len(incoming.items)
                outgoing = encrypt_set(
                    incoming, self.exponents[0], self.group, self.mode, self.rng
                )
                next_hop = msg.hop + 1
                pending_hops -= 1
                if next_hop == self.party_count and self.is_active:
                    # Origin 0's set takes its last layer here and is kept.
                    self._finals[msg.origin] = outgoing
                    continue
                # After the P-th layer the set is complete and goes to the
                # active party.
                dest = self.active_id if next_hop == self.party_count else self.next_id
                self._send(
                    transport,
                    dest,
                    MessageType.SET_TRANSFER,
                    origin=msg.origin,
                    hop=next_hop,
                    payload=encode_set(outgoing, self.group),
                )
            else:
                raise PhaseViolation(f"set transfer with illegal hop {msg.hop}")
        self.phase = Phase.ROUND_TWO

    # -- phase 3: union construction ---------------------------------------------

    def _provisional_union(self) -> list[EncryptedIdentifier]:
        concatenated: list[EncryptedIdentifier] = []
        for origin in range(self.party_count):
            concatenated.extend(self._finals[origin].items)
        self._finals.clear()
        if self.match_cfg.ordered:
            return dedup_exact(concatenated)
        return dedup_noisy(concatenated, self.match_cfg, self.rng)

    def _union_exponent(self) -> int:
        return (self.exponents[2] * self.exponents[1]) % self.group.q

    def _round_two(self, transport) -> None:
        if self.is_active:
            provisional = EncryptedSet(self._provisional_union())
            masked = encrypt_set(
                provisional, self._union_exponent(), self.group, self.mode, self.rng
            )
            self._forward_union(transport, masked, hop=1)
        else:
            sender, msg = self._recv(transport, {MessageType.UNION_TRANSFER})
            if not 1 <= msg.hop < self.party_count:
                raise PhaseViolation(f"union transfer with illegal hop {msg.hop}")
            expected_holder = self.active_id - msg.hop
            if expected_holder != self.party_id:
                raise PhaseViolation(
                    f"union at hop {msg.hop} reached party {self.party_id}, "
                    f"expected {expected_holder}"
                )
            self._check_sender(sender, self.party_id + 1, f"union at hop {msg.hop}")
            incoming = self._decode_set(msg.payload, self._entry_shape)
            masked = encrypt_set(
                incoming, self._union_exponent(), self.group, self.mode, self.rng
            )
            self._forward_union(transport, masked, hop=msg.hop + 1)
        self.phase = Phase.AWAIT_UNION

    def _forward_union(self, transport, masked: EncryptedSet, hop: int) -> None:
        payload = encode_set(masked, self.group)
        if hop == self.party_count:
            # Every layer applied; publish the finished union to everyone.
            assert self.party_id == 0
            for peer in range(1, self.party_count):
                self._send(
                    transport,
                    peer,
                    MessageType.UID_BROADCAST,
                    origin=self.party_id,
                    hop=hop,
                    payload=payload,
                )
            self.union_table = assign_universal_indices(masked.items, self.group)
        else:
            self._send(
                transport,
                self.party_id - 1,
                MessageType.UNION_TRANSFER,
                origin=self.active_id,
                hop=hop,
                payload=payload,
            )

    # -- phase 4: index derivation -------------------------------------------------

    def _await_union(self, transport) -> None:
        if self.union_table is not None:  # party 0 built it while broadcasting
            self.phase = Phase.MATCHING
            return
        sender, msg = self._recv(
            transport,
            {MessageType.UID_BROADCAST},
            buffer={MessageType.TOKEN_RELAY, MessageType.TOKEN_RETURN},
        )
        if msg.origin != 0 or msg.hop != self.party_count:
            raise PhaseViolation("union broadcast from an unexpected source")
        self._check_sender(sender, 0, "union broadcast")
        entries = self._decode_set(msg.payload, self._entry_shape)
        self.union_table = assign_universal_indices(entries.items, self.group)
        self.phase = Phase.MATCHING

    # -- phase 5: private matching ---------------------------------------------------

    def _relay_exponent(self) -> int:
        e1, e2, e3 = self.exponents
        return (e1 * e2 * e3) % self.group.q

    def _closing_exponent(self) -> int:
        e1, _, e3 = self.exponents
        return (e1 * e3) % self.group.q

    def _masked(self, records, exponent: int) -> EncryptedSet:
        """``records`` raised to ``exponent`` in record order, as one pass."""
        return EncryptedSet(
            encrypt_identifiers(records, exponent, self.group, self.mode, self.rng)
        )

    def _matching(self, transport) -> None:
        assert self.union_table is not None
        if self.hashed_records:
            # The opened records and their memo die once encoded.
            self._send(
                transport,
                self.next_id,
                MessageType.TOKEN_RELAY,
                origin=self.party_id,
                hop=0,
                payload=encode_set(
                    self._masked(self.hashed_records, self.exponents[1]), self.group
                ),
            )
            # Built while the peers open their own records.
            locate = entry_locator(self.union_table, self.match_cfg)
        # Origins whose one relay this party has still to serve.
        to_serve = {
            origin
            for origin, size in self.peer_sizes.items()
            if origin != self.party_id and size
        }
        index_map = None if self.hashed_records else UniversalIndexMap(self.party_id)
        while to_serve or index_map is None:
            sender, msg = self._recv(
                transport, {MessageType.TOKEN_RELAY, MessageType.TOKEN_RETURN}
            )
            if msg.msg_type is MessageType.TOKEN_RELAY:
                self._serve_relay(transport, sender, msg, to_serve)
            elif index_map is not None:
                raise PhaseViolation(
                    f"second token return for party {self.party_id}: "
                    "its records are not pending"
                )
            else:
                index_map = self._close_return(sender, msg, locate)
        self.index_map = index_map

    def _serve_relay(self, transport, sender: int, msg, to_serve: set[int]) -> None:
        """Add this party's layer to one origin's relay, as a pass of its own, and pass it on."""
        if not 0 <= msg.hop <= self.party_count - 2:
            raise PhaseViolation(f"token relay with illegal hop {msg.hop}")
        expected_holder = (msg.origin + msg.hop + 1) % self.party_count
        if expected_holder != self.party_id:
            raise PhaseViolation(
                f"relay from origin {msg.origin} at hop {msg.hop} "
                f"reached party {self.party_id}"
            )
        # Hop h of a relay is sent by party origin + h.
        self._check_sender(
            sender,
            (msg.origin + msg.hop) % self.party_count,
            f"relay from origin {msg.origin} at hop {msg.hop}",
        )
        if msg.origin not in to_serve:
            raise PhaseViolation(f"second relay from origin {msg.origin}")
        relay = self._decode_set(msg.payload, self._item_shape)
        if len(relay.items) != self.peer_sizes[msg.origin]:
            raise PhaseViolation(
                f"relay of {len(relay.items)} records from origin {msg.origin}, "
                f"whose set held {self.peer_sizes[msg.origin]}"
            )
        to_serve.remove(msg.origin)
        masked = self._masked(relay.items, self._relay_exponent())
        next_hop = msg.hop + 1
        done = next_hop == self.party_count - 1
        self._send(
            transport,
            msg.origin if done else self.next_id,
            MessageType.TOKEN_RETURN if done else MessageType.TOKEN_RELAY,
            origin=msg.origin,
            hop=next_hop,
            payload=encode_set(masked, self.group),
        )

    def _close_return(self, sender: int, msg, locate) -> UniversalIndexMap:
        """Remove this party's own layers and look every record up in the union."""
        if msg.origin != self.party_id:
            raise PhaseViolation("token return for a foreign origin")
        if msg.hop != self.party_count - 1:
            raise PhaseViolation(
                f"token return after {msg.hop} hops, expected {self.party_count - 1}"
            )
        self._check_sender(sender, (self.party_id - 1) % self.party_count, "token return")
        returned = self._decode_set(msg.payload, self._item_shape)
        if len(returned.items) != len(self.hashed_records):
            raise PhaseViolation(
                f"token return of {len(returned.items)} records for party "
                f"{self.party_id}, which has {len(self.hashed_records)} pending"
            )
        closed = self._masked(returned.items, self._closing_exponent())
        result = UniversalIndexMap(self.party_id)
        for relay_id, final in enumerate(closed.items):
            index = locate(final)
            if index is None:
                raise NoMatchInUnion(
                    f"party {self.party_id}: record {relay_id} reaches no union "
                    "entry; parties disagree on group parameters or hashing, or a "
                    "peer altered the record"
                )
            result.local_to_universal[relay_id] = index
        return result
