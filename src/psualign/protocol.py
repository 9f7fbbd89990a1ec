"""Party state machines driving both protocol variants.

A session runs five phases in fixed order:

1. handshake -- every pair exchanges a config digest (HELLO).
2. first masking round -- each dataset circulates the ring; every party
   applies its first exponent once; the last applier forwards the fully
   masked set to the active party.  Exactly P sends per dataset.
3. union construction -- the active party deduplicates, masks the
   provisional union with its (third * second) exponent, and the union
   walks down the ring gathering every party's layer; the final holder
   (party 0) broadcasts the finished union.
4. index derivation -- every party sorts the broadcast entries by their
   canonical serialization; position = universal index.
5. private matching -- every record is relayed once around the ring,
   gathering the remaining exponents, and looked up in the union on
   return.

Messages that do not belong to the current phase raise PhaseViolation.
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
from .groups import GroupParams, sample_exponent
from .hashing import HashedIdentifier
from .masking import (
    ORDERED,
    UNORDERED,
    EncryptedIdentifier,
    EncryptedSet,
    as_encrypted,
    decode_identifier,
    decode_set,
    encode_identifier,
    encode_set,
    encrypt_identifier,
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

    Total in ordered mode.  In unordered mode, records that met no union
    entry at the threshold land in ``unmatched`` instead.
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
    exponents: tuple[int, int, int]
    peer_sizes: dict[int, int]
    wall_time: float


def _encode_relay(relay_id: int, ident: EncryptedIdentifier, group: GroupParams) -> bytes:
    return relay_id.to_bytes(4, "big") + encode_identifier(ident, group)


def _decode_relay(payload: bytes, group: GroupParams) -> tuple[int, EncryptedIdentifier]:
    if len(payload) < 4:
        raise ValueError("relay payload shorter than its id")
    relay_id = int.from_bytes(payload[:4], "big")
    ident, end = decode_identifier(payload, group, 4)
    if end != len(payload):
        raise ValueError("trailing bytes after relay payload")
    return relay_id, ident


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
        hashed_records: list[HashedIdentifier],
        rng,
        session_digest: bytes = b"",
        recv_timeout: float | None = None,
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
        self.recv_timeout = recv_timeout
        self.mode = ORDERED if match_cfg.ordered else UNORDERED
        # Three per-party secret exponents, consumed by different passes:
        # [0] masks circulating sets, [1] opens matching relays, [1]*[2]
        # masks the union; drawn up front so seeded runs are reproducible.
        self.exponents = (
            sample_exponent(group, rng),
            sample_exponent(group, rng),
            sample_exponent(group, rng),
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
        Anything else is a phase violation.  ABORT always raises.
        """
        for index, (sender, msg) in enumerate(self._deferred):
            if msg.msg_type in expected:
                del self._deferred[index]
                return sender, msg
        while True:
            sender, msg = transport.recv(self.recv_timeout)
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

    def _decode_set(self, payload: bytes, provenance: int) -> EncryptedSet:
        try:
            decoded = decode_set(payload, self.group, provenance)
        except ValueError as exc:
            raise TransportFailure(f"undecodable set payload: {exc}") from exc
        for ident in decoded.items:
            self._check_shape(ident)
        return decoded

    def _check_shape(self, ident: EncryptedIdentifier) -> None:
        if len(ident.features) != self.match_cfg.d_match:
            raise TransportFailure(
                f"received an identifier with {len(ident.features)} features, "
                f"the session expects {self.match_cfg.d_match}"
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
            exponents=self.exponents,
            peer_sizes=dict(self.peer_sizes),
            wall_time=time.monotonic() - started,
        )

    # -- phase 1: handshake ----------------------------------------------------

    def _handshake(self, transport) -> None:
        transport.establish(self.recv_timeout)
        hello = ProtocolMessage(MessageType.HELLO, self.party_id, 0, self.session_digest)
        for peer in range(self.party_count):
            if peer != self.party_id:
                transport.send(peer, hello)
        seen: set[int] = set()
        while len(seen) < self.party_count - 1:
            _, msg = self._recv(
                transport, {MessageType.HELLO}, buffer={MessageType.SET_TRANSFER}
            )
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
        own = EncryptedSet(
            [as_encrypted(h) for h in self.hashed_records], self.party_id
        )
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
            _, msg = self._recv(transport, {MessageType.SET_TRANSFER})
            if msg.hop == self.party_count:
                if not self.is_active:
                    raise PhaseViolation("fully masked set delivered to a passive party")
                if msg.origin in self._finals:
                    raise PhaseViolation(f"second final set for origin {msg.origin}")
                self._finals[msg.origin] = self._decode_set(msg.payload, msg.origin)
            elif 1 <= msg.hop < self.party_count:
                expected_holder = (msg.origin + msg.hop) % self.party_count
                if expected_holder != self.party_id:
                    raise PhaseViolation(
                        f"set for origin {msg.origin} at hop {msg.hop} "
                        f"reached party {self.party_id}, expected {expected_holder}"
                    )
                incoming = self._decode_set(msg.payload, msg.origin)
                self.peer_sizes[msg.origin] = len(incoming.items)
                outgoing = encrypt_set(
                    incoming, self.exponents[0], self.group, self.mode, self.rng
                )
                next_hop = msg.hop + 1
                # After the P-th layer the set is complete and goes to the
                # active party -- a loopback send when we are it.
                dest = self.active_id if next_hop == self.party_count else self.next_id
                self._send(
                    transport,
                    dest,
                    MessageType.SET_TRANSFER,
                    origin=msg.origin,
                    hop=next_hop,
                    payload=encode_set(outgoing, self.group),
                )
                pending_hops -= 1
            else:
                raise PhaseViolation(f"set transfer with illegal hop {msg.hop}")
        self.phase = Phase.ROUND_TWO

    # -- phase 3: union construction ---------------------------------------------

    def _provisional_union(self) -> list[EncryptedIdentifier]:
        concatenated: list[EncryptedIdentifier] = []
        for origin in range(self.party_count):
            concatenated.extend(self._finals[origin].items)
        if self.match_cfg.ordered:
            return dedup_exact(concatenated, self.group)
        return dedup_noisy(concatenated, self.match_cfg, self.rng)

    def _union_exponent(self) -> int:
        return (self.exponents[2] * self.exponents[1]) % self.group.q

    def _round_two(self, transport) -> None:
        if self.is_active:
            provisional = EncryptedSet(self._provisional_union(), self.party_id)
            masked = encrypt_set(
                provisional, self._union_exponent(), self.group, self.mode, self.rng
            )
            self._forward_union(transport, masked, hop=1)
        else:
            _, msg = self._recv(transport, {MessageType.UNION_TRANSFER})
            if not 1 <= msg.hop < self.party_count:
                raise PhaseViolation(f"union transfer with illegal hop {msg.hop}")
            expected_holder = self.active_id - msg.hop
            if expected_holder != self.party_id:
                raise PhaseViolation(
                    f"union at hop {msg.hop} reached party {self.party_id}, "
                    f"expected {expected_holder}"
                )
            incoming = self._decode_set(msg.payload, -1)
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
        _, msg = self._recv(
            transport,
            {MessageType.UID_BROADCAST},
            buffer={MessageType.TOKEN_RELAY, MessageType.TOKEN_RETURN},
        )
        if msg.origin != 0 or msg.hop != self.party_count:
            raise PhaseViolation("union broadcast from an unexpected source")
        entries = self._decode_set(msg.payload, -1)
        self.union_table = assign_universal_indices(entries.items, self.group)
        self.phase = Phase.MATCHING

    # -- phase 5: private matching ---------------------------------------------------

    def _relay_exponent(self) -> int:
        e1, e2, e3 = self.exponents
        return (e1 * e2 * e3) % self.group.q

    def _closing_exponent(self) -> int:
        e1, _, e3 = self.exponents
        return (e1 * e3) % self.group.q

    def _matching(self, transport) -> None:
        assert self.union_table is not None
        locate = entry_locator(self.union_table, self.match_cfg, self.group)
        rng = self.rng if self.mode == UNORDERED else None
        # One powers memo per exponent, each living only as long as its
        # pass: the opening sweep, then relays served and returns closed.
        opening: dict[int, int] = {}
        for relay_id, record in enumerate(self.hashed_records):
            opened = encrypt_identifier(
                as_encrypted(record), self.exponents[1], self.group, self.mode, rng, opening
            )
            self._send(
                transport,
                self.next_id,
                MessageType.TOKEN_RELAY,
                origin=self.party_id,
                hop=0,
                payload=_encode_relay(relay_id, opened, self.group),
            )
        del opening

        relay_exponent, relay_powers = self._relay_exponent(), {}
        closing_exponent, closing_powers = self._closing_exponent(), {}
        to_serve = sum(
            size for peer, size in self.peer_sizes.items() if peer != self.party_id
        )
        to_return = len(self.hashed_records)
        result = UniversalIndexMap(self.party_id)
        while to_serve > 0 or to_return > 0:
            _, msg = self._recv(
                transport, {MessageType.TOKEN_RELAY, MessageType.TOKEN_RETURN}
            )
            try:
                relay_id, ident = _decode_relay(msg.payload, self.group)
            except ValueError as exc:
                raise TransportFailure(f"undecodable relay payload: {exc}") from exc
            self._check_shape(ident)
            if msg.msg_type is MessageType.TOKEN_RELAY:
                if to_serve <= 0:
                    raise PhaseViolation("more relays than peer records")
                if not 0 <= msg.hop <= self.party_count - 2:
                    raise PhaseViolation(f"token relay with illegal hop {msg.hop}")
                expected_holder = (msg.origin + msg.hop + 1) % self.party_count
                if msg.origin == self.party_id or expected_holder != self.party_id:
                    raise PhaseViolation(
                        f"relay from origin {msg.origin} at hop {msg.hop} "
                        f"reached party {self.party_id}"
                    )
                masked = encrypt_identifier(
                    ident, relay_exponent, self.group, self.mode, rng, relay_powers
                )
                next_hop = msg.hop + 1
                done = next_hop == self.party_count - 1
                self._send(
                    transport,
                    msg.origin if done else self.next_id,
                    MessageType.TOKEN_RETURN if done else MessageType.TOKEN_RELAY,
                    origin=msg.origin,
                    hop=next_hop,
                    payload=_encode_relay(relay_id, masked, self.group),
                )
                to_serve -= 1
            else:
                if msg.origin != self.party_id or to_return <= 0:
                    raise PhaseViolation("token return for a foreign origin")
                if msg.hop != self.party_count - 1:
                    raise PhaseViolation(
                        f"token return after {msg.hop} hops, expected {self.party_count - 1}"
                    )
                final = encrypt_identifier(
                    ident, closing_exponent, self.group, self.mode, rng, closing_powers
                )
                index = locate(final)
                if index is not None:
                    result.local_to_universal[relay_id] = index
                elif self.match_cfg.ordered:
                    raise NoMatchInUnion(
                        f"party {self.party_id}: record {relay_id} is missing from the "
                        "union; parties disagree on group parameters or hashing"
                    )
                else:
                    result.unmatched.append(relay_id)
                to_return -= 1
        result.unmatched.sort()
        self.index_map = result
