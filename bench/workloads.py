"""The benchmark's workloads and the set-up and run of one session.

A workload fixes the protocol variant, the group, the party count, the
transport and the make-up of the synthetic corpus.  The corpus comes from
``psualign.corpus.generate_corpus`` with the workload seed; the parties
receive only the hashed rows.  Functions are looked up through their
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import resource
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from psualign import hashing, simulate, tokenization
from psualign.config import SessionConfig
from psualign.corpus import Corpus, generate_corpus
from psualign.messages import HEADER_SIZE
from psualign.tokenization import FeatureSpec, MatchConfig
from psualign.transport import InProcessHub, TcpTransport

# Every workload normalises each field to 12 characters and cuts 3-grams,
# and shares half of the smallest party's entities with every party.
LENGTH = 12
NGRAM = 3
OVERLAP = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    ordered: bool
    group: str
    records_per_party: int
    party_count: int
    style: str
    columns: tuple[str, ...]
    typo_rate: float = 0.0
    tcp: bool = False
    threshold: Fraction = Fraction(1)

    def match_config(self) -> MatchConfig:
        return MatchConfig(
            features=tuple(FeatureSpec(c, LENGTH, NGRAM) for c in self.columns),
            threshold=self.threshold,
            ordered=self.ordered,
        )

    def corpus(self, seed: int) -> Corpus:
        return generate_corpus(
            [self.records_per_party] * self.party_count,
            overlap=OVERLAP,
            typo_rate=self.typo_rate,
            seed=seed,
            style=self.style,
            columns=self.columns,
            id_length=LENGTH,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-names-modp2048",
            ordered=True,
            group="modp2048",
            records_per_party=30,
            party_count=3,
            style="words",
            columns=("name",),
        ),
        Workload(
            name="exact-ids-p512-tcp",
            ordered=True,
            group="p512",
            records_per_party=1500,
            party_count=2,
            style="random",
            columns=("id",),
            tcp=True,
        ),
        Workload(
            name="noisy-names-p512",
            ordered=False,
            group="p512",
            records_per_party=150,
            party_count=2,
            style="words",
            columns=("name", "street"),
            typo_rate=0.2,
            threshold=Fraction(7, 10),
        ),
    )
}


class CountingTransport:
    """Delegates to a party's transport and counts the bytes it sends.

    Frame bytes are the 9-byte header plus the payload, as on the wire.
    Frame counts come from the transport's own ``message_counts()``.
    """

    def __init__(self, inner):
        self.inner = inner
        self.bytes: Counter = Counter()

    def establish(self, timeout=None) -> None:
        self.inner.establish(timeout)

    def send(self, to, message) -> None:
        self.inner.send(to, message)
        self.count(message)

    def count(self, message) -> None:
        self.bytes[message.msg_type] += HEADER_SIZE + len(message.payload)

    def recv(self, timeout=None):
        return self.inner.recv(timeout)


@dataclass
class Prepared:
    """One session's parties and transports, ready to run."""

    cfg: SessionConfig
    hashed: list
    parties: list
    transports: list

    def close(self) -> None:
        """Close every transport and wait for the TCP threads to end.

        ``TcpTransport.close`` leaves its acceptor blocked in ``accept()``,
        so one connection to each listening address wakes it up.
        """
        for transport in self.transports:
            transport.close()
        for transport in self.transports:
            if isinstance(transport, TcpTransport):
                try:
                    socket.create_connection(transport.listen_addr, timeout=1.0).close()
                except OSError:
                    pass
        for thread in threading.enumerate():
            if thread.name.startswith(("psu-accept-", "psu-reader-")):
                thread.join(timeout=5.0)


def prepare(workload: Workload, corpus: Corpus, session_seed: int) -> Prepared:
    """Plaintext rows to parties ready to run: the work ``setup_s`` times."""
    cfg = SessionConfig(
        party_count=workload.party_count,
        variant="ordered" if workload.ordered else "unordered",
        group_source=workload.group,
        match=workload.match_config(),
        datasets=(),
        seed=session_seed,
    )
    group = cfg.group()
    hashed = [
        [
            hashing.hash_identifier(
                tokenization.tokenize_record(row.fields, cfg.match), group
            )
            for row in rows
        ]
        for rows in corpus.parties
    ]
    parties = simulate.build_parties(cfg, hashed)
    count = cfg.party_count
    if workload.tcp:
        transports = [
            TcpTransport(k, count, ("127.0.0.1", 0), {}, recv_timeout=cfg.recv_timeout)
            for k in range(count)
        ]
        try:
            for transport in transports:
                transport.listen()
        except OSError:
            Prepared(cfg, hashed, parties, transports).close()
            raise
        for k, transport in enumerate(transports):
            transport.peer_addrs = {
                peer: transports[peer].listen_addr for peer in range(count) if peer != k
            }
    else:
        hub = InProcessHub(count, recv_timeout=cfg.recv_timeout)
        transports = [hub.transport(k) for k in range(count)]
    return Prepared(cfg, hashed, parties, transports)


@dataclass
class SessionRun:
    results: list
    wrapped: list
    wall_s: float
    cpu_s: float


def run_prepared(prepared: Prepared, wrap=None) -> SessionRun:
    """Run every party on its own ``psu-party-k`` thread until each returns.

    ``wrap(transport, party)`` gives the transport handed to ``Party.run``;
    by default a :class:`CountingTransport`.
    """
    wrapped = [
        wrap(transport, party) if wrap else CountingTransport(transport)
        for transport, party in zip(prepared.transports, prepared.parties)
    ]
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        results = simulate.run_session(prepared.parties, wrapped)
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        prepared.close()
    return SessionRun(results, wrapped, wall, cpu)


def peak_rss_mb() -> float:
    """Peak resident set of this process; Linux reports ``ru_maxrss`` in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
