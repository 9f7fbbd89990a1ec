"""Session orchestration, and the one path from a session to files and a report.

Every in-process session is parties from :func:`build_parties`, one
transport per party, and :func:`run_session`; ``run_local_session`` and
``run_tcp_session`` differ only in the transports they build, and
``run_networked_party`` runs one party over TCP on the calling thread.
All three count sends and bytes through the same code.  :func:`score` is
the one scoring path, for ``simulate`` and ``evaluate`` alike.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .config import SessionConfig, parse_endpoint
from .corpus import load_provenance
from .datasets import (
    LoadedDataset,
    hash_dataset,
    load_dataset,
    write_aligned_csv,
)
from .errors import ConfigError, ProtocolAbort
from .evaluate import (
    EvaluationReport,
    build_report,
    exact_true_links,
    oracle_union_size,
    provenance_true_links,
    reported_links,
    write_report,
)
from .masking import EncryptedSet, encode_set
from .protocol import Party, PartyResult
from .transport import (
    InProcessHub,
    TcpTransport,
    total_message_bytes,
    total_message_counts,
)


@dataclass
class SessionOutcome:
    results: list[PartyResult]
    message_counts: dict[str, int]
    message_bytes: dict[str, int]
    wall_time: float


def build_party(cfg: SessionConfig, party_id: int, hashed_records, group) -> Party:
    return Party(
        party_id=party_id,
        party_count=cfg.party_count,
        group=group,
        match_cfg=cfg.match,
        hashed_records=hashed_records,
        rng=cfg.party_rng(party_id),
        session_digest=cfg.digest(),
    )


def build_parties(cfg: SessionConfig, hashed_per_party) -> list[Party]:
    group = cfg.group()
    return [
        build_party(cfg, k, hashed_per_party[k], group)
        for k in range(cfg.party_count)
    ]


def run_session(parties: list[Party], transports) -> list[PartyResult]:
    """Drive every party on its own thread; raise the most telling failure."""
    results: list[PartyResult | None] = [None] * len(parties)
    errors: list[BaseException | None] = [None] * len(parties)

    def drive(index: int) -> None:
        try:
            results[index] = parties[index].run(transports[index])
        except BaseException as exc:  # re-raised on the caller thread below
            errors[index] = exc

    threads = [
        threading.Thread(target=drive, args=(k,), name=f"psu-party-{k}", daemon=True)
        for k in range(len(parties))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    failures = [e for e in errors if e is not None]
    if failures:
        # An abort is a symptom; surface the originating error if present.
        for error in failures:
            if not isinstance(error, ProtocolAbort):
                raise error
        raise failures[0]
    return results  # type: ignore[return-value]


def _run_over(transports, run) -> SessionOutcome:
    """Call ``run`` for the results, close the transports, and count the sends and bytes."""
    started = time.monotonic()
    try:
        results = run()
    finally:
        for transport in transports:
            transport.close()
    wall = time.monotonic() - started
    return SessionOutcome(
        results, total_message_counts(transports), total_message_bytes(transports), wall
    )


def run_local_session(cfg: SessionConfig, hashed_per_party) -> SessionOutcome:
    """Execute all parties of a session over in-process channels."""
    hub = InProcessHub(cfg.party_count, recv_timeout=cfg.recv_timeout)
    transports = [hub.transport(k) for k in range(cfg.party_count)]
    parties = build_parties(cfg, hashed_per_party)
    return _run_over(transports, lambda: run_session(parties, transports))


def run_tcp_session(cfg: SessionConfig, hashed_per_party) -> SessionOutcome:
    """Execute all parties over localhost TCP on ephemeral ports.

    Every party listens first; peers are then wired to the resolved
    addresses before the parties start.
    """
    count = cfg.party_count
    transports = [
        TcpTransport(k, count, ("127.0.0.1", 0), {}, recv_timeout=cfg.recv_timeout)
        for k in range(count)
    ]
    for transport in transports:
        transport.listen()
    for k, transport in enumerate(transports):
        transport.peer_addrs = {
            peer: transports[peer].listen_addr for peer in range(count) if peer != k
        }
    parties = build_parties(cfg, hashed_per_party)
    return _run_over(transports, lambda: run_session(parties, transports))


# -- harness pipelines ------------------------------------------------------


def load_party_inputs(cfg: SessionConfig) -> tuple[list[LoadedDataset], list]:
    group = cfg.group()
    loaded = [load_dataset(spec) for spec in cfg.datasets]
    hashed = [hash_dataset(data, cfg.match, group) for data in loaded]
    return loaded, hashed


def output_paths(out_dir: Path, party_count: int) -> tuple[list[Path], list[Path], Path]:
    """The aligned CSVs, run-party summaries and session report in ``out_dir``."""
    return (
        [out_dir / f"aligned_party{k}.csv" for k in range(party_count)],
        [out_dir / f"run_party{k}.json" for k in range(party_count)],
        out_dir / "report.json",
    )


def score(
    cfg: SessionConfig, loaded: list[LoadedDataset], hashed: list, index_maps, measured: dict
) -> EvaluationReport:
    """Score index maps against every party's plaintext and hashed records.

    True links come from the provenance map when the config names one,
    otherwise from identifier equality.  ``measured`` holds the session's
    ``n_protocol``, ``message_counts``, ``message_bytes``, ``wall_time``
    and ``session_id``.
    """
    if cfg.provenance_path is not None:
        true_links = provenance_true_links(load_provenance(cfg.provenance_path))
    else:
        true_links = exact_true_links([data.id_rows for data in loaded])
    return build_report(
        n_oracle=oracle_union_size(hashed),
        true_links=true_links,
        protocol_links=reported_links(index_maps),
        **measured,
    )


def session_id(cfg: SessionConfig, result: PartyResult) -> str:
    """The id every party of one session derives alike, as 32 hex digits.

    BLAKE2b of the config digest and of the union broadcast's payload,
    which every party holds at the end; ``evaluate`` compares the ids in
    ``report.json`` and the ``run_party{k}.json`` files it reads.
    """
    union = EncryptedSet(list(result.union_table.entries), fingerprints=True)
    broadcast = encode_set(union, cfg.group())
    return hashlib.blake2b(cfg.digest() + broadcast, digest_size=16).hexdigest()


def write_outputs(
    cfg: SessionConfig, loaded: list[LoadedDataset], hashed: list, outcome: SessionOutcome
) -> EvaluationReport:
    """Write per-party aligned CSVs and the scored session report; returns the report."""
    csv_paths, _, report_path = output_paths(Path(cfg.output_dir), cfg.party_count)
    for path, data, result in zip(csv_paths, loaded, outcome.results):
        write_aligned_csv(path, data, result.index_map)
    measured = {
        "n_protocol": outcome.results[0].union_table.size,
        "message_counts": outcome.message_counts,
        "message_bytes": outcome.message_bytes,
        "wall_time": outcome.wall_time,
        "session_id": session_id(cfg, outcome.results[0]),
    }
    report = score(cfg, loaded, hashed, [r.index_map for r in outcome.results], measured)
    write_report(report, report_path)
    return report


def run_networked_party(
    cfg: SessionConfig, party_id: int, listen_override: str | None = None
) -> tuple[SessionOutcome, LoadedDataset]:
    """Run exactly one party of a networked session over TCP, on this thread.

    Returns the outcome, whose one result and counts are this party's,
    and the party's dataset.
    """
    if not 0 <= party_id < cfg.party_count:
        raise ConfigError(f"party id {party_id} outside [0, {cfg.party_count})")
    endpoints = []
    for index, spec in enumerate(cfg.datasets):
        listen = spec.listen
        if index == party_id and listen_override is not None:
            listen = listen_override
        if listen is None:
            raise ConfigError(f"parties[{index}] has no listen endpoint configured")
        endpoints.append(parse_endpoint(listen))

    group = cfg.group()
    loaded = load_dataset(cfg.datasets[party_id])
    party = build_party(cfg, party_id, hash_dataset(loaded, cfg.match, group), group)
    transport = TcpTransport(
        my_id=party_id,
        party_count=cfg.party_count,
        listen_addr=endpoints[party_id],
        peer_addrs={
            peer: endpoints[peer]
            for peer in range(cfg.party_count)
            if peer != party_id
        },
        recv_timeout=cfg.recv_timeout,
    )
    return _run_over([transport], lambda: [party.run(transport)]), loaded
