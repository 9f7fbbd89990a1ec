"""Session orchestration: local in-process runs and networked single-party runs."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .config import SessionConfig, parse_endpoint
from .datasets import (
    LoadedDataset,
    hash_dataset,
    load_dataset,
    write_aligned_csv,
)
from .errors import ConfigError, ProtocolAbort
from .evaluate import (
    EvaluationReport,
    Link,
    build_report,
    exact_true_links,
    oracle_union_size,
    provenance_true_links,
    reported_links,
    write_report,
)
from .corpus import load_provenance
from .protocol import Party, PartyResult
from .transport import InProcessHub, TcpTransport, TranscriptEntry


@dataclass
class SessionOutcome:
    results: list[PartyResult]
    message_counts: dict[str, int]
    wall_time: float
    transcript: list[TranscriptEntry] | None = None


def build_party(cfg: SessionConfig, party_id: int, hashed_records, group) -> Party:
    return Party(
        party_id=party_id,
        party_count=cfg.party_count,
        group=group,
        match_cfg=cfg.match,
        hashed_records=hashed_records,
        rng=cfg.party_rng(party_id),
        session_digest=cfg.digest(),
        recv_timeout=cfg.recv_timeout,
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


def run_local_session(
    cfg: SessionConfig,
    hashed_per_party,
    record_transcript: bool = False,
    max_delay: float = 0.0,
    delay_rng=None,
) -> SessionOutcome:
    """Execute all parties of a session over in-process channels."""
    hub = InProcessHub(
        cfg.party_count,
        recv_timeout=cfg.recv_timeout,
        record_transcript=record_transcript,
        max_delay=max_delay,
        delay_rng=delay_rng,
    )
    parties = build_parties(cfg, hashed_per_party)
    transports = [hub.transport(k) for k in range(cfg.party_count)]
    started = time.monotonic()
    results = run_session(parties, transports)
    wall = time.monotonic() - started
    return SessionOutcome(
        results=results,
        message_counts=hub.message_counts(),
        wall_time=wall,
        transcript=hub.transcript if record_transcript else None,
    )


def run_tcp_session(
    cfg: SessionConfig, hashed_per_party, addresses: list[tuple[str, int]] | None = None
) -> SessionOutcome:
    """Execute all parties over localhost TCP; used by the equivalence checks.

    Port 0 entries (or no addresses at all) bind ephemeral ports; peers are
    wired to the resolved addresses before the parties start.
    """
    if addresses is None:
        addresses = [("127.0.0.1", 0)] * cfg.party_count
    parties = build_parties(cfg, hashed_per_party)
    transports = [
        TcpTransport(
            my_id=k,
            party_count=cfg.party_count,
            listen_addr=addresses[k],
            peer_addrs={},
            recv_timeout=cfg.recv_timeout,
        )
        for k in range(cfg.party_count)
    ]
    for transport in transports:
        transport.listen()  # resolves ephemeral ports
    for k, transport in enumerate(transports):
        transport.peer_addrs = {
            peer: transports[peer].listen_addr
            for peer in range(cfg.party_count)
            if peer != k
        }
    started = time.monotonic()
    try:
        results = run_session(parties, transports)
    finally:
        for transport in transports:
            transport.close()
    wall = time.monotonic() - started
    counts: dict[str, int] = {}
    for transport in transports:
        for name, value in transport.message_counts().items():
            counts[name] = counts.get(name, 0) + value
    return SessionOutcome(results=results, message_counts=counts, wall_time=wall)


# -- harness pipelines ------------------------------------------------------


def load_party_inputs(cfg: SessionConfig) -> tuple[list[LoadedDataset], list]:
    group = cfg.group()
    loaded = [load_dataset(spec) for spec in cfg.datasets]
    hashed = [hash_dataset(data, cfg.match, group) for data in loaded]
    return loaded, hashed


def fresh_index_start(result: PartyResult, union_size: int) -> int:
    """First trailing index for this party's unmatched rows.

    Blocks are disjoint across parties because every party learned every
    dataset size during the first round: party k starts after the union
    and after all lower parties' potential blocks.
    """
    offset = sum(
        size for peer, size in result.peer_sizes.items() if peer < result.party_id
    )
    return union_size + offset


def write_outputs(
    cfg: SessionConfig,
    loaded: list[LoadedDataset],
    outcome: SessionOutcome,
    assign_fresh: bool = False,
) -> tuple[list[Path], Path]:
    """Write per-party aligned CSVs plus the session report; returns paths."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_paths = []
    union_size = outcome.results[0].union_table.size
    for party_id, result in enumerate(outcome.results):
        path = out_dir / f"aligned_party{party_id}.csv"
        start = fresh_index_start(result, union_size) if assign_fresh else None
        write_aligned_csv(path, loaded[party_id], result.index_map, start)
        csv_paths.append(path)
    report = evaluate_outcome(cfg, loaded, outcome)
    report_path = out_dir / "report.json"
    write_report(report, report_path)
    return csv_paths, report_path


def plaintext_truth(
    cfg: SessionConfig, loaded: list[LoadedDataset]
) -> tuple[set[Link], int]:
    """True links and the oracle union size, both from every party's plaintext.

    Links come from the provenance map when the config names one (noisy
    corpora), otherwise from exact identifier equality.
    """
    if cfg.provenance_path is not None:
        true_links = provenance_true_links(load_provenance(cfg.provenance_path))
    else:
        true_links = exact_true_links([data.id_rows for data in loaded])
    group = cfg.group()
    hashed = [hash_dataset(data, cfg.match, group) for data in loaded]
    return true_links, oracle_union_size(hashed)


def evaluate_outcome(
    cfg: SessionConfig, loaded: list[LoadedDataset], outcome: SessionOutcome
) -> EvaluationReport:
    true_links, n_oracle = plaintext_truth(cfg, loaded)
    return build_report(
        n_protocol=outcome.results[0].union_table.size,
        n_oracle=n_oracle,
        true_links=true_links,
        protocol_links=reported_links([r.index_map for r in outcome.results]),
        message_counts=outcome.message_counts,
        wall_time=outcome.wall_time,
    )


def run_networked_party(
    cfg: SessionConfig, party_id: int, listen_override: str | None = None
) -> tuple[PartyResult, LoadedDataset, dict[str, int]]:
    """Run exactly one party of a networked session over TCP."""
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
    try:
        result = party.run(transport)
    finally:
        transport.close()
    return result, loaded, transport.message_counts()
