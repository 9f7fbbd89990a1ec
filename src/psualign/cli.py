"""Command-line harness.

Subcommands: simulate (all parties in-process), run-party (one party
over TCP), evaluate (score existing outputs against plaintext),
gen-corpus (synthetic datasets), params (inspect group presets).

Exit codes: 0 success, 2 configuration error, 3 protocol abort or
transport failure, 4 evaluation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config
from .corpus import STYLES, generate_corpus, write_corpus
from .datasets import load_dataset, read_aligned_csv, write_aligned_csv
from .errors import (
    ConfigDigestMismatch,
    ConfigError,
    DatasetError,
    GroupParameterError,
    MissingOutput,
    ProtocolError,
    PsuAlignError,
    TransportFailure,
)
from .evaluate import build_report, read_report, reported_links, write_report
from .groups import PRESETS, make_group_params
from .simulate import (
    fresh_index_start,
    load_party_inputs,
    plaintext_truth,
    run_local_session,
    run_networked_party,
    write_outputs,
)


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    loaded, hashed = load_party_inputs(cfg)
    outcome = run_local_session(cfg, hashed)
    csv_paths, report_path = write_outputs(
        cfg, loaded, outcome, assign_fresh=args.assign_fresh
    )
    report = read_report(report_path)
    print(f"union size: {report.n_protocol}")
    print(f"links reported: {report.reported_pairs} "
          f"(e1={report.e1_false_negatives}, e2={report.e2_false_positives})")
    for path in csv_paths:
        print(f"wrote {path}")
    print(f"wrote {report_path}")
    return 0


def _cmd_run_party(args) -> int:
    cfg = load_config(args.config)
    result, loaded, counts = run_networked_party(cfg, args.party_id, args.listen)
    out_dir = Path(args.output_dir) if args.output_dir else Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"aligned_party{args.party_id}.csv"
    start = (
        fresh_index_start(result, result.union_table.size)
        if args.assign_fresh
        else None
    )
    write_aligned_csv(csv_path, loaded, result.index_map, start)
    summary = {
        "party_id": args.party_id,
        "union_size": result.union_table.size,
        "matched": len(result.index_map.local_to_universal),
        "unmatched": len(result.index_map.unmatched),
        "sent_messages": counts,
        "wall_time": result.wall_time,
    }
    summary_path = out_dir / f"run_party{args.party_id}.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.output_dir) if args.output_dir else Path(cfg.output_dir)
    index_maps = []
    for party_id, spec in enumerate(cfg.datasets):
        path = out_dir / f"aligned_party{party_id}.csv"
        if not path.exists():
            raise MissingOutput(f"aligned output {path} not found; run simulate first")
        index_maps.append(read_aligned_csv(path, party_id, spec.has_header))

    loaded = [load_dataset(spec) for spec in cfg.datasets]
    true_links, n_oracle = plaintext_truth(cfg, loaded)

    union_indices = {
        index
        for index_map in index_maps
        for index in index_map.local_to_universal.values()
    }
    previous_counts: dict = {}
    wall_time = 0.0
    report_path = out_dir / "report.json"
    if report_path.exists():
        previous = read_report(report_path)
        previous_counts = previous.message_counts
        wall_time = previous.wall_time
        n_protocol = previous.n_protocol
    else:
        n_protocol = len(union_indices)

    report = build_report(
        n_protocol=n_protocol,
        n_oracle=n_oracle,
        true_links=true_links,
        protocol_links=reported_links(index_maps),
        message_counts=previous_counts,
        wall_time=wall_time,
    )
    eval_path = out_dir / "evaluation.json"
    write_report(report, eval_path)
    print(f"precision={report.precision:.4f} recall={report.recall:.4f} "
          f"e1={report.e1_false_negatives} e2={report.e2_false_positives}")
    print(f"wrote {eval_path}")
    return 0


def _cmd_gen_corpus(args) -> int:
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--sizes {args.sizes!r} is not a comma-separated int list")
    try:
        corpus = generate_corpus(
            sizes=sizes,
            overlap=args.overlap,
            typo_rate=args.typo,
            seed=args.seed,
            style=args.style,
            columns=tuple(args.columns.split(",")),
            id_length=args.id_length,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    csv_paths, provenance_path = write_corpus(corpus, args.out)
    for path in csv_paths:
        print(f"wrote {path}")
    print(f"wrote {provenance_path}")
    return 0


def _cmd_params(args) -> int:
    if args.check is not None:
        value = int(args.check, 0)
        group = make_group_params(value)
        print(f"valid safe prime: {group.bit_length} bits, q has "
              f"{group.q.bit_length()} bits")
        return 0
    names = [args.preset] if args.preset else sorted(PRESETS)
    for name in names:
        group = make_group_params(name)
        print(f"{name}: {group.bit_length}-bit safe prime")
        print(f"  p = {group.p:#x}")
        print(f"  q = {group.q:#x}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psualign",
        description="Multi-party private set union for entity alignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run every party locally in-process")
    simulate.add_argument("--config", required=True)
    simulate.add_argument(
        "--assign-fresh",
        action="store_true",
        help="give unmatched rows fresh trailing indices instead of blanks",
    )
    simulate.set_defaults(func=_cmd_simulate)

    run_party = sub.add_parser("run-party", help="run one party over TCP")
    run_party.add_argument("--config", required=True)
    run_party.add_argument("--party-id", type=int, required=True)
    run_party.add_argument("--listen", help="override this party's host:port")
    run_party.add_argument("--output-dir")
    run_party.add_argument("--assign-fresh", action="store_true")
    run_party.set_defaults(func=_cmd_run_party)

    evaluate = sub.add_parser("evaluate", help="score aligned outputs vs plaintext")
    evaluate.add_argument("--config", required=True)
    evaluate.add_argument("--output-dir")
    evaluate.set_defaults(func=_cmd_evaluate)

    gen = sub.add_parser("gen-corpus", help="write synthetic datasets")
    gen.add_argument("--out", required=True)
    gen.add_argument("--sizes", required=True, help="comma-separated rows per party")
    gen.add_argument("--overlap", type=float, default=0.0)
    gen.add_argument("--typo", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--style", choices=STYLES, default="words")
    gen.add_argument("--columns", default="name")
    gen.add_argument("--id-length", type=int, default=12)
    gen.set_defaults(func=_cmd_gen_corpus)

    params = sub.add_parser("params", help="print or validate group presets")
    params.add_argument("--preset")
    params.add_argument("--check", help="validate an explicit modulus (int or 0x hex)")
    params.set_defaults(func=_cmd_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, GroupParameterError, ConfigDigestMismatch) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, TransportFailure) as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 3
    except MissingOutput as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 4
    except PsuAlignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
