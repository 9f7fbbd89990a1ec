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
from .datasets import read_aligned_csv, write_aligned_csv
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
from .evaluate import write_report
from .groups import PRESETS, make_group_params
from .simulate import (
    load_party_inputs,
    output_paths,
    run_local_session,
    run_networked_party,
    score,
    session_id,
    write_outputs,
)
from .transport import sum_counts


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    loaded, hashed = load_party_inputs(cfg)
    report = write_outputs(cfg, loaded, hashed, run_local_session(cfg, hashed))
    csv_paths, _, report_path = output_paths(Path(cfg.output_dir), cfg.party_count)
    print(f"union size: {report.n_protocol}")
    print(f"links reported: {report.reported_pairs} "
          f"(e1={report.e1_false_negatives}, e2={report.e2_false_positives})")
    for path in csv_paths:
        print(f"wrote {path}")
    print(f"wrote {report_path}")
    return 0


def _cmd_run_party(args) -> int:
    cfg = load_config(args.config)
    outcome, loaded = run_networked_party(cfg, args.party_id, args.listen)
    out_dir = Path(args.output_dir) if args.output_dir else Path(cfg.output_dir)
    csv_paths, summary_paths, _ = output_paths(out_dir, cfg.party_count)
    csv_path, summary_path = csv_paths[args.party_id], summary_paths[args.party_id]
    result = outcome.results[0]
    write_aligned_csv(csv_path, loaded, result.index_map)
    summary = {
        "party_id": args.party_id,
        "union_size": result.union_table.size,
        "matched": len(result.index_map.local_to_universal),
        "sent_messages": outcome.message_counts,
        "sent_bytes": outcome.message_bytes,
        "wall_time": result.wall_time,
        "session_id": session_id(cfg, result),
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    return 0


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_counts(value) -> bool:
    return isinstance(value, dict) and all(_is_count(n) for n in value.values())


def _is_seconds(value) -> bool:
    return type(value) in (int, float) and value >= 0


# The keys evaluate reads from report.json and from each run_party{k}.json,
# with the check each value must pass.
_COUNT = (_is_count, "a non-negative integer")
_COUNTS = (_is_counts, "an object of non-negative integers")
_SESSION_ID = (lambda value: type(value) is str, "a string")
_REPORT_FIELDS = {
    "n_protocol": _COUNT,
    "message_counts": _COUNTS,
    "message_bytes": _COUNTS,
    "wall_time": (_is_seconds, "a non-negative number"),
    "session_id": _SESSION_ID,
}
_SUMMARY_FIELDS = {
    "union_size": _COUNT,
    "sent_messages": _COUNTS,
    "sent_bytes": _COUNTS,
    "session_id": _SESSION_ID,
}


def _read_fields(path: Path, fields: dict) -> dict:
    """The ``fields`` of the JSON object in ``path``; a bad file is a MissingOutput."""
    try:
        data = json.loads(path.read_text("utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise MissingOutput(f"{path} is not a JSON file: {exc}") from None
    if not isinstance(data, dict):
        raise MissingOutput(f"{path} does not hold a JSON object")
    for key, (check, kind) in fields.items():
        if key not in data:
            raise MissingOutput(f"{path} has no {key!r}")
        if not check(data[key]):
            raise MissingOutput(f"{path}: {key!r} is not {kind}")
    return {key: data[key] for key in fields}


def _cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.output_dir) if args.output_dir else Path(cfg.output_dir)
    csv_paths, summary_paths, report_path = output_paths(out_dir, cfg.party_count)
    for path in csv_paths if report_path.exists() else csv_paths + summary_paths:
        if not path.exists():
            raise MissingOutput(f"{path} not found; run simulate or run-party first")
    loaded, hashed = load_party_inputs(cfg)
    index_maps = [
        read_aligned_csv(path, party_id, data)
        for party_id, (path, data) in enumerate(zip(csv_paths, loaded))
    ]
    # Every summary present, and the report if any, must name one session.
    outputs = {
        path: _read_fields(path, _SUMMARY_FIELDS) for path in summary_paths if path.exists()
    }
    if report_path.exists():
        measured = outputs[report_path] = _read_fields(report_path, _REPORT_FIELDS)
    else:
        # Each summary counts one party's sends; every party holds the same union.
        summaries = list(outputs.values())
        measured = {
            "n_protocol": summaries[0]["union_size"],
            "message_counts": sum_counts(s["sent_messages"] for s in summaries),
            "message_bytes": sum_counts(s["sent_bytes"] for s in summaries),
            "wall_time": 0.0,
            "session_id": summaries[0]["session_id"],
        }
    if len({fields["session_id"] for fields in outputs.values()}) > 1:
        ids = ", ".join(f"{path} ({fields['session_id']})" for path, fields in outputs.items())
        raise MissingOutput(f"outputs from different sessions: {ids}")
    report = score(cfg, loaded, hashed, index_maps, measured)
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
        try:
            value = int(args.check, 0)
        except ValueError:
            raise ConfigError(f"--check {args.check!r} is not an integer") from None
        group = make_group_params(value)
        print(f"valid safe prime: {group.p.bit_length()} bits, q has "
              f"{group.q.bit_length()} bits")
        _print_exponent_width(group)
        return 0
    names = [args.preset] if args.preset else sorted(PRESETS)
    for name in names:
        group = make_group_params(name)
        print(f"{name}: {group.p.bit_length()}-bit safe prime")
        print(f"  p = {group.p:#x}")
        print(f"  q = {group.q:#x}")
        _print_exponent_width(group)
    return 0


def _print_exponent_width(group) -> None:
    print(f"  secret exponents: {(group.exponent_bound - 1).bit_length()} bits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psualign",
        description="Multi-party private set union for entity alignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run every party locally in-process")
    simulate.add_argument("--config", required=True)
    simulate.set_defaults(func=_cmd_simulate)

    run_party = sub.add_parser("run-party", help="run one party over TCP")
    run_party.add_argument("--config", required=True)
    run_party.add_argument("--party-id", type=int, required=True)
    run_party.add_argument("--listen", help="override this party's host:port")
    run_party.add_argument("--output-dir")
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
