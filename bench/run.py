"""Whole-session benchmark for psualign.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload.  Sessions run one at a time, as a closed
loop with one client: set up the parties from the plaintext corpus, run
them to their last ``PartyResult``, check the output against an oracle
computed from the plaintext, then start the next.  An untraced run fills
``--seconds``: after its first session it plans as many more as fit, and
spends the time left over in blocks between them, setting up sessions
that it drops unrun, which ``setup_s`` times.  A traced run starts a
session only while it is expected to end within ``--seconds``, and runs
at least two.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
first session untraced and the rest traced, and prints the per-layer
metrics together with the tracing overhead.  The last line of standard
output is one JSON object; a summary with the sample counts and a machine
fingerprint goes to ``bench/results/``, and the spans of a traced run to
``bench/results/<workload>-spans.tsv.gz``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# The checkout's own source, never an installed copy.
if not (SRC / "psualign" / "__init__.py").is_file():
    sys.exit(f"no psualign package under {SRC}")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
from psualign import groups  # noqa: E402
from workloads import LENGTH, NGRAM, WORKLOADS, peak_rss_mb, prepare, run_prepared  # noqa: E402

# An untraced run sets up sessions back to back and drops them unrun: for
# this long before its first session, then in equal blocks between the
# later sessions and after the last, which fill the run to --seconds, so
# the set-ups are spread over the whole run.  setup_s is their mean, not
# their median: on a shared host one set-up can take one of two speeds for
# seconds at a time, and the median of such a mixture jumps from one speed
# to the other as the share of slow time crosses one half, where the mean
# moves in proportion.  A session is planned to take this much longer than
# the median so far.
SETUP_BLOCK_S = 0.25
SESSION_MARGIN = 1.1

END_TO_END = (
    ("session_s", "s"),
    ("records_per_s", "records/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wire_bytes", "bytes"),
    ("frames", "frames"),
)


def fingerprint() -> dict:
    """Read-only description of the machine and interpreter."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "powmod": "pow" if groups._libcrypto is None else "libcrypto",
    }


class Bench:
    """One workload's sessions and the samples they gave."""

    def __init__(self, workload, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.corpus = workload.corpus(seed)
        self.tracer = tracing.Tracer() if trace else None
        self.attempted = self.failed = 0
        self.correct = True
        self.samples: dict[str, list] = defaultdict(list)

    def session(self, index: int, traced: bool) -> None:
        """Set up, run and check one session; a raise or a failed check fails it."""
        self.attempted += 1
        try:
            prepared, run = self.run_one(index, traced)
            problems, excused_splits = self.check(prepared, run, traced)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return
        if problems:
            self.failed += 1
            self.correct = False
            print(f"session {index}: {len(problems)} failed checks", file=sys.stderr)
            for problem in problems[:20]:
                print(f"  {problem}", file=sys.stderr)
            return
        self.samples["unmatched"].append(sum(len(r.index_map.unmatched) for r in run.results))
        self.samples["excused_splits"].append(excused_splits)
        if traced:
            spans = [s for s in self.tracer.spans if s[2] == index]
            layers = tracing.session_metrics(spans, run.wrapped, run.results)
            layers["protocol.excused_splits"] = excused_splits
            self.samples["layers"].append(layers)
            self.samples["session_s"].append(run.wall_s)
        elif self.trace:
            self.samples["untraced_session_s"].append(run.wall_s)
        else:
            self.samples["session_s"].append(run.wall_s)
            self.samples["cpu_s"].append(run.cpu_s)
            self.samples["records"].append(sum(len(rows) for rows in prepared.hashed))
            self.samples["wire_bytes"].append(sum(sum(t.bytes.values()) for t in run.wrapped))
            self.samples["frames"].append(
                sum(sum(t.inner.message_counts().values()) for t in run.wrapped)
            )

    def setup(self, index: int):
        started = time.perf_counter()
        prepared = prepare(self.workload, self.corpus, self.seed * 1000 + index)
        self.samples["setup_s"].append(time.perf_counter() - started)
        return prepared

    def drop_setups(self, index: int, until: float) -> None:
        while time.perf_counter() < until:
            self.setup(index).close()

    def run_one(self, index: int, traced: bool):
        wrap = None
        if traced:
            self.tracer.session = index
            wrap = functools.partial(tracing.RecordingTransport, tracer=self.tracer)
        try:
            prepared = self.setup(index)
            run = run_prepared(prepared, wrap)
            if traced:
                tracing.add_phase_spans(self.tracer, run.wrapped)
        finally:
            if traced:
                self.tracer.session = None
        return prepared, run

    def check(self, prepared, run, traced: bool) -> tuple[list[str], int]:
        """The problems found, and the excused splits of same-entity pairs."""
        workload = self.workload
        group = prepared.cfg.group()
        problems = checks.union_tables(run.results, group.element_width)
        excused_splits = 0
        if workload.ordered:
            rows = [[row.fields for row in rows] for rows in self.corpus.parties]
            problems += checks.ordered(rows, run.results, LENGTH)
        else:
            found, _, excused_splits = checks.noisy(
                self.corpus, run.results, LENGTH, NGRAM, workload.threshold
            )
            problems += found
        if traced:
            frames = [frame for wrapped in run.wrapped for frame in wrapped.payloads]
            leaks = checks.plaintext_leaks(frames, prepared.hashed, group)
            if leaks:
                problems.append(f"{leaks} unmasked hashed tokens in frame payloads")
        return problems, excused_splits


def run_traced(bench, seconds: float) -> None:
    """One untraced session, then traced ones while each is expected to end in time."""
    deadline = time.perf_counter() + seconds
    try:
        index = 0
        while True:
            if index == 1:
                bench.tracer.install()
            started = time.perf_counter()
            bench.session(index, traced=index > 0)
            index += 1
            now = time.perf_counter()
            if index >= 2 and now + (now - started) > deadline:
                break
    finally:
        bench.tracer.uninstall()


def run_untraced(bench, seconds: float) -> None:
    """Sessions with set-up blocks between them, filling ``seconds``.

    After the first session, the run plans as many more as fit at the
    median session time so far (with a margin), and spreads the time left
    over them as set-up blocks; each block is re-planned from the clock.
    """
    now = time.perf_counter()
    deadline = now + seconds
    bench.drop_setups(0, now + SETUP_BLOCK_S)
    took = []
    index = planned = 0
    while index <= planned:
        if index > 0:
            left = planned - index + 1
            now = time.perf_counter()
            block = max(0.0, (deadline - now - left * statistics.median(took)) / (left + 1))
            bench.drop_setups(index, now + block)
        started = time.perf_counter()
        bench.session(index, traced=False)
        took.append(time.perf_counter() - started)
        if index == 0:
            now = time.perf_counter()
            planned = int((deadline - now) / (SESSION_MARGIN * took[0]))
        index += 1
    bench.drop_setups(index, deadline)


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run sessions for ``seconds``.

    Returns the result line, a summary with every sample, and the tracer
    (None when untraced).
    """
    bench = Bench(workload, seed, trace)
    if trace:
        run_traced(bench, seconds)
    else:
        run_untraced(bench, seconds)
    samples = bench.samples
    result = {"correct": bench.correct, "attempted": bench.attempted, "failed": bench.failed}
    if trace:
        if not samples["layers"] or not samples["untraced_session_s"]:
            raise RuntimeError("no traced and untraced session pair succeeded")
        values = tracing.median_metrics(samples["layers"])
        values["trace.session_s"] = statistics.median(samples["session_s"])
        values["trace.overhead_s"] = values["trace.session_s"] - statistics.median(
            samples["untraced_session_s"]
        )
        units = dict(tracing.LAYER_METRICS)
    else:
        if not samples["session_s"]:
            raise RuntimeError("no session succeeded")
        values = {
            "session_s": statistics.median(samples["session_s"]),
            "records_per_s": sum(samples["records"]) / sum(samples["session_s"]),
            "cpu_s": statistics.median(samples["cpu_s"]),
            "setup_s": statistics.fmean(samples["setup_s"]),
            "peak_rss_mb": peak_rss_mb(),
            "wire_bytes": statistics.median(samples["wire_bytes"]),
            "frames": statistics.median(samples["frames"]),
        }
        units = dict(END_TO_END)
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    summary = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": fingerprint(),
        "samples": {k: v for k, v in samples.items() if v},
        "result": result,
    }
    return result, summary, bench.tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        result, summary, tracer = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except RuntimeError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    mode = "trace" if args.trace else "e2e"
    (RESULTS / f"{args.workload}-{mode}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{args.workload}-spans.tsv.gz")
    counts = {name: len(values) for name, values in summary["samples"].items()}
    print(f"# {args.workload} seed {args.seed}: {result['attempted']} sessions attempted, "
          f"{result['failed']} failed; samples {counts}; machine {summary['machine']}")
    for name in ("unmatched", "excused_splits"):
        print(f"# {name} per session: {summary['samples'].get(name, [])}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
