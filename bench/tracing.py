"""In-memory spans around the package's public functions, and per-layer metrics.

The package imports names with ``from .x import y``, so a function is
looked up in every module that imported it.  ``Tracer.install`` replaces
each traced function in every ``psualign`` module that holds it, and
``Party.run`` on its class; ``uninstall`` puts the originals back.  The
package itself is not changed.

A span is ``(id, parent, session, party, name, start_ns, end_ns, value)``.
``parent`` is the enclosing span on the same thread (0 for none), and
``party`` comes from the ``psu-party-k`` thread name (-1 on other
threads, where set-up runs).  ``value`` holds what a metric needs from
the call: the (base, exponent) pair of ``powmod``, the size of an
encoding, whether a prefilter passed or a comparison matched, and the
sizes around a dedup.  Spans are only recorded while ``session`` is set.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

from psualign import protocol
from psualign.messages import MessageType
from workloads import CountingTransport

FRAME_TYPES = ("HELLO", "SET_TRANSFER", "UNION_TRANSFER", "UID_BROADCAST", "TOKEN_RELAY", "TOKEN_RETURN")
PHASES = ("handshake", "round_one", "round_two", "await_union", "matching")
CODEC = ("masking.encode_identifier", "masking.decode_identifier", "masking.encode_set", "masking.decode_set")


def _size(args, result):
    return len(result)


def _dedup_sizes(args, result):
    return (len(args[0]), len(result))


# module, function, span name, what the span keeps of the call
TRACED = (
    ("tokenization", "tokenize_record", "tokenization.tokenize_record", None),
    ("hashing", "hash_token", "hashing.hash_token", None),
    ("groups", "powmod", "groups.powmod", lambda args, result: (args[0], args[1])),
    ("masking", "encrypt_set", "masking.encrypt_set", None),
    ("masking", "encrypt_identifier", "masking.encrypt_identifier", None),
    ("masking", "encode_identifier", "masking.encode_identifier", _size),
    ("masking", "encode_set", "masking.encode_set", _size),
    ("masking", "decode_identifier", "masking.decode_identifier", None),
    ("masking", "decode_set", "masking.decode_set", None),
    ("bloom", "bloom_encode", "bloom.encode", None),
    ("bloom", "bloom_prefilter", "bloom.prefilter", lambda args, result: result),
    ("compare", "compare", "compare", lambda args, result: result.is_match),
    ("union", "dedup_exact", "union.dedup", _dedup_sizes),
    ("union", "dedup_noisy", "union.dedup", _dedup_sizes),
    ("union", "assign_universal_indices", "union.assign", None),
)

LAYER_METRICS = (
    [
        ("tokenization.tokenize_record.calls", "count"),
        ("tokenization.tokenize_record.s", "s"),
        ("hashing.hash_token.calls", "count"),
        ("hashing.hash_token.s", "s"),
        ("groups.powmod.calls", "count"),
        ("groups.powmod.s", "s"),
        ("groups.powmod.useful_ratio", "ratio"),
        ("masking.encrypt_set.calls", "count"),
        ("masking.encrypt_set.s", "s"),
        ("masking.encrypt_identifier.calls", "count"),
        ("masking.encrypt_identifier.s", "s"),
        ("masking.codec.s", "s"),
        ("masking.codec.bytes", "bytes"),
        ("bloom.encode.calls", "count"),
        ("bloom.encode.s", "s"),
        ("bloom.prefilter.calls", "count"),
        ("bloom.prefilter.s", "s"),
        ("bloom.prefilter.useful_ratio", "ratio"),
        ("compare.calls", "count"),
        ("compare.matches", "count"),
        ("compare.s", "s"),
        ("union.dedup.in", "count"),
        ("union.dedup.out", "count"),
        ("union.dedup.s", "s"),
        ("union.assign.s", "s"),
    ]
    + [(f"protocol.phase.{phase}.s", "s") for phase in PHASES]
    + [
        ("protocol.recv_wait.s", "s"),
        ("protocol.unmatched", "count"),
        ("protocol.excused_splits", "count"),
    ]
    + [(f"transport.frames.{name}", "frames") for name in FRAME_TYPES]
    + [(f"transport.bytes.{name}", "bytes") for name in FRAME_TYPES]
    + [
        ("transport.send.s", "s"),
        ("transport.establish.s", "s"),
        ("trace.session_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _party_of(thread_name: str) -> int:
    prefix, _, number = thread_name.rpartition("-")
    return int(number) if prefix == "psu-party" and number.isdigit() else -1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.session: int | None = None
        self._local = threading.local()
        self._next_id = itertools.count(1).__next__
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, keep=None):
        """``fn`` recording one span per call while a session is set."""
        local, spans, clock, next_id = self._local, self.spans, time.perf_counter_ns, self._next_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            session = self.session
            if session is None:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.party = _party_of(threading.current_thread().name)
            span_id = next_id()
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            end = clock()
            value = keep(args, result) if keep is not None else None
            spans.append((span_id, parent, session, local.party, name, start, end, value))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "psualign" or n.startswith("psualign.")]
        for module_name, attr, span_name, keep in TRACED:
            original = getattr(sys.modules[f"psualign.{module_name}"], attr)
            traced = self.wrap(span_name, original, keep)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, traced)
        self._patched.append((protocol.Party, "run", protocol.Party.run))
        protocol.Party.run = self.wrap("protocol.run", protocol.Party.run)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def add_span(self, party: int, name: str, start: int, end: int) -> None:
        self.spans.append((self._next_id(), 0, self.session, party, name, start, end, None))

    def write(self, path) -> None:
        """Write every span as a tab-separated line; ``value`` is left out."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tsession\tparty\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                out.write("\t".join(map(str, span[:7])) + "\n")


class RecordingTransport(CountingTransport):
    """Times and keeps every frame a party sends, counts its bytes, and marks its phases.

    A phase starts when the party's public ``phase`` is first seen at a
    transport call; the work since the previous call belongs to it.
    """

    def __init__(self, inner, party, tracer: Tracer):
        super().__init__(inner)
        self.party = party
        self.payloads: list[tuple[MessageType, bytes]] = []
        self.marks: list[tuple[str, int]] = []
        self._last = None
        self._establish = tracer.wrap("transport.establish", inner.establish)
        self._send = tracer.wrap("transport.send", inner.send)
        self._recv = tracer.wrap("transport.recv", inner.recv)

    def _observe(self) -> None:
        phase = self.party.phase.value
        if not self.marks or self.marks[-1][0] != phase:
            self.marks.append((phase, self._last or time.perf_counter_ns()))

    def establish(self, timeout=None) -> None:
        self._observe()
        self._establish(timeout)
        self._last = time.perf_counter_ns()

    def send(self, to, message) -> None:
        self._observe()
        self._send(to, message)
        self._last = time.perf_counter_ns()
        self.count(message)
        self.payloads.append((message.msg_type, message.payload))

    def recv(self, timeout=None):
        self._observe()
        item = self._recv(timeout)
        self._last = time.perf_counter_ns()
        return item


def add_phase_spans(tracer: Tracer, recorders) -> None:
    """Turn each party's phase marks into spans ending at its ``Party.run`` end."""
    run_end = {
        span[3]: span[6]
        for span in tracer.spans
        if span[2] == tracer.session and span[4] == "protocol.run"
    }
    for recorder in recorders:
        party = recorder.party.party_id
        ends = [t for _, t in recorder.marks[1:]] + [run_end[party]]
        for (phase, start), end in zip(recorder.marks, ends):
            tracer.add_span(party, f"protocol.phase.{phase}", start, end)


def session_metrics(spans, recorders, results) -> dict[str, float]:
    """Per-layer metrics of one traced session from its spans."""
    child_ns: dict[int, int] = defaultdict(int)
    name_of = {}
    for span_id, parent, _, _, name, start, end, _ in spans:
        child_ns[parent] += end - start
        name_of[span_id] = name
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    by_party: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    pairs, powmod_calls, powmod_ns = set(), 0, 0
    passed = matches = dedup_in = dedup_out = codec_bytes = 0
    for span_id, parent, _, party, name, start, end, value in spans:
        calls[name] += 1
        self_ns[name] += end - start - child_ns[span_id]
        total_ns[name] += end - start
        by_party[name][party] += end - start
        if name == "groups.powmod" and party >= 0:
            powmod_calls += 1
            powmod_ns += end - start
            pairs.add(value)
        elif name == "bloom.prefilter":
            passed += value
        elif name == "compare":
            matches += value
        elif name == "union.dedup":
            dedup_in += value[0]
            dedup_out += value[1]
        elif name in ("masking.encode_identifier", "masking.encode_set"):
            if name_of.get(parent) != "masking.encode_set":
                codec_bytes += value

    def s(ns):
        return ns / 1e9

    def slowest(name):
        return s(max(by_party[name].values(), default=0))

    metrics = {
        "tokenization.tokenize_record.calls": calls["tokenization.tokenize_record"],
        "tokenization.tokenize_record.s": s(self_ns["tokenization.tokenize_record"]),
        "hashing.hash_token.calls": calls["hashing.hash_token"],
        # includes project_to_qr's public squaring, which groups.powmod leaves out
        "hashing.hash_token.s": s(total_ns["hashing.hash_token"]),
        "groups.powmod.calls": powmod_calls,
        "groups.powmod.s": s(powmod_ns),
        "groups.powmod.useful_ratio": len(pairs) / powmod_calls if powmod_calls else 0.0,
        "masking.encrypt_set.calls": calls["masking.encrypt_set"],
        "masking.encrypt_set.s": s(self_ns["masking.encrypt_set"]),
        "masking.encrypt_identifier.calls": calls["masking.encrypt_identifier"],
        "masking.encrypt_identifier.s": s(self_ns["masking.encrypt_identifier"]),
        "masking.codec.s": s(sum(self_ns[name] for name in CODEC)),
        "masking.codec.bytes": codec_bytes,
        "bloom.encode.calls": calls["bloom.encode"],
        "bloom.encode.s": s(self_ns["bloom.encode"]),
        "bloom.prefilter.calls": calls["bloom.prefilter"],
        "bloom.prefilter.s": s(self_ns["bloom.prefilter"]),
        "bloom.prefilter.useful_ratio": matches / passed if passed else 0.0,
        "compare.calls": calls["compare"],
        "compare.matches": matches,
        "compare.s": s(self_ns["compare"]),
        "union.dedup.in": dedup_in,
        "union.dedup.out": dedup_out,
        "union.dedup.s": s(self_ns["union.dedup"]),
        "union.assign.s": s(self_ns["union.assign"]),
        "protocol.recv_wait.s": s(total_ns["transport.recv"]),
        "protocol.unmatched": sum(len(r.index_map.unmatched) for r in results),
        "transport.send.s": s(total_ns["transport.send"]),
        "transport.establish.s": slowest("transport.establish"),
    }
    for phase in PHASES:
        metrics[f"protocol.phase.{phase}.s"] = slowest(f"protocol.phase.{phase}")
    for name in FRAME_TYPES:
        msg_type = MessageType[name]
        metrics[f"transport.frames.{name}"] = sum(r.inner.message_counts()[name] for r in recorders)
        metrics[f"transport.bytes.{name}"] = sum(r.bytes[msg_type] for r in recorders)
    return metrics


def median_metrics(per_session: list[dict]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_session) for name in per_session[0]}
