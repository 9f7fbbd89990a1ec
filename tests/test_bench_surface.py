"""The package surface the benchmark harness uses still exists and runs.

The harness in ``bench/`` has its own suite; this module keeps the names
and call shapes it relies on under the main suite too.  It imports
``bench/tracing.py`` and ``bench/workloads.py`` without installing the
tracer or writing anything.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from psualign.transport import TcpTransport

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, BENCH)
try:
    import tracing
    import workloads
finally:
    sys.path.remove(BENCH)


def small(name: str, records: int = 5):
    return dataclasses.replace(workloads.WORKLOADS[name], records_per_party=records)


def test_every_traced_name_resolves_to_a_callable():
    for module_name, attr, _, _ in tracing.TRACED:
        module = importlib.import_module(f"psualign.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_prepare_builds_every_workload(name):
    workload = small(name)
    prepared = workloads.prepare(workload, workload.corpus(1), 1000)
    try:
        assert len(prepared.parties) == len(prepared.transports) == workload.party_count
        assert all(
            isinstance(t, TcpTransport) == workload.tcp for t in prepared.transports
        )
    finally:
        prepared.close()


@pytest.mark.parametrize("name", ["noisy-names-p512", "exact-ids-p512-tcp"])
def test_small_session_runs_through_the_harness(name):
    workload = small(name)
    prepared = workloads.prepare(workload, workload.corpus(1), 1000)
    session = workloads.run_prepared(prepared)
    assert len(session.results) == workload.party_count
    for result in session.results:
        index_map = result.index_map
        assert len(index_map.local_to_universal) + len(index_map.unmatched) == 5
    assert all(sum(w.bytes.values()) > 0 for w in session.wrapped)
