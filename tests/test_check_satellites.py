"""Satellite fixes riding with the conformance subsystem.

* ``MemStats.latency_total`` is wired at response arrival and must agree
  exactly with the per-class latency reservoirs (both observe the same
  ``arrived - issue`` sequence);
* ``MemStats.record_service`` rejects records that were never enqueued
  (``enqueue_cycle == -1``) instead of silently producing negative
  bank-wait cycles;
* cache/bank accounting is fault-invariant: a faulted run (response
  jitter) serves exactly the accesses a clean run does, so
  ``loads + stores`` and ``hits + misses`` agree (see the
  ``repro.sim.memsys`` module docstring);
* :class:`ConformanceReport` digests are identical whether checks run
  serially or in worker processes, and a pooled sweep composes with the
  invariant checker.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, FaultParams, SimParams
from repro.check.oracle import check_workload
from repro.core.policy import EFFCC
from repro.dfg.ops import MemRequest
from repro.errors import SimulationError
from repro.exp.configs import MONACO
from repro.exp.resilient import run_resilient
from repro.exp.spec import sweep_specs
from repro.pnr.flow import compile_once
from repro.sim.engine import simulate
from repro.sim.memsys import MemStats, RequestRecord
from repro.workloads.registry import make_workload

CHECKED = ArchParams(sim=SimParams(check=True))
JITTER = ArchParams(
    sim=SimParams(
        check=True,
        faults=FaultParams(seed=5, mem_delay_prob=0.25, mem_delay_cycles=8),
    )
)


def _run(name, arch):
    instance = make_workload(name, scale="tiny")
    compiled = compile_once(
        instance.kernel, monaco(12, 12), ArchParams(), EFFCC, parallelism=1
    )
    arrays = {k: list(v) for k, v in instance.arrays.items()}
    return simulate(compiled, instance.params, arrays, arch)


# -- memory latency accounting ----------------------------------------------


def make_record(**overrides):
    record = RequestRecord(
        nid=1,
        seq=1,
        request=MemRequest("load", "a", 0),
        address=0,
        pe_coord=(0, 0),
        issue_cycle=0,
    )
    for key, value in overrides.items():
        setattr(record, key, value)
    return record


def test_record_service_rejects_never_enqueued_records():
    stats = MemStats()
    record = make_record(hit=True, enqueue_cycle=-1, serve_cycle=5)
    with pytest.raises(SimulationError, match="never enqueued"):
        stats.record_service(record)
    # Nothing was counted for the rejected record.
    assert stats.loads == 0 and stats.hits == 0


def test_record_arrival_accumulates_latency():
    stats = MemStats()
    stats.record_arrival(make_record(issue_cycle=4), now=10)
    stats.record_arrival(make_record(issue_cycle=8), now=10)
    assert stats.latency_total == 8
    assert stats.responses == 2
    assert stats.avg_latency == pytest.approx(4.0)


def test_latency_ledger_matches_reservoirs_end_to_end():
    """Arrival-side total == sum of per-class reservoir totals, exactly."""
    result = _run("spmspv", CHECKED)
    stats = result.stats
    acc_total = sum(acc.total for acc in stats.load_latency.values())
    acc_count = sum(acc.count for acc in stats.load_latency.values())
    assert stats.mem.latency_total == acc_total
    assert stats.mem.responses == acc_count
    assert acc_count > 0
    assert stats.avg_mem_latency == pytest.approx(acc_total / acc_count)
    assert "avg mem latency" in stats.summary()
    d = stats.to_dict()
    assert d["mem"]["latency_total"] == acc_total
    assert d["mem"]["responses"] == acc_count
    assert d["mem"]["avg_mem_latency"] == pytest.approx(
        acc_total / acc_count, abs=1e-3
    )


# -- fault-invariant bank accounting ----------------------------------------


def test_bank_accounting_is_fault_invariant():
    clean = _run("spmspv", CHECKED)  # invariants armed in both runs
    faulted = _run("spmspv", JITTER)
    assert faulted.stats.faults_injected.get("mem-delay", 0) > 0
    cm, fm = clean.stats.mem, faulted.stats.mem
    assert fm.loads + fm.stores == cm.loads + cm.stores
    assert fm.hits + fm.misses == cm.hits + cm.misses
    assert fm.hits + fm.misses == fm.loads + fm.stores
    # Jitter delays arrivals, so only the arrival-side ledger moves.
    assert fm.responses == cm.responses
    assert fm.latency_total > cm.latency_total
    assert clean.memory == faulted.memory


# -- serial vs parallel ------------------------------------------------------


def _digest(name: str) -> str:
    return check_workload(name, scale="tiny").digest()


def test_conformance_digests_serial_vs_parallel():
    names = ["spmspv", "dmv"]
    serial = [_digest(name) for name in names]
    with ProcessPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(_digest, names))
    assert parallel == serial


def test_sweep_composes_with_invariant_checking():
    specs = sweep_specs(["spmspv"], [MONACO], scale="tiny", arch=CHECKED)
    serial = run_resilient(specs, max_workers=1).results
    pooled = run_resilient(specs, max_workers=2).results
    assert set(serial) == set(pooled)
    for spec, run in serial.items():
        assert run.stats == pooled[spec].stats, spec.key
        assert run.cycles == pooled[spec].cycles
