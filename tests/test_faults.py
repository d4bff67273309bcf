"""Deterministic fault injection (``repro.sim.faults``).

Contracts under test:

* off-path purity — ``faults=None`` (or all probabilities zero) is
  bit-identical to a build without the fault layer;
* determinism — the same fault seed reproduces the same run, and
  injected runs are bit-identical with cycle-skipping on or off;
* the detectors the faults exercise actually fire: dropped responses
  wedge the machine into a ``DeadlockError`` whose blocked report names
  the dropped requests, and the ``max_cycles`` watchdog cuts off a run
  that jitter has slowed past its budget.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, FaultParams, SimParams
from repro.core.policy import EFFCC
from repro.errors import ArchError, DeadlockError, SimulationError
from repro.exp.configs import MONACO, upea
from repro.exp.runner import compile_cached, run_config
from repro.sim.faults import FaultInjector, make_injector
from repro.workloads.registry import make_workload


def _arch_with(faults: FaultParams | None, **sim_kwargs) -> ArchParams:
    arch = ArchParams()
    return replace(arch, sim=replace(arch.sim, faults=faults, **sim_kwargs))


def _run(name, config, arch, scale="tiny", seed=0):
    instance = make_workload(name, scale=scale, seed=seed)
    compiled = compile_cached(
        instance, monaco(12, 12), arch, policy=EFFCC, seed=seed
    )
    return run_config(instance, compiled, config, arch)


# -- params -----------------------------------------------------------------


def test_fault_params_validation_and_signature():
    with pytest.raises(ArchError):
        FaultParams(mem_delay_prob=1.5)
    with pytest.raises(ArchError):
        FaultParams(mem_drop_prob=-0.1)
    assert not FaultParams().active()
    assert FaultParams(seed=9).active() is False  # seed alone is not a fault
    params = FaultParams(seed=3, mem_delay_prob=0.25, mem_delay_cycles=16)
    assert params.active()
    assert params.signature() == "seed=3,mem-delay=0.25:16"


def test_make_injector_off_paths():
    assert make_injector(SimParams()) is None
    assert make_injector(SimParams(faults=FaultParams())) is None
    assert make_injector(
        SimParams(faults=FaultParams(pe_stall_prob=0.5))
    ) is not None


def test_streams_are_decorrelated_and_gated():
    """An off category draws nothing, so it cannot shift the others."""
    delay_only = FaultInjector(FaultParams(mem_delay_prob=0.5))
    both = FaultInjector(
        FaultParams(mem_delay_prob=0.5, mem_drop_prob=0.5)
    )
    a = [delay_only.delay_response() for _ in range(64)]
    b = []
    for _ in range(64):
        both.drop_response()
        b.append(both.delay_response())
    assert a == b  # enabling drops did not perturb the delay stream
    assert delay_only._mem_drop.draws == 0


# -- off-path purity --------------------------------------------------------


def test_faults_off_is_bit_identical():
    clean = _run("spmspv", MONACO, ArchParams())
    explicit_off = _run("spmspv", MONACO, _arch_with(FaultParams()))
    assert clean.cycles == explicit_off.cycles
    assert clean.stats == explicit_off.stats
    assert clean.stats.faults_injected == {}


# -- determinism ------------------------------------------------------------

JITTER = FaultParams(seed=5, mem_delay_prob=0.2, mem_delay_cycles=8)


def test_jitter_is_seed_deterministic_and_skip_invariant(request):
    runs = [_run("spmspv", MONACO, _arch_with(JITTER)) for _ in range(2)]
    request.getfixturevalue("per_cycle_loop")
    runs.insert(1, _run("spmspv", MONACO, _arch_with(JITTER)))
    cycles = {r.cycles for r in runs}
    assert len(cycles) == 1
    injected = [r.stats.faults_injected for r in runs]
    assert injected[0] == injected[1] == injected[2]
    assert injected[0].get("mem-delay", 0) > 0
    assert runs[0].stats == runs[1].stats  # executed/skipped excluded


def test_jitter_degrades_but_stays_correct():
    clean = _run("dmv", MONACO, ArchParams())
    noisy = _run(
        "dmv",
        MONACO,
        _arch_with(FaultParams(seed=1, mem_delay_prob=0.5, mem_delay_cycles=32)),
    )
    # run_config validated both outputs; jitter only costs cycles.
    assert noisy.cycles > clean.cycles


def test_different_fault_seeds_differ():
    a = _run("spmspv", MONACO, _arch_with(replace(JITTER, seed=1)))
    b = _run("spmspv", MONACO, _arch_with(replace(JITTER, seed=2)))
    assert a.stats.faults_injected != b.stats.faults_injected or (
        a.cycles != b.cycles
    )


# -- detector coverage ------------------------------------------------------


def test_dropped_responses_trip_the_deadlock_detector():
    arch = _arch_with(
        FaultParams(seed=0, mem_drop_prob=1.0), deadlock_cycles=2_000
    )
    with pytest.raises(DeadlockError) as err:
        _run("spmspv", MONACO, arch)
    message = str(err.value)
    assert "dropped by fault injection" in message
    assert "memory ops in flight" in message


def test_drops_trip_deadlock_on_uniform_frontends_too():
    arch = _arch_with(
        FaultParams(seed=0, mem_drop_prob=1.0), deadlock_cycles=2_000
    )
    with pytest.raises(DeadlockError):
        _run("spmspv", upea(2), arch)


def test_pe_stall_storm_trips_the_deadlock_detector():
    arch = _arch_with(
        FaultParams(seed=0, pe_stall_prob=1.0), deadlock_cycles=2_000
    )
    with pytest.raises(DeadlockError):
        _run("spmspv", MONACO, arch)


def test_max_cycles_watchdog_fires_under_heavy_jitter():
    arch = _arch_with(
        FaultParams(seed=0, mem_delay_prob=1.0, mem_delay_cycles=512),
        max_cycles=3_000,
    )
    with pytest.raises(SimulationError, match="max_cycles"):
        _run("spmspv", MONACO, arch)


def test_grant_skip_degrades_gracefully_on_monaco():
    clean = _run("spmspv", MONACO, ArchParams())
    perturbed = _run(
        "spmspv", MONACO, _arch_with(FaultParams(seed=2, grant_skip_prob=0.2))
    )
    assert perturbed.stats.faults_injected.get("grant-skip", 0) > 0
    assert perturbed.cycles >= clean.cycles  # output already validated


def test_faults_injected_lands_in_stats_dict():
    run = _run("spmspv", MONACO, _arch_with(JITTER))
    payload = run.stats.to_dict()
    assert payload["faults_injected"] == run.stats.faults_injected
    clean = _run("spmspv", MONACO, ArchParams())
    assert "faults_injected" not in clean.stats.to_dict()
