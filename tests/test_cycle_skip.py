"""The scheduler is invisible: skipping == the per-cycle reference loop.

The engine (``repro/sim/engine.py``) jumps the system clock over spans in
which the fabric sleeps waiting on memory. There is no option for it;
the per-cycle loop it replaces is the ``per_cycle_loop`` fixture
(``tests/conftest.py``). This module is the identity test: on every
Table 1 workload, on all three frontend families, clean and
fault-injected, at the default memory system and at a latency-bound one,
with every probe attached and the invariant checker armed, the two loops
agree on ``SimStats`` (``executed_cycles`` / ``skipped_cycles`` are
excluded from dataclass equality by design), on final memory and on
every probe output — the Chrome timeline minus its scheduler lane, which
is telemetry of the simulator. The clean default-memory runs' probe
outputs are also the ``skip`` pins of ``tests/test_obs_pins.py``, so the
per-cycle loop is held to those pins too. It also holds the scheduler to
what it is for: a latency-bound run executes at most a quarter of its
cycles.
"""

from itertools import product

import pytest

# The session's tiny seed-0 artifacts, fault mix, machine configurations
# and probe digests of the two pinned-digest modules.
from test_engine_hot import FABRIC, FAULTS, compiled_for
from test_obs_pins import CONFIGS, obs_digests, pinned

from repro.arch.clocks import PAPER_DIVIDER
from repro.arch.params import ArchParams, MemoryParams, SimParams
from repro.core.policy import EFFCC
from repro.errors import DeadlockError, SimulationError, SimulationPreempted
from repro.pnr.flow import compile_once
from repro.sim.engine import simulate
from repro.sim.snapshot import CheckpointConfig
from repro.sim.upea import NumaFrontend, UniformFrontend
from repro.workloads.registry import ALL_WORKLOADS

from kernels import zoo_instance

#: No cache, slow main memory: the regime the scheduler pays in.
LATENCY_BOUND = MemoryParams(cache_lines=0, memory_cycles=256)
MEMORIES = {"default": MemoryParams(), "latency-bound": LATENCY_BOUND}
FAULT_MIXES = {"clean": None, "faults": FAULTS}

FRONTENDS = {
    "monaco": None,  # the machine configuration's own
    "upea": lambda fabric, amap: UniformFrontend(4),
    "numa": lambda fabric, amap: NumaFrontend(4, fabric, amap, seed=0),
}


def _simulate(
    name, config="monaco", memory="default", sim=None, frontend_factory=None,
    **kwargs,
):
    instance, compiled = compiled_for(name)
    arrays = {key: list(data) for key, data in instance.arrays.items()}
    arch = ArchParams(memory=MEMORIES[memory], sim=SimParams(**(sim or {})))
    return simulate(
        compiled, instance.params, arrays, arch,
        frontend_factory=frontend_factory
        or CONFIGS[config].frontend_factory(PAPER_DIVIDER),
        divider=PAPER_DIVIDER,
        **kwargs,
    )


def _probed(name, config, memory, faults, tmp_path, **kwargs):
    """One run with every probe attached and the checker armed."""
    sim = dict(
        trace=True, critpath=True, check=True, faults=FAULT_MIXES[faults],
        trace_path=str(tmp_path / "trace.json"),
    )
    return _simulate(name, config, memory, sim=sim, **kwargs)


def _reported(result) -> tuple:
    """Everything a run reports, in comparable form."""
    return result.stats, result.memory, obs_digests(result.obs)


def _split(stats) -> tuple[int, int]:
    return stats.executed_cycles, stats.skipped_cycles


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_skip_bit_identical_all_workloads(name, tmp_path, request):
    points = list(product(CONFIGS, MEMORIES, FAULT_MIXES))
    skipping = [_reported(_probed(name, *point, tmp_path)) for point in points]
    request.getfixturevalue("per_cycle_loop")
    for point, (stats, memory, digests) in zip(points, skipping):
        loop_stats, loop_memory, loop_digests = _reported(
            _probed(name, *point, tmp_path)
        )
        assert stats == loop_stats, point
        assert memory == loop_memory, point
        assert digests == loop_digests, point
        if point[1:] == ("default", "clean"):
            assert digests == pinned()[f"{name}/{point[0]}/skip"], point
        executed, skipped = _split(stats)
        # The loop runs cycles 0..system_cycles inclusive.
        assert _split(loop_stats) == (stats.system_cycles + 1, 0), point
        assert executed + skipped == stats.system_cycles + 1, point
        if point[1] == "latency-bound":
            assert skipped > 0 and executed < loop_stats.executed_cycles


@pytest.mark.parametrize("frontend", sorted(FRONTENDS))
@pytest.mark.parametrize("name", ["spmspv", "fft", "mergesort"])
def test_skip_bit_identical_across_frontends(name, frontend, request):
    """The plain path (no probe, no checker) on hand-built frontends."""
    on = _simulate(name, frontend_factory=FRONTENDS[frontend])
    request.getfixturevalue("per_cycle_loop")
    off = _simulate(name, frontend_factory=FRONTENDS[frontend])
    assert on.stats.system_cycles == off.stats.system_cycles
    assert on.stats == off.stats
    assert on.memory == off.memory


@pytest.mark.parametrize("config", ["monaco", "upea2"])
@pytest.mark.parametrize("name", ["spmspv", "fft"])
def test_latency_bound_run_executes_a_quarter_at_most(name, config):
    """The scheduler's reason to exist, as a count no host can move
    (measured 0.05-0.09): a fabric asleep on 256-cycle memory is not
    ticked through. The split itself is deterministic."""
    first, again = (
        _simulate(name, config, "latency-bound").stats for _ in range(2)
    )
    assert first.executed_cycles <= 0.25 * (first.system_cycles + 1)
    assert _split(first) == _split(again)


def test_skip_enabled_by_default():
    """A run nobody configured skips: there is nothing to turn on."""
    kernel, params, arrays = zoo_instance("chase")
    ck = compile_once(kernel, FABRIC, ArchParams(), EFFCC, parallelism=1)
    assert simulate(ck, params, arrays).stats.skipped_cycles > 0


def test_skip_off_executes_every_cycle(per_cycle_loop):
    kernel, params, arrays = zoo_instance("dot")
    ck = compile_once(kernel, FABRIC, ArchParams(), EFFCC, parallelism=1)
    res = simulate(ck, params, arrays)
    assert res.stats.skipped_cycles == 0
    assert res.stats.executed_cycles == res.stats.system_cycles + 1


def test_skip_jumps_over_upea_delay(request):
    """A fixed-delay pipe is the canonical skippable gap."""
    kernel, params, arrays = zoo_instance("chase")
    ck = compile_once(kernel, FABRIC, ArchParams(), EFFCC, parallelism=1)

    def run():
        return simulate(
            ck, params, dict(arrays),
            frontend_factory=lambda f, a: UniformFrontend(40),
        ).stats

    on = run()
    request.getfixturevalue("per_cycle_loop")
    off = run()
    assert on.system_cycles == off.system_cycles
    # The pointer chase idles through each 40-cycle pipe delay; skipping
    # must elide the bulk of the simulated cycles.
    assert on.executed_cycles < off.executed_cycles / 2


def test_skip_preserves_deadlock_diagnosis(request):
    """The detector trips at the same cycle under either loop."""
    from repro.dfg.graph import PortRef

    def diagnosis():
        kernel, params, arrays = zoo_instance("join")
        ck = compile_once(kernel, FABRIC, ArchParams(), EFFCC, parallelism=1)
        victim = next(n for n in ck.dfg.nodes.values() if n.op == "binop")
        victim.inputs[0] = PortRef(victim.nid)
        arch = ArchParams(sim=SimParams(deadlock_cycles=2_000))
        with pytest.raises(DeadlockError) as excinfo:
            simulate(ck, params, arrays, arch)
        return str(excinfo.value)

    skipping = diagnosis()
    request.getfixturevalue("per_cycle_loop")
    assert skipping == diagnosis()


def test_skip_preserves_max_cycles_guard():
    kernel, params, arrays = zoo_instance("dot")
    ck = compile_once(kernel, FABRIC, ArchParams(), EFFCC, parallelism=1)
    arch = ArchParams(sim=SimParams(max_cycles=3))
    with pytest.raises(SimulationError, match="max_cycles"):
        simulate(ck, params, arrays, arch)


def test_snapshot_after_a_jump_resumes_to_the_same_report(tmp_path):
    """A cycle budget that runs out on the cycle the scheduler jumps
    from snapshots the machine at the far end of the span; the resumed
    run reports what the uninterrupted one does."""
    point = ("spmspv", "monaco", "latency-bound", "clean", tmp_path)
    full = _probed(*point)
    jumps = [event for event in full.obs.chrome.events if event["pid"] == 2]
    longest = max(jumps, key=lambda event: event["dur"])
    # Cycles executed when the longest jump is taken: every cycle before
    # it that no earlier jump covered.
    budget = longest["ts"] - sum(
        event["dur"] for event in jumps if event["ts"] < longest["ts"]
    )
    path = str(tmp_path / "jump.snap")
    with pytest.raises(SimulationPreempted):
        _probed(
            *point, checkpoint=CheckpointConfig(path=path, cycle_budget=budget)
        )
    resumed = _probed(*point, checkpoint=CheckpointConfig(path))
    assert resumed.resume_info["executed_before"] == budget
    assert resumed.resume_info["from_cycle"] == longest["ts"] + longest["dur"]
    assert _reported(resumed) == _reported(full)
    assert _split(resumed.stats) == _split(full.stats)


def test_attribution_is_a_function_of_the_tick_records(recordings):
    """An attribution built from a skip-heavy run's tick rows alone —
    its skips dropped — and its final stats reports what the run's own
    does: the jumped-over ticks and the divider gap need no row."""
    from repro.obs.sinks import CycleAttribution

    run = _simulate("spmspv", "upea2", "latency-bound", sim=dict(trace=True))
    live = run.obs.attribution
    assert run.stats.skipped_cycles > run.stats.executed_cycles
    (rec,) = recordings
    assert len(rec.skips) > 0
    del rec.skips[:]

    replay = CycleAttribution(live.node_info, live.divider, rec, run.stats)
    assert replay.per_node == live.per_node
    assert (replay.ticks, replay.divider_gap) == (live.ticks, live.divider_gap)
    assert replay.render() == live.render()


def test_frontends_expose_next_event_hints():
    """Idle components report None; busy ones report a concrete cycle."""
    from repro.arch.memory import AddressMap
    from repro.sim.memsys import MemorySystem

    fe = UniformFrontend(7)
    assert fe.next_event(3) is None
    amap = AddressMap({"a": 64}, MemoryParams())
    memsys = MemorySystem(MemoryParams(), amap, {"a": [0] * 64})
    assert memsys.next_event(5) is None

    from repro.dfg.ops import MemRequest
    from repro.sim.memsys import RequestRecord

    record = RequestRecord(
        nid=1, seq=1, request=MemRequest("load", "a", 0),
        address=0, pe_coord=(0, 0), issue_cycle=3,
    )
    fe.inject(record, 3)
    assert fe.next_event(3) == 10  # now + delay
    memsys.enqueue(record, 10)
    assert memsys.next_event(10) == 10  # bank queues run every cycle
