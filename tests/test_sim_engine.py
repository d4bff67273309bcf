"""Integration tests for the timed simulator engine."""

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, SimParams
from repro.core.policy import EFFCC
from repro.errors import (
    DeadlockError,
    DFGError,
    ReproError,
    SimulationError,
)
from repro.ir.interp import run_kernel
from repro.pnr.flow import compile_once
from repro.sim.engine import simulate
from repro.sim.snapshot import CheckpointConfig
from repro.sim.upea import NumaFrontend, UniformFrontend

from kernels import ZOO, zoo_instance

ARCH = ArchParams()
FABRIC = monaco(12, 12)


def compiled(name, parallelism=1, policy=EFFCC, fabric=FABRIC, arch=ARCH):
    kernel, params, arrays = zoo_instance(name)
    ck = compile_once(kernel, fabric, arch, policy, parallelism=parallelism)
    return ck, params, arrays


@pytest.mark.parametrize("name", sorted(ZOO))
def test_results_match_reference(name):
    ck, params, arrays = compiled(name)
    kernel, _, _ = zoo_instance(name)
    reference = run_kernel(kernel, params, arrays)
    result = simulate(ck, params, arrays, ARCH)
    for array, expected in reference.items():
        assert result.memory[array] == expected, array


def test_determinism():
    ck, params, arrays = compiled("join")
    a = simulate(ck, params, arrays, ARCH)
    b = simulate(ck, params, arrays, ARCH)
    assert a.stats.system_cycles == b.stats.system_cycles
    assert a.stats.firings == b.stats.firings


def test_divider_scales_execution_time():
    ck, params, arrays = compiled("dot")
    fast = simulate(ck, params, arrays, ARCH, divider=1)
    slow = simulate(ck, params, arrays, ARCH, divider=4)
    assert slow.stats.system_cycles > fast.stats.system_cycles
    assert slow.stats.clock_divider == 4


def test_upea_delay_slows_execution():
    ck, params, arrays = compiled("join")
    cycles = []
    for delay in (0, 2, 8):
        res = simulate(
            ck,
            params,
            arrays,
            ARCH,
            frontend_factory=lambda f, a, d=delay: UniformFrontend(d),
            divider=2,
        )
        cycles.append(res.stats.system_cycles)
    assert cycles[0] < cycles[1] < cycles[2]


def test_numa_between_ideal_and_upea():
    ck, params, arrays = compiled("join")
    ideal = simulate(
        ck, params, arrays, ARCH,
        frontend_factory=lambda f, a: UniformFrontend(0), divider=2,
    ).stats.system_cycles
    numa = simulate(
        ck, params, arrays, ARCH,
        frontend_factory=lambda f, a: NumaFrontend(4, f, a, seed=2),
        divider=2,
    ).stats.system_cycles
    upea = simulate(
        ck, params, arrays, ARCH,
        frontend_factory=lambda f, a: UniformFrontend(4), divider=2,
    ).stats.system_cycles
    assert ideal <= numa <= upea


def test_monaco_critical_latency_tracks_domain():
    ck, params, arrays = compiled("join")
    res = simulate(ck, params, arrays, ARCH, divider=2)
    stats = res.stats
    # Both class-A loads sit in D0: mean latency is the cache round trip
    # with no fabric-memory NoC delay on top.
    assert stats.load_latency["A"].count > 0
    assert 0 in stats.domain_latency


def test_domain_latency_increases_with_distance():
    # Place the same kernel domain-unaware: far loads see larger latency.
    from repro.core.policy import DOMAIN_UNAWARE

    ck_near, params, arrays = compiled("join", policy=EFFCC)
    ck_far, _, _ = compiled("join", policy=DOMAIN_UNAWARE)
    near = simulate(ck_near, params, arrays, ARCH, divider=2)
    far = simulate(ck_far, params, arrays, ARCH, divider=2)
    assert (
        far.stats.load_latency["A"].mean
        > near.stats.load_latency["A"].mean
    )
    assert far.stats.system_cycles > near.stats.system_cycles


def test_stats_accounting():
    ck, params, arrays = compiled("dot")
    res = simulate(ck, params, arrays, ARCH)
    stats = res.stats
    assert stats.firings["load"] == 16
    assert stats.firings["store"] == 1
    assert stats.mem.loads == 16 and stats.mem.stores == 1
    assert stats.total_firings == sum(stats.firings.values())
    assert 0 < stats.ipc
    assert "loads" in stats.summary()


def test_shallow_fifos_still_correct():
    arch = ArchParams(sim=SimParams(fifo_capacity=2, max_outstanding=1))
    ck, params, arrays = compiled("join", arch=arch)
    kernel, _, _ = zoo_instance("join")
    reference = run_kernel(kernel, params, arrays)
    res = simulate(ck, params, arrays, arch)
    assert res.memory["O"] == reference["O"]


def test_parallel_workers_simulate_correctly():
    ck, params, arrays = compiled("parphases", parallelism=4)
    kernel, _, _ = zoo_instance("parphases")
    reference = run_kernel(kernel, params, arrays)
    res = simulate(ck, params, arrays, ARCH)
    assert res.memory["A"] == reference["A"]


def test_deadlock_detection():
    # Corrupt a compiled graph so a node waits on a token that never
    # arrives: the engine must diagnose rather than spin forever.
    from repro.dfg.graph import PortRef

    ck, params, arrays = compiled("join")
    arch = ArchParams(sim=SimParams(deadlock_cycles=2_000))
    # Rewire one binop input to a never-firing consumer-less node pair:
    # point it at itself (no token will ever arrive on that port).
    victim = next(
        n for n in ck.dfg.nodes.values() if n.op == "binop"
    )
    victim.inputs[0] = PortRef(victim.nid)
    with pytest.raises(DeadlockError, match="Stuck FIFOs|stranded"):
        simulate(ck, params, arrays, arch)


def test_frontend_name_recorded():
    ck, params, arrays = compiled("dot")
    res = simulate(ck, params, arrays, ARCH)
    assert res.stats.frontend == "monaco"


class TestRuleCompileErrorsPrecedeCycleZero:
    """Immediates, operators and array names resolve when the engine is
    built, so a bad launch fails before any cycle runs — in particular
    before the every-cycle checkpoint below could write a snapshot."""

    def _checkpoint(self, tmp_path):
        return CheckpointConfig(
            path=str(tmp_path / "run.snap"), every_cycles=1
        )

    def test_unbound_parameter(self, tmp_path):
        ck, _params, arrays = compiled("dot")
        with pytest.raises(DFGError, match=r"node \d+ .*unbound.*'n'"):
            simulate(
                ck, {}, arrays, ARCH, checkpoint=self._checkpoint(tmp_path)
            )
        assert list(tmp_path.iterdir()) == []

    def test_undeclared_array_name(self, tmp_path):
        """A misspelt input must not run on zeros."""
        ck, params, arrays = compiled("dot")
        arrays = {"X": arrays["x"], "y": arrays["y"]}
        with pytest.raises(
            SimulationError, match=r"\['X'\] are not declared by kernel "
            r"'dot' \(declared: \['out', 'x', 'y'\]\)"
        ):
            simulate(
                ck, params, arrays, ARCH,
                checkpoint=self._checkpoint(tmp_path),
            )
        assert list(tmp_path.iterdir()) == []

    def test_unknown_operator(self, tmp_path):
        ck, params, arrays = compiled("dot")
        bad = next(n for n in ck.dfg.nodes.values() if n.op == "binop")
        bad.attrs["opname"] = "**"
        with pytest.raises(
            ReproError, match=rf"node {bad.nid} .*operator '\*\*'"
        ):
            simulate(
                ck, params, arrays, ARCH, checkpoint=self._checkpoint(tmp_path)
            )
        assert list(tmp_path.iterdir()) == []
