"""Deeper engine invariants: backpressure, response ordering, hop counts."""

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, MemoryParams, SimParams
from repro.core.policy import EFFCC
from repro.dfg.graph import DFG, ImmRef, PortRef
from repro.pnr.flow import compile_once
from repro.sim.engine import _Engine, simulate  # noqa: F401
from repro.sim.upea import UniformFrontend

from kernels import zoo_instance

ARCH = ArchParams()
FABRIC = monaco(12, 12)


def compiled(name, arch=ARCH, **kwargs):
    kernel, params, arrays = zoo_instance(name)
    ck = compile_once(kernel, FABRIC, arch, EFFCC, **kwargs)
    return ck, params, arrays


class InstrumentedEngineTest:
    pass


def test_fifo_capacity_never_exceeded():
    arch = ArchParams(sim=SimParams(fifo_capacity=2))
    ck, params, arrays = compiled("join", arch=arch)

    # Wrap the engine's commit to check occupancy after every push.
    from repro.sim import engine as engine_mod

    original = engine_mod._Engine.commit_pushes
    violations = []

    def checked(self, pushes):
        original(self, pushes)
        for row in self.fifos:
            for queue in row:
                if queue is not None and len(queue) > self.capacity:
                    violations.append(len(queue))

    engine_mod._Engine.commit_pushes = checked
    try:
        result = simulate(ck, params, arrays, arch)
    finally:
        engine_mod._Engine.commit_pushes = original
    assert result.memory["O"] == [3]
    assert not violations


def test_responses_delivered_in_issue_order():
    # Strided accesses hit alternating banks with different hit/miss
    # latencies; the PE must still emit responses in issue order.
    from repro.ir.builder import KernelBuilder
    from repro.ir.interp import run_kernel

    b = KernelBuilder("strided", params=["n"])
    x = b.array("x", 512)
    y = b.array("y", 32)
    with b.for_("i", 0, b.p.n) as i:
        # Alternate between a hot line and cold lines.
        a = x.load(i % 4)
        c = x.load(i * 16)
        y.store(i, a * 100 + c)
    kernel = b.build()
    params = {"n": 32}
    arrays = {"x": [i % 97 for i in range(512)]}
    reference = run_kernel(kernel, params, arrays)
    ck = compile_once(kernel, FABRIC, ARCH, EFFCC, parallelism=1)
    result = simulate(ck, params, arrays, ARCH)
    assert result.memory["y"] == reference["y"]


def test_max_outstanding_limits_pipelining():
    ck, params, arrays = compiled("dot")
    shallow = ArchParams(sim=SimParams(max_outstanding=1))
    deep = ArchParams(sim=SimParams(fifo_capacity=4, max_outstanding=4))
    slow = simulate(ck, params, arrays, shallow)
    fast = simulate(ck, params, arrays, deep)
    assert fast.stats.system_cycles <= slow.stats.system_cycles


def test_noc_hops_scale_with_placement_spread():
    ck, params, arrays = compiled("join")
    result = simulate(ck, params, arrays, ARCH)
    # Every token transfer crosses at least its Manhattan distance; a
    # design with all nodes adjacent would have hops ~= token count.
    assert result.stats.noc_hops >= 0
    total_tokens = sum(
        result.stats.firings.get(op, 0)
        for op in ("binop", "unop", "steer", "carry", "merge")
    )
    assert result.stats.noc_hops < total_tokens * FABRIC.rows * 4


def test_cache_capacity_pressure_increases_misses():
    tiny_cache = ArchParams(
        memory=MemoryParams(cache_lines=2), sim=SimParams()
    )
    ck, params, arrays = compiled("dot")
    cold = simulate(ck, params, arrays, tiny_cache)
    warm = simulate(ck, params, arrays, ARCH)
    assert cold.stats.mem.misses >= warm.stats.mem.misses
    assert cold.stats.system_cycles >= warm.stats.system_cycles


def test_zero_memory_kernel_terminates():
    # A store-only kernel with constant data exercises the
    # inject/source plumbing without loads.
    ck, params, arrays = compiled("storeonly")
    result = simulate(ck, params, arrays, ARCH)
    assert result.memory["y"] == [1, 4, 7, 10]
    assert result.stats.mem.loads == 0


def test_engine_rejects_bad_array_lengths():
    from repro.errors import SimulationError

    ck, params, arrays = compiled("dot")
    with pytest.raises(SimulationError, match="words"):
        simulate(ck, params, {"x": [1, 2, 3]}, ARCH)


def test_uniform_frontend_delay_is_in_system_cycles():
    ck, params, arrays = compiled("chase")
    lat = {}
    for delay in (0, 6):
        res = simulate(
            ck, params, arrays, ARCH, divider=2,
            frontend_factory=lambda f, a, d=delay: UniformFrontend(d),
        )
        lat[delay] = res.stats.load_latency["A"].mean
    # The pointer chase's critical-load latency absorbs the full delay.
    assert lat[6] - lat[0] == pytest.approx(6, abs=2.1)


def test_edge_hops_fallback_for_unrouted_edges():
    # Build a compiled kernel, then clear its routing info: the engine
    # must fall back to Manhattan distances, not crash.
    ck, params, arrays = compiled("dot")
    ck.routing.sink_hops = {}
    result = simulate(ck, params, arrays, ARCH)
    assert result.stats.noc_hops > 0
