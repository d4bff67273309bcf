"""Three-level equivalence for every Table 1 workload.

IR interpreter == untimed DFG interpreter (several firing orders and
parallelism degrees) == timed Monaco simulation. This is the repository's
central correctness claim (DESIGN.md).
"""

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC
from repro.dfg.interp import run_dfg
from repro.dfg.lower import lower_kernel
from repro.ir.transform import parallelize
from repro.pnr.flow import compile_kernel
from repro.sim.engine import simulate
from repro.workloads.registry import ALL_WORKLOADS, make_workload


@pytest.mark.parametrize("name", ALL_WORKLOADS)
@pytest.mark.parametrize("degree", [1, 2])
def test_dfg_interpreter_matches_reference(name, degree):
    inst = make_workload(name, scale="tiny")
    dfg = lower_kernel(parallelize(inst.kernel, degree))
    for order in ("fifo", "lifo", "random"):
        result = run_dfg(
            dfg, inst.params, inst.arrays, order=order, seed=17
        )
        inst.check(result.memory)


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_timed_simulation_matches_reference(name):
    inst = make_workload(name, scale="tiny")
    arch = ArchParams()
    compiled = compile_kernel(
        inst.kernel, monaco(12, 12), arch, policy=EFFCC, seed=1
    )
    result = simulate(compiled, inst.params, inst.arrays, arch)
    inst.check(result.memory)
    assert result.stats.system_cycles > 0
    assert result.stats.mem.loads > 0


@pytest.mark.parametrize("name", ["spmspv", "fft", "mergesort"])
def test_serialize_mode_matches_reference(name):
    inst = make_workload(name, scale="tiny")
    dfg = lower_kernel(inst.kernel, mem_mode="serialize")
    result = run_dfg(dfg, inst.params, inst.arrays, order="random", seed=5)
    inst.check(result.memory)
