"""Property test: the timed simulator agrees with the IR interpreter.

The strongest end-to-end check: random structured programs go through the
entire stack — parallelization-free lowering, criticality analysis,
NUPEA-aware PnR, cycle-level simulation with the Monaco fabric-memory NoC
— and must produce exactly the reference memory.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, SimParams
from repro.check.fuzz import FUZZ_PARAMS, fuzz_case
from repro.core.policy import EFFCC
from repro.errors import PnRError
from repro.ir.interp import run_kernel
from repro.pnr.flow import compile_once
from repro.sim.engine import simulate

FABRIC = monaco(12, 12)


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fifo=st.sampled_from([2, 3, 4]),
    outstanding=st.sampled_from([1, 2, 4]),
)
def test_timed_simulation_equivalence(seed, fifo, outstanding):
    kernel, arrays = fuzz_case(seed, 0)
    reference = run_kernel(kernel, FUZZ_PARAMS, arrays)
    arch = ArchParams(
        sim=SimParams(fifo_capacity=fifo, max_outstanding=outstanding)
    )
    try:
        compiled = compile_once(
            kernel, FABRIC, arch, EFFCC, parallelism=1, anneal_moves=2000
        )
    except PnRError:
        assume(False)
        return
    result = simulate(compiled, FUZZ_PARAMS, arrays, arch)
    assert result.memory == reference
