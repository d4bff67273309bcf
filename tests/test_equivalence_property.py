"""Property-based lowering equivalence.

Hypothesis draws a seed ``S`` and :class:`repro.check.fuzz.KernelGen` —
the one random-kernel generator — builds the kernel and inputs that
``repro check --fuzz 1 --seed S`` checks (and shrinks on a failure):
loops, branches, loads, stores over shared arrays. The IR interpreter
and the untimed DFG interpreter must produce identical final memory
under several firing orders. This is the
strongest check on the steering-control lowering: any token cadence bug
shows up as a wrong value, a token leak, or a stuck protocol state on
some program in this space. The examples are derandomized, so a run
either always trips on a lowering defect or never does.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.fuzz import FUZZ_PARAMS, fuzz_case
from repro.dfg.interp import run_dfg
from repro.dfg.lower import lower_kernel
from repro.ir.interp import run_kernel

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
DERANDOMIZED = settings(deadline=None, derandomize=True)


@settings(DERANDOMIZED, max_examples=120)
@given(seed=SEEDS)
def test_lowering_equivalence(seed):
    kernel, arrays = fuzz_case(seed, 0)
    reference = run_kernel(kernel, FUZZ_PARAMS, arrays)
    dfg = lower_kernel(kernel)
    for order in ("fifo", "lifo", "random"):
        got = run_dfg(dfg, FUZZ_PARAMS, arrays, order=order, seed=seed)
        assert got.memory == reference


@settings(DERANDOMIZED, max_examples=40)
@given(seed=SEEDS)
def test_serialize_mode_equivalence(seed):
    kernel, arrays = fuzz_case(seed, 0)
    reference = run_kernel(kernel, FUZZ_PARAMS, arrays)
    dfg = lower_kernel(kernel, mem_mode="serialize")
    got = run_dfg(dfg, FUZZ_PARAMS, arrays, order="random", seed=seed)
    assert got.memory == reference


@settings(DERANDOMIZED, max_examples=40)
@given(seed=SEEDS, degree=st.integers(min_value=2, max_value=4))
def test_parallelize_then_lower_equivalence(seed, degree):
    from repro.ir.transform import parallelize

    kernel, arrays = fuzz_case(seed, 0)
    reference = run_kernel(kernel, FUZZ_PARAMS, arrays)
    dfg = lower_kernel(parallelize(kernel, degree))
    got = run_dfg(dfg, FUZZ_PARAMS, arrays, order="random", seed=seed)
    assert got.memory == reference
