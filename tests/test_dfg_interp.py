"""Unit tests for the untimed DFG interpreter."""

import pytest

from repro.dfg.graph import DFG, ImmRef, PortRef
from repro.dfg.interp import run_dfg
from repro.dfg.lower import lower_kernel
from repro.errors import DFGError, ReproError
from repro.ir.interp import run_kernel

from kernels import ZOO, zoo_instance


@pytest.mark.parametrize("name", sorted(ZOO))
@pytest.mark.parametrize("order", ["fifo", "lifo", "random"])
def test_matches_ir_interpreter(name, order):
    kernel, params, arrays = zoo_instance(name)
    reference = run_kernel(kernel, params, arrays)
    dfg = lower_kernel(kernel)
    got = run_dfg(dfg, params, arrays, order=order, seed=123)
    assert got.memory == reference


def test_random_order_is_seed_deterministic():
    kernel, params, arrays = zoo_instance("join")
    dfg = lower_kernel(kernel)
    a = run_dfg(dfg, params, arrays, order="random", seed=5)
    b = run_dfg(dfg, params, arrays, order="random", seed=5)
    assert a.memory == b.memory
    assert a.firings == b.firings


def test_unknown_order_rejected():
    kernel, params, arrays = zoo_instance("dot")
    dfg = lower_kernel(kernel)
    with pytest.raises(DFGError, match="scheduling order"):
        run_dfg(dfg, params, arrays, order="spooky")


def test_firing_stats_reported():
    kernel, params, arrays = zoo_instance("dot")
    dfg = lower_kernel(kernel)
    result = run_dfg(dfg, params, arrays)
    assert result.firings["load"] == 16  # 8 x-loads + 8 y-loads
    assert result.firings["store"] == 1
    assert result.total_firings > 17


def test_firing_safety_limit():
    kernel, params, arrays = zoo_instance("dot")
    dfg = lower_kernel(kernel)
    with pytest.raises(DFGError, match="safety limit"):
        run_dfg(dfg, params, arrays, max_firings=10)


def test_token_leak_detected():
    # A hand-built graph where the source token is never consumed by a
    # firing node: binop waits forever on its second input.
    dfg = DFG("leak")
    src = dfg.add("source", [])
    pending = dfg.add("binop", [PortRef(src), PortRef(src)], opname="+")
    blocked = dfg.add("binop", [PortRef(pending), PortRef(99)], opname="+")
    dfg.nodes[blocked].inputs[1] = PortRef(blocked)  # self-loop, no token
    with pytest.raises(DFGError, match="token leak"):
        run_dfg(dfg)


def test_unbound_parameter_raises_before_the_first_firing():
    # max_firings=0 makes any firing raise the safety-limit error, so
    # seeing the parameter error proves nothing fired first (rules — and
    # their immediates — are compiled before the scheduling loop).
    kernel, _params, arrays = zoo_instance("dot")
    dfg = lower_kernel(kernel)
    with pytest.raises(DFGError, match=r"node \d+ .*unbound.*'n'"):
        run_dfg(dfg, {}, arrays, max_firings=0)


def test_unknown_operator_raises_before_the_first_firing():
    dfg = DFG("badop")
    src = dfg.add("source", [])
    bad = dfg.add("binop", [PortRef(src), ImmRef("const", 2)], opname="**")
    with pytest.raises(ReproError, match=rf"node {bad} .*operator '\*\*'"):
        run_dfg(dfg, max_firings=0)


def test_array_size_mismatch_rejected():
    kernel, params, arrays = zoo_instance("dot")
    dfg = lower_kernel(kernel)
    with pytest.raises(DFGError, match="words"):
        run_dfg(dfg, params, {"x": [1]})


def test_undeclared_array_name_rejected():
    """A misspelt input must not run on zeros."""
    kernel, params, arrays = zoo_instance("dot")
    dfg = lower_kernel(kernel)
    with pytest.raises(
        DFGError, match=r"\['X'\] are not declared by kernel 'dot' "
        r"\(declared: \['out', 'x', 'y'\]\)"
    ):
        run_dfg(dfg, params, {"X": arrays["x"], "y": arrays["y"]})


def test_out_of_bounds_index_rejected():
    kernel, params, _ = zoo_instance("chase")
    dfg = lower_kernel(kernel)
    with pytest.raises(DFGError, match="out of bounds"):
        run_dfg(dfg, {"steps": 3}, {"next": [100] * 8})


def test_zero_initialized_arrays_respect_dtype():
    from repro.ir.builder import KernelBuilder

    b = KernelBuilder("f0")
    x = b.array("x", 2, "f")
    y = b.array("y", 1, "f")
    y.store(0, x.load(0))
    dfg = lower_kernel(b.build())
    result = run_dfg(dfg)
    assert result.memory["y"] == [0.0]
    assert isinstance(result.memory["y"][0], float)


def test_inputs_not_mutated():
    kernel, params, arrays = zoo_instance("parphases")
    dfg = lower_kernel(kernel)
    original = list(arrays["A"])
    run_dfg(dfg, params, arrays)
    assert arrays["A"] == original
