"""Unit tests for the IR reference interpreter."""

import pytest

from repro.errors import DFGError, IRError, KernelFault
from repro.ir.builder import KernelBuilder
from repro.ir.interp import run_kernel

from kernels import zoo_instance


def test_zoo_expected_values():
    kernel, params, arrays = zoo_instance("dot")
    assert run_kernel(kernel, params, arrays)["out"] == [56]

    kernel, params, arrays = zoo_instance("join")
    assert run_kernel(kernel, params, arrays)["O"] == [3]

    kernel, params, arrays = zoo_instance("chase")
    # 0 -> 3 -> 7 -> 6 -> 5 -> 4
    assert run_kernel(kernel, params, arrays)["out"] == [4]


def test_branch_semantics():
    kernel, params, arrays = zoo_instance("branchy")
    out = run_kernel(kernel, params, arrays)["y"]
    expected = [(v - 2) * 2 if v > 2 else -v + 1 for v in arrays["x"]]
    assert out == expected


def test_zero_trip_loops():
    kernel, params, arrays = zoo_instance("zerotrip")
    assert run_kernel(kernel, params, arrays)["y"] == [0, 3, 0, 10]


def test_missing_param_raises():
    kernel, params, arrays = zoo_instance("dot")
    with pytest.raises(IRError, match="missing kernel parameters"):
        run_kernel(kernel, {}, arrays)


def test_wrong_array_length_raises():
    kernel, params, arrays = zoo_instance("dot")
    with pytest.raises(IRError, match="words"):
        run_kernel(kernel, params, {"x": [1, 2]})


def test_undeclared_array_name_raises():
    """A misspelt input must not run on zeros."""
    kernel, params, arrays = zoo_instance("dot")
    arrays = {**arrays, "X": arrays["x"], "z": [0]}
    with pytest.raises(
        IRError, match=r"\['X', 'z'\] are not declared by kernel 'dot' "
        r"\(declared: \['out', 'x', 'y'\]\)"
    ):
        run_kernel(kernel, params, arrays)


def test_missing_arrays_zero_initialized():
    kernel, params, _ = zoo_instance("dot")
    out = run_kernel(kernel, params)
    assert out["out"] == [0]


def test_out_of_bounds_load_raises():
    b = KernelBuilder("oob")
    a = b.array("A", 2)
    a.load(5)
    with pytest.raises(KernelFault, match="out of bounds"):
        run_kernel(b.build())


def test_out_of_bounds_store_raises():
    b = KernelBuilder("oob")
    a = b.array("A", 2)
    a.store(-1, 0)
    with pytest.raises(KernelFault, match="out of bounds"):
        run_kernel(b.build())


def test_non_integer_index_raises():
    b = KernelBuilder("fidx")
    a = b.array("A", 4)
    x = b.let("x", 2.5)
    a.load(x)
    with pytest.raises(KernelFault, match="non-integer"):
        run_kernel(b.build())


def test_a_running_kernels_faults_share_one_class():
    """An IR run reports a bad index and a division by zero with the one
    class the DFG executors raise, which is no level's error."""
    b = KernelBuilder("div0")
    a = b.array("A", 1)
    zero = b.let("zero", 0)
    a.store(0, b.let("q", 1) // zero)
    with pytest.raises(KernelFault, match="division by zero"):
        run_kernel(b.build())
    assert not issubclass(KernelFault, (IRError, DFGError))


def test_float_arrays():
    b = KernelBuilder("fsum", params=["n"])
    x = b.array("x", 4, "f")
    out = b.array("out", 1, "f")
    acc = b.let("acc", 0.0)
    with b.for_("i", 0, b.p.n) as i:
        b.set(acc, acc + x.load(i))
    out.store(0, acc)
    got = run_kernel(b.build(), {"n": 4}, {"x": [0.5, 0.25, 0.125, 1.0]})
    assert got["out"] == [1.875]


def test_caller_arrays_not_mutated():
    kernel, params, arrays = zoo_instance("parphases")
    original = list(arrays["A"])
    run_kernel(kernel, params, arrays)
    assert arrays["A"] == original


def test_for_loop_step():
    b = KernelBuilder("stepper", params=["n"])
    y = b.array("y", 10)
    with b.for_("i", 0, b.p.n, step=3) as i:
        y.store(i, 1)
    got = run_kernel(b.build(), {"n": 10})
    assert got["y"] == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_runtime_nonpositive_step_raises():
    b = KernelBuilder("badstep", params=["s"])
    y = b.array("y", 4)
    with b.for_("i", 0, 4, step=b.p.s) as i:
        y.store(i, 1)
    with pytest.raises(IRError, match="step"):
        run_kernel(b.build(), {"s": 0})


def test_par_blocks_do_not_share_scalars():
    from repro.ir.ast import Assign, Const, Par, Store

    b = KernelBuilder("parscope")
    y = b.array("y", 2)
    b.emit(
        Par(
            [
                [Assign("t", Const(1)), Store("y", Const(0), Const(1))],
                [Assign("t", Const(2)), Store("y", Const(1), Const(2))],
            ]
        )
    )
    got = run_kernel(b.build(validate=False))
    assert got["y"] == [1, 2]


def test_iteration_safety_limit():
    b = KernelBuilder("forever")
    out = b.array("out", 1)
    i = b.let("i", 0)
    with b.while_(i < 10):
        b.set(i, i * 1)  # never advances
    out.store(0, i)
    with pytest.raises(IRError, match="safety limit"):
        run_kernel(b.build(), max_iterations=1000)
