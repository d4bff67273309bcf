"""Seeded random-kernel fuzzer + shrinker (``repro.check.fuzz``).

The fuzzer must be reproducible from ``(seed, index)`` alone, its
kernels must be valid terminating IR, the shrinker must preserve the
failing property while strictly reducing the kernel, and reproducers
must round-trip through plain JSON.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.check.fuzz import (
    ARRAY_SIZE,
    FUZZ_PARAMS,
    FuzzFailure,
    fuzz,
    fuzz_arrays,
    fuzz_case,
    load_reproducer,
    shrink_kernel,
    write_reproducer,
)
from repro.dfg.lower import lower_kernel
from repro.ir.ast import (
    ArraySpec,
    Assign,
    BinOp,
    Const,
    Kernel,
    Load,
    Store,
    Var,
    While,
    walk_stmts,
)
from repro.ir.interp import run_kernel
from repro.ir.serialize import kernel_from_dict, kernel_to_dict
from repro.ir.validate import validate_kernel


def gen(seed: int, index: int) -> Kernel:
    return fuzz_case(seed, index)[0]


# -- generator ---------------------------------------------------------------


def test_generation_is_deterministic():
    for index in range(8):
        a, b = gen(7, index), gen(7, index)
        assert kernel_to_dict(a) == kernel_to_dict(b)


def test_different_indices_differ():
    dicts = {json.dumps(kernel_to_dict(gen(0, i))) for i in range(12)}
    assert len(dicts) > 6  # genuinely distinct programs


@pytest.mark.parametrize("index", range(12))
def test_generated_kernels_are_valid_and_terminate(index):
    kernel, arrays = fuzz_case(1, index)
    validate_kernel(kernel)
    memory = run_kernel(kernel, FUZZ_PARAMS, arrays)
    assert set(memory) == {"A", "X"}
    assert all(len(v) == ARRAY_SIZE for v in memory.values())


def test_fuzz_arrays_are_in_bounds_indices():
    arrays = fuzz_arrays(random.Random(3))
    assert all(0 <= v < ARRAY_SIZE for v in arrays["X"])


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize("index", range(8))
def test_kernel_dict_round_trip(index):
    kernel = gen(2, index)
    data = kernel_to_dict(kernel)
    back = kernel_from_dict(data)
    assert kernel_to_dict(back) == data
    json.dumps(data)  # plain-JSON representable
    arrays = fuzz_arrays(random.Random(0))
    assert run_kernel(kernel, FUZZ_PARAMS, arrays) == run_kernel(
        back, FUZZ_PARAMS, arrays
    )


# -- shrinker ----------------------------------------------------------------


def bulky_kernel() -> Kernel:
    """Lots of chaff around one essential store."""
    return Kernel(
        "bulky",
        [],
        [ArraySpec("A", 8, "i"), ArraySpec("X", 8, "i")],
        [
            Assign("t0", Const(5)),
            Load("t1", "X", Const(1)),
            Assign("t2", BinOp("+", Var("t1"), Const(3))),
            Store("A", Const(2), Var("t2")),
            Store("A", Const(0), BinOp("*", Const(7), Const(6))),  # essential
            Load("t3", "X", Const(4)),
            Store("A", Const(5), Var("t3")),
        ],
    )


def test_shrink_preserves_property_and_reduces():
    def still_fails(kernel: Kernel) -> bool:
        memory = run_kernel(kernel, {}, {"X": [0] * 8})
        return memory["A"][0] == 42

    kernel = bulky_kernel()
    assert still_fails(kernel)
    shrunk = shrink_kernel(kernel, still_fails)
    assert still_fails(shrunk)
    assert len(shrunk.body) < len(kernel.body)
    # Greedy minimum for this property: the single essential store.
    assert len(shrunk.body) == 1
    assert isinstance(shrunk.body[0], Store)


def test_shrink_respects_budget():
    calls = 0

    def still_fails(kernel: Kernel) -> bool:
        nonlocal calls
        calls += 1
        return True  # everything "fails": worst case for the scanner

    shrink_kernel(bulky_kernel(), still_fails, budget=5)
    assert calls <= 5


def test_shrink_keeps_original_when_nothing_reduces():
    kernel = Kernel(
        "tight",
        [],
        [ArraySpec("A", 8, "i")],
        [Store("A", Const(0), Const(1))],
    )

    def still_fails(k: Kernel) -> bool:
        memory = run_kernel(k, {}, None)
        return memory["A"][0] == 1

    shrunk = shrink_kernel(kernel, still_fails)
    assert kernel_to_dict(shrunk) == kernel_to_dict(kernel)


def test_shrink_skips_candidates_the_lowering_refuses():
    """Dropping a ``while``'s increment leaves a loop-invariant condition.

    The IR interpreter runs that candidate (zero trips) but the lowering
    refuses it, so it must never reach ``still_fails``.
    """
    kernel = Kernel(
        "guarded",
        [],
        [ArraySpec("A", 8, "i")],
        [
            Assign("w", Const(0)),
            While(
                BinOp("<", Var("w"), Const(0)),
                [Assign("w", BinOp("+", Var("w"), Const(1)))],
            ),
            Store("A", Const(0), Const(1)),
        ],
    )

    def still_fails(k: Kernel) -> bool:
        lower_kernel(k)  # as the oracle does, through compile_once
        return any(isinstance(s, While) for s in walk_stmts(k.body))

    shrunk = shrink_kernel(kernel, still_fails)
    assert still_fails(shrunk)
    assert len(shrunk.body) < len(kernel.body)


def test_shrink_reaches_binop_operands():
    """The loop below must run at least once; ``w1 < 1`` is all that
    needs. Regression: only whole statement-level expressions were
    candidates, so the bound inside the condition stayed at 4."""
    kernel = Kernel(
        "bounded",
        [],
        [ArraySpec("A", 8, "i")],
        [
            Assign("w1", Const(0)),
            While(
                BinOp("<", Var("w1"), Const(4)),
                [
                    Store("A", Const(1), Const(1)),
                    Assign("w1", BinOp("+", Var("w1"), Const(1))),
                ],
            ),
        ],
    )

    def still_fails(k: Kernel) -> bool:
        loops = [s for s in walk_stmts(k.body) if isinstance(s, While)]
        return bool(loops) and run_kernel(k, {}, None)["A"][1] == 1

    shrunk = shrink_kernel(kernel, still_fails)
    (loop,) = [s for s in walk_stmts(shrunk.body) if isinstance(s, While)]
    assert loop.cond == BinOp("<", Var("w1"), Const(1))


# -- corpus reproducers ------------------------------------------------------


def test_reproducer_round_trip(tmp_path):
    kernel = gen(4, 0)
    failure = FuzzFailure(
        index=0, seed=4, kernel=kernel, shrunk=kernel, report=None
    )
    arrays = fuzz_arrays(random.Random(4 << 20))
    path = write_reproducer(tmp_path, failure, arrays)
    assert path.name == "fail-s4-k0.json"
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    loaded, params, loaded_arrays = load_reproducer(path)
    assert params == FUZZ_PARAMS
    assert loaded_arrays == arrays
    assert run_kernel(loaded, params, loaded_arrays) == run_kernel(
        kernel, params, arrays
    )


# -- end-to-end --------------------------------------------------------------


def test_bounded_fuzz_run_is_clean_and_deterministic():
    a = fuzz(12, seed=0, shrink=False)
    b = fuzz(12, seed=0, shrink=False)
    assert a.ok and b.ok
    assert (a.ran, a.skipped) == (b.ran, b.skipped)
    assert a.ran + a.skipped == 12
    assert a.ran > 0


def test_fuzz_progress_callback_sees_every_case():
    seen = []
    fuzz(5, seed=1, shrink=False, progress=lambda i, s, d: seen.append((i, s)))
    assert [i for i, _ in seen] == list(range(5))
    assert all(state in ("ok", "skip", "FAIL") for _, state in seen)


# -- skips and PnR findings --------------------------------------------------


def _one_case(count=1):
    """Progress lines and result of the first ``count`` seed-0 kernels."""
    lines = []
    result = fuzz(
        count, seed=0, shrink=False,
        progress=lambda i, s, d: lines.append((i, s, d)),
    )
    return lines, result


def test_a_kernel_over_fabric_capacity_is_skipped_by_class():
    """Seed 0's kernel 5 has more nodes than the fabric has PEs."""
    lines, result = _one_case(6)
    assert lines[5][:2] == (5, "skip")
    assert lines[5][2].startswith("PlacementError: ")
    assert "exceed fabric capacity" in lines[5][2]
    assert result.skips == {"PlacementError": 1} and result.skipped == 1
    assert result.ran == 5 and result.ok


def test_an_unroutable_kernel_is_skipped_as_a_routing_error(monkeypatch):
    import repro.pnr.flow as flow
    from repro.errors import RoutingError

    def unroutable(*args, **kwargs):
        raise RoutingError("unroutable: 3 channels over capacity")

    monkeypatch.setattr(flow, "route_design", unroutable)
    lines, result = _one_case()
    assert lines == [(0, "skip", "RoutingError: unroutable: 3 channels "
                      "over capacity")]
    assert result.skips == {"RoutingError": 1} and result.ok


def test_a_pnr_self_check_failure_is_a_finding(monkeypatch, tmp_path):
    """A wrong answer from PnR is shrunk and written, never skipped."""
    import repro.pnr.flow as flow
    from repro.errors import PnRVerifyError

    def wrong(netlist, placement, channels, check=False):
        assert check  # the fuzzer compiles with both references armed
        raise PnRVerifyError("net 0: the bounded search differs", net=0)

    monkeypatch.setattr(flow, "route_design", wrong)
    seen = []
    result = fuzz(
        1, seed=0, corpus_dir=tmp_path, shrink=True,
        progress=lambda i, s, d: seen.append((s, d)),
    )
    assert seen[0][0] == "FAIL" and "PnRVerifyError: net 0" in seen[0][1]
    assert result.skipped == 0 and not result.ok
    (failure,) = result.failures
    (divergence,) = failure.report.divergences
    assert (divergence.kind, divergence.layers) == ("protocol", ("pnr",))
    # Shrunk: every reduction still fails the same way.
    assert len(failure.shrunk.body) < len(failure.kernel.body)
    payload = json.loads(failure.path.read_text())
    assert payload["report"]["divergences"][0]["layers"] == ["pnr"]


def test_any_error_of_a_lower_layer_is_a_finding(monkeypatch, tmp_path):
    """A simulator that raises a kernel's fault (the division by zero of
    :mod:`repro.isa`) is shrunk and written, never a traceback."""
    import repro.check.oracle as oracle
    from repro.errors import KernelFault

    def broken(*args, **kwargs):
        raise KernelFault("integer division by zero in kernel")

    monkeypatch.setattr(oracle, "simulate", broken)
    result = fuzz(1, seed=0, corpus_dir=tmp_path)
    assert result.ran == 1 and not result.ok
    (failure,) = result.failures
    (divergence,) = failure.report.divergences
    assert (divergence.kind, divergence.layers) == ("protocol", ("sim",))
    assert len(failure.shrunk.body) < len(failure.kernel.body)
    payload = json.loads(failure.path.read_text())
    assert payload["report"]["divergences"][0]["detail"] == (
        "KernelFault: integer division by zero in kernel"
    )
