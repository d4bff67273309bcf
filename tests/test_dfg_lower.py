"""Unit tests for IR -> DFG lowering."""

import itertools
from pathlib import Path

import pytest

from repro.check.fuzz import CONDITIONS, FUZZ_PARAMS, load_reproducer
from repro.check.lint import lint_dfg
from repro.check.oracle import DEFAULT_ORDERS
from repro.dfg.graph import ImmRef, PortRef
from repro.dfg.interp import run_dfg
from repro.dfg.lower import eliminate_dead, lower_kernel, mem_token_var
from repro.errors import DFGError, LoweringError
from repro.ir.ast import (
    ArraySpec, Assign, BinOp, Const, For, If, Kernel, Load, Store, Var,
)
from repro.ir.builder import KernelBuilder
from repro.ir.interp import run_kernel

from kernels import zoo_instance


def ops_of(dfg, op):
    return [n for n in dfg.nodes.values() if n.op == op]


def test_constant_folding_leaves_no_const_nodes():
    b = KernelBuilder("fold")
    y = b.array("y", 1)
    v = b.let("v", 2 + 3)
    b.set(v, v * 4)
    y.store(0, v)
    dfg = lower_kernel(b.build())
    # 2+3 and (2+3)*4 fold to immediates: no binops survive.
    assert not ops_of(dfg, "binop")


def test_cse_dedupes_identical_binops():
    b = KernelBuilder("cse", params=["n"])
    x = b.array("x", 8)
    y = b.array("y", 8)
    with b.for_("i", 0, b.p.n) as i:
        a = x.load(i + 1)
        c = x.load(i + 1)  # same index expression
        y.store(i, a + c)
    dfg = lower_kernel(b.build())
    adds = [
        n for n in ops_of(dfg, "binop") if n.attrs["opname"] == "+"
    ]
    # i+1 is CSE'd to a single node (plus the loop increment and a+c).
    index_adds = [
        n for n in adds if any(isinstance(i, ImmRef) for i in n.inputs)
    ]
    assert len(index_adds) <= 2


def test_while_creates_carries_and_exit_steers():
    kernel, params, arrays = zoo_instance("join")
    dfg = lower_kernel(kernel)
    carries = ops_of(dfg, "carry")
    assert len(carries) >= 3  # ia, ib, cnt
    steers = ops_of(dfg, "steer")
    assert any(s.tag.startswith("exit:") for s in steers)


def test_if_creates_merges():
    kernel, params, arrays = zoo_instance("branchy")
    dfg = lower_kernel(kernel)
    assert ops_of(dfg, "merge")


def test_no_carry_has_immediate_init():
    for name in ("dot", "join", "branchy", "nested", "zerotrip"):
        kernel, _, _ = zoo_instance(name)
        dfg = lower_kernel(kernel)
        for carry in ops_of(dfg, "carry"):
            assert isinstance(carry.inputs[0], PortRef), carry.tag


def test_loop_invariant_while_condition_rejected():
    b = KernelBuilder("inv", params=["n"])
    y = b.array("y", 1)
    i = b.let("i", 0)
    with b.while_(b.p.n > 0):  # body never changes the condition
        b.set(i, i + 1)
    y.store(0, i)
    with pytest.raises(LoweringError, match="loop-invariant"):
        lower_kernel(b.build())


def test_constant_true_if_folds_to_taken_branch():
    b = KernelBuilder("cfold")
    y = b.array("y", 1)
    with b.if_(1 < 2):
        y.store(0, 7)
    with b.else_():
        y.store(0, 9)
    dfg = lower_kernel(b.build())
    assert len(ops_of(dfg, "store")) == 1
    got = run_dfg(dfg)
    assert got.memory["y"] == [7]


def test_mem_ordering_raw_chains_stores():
    kernel, params, arrays = zoo_instance("nested")
    dfg = lower_kernel(kernel, mem_mode="raw")
    stores = ops_of(dfg, "store")
    loads = ops_of(dfg, "load")
    assert all(s.attrs["has_ord"] for s in stores)
    assert all(ld.attrs["has_ord"] for ld in loads)


def test_mem_ordering_readonly_arrays_unordered():
    kernel, params, arrays = zoo_instance("dot")
    dfg = lower_kernel(kernel, mem_mode="raw")
    for node in dfg.memory_nodes():
        if node.op == "load":  # x and y are never stored
            assert not node.attrs["has_ord"]


def test_serialize_mode_chains_loads_too():
    kernel, params, arrays = zoo_instance("nested")
    ref = run_kernel(kernel, params, arrays)
    dfg = lower_kernel(kernel, mem_mode="serialize")
    got = run_dfg(dfg, params, arrays, order="random", seed=3)
    assert got.memory == ref


def test_unknown_mem_mode_rejected():
    kernel, _, _ = zoo_instance("dot")
    with pytest.raises(LoweringError, match="memory-ordering mode"):
        lower_kernel(kernel, mem_mode="chaos")


def test_mem_token_var_name():
    assert mem_token_var("A") == "__mem$A"


def test_dce_removes_unused_computation():
    b = KernelBuilder("dce", params=["n"])
    x = b.array("x", 8)
    y = b.array("y", 1)
    dead = b.let("dead", 0)
    with b.for_("i", 0, b.p.n) as i:
        b.set(dead, dead + x.load(i))  # never stored
    y.store(0, 5)
    dfg = lower_kernel(b.build())
    assert not ops_of(dfg, "load")
    assert not ops_of(dfg, "carry")


def test_dce_keeps_store_dependencies():
    kernel, params, arrays = zoo_instance("dot")
    dfg = lower_kernel(kernel)
    removed = eliminate_dead(dfg)
    assert removed == 0  # already clean after lowering


def test_kernel_without_stores_left_intact():
    b = KernelBuilder("nostore", params=["n"])
    x = b.array("x", 4)
    x.load(0)
    dfg = lower_kernel(b.build())
    assert len(dfg) > 0


def test_lowered_params_recorded():
    kernel, _, _ = zoo_instance("dot")
    dfg = lower_kernel(kernel)
    assert dfg.params == ["n"]
    assert set(dfg.arrays) == {"x", "y", "out"}


def test_loop_metadata_tracks_nesting():
    kernel, _, _ = zoo_instance("nested")
    dfg = lower_kernel(kernel)
    parents = dfg.loops_parent
    assert len(parents) == 2
    inner = [k for k, v in parents.items() if v is not None]
    assert len(inner) == 1
    depths = {n.depth for n in dfg.nodes.values()}
    assert 2 in depths  # inner-loop body nodes


def test_every_lowered_graph_validates():
    for name in (
        "dot", "join", "branchy", "nested", "zerotrip", "parphases",
        "storeonly", "chase",
    ):
        kernel, _, _ = zoo_instance(name)
        dfg = lower_kernel(kernel)
        dfg.validate()  # raises on violation


def test_store_with_constant_operands_gets_trigger():
    kernel, params, arrays = zoo_instance("storeonly")
    ref = run_kernel(kernel, params, arrays)
    dfg = lower_kernel(kernel)
    got = run_dfg(dfg, params, arrays)
    assert got.memory == ref


def test_par_join_inserted_between_phases():
    from repro.ir.transform import parallelize

    kernel, params, arrays = zoo_instance("parphases")
    dfg = lower_kernel(parallelize(kernel, 3))
    joins = ops_of(dfg, "join")
    assert joins, "expected a memory-token join after the first parfor"


def test_loop_under_untaken_branch_does_not_leak_carry_init():
    """A loop nested in an If arm consumes its carry inits at arm cadence.

    Regression: a variable *written* (but never read) by a loop inside a
    branch arm was not gated into the arm, so its carry init token arrived
    even when the other arm was taken and wedged in the loop's ``exit:``
    steer. The trigger needs the variable bound to a real node (not an
    immediate) — here CSE shares it with the If condition, which is how
    the property test originally found it.
    """
    shared = BinOp("+", BinOp("+", Const(0), Const(0)),
                   BinOp("+", Const(0), Var("n")))
    zero = BinOp("+", Const(0), Const(0))
    kernel = Kernel(
        name="leak",
        params=["n"],
        arrays=[ArraySpec("A", 4, "i")],
        body=[
            Assign("v", shared),
            If(
                cond=shared,
                then_body=[Assign("v", zero)],
                else_body=[
                    For("i", Const(0), Const(0), Const(1),
                        body=[Assign("v", zero)])
                ],
            ),
            Store("A", Const(0), BinOp("+", Const(0), Var("v"))),
        ],
    )
    params = {"n": 3}  # truthy: then taken, the For's arm is dead
    arrays = {"A": [7, 7, 7, 7]}
    ref = run_kernel(kernel, params, arrays)
    dfg = lower_kernel(kernel)
    for order in ("fifo", "lifo", "random"):
        got = run_dfg(dfg, params, arrays, order=order, seed=0)
        assert got.memory == ref  # and quiescence found no leaked tokens


def test_inject_takes_its_triggers_loop():
    """An ``inject`` fires once per token of its trigger, so it belongs
    to the trigger's region. Regression: it took the loop being lowered,
    so the carry init of ``i`` below, triggered by the launch ``source``
    (loop ``None``), was tagged with the loop it initializes."""
    kernel = Kernel(
        name="inject_tag",
        params=[],
        arrays=[ArraySpec("A", 4, "i")],
        body=[
            For("i", Const(0), Const(3), Const(1),
                body=[Store("A", Var("i"), Var("i"))]),
        ],
    )
    dfg = lower_kernel(kernel)
    injects = ops_of(dfg, "inject")
    assert any(node.tag == "inj:0" for node in injects)
    for node in injects:
        (trigger,) = node.inputs
        assert node.attrs["loop"] == dfg.nodes[trigger.src].attrs["loop"]


@pytest.mark.parametrize("order", DEFAULT_ORDERS)
def test_nested_if_partial_write_family(order):
    """A variable one arm of a nested ``If`` writes is read by the arm.

    The family: ``v0`` is loaded, then reassigned in one arm of an inner
    ``If`` that sits in either arm of an outer ``If``; each condition is
    ``0``, ``1``, ``n`` or ``0*n``, and the inner arms come in both
    orders. Regression: the enclosing arm did not gate the incoming
    binding of ``v0``, so the nested ``gate:`` steer or the outer
    ``phi:`` merge received a token on every run that skipped the arm:
    a leak in 12 of the 64 kernels.
    """
    from repro.ir.pretty import format_kernel

    arrays = {"A": list(range(8)), "X": [(i * 5 + 2) % 9 for i in range(8)]}
    wrong = []
    for outer, inner, swap, nest_in_else in itertools.product(
        CONDITIONS, CONDITIONS, (False, True), (False, True)
    ):
        arms = [[Assign("v0", Const(0))], [Store("A", Const(0), Const(0))]]
        nested = If(inner, *arms[::-1 if swap else 1])
        outer_arms = [[nested], [Assign("v0", Const(0))]]
        kernel = Kernel(
            "partial_write",
            ["n"],
            [ArraySpec("A", 8), ArraySpec("X", 8)],
            [
                Load("v0", "X", Const(1)),
                If(outer, *outer_arms[::-1 if nest_in_else else 1]),
                Store("A", Const(0), Var("v0")),
            ],
        )
        reference = run_kernel(kernel, FUZZ_PARAMS, arrays)
        dfg = lower_kernel(kernel)
        try:
            got = run_dfg(dfg, FUZZ_PARAMS, arrays, order=order).memory
        except DFGError as error:
            got = error
        if got != reference:
            wrong.append(f"{format_kernel(kernel)}-> {got}")
    assert not wrong, "\n".join(wrong)


CORPUS = Path(__file__).parent / "data" / "corpus"


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.json")))
def test_corpus_reproducer_lowers_clean(name):
    """Each pinned lowering bug agrees with the IR and lints clean.

    * ``nested-if-partial-write``: a kernel of the family above;
    * ``ctl-steer-region``: an arm's ``ctlT`` steer, first built for the
      carry init of a ``for`` in that arm, took the ``for``'s loop region
      (shrunk from kernel 128 of ``repro check --fuzz --seed 11`` before
      the generator was widened).
    """
    kernel, params, arrays = load_reproducer(CORPUS / name)
    reference = run_kernel(kernel, params, arrays)
    dfg = lower_kernel(kernel)
    assert lint_dfg(dfg) == []
    for order in DEFAULT_ORDERS:
        got = run_dfg(dfg, params, arrays, order=order, seed=0)
        assert got.memory == reference
