"""Reference interpreter for the kernel IR.

Executes kernels directly over Python scalars and list-backed arrays. This
is the semantic ground truth that both the dataflow lowering and the timed
simulator are validated against (see DESIGN.md, "three-level equivalence").
"""

from __future__ import annotations

from repro.errors import IRError, KernelFault
from repro.ir.ast import (
    Assign,
    BinOp,
    Const,
    Expr,
    For,
    If,
    Kernel,
    Load,
    Par,
    ParFor,
    Select,
    Stmt,
    Store,
    UnOp,
    Var,
    While,
)
from repro.isa import apply_binop, apply_unop, launch_memory, truthy

#: Safety net against kernels that never terminate.
MAX_LOOP_ITERATIONS = 50_000_000


def run_kernel(
    kernel: Kernel,
    params: dict[str, int | float] | None = None,
    arrays: dict[str, list] | None = None,
    counts: dict[str, int] | None = None,
    max_iterations: int = MAX_LOOP_ITERATIONS,
) -> dict[str, list]:
    """Execute ``kernel`` and return its final array state.

    ``arrays`` supplies initial contents (copied; the caller's lists are not
    mutated). Missing arrays are zero-initialized at their declared size;
    a name the kernel does not declare raises :class:`IRError`.
    ``counts``, when given, is filled with dynamic operation counts
    (``load``/``store``/``binop``/``unop``/``select``) — the ledger the
    conformance oracle (:mod:`repro.check.oracle`) diffs against DFG
    firing counts on the memory-op subset. ``max_iterations`` bounds
    total loop iterations (the fuzzer's shrinker lowers it so a shrink
    candidate that lost its loop increment fails fast instead of
    spinning to the 50M default).
    """
    params = dict(params or {})
    missing = set(kernel.params) - set(params)
    if missing:
        raise IRError(f"missing kernel parameters: {sorted(missing)}")
    declared = {spec.name: (spec.size, spec.dtype) for spec in kernel.arrays}
    memory = launch_memory(kernel.name, declared, arrays, IRError)
    interp = _Interp(memory, counts, max_iterations)
    interp.run_block(kernel.body, dict(params))
    return memory


class _Interp:
    def __init__(
        self,
        memory: dict[str, list],
        counts: dict[str, int] | None = None,
        max_iterations: int = MAX_LOOP_ITERATIONS,
    ):
        self.memory = memory
        self.iterations = 0
        self.max_iterations = max_iterations
        #: Optional dynamic op-count ledger (None = off, zero overhead).
        self.counts = counts

    def _count(self, op: str) -> None:
        self.counts[op] = self.counts.get(op, 0) + 1

    def eval(self, expr: Expr, env: dict) -> int | float:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            try:
                return env[expr.name]
            except KeyError:
                raise IRError(f"undefined variable {expr.name!r}") from None
        if isinstance(expr, BinOp):
            if self.counts is not None:
                self._count("binop")
            return apply_binop(
                expr.op, self.eval(expr.lhs, env), self.eval(expr.rhs, env)
            )
        if isinstance(expr, UnOp):
            if self.counts is not None:
                self._count("unop")
            return apply_unop(expr.op, self.eval(expr.operand, env))
        if isinstance(expr, Select):
            # Eager: both arms evaluate regardless of the decider.
            if self.counts is not None:
                self._count("select")
            on_true = self.eval(expr.on_true, env)
            on_false = self.eval(expr.on_false, env)
            return on_true if truthy(self.eval(expr.cond, env)) else on_false
        raise IRError(f"unknown expression {expr!r}")

    def _bump(self) -> None:
        self.iterations += 1
        if self.iterations > self.max_iterations:
            raise IRError("kernel exceeded the loop-iteration safety limit")

    def _access(self, array: str, index: int | float) -> int:
        if index != int(index):
            raise KernelFault(f"non-integer index {index!r} into {array!r}")
        index = int(index)
        data = self.memory[array]
        if not 0 <= index < len(data):
            raise KernelFault(
                f"index {index} out of bounds for array {array!r} "
                f"of size {len(data)}"
            )
        return index

    def run_block(self, body: list[Stmt], env: dict) -> None:
        for stmt in body:
            self.run_stmt(stmt, env)

    def run_stmt(self, stmt: Stmt, env: dict) -> None:
        if isinstance(stmt, Assign):
            env[stmt.var] = self.eval(stmt.expr, env)
        elif isinstance(stmt, Load):
            index = self._access(stmt.array, self.eval(stmt.index, env))
            env[stmt.var] = self.memory[stmt.array][index]
            if self.counts is not None:
                self._count("load")
        elif isinstance(stmt, Store):
            index = self._access(stmt.array, self.eval(stmt.index, env))
            self.memory[stmt.array][index] = self.eval(stmt.value, env)
            if self.counts is not None:
                self._count("store")
        elif isinstance(stmt, If):
            if truthy(self.eval(stmt.cond, env)):
                self.run_block(stmt.then_body, env)
            else:
                self.run_block(stmt.else_body, env)
        elif isinstance(stmt, While):
            while truthy(self.eval(stmt.cond, env)):
                self._bump()
                self.run_block(stmt.body, env)
        elif isinstance(stmt, (For, ParFor)):
            lo = self.eval(stmt.lo, env)
            hi = self.eval(stmt.hi, env)
            step = self.eval(stmt.step, env)
            if step <= 0:
                raise IRError(f"loop over {stmt.var!r}: step {step} <= 0")
            index = lo
            # The loop variable and body-local temporaries are scoped to the
            # loop; evaluate in a child env seeded from the parent so writes
            # to pre-existing vars (accumulators) persist.
            while index < hi:
                self._bump()
                env[stmt.var] = index
                self.run_block(stmt.body, env)
                index += step
            env.pop(stmt.var, None)
        elif isinstance(stmt, Par):
            # Blocks are independent by contract; sequential execution is
            # an admissible interleaving.
            for block in stmt.blocks:
                self.run_block(block, dict(env))
        else:
            raise IRError(f"unknown statement type {type(stmt).__name__}")
