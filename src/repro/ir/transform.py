"""IR transforms: spatial parallelization of ``parfor`` loops.

effcc "lifts loops to the scf dialect's parallel loop primitive whenever
possible, and such loops are replicated by a chosen parallelism degree"
(Sec. 5). :func:`parallelize` is that replication: an outermost ``parfor``
over ``range(lo, hi, step)`` becomes ``degree`` concurrent counted loops,
worker ``k`` handling iterations ``lo + k*step, lo + (k+degree)*step, ...``
(strided partitioning for load balance). Worker-local variables are renamed
apart so the copies share nothing but memory.
"""

from __future__ import annotations

import dataclasses

from repro.errors import IRError
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
    walk_stmts,
)


def parallelize(kernel: Kernel, degree: int) -> Kernel:
    """Return a copy of ``kernel`` with outermost parfors split ``degree``-way.

    ``degree == 1`` keeps the program sequential (parfors become plain
    ``for`` loops). Inner parfors always run sequentially; Monaco-style SDAs
    parallelize one loop level spatially.
    """
    if degree < 1:
        raise IRError(f"parallelism degree must be >= 1, got {degree}")
    body = [_transform_stmt(stmt, degree) for stmt in kernel.body]
    return Kernel(kernel.name, list(kernel.params), list(kernel.arrays), body)


def _rebuild(stmt: Stmt, fn) -> Stmt:
    """``stmt`` with every nested statement mapped through ``fn`` (the
    callers handle ``ParFor`` themselves)."""
    if isinstance(stmt, If):
        return If(
            stmt.cond,
            [fn(s) for s in stmt.then_body],
            [fn(s) for s in stmt.else_body],
        )
    if isinstance(stmt, While):
        return While(stmt.cond, [fn(s) for s in stmt.body])
    if isinstance(stmt, For):
        return For(
            stmt.var, stmt.lo, stmt.hi, stmt.step, [fn(s) for s in stmt.body]
        )
    if isinstance(stmt, Par):
        return Par([[fn(s) for s in blk] for blk in stmt.blocks])
    return stmt


def _transform_stmt(stmt: Stmt, degree: int) -> Stmt:
    if isinstance(stmt, ParFor):
        return _split_parfor(stmt, degree)
    return _rebuild(stmt, lambda s: _transform_stmt(s, degree))


def _split_parfor(stmt: ParFor, degree: int) -> Stmt:
    sequential_body = [_sequentialize(s) for s in stmt.body]
    if degree == 1:
        return For(stmt.var, stmt.lo, stmt.hi, stmt.step, sequential_body)
    blocks: list[list[Stmt]] = []
    for worker in range(degree):
        rename = _worker_rename(stmt, worker)
        offset = BinOp(
            "+", stmt.lo, BinOp("*", Const(worker), stmt.step)
        )
        stride = BinOp("*", stmt.step, Const(degree))
        body = [_rename_stmt(s, rename) for s in sequential_body]
        blocks.append(
            [For(rename[stmt.var], offset, stmt.hi, stride, body)]
        )
    return Par(blocks)


def _sequentialize(stmt: Stmt) -> Stmt:
    """Turn nested parfors into plain for loops."""
    if isinstance(stmt, ParFor):
        stmt = For(stmt.var, stmt.lo, stmt.hi, stmt.step, stmt.body)
    return _rebuild(stmt, _sequentialize)


def _locally_defined(body: list[Stmt]) -> set[str]:
    """Every variable assigned anywhere inside ``body`` (recursively)."""
    return {
        stmt.var
        for stmt in walk_stmts(body)
        if isinstance(stmt, (Assign, Load, For, ParFor))
    }


def _worker_rename(stmt: ParFor, worker: int) -> dict[str, str]:
    local = _locally_defined(stmt.body) | {stmt.var}
    return {name: f"{name}#{worker}" for name in local}


def _rename_expr(expr: Expr, rename: dict[str, str]) -> Expr:
    if isinstance(expr, Var):
        return Var(rename.get(expr.name, expr.name))
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _rename_expr(expr.lhs, rename),
            _rename_expr(expr.rhs, rename),
        )
    if isinstance(expr, UnOp):
        return UnOp(expr.op, _rename_expr(expr.operand, rename))
    if isinstance(expr, Select):
        return Select(
            _rename_expr(expr.cond, rename),
            _rename_expr(expr.on_true, rename),
            _rename_expr(expr.on_false, rename),
        )
    return expr


def _rename_stmt(stmt: Stmt, rename: dict[str, str]) -> Stmt:
    if isinstance(stmt, Assign):
        return Assign(
            rename.get(stmt.var, stmt.var), _rename_expr(stmt.expr, rename)
        )
    if isinstance(stmt, Load):
        return Load(
            rename.get(stmt.var, stmt.var),
            stmt.array,
            _rename_expr(stmt.index, rename),
        )
    if isinstance(stmt, Store):
        return Store(
            stmt.array,
            _rename_expr(stmt.index, rename),
            _rename_expr(stmt.value, rename),
        )
    if isinstance(stmt, If):
        return If(
            _rename_expr(stmt.cond, rename),
            [_rename_stmt(s, rename) for s in stmt.then_body],
            [_rename_stmt(s, rename) for s in stmt.else_body],
        )
    if isinstance(stmt, While):
        return While(
            _rename_expr(stmt.cond, rename),
            [_rename_stmt(s, rename) for s in stmt.body],
        )
    if isinstance(stmt, (For, ParFor)):
        cls = type(stmt)
        return cls(
            rename.get(stmt.var, stmt.var),
            _rename_expr(stmt.lo, rename),
            _rename_expr(stmt.hi, rename),
            _rename_expr(stmt.step, rename),
            [_rename_stmt(s, rename) for s in stmt.body],
        )
    if isinstance(stmt, Par):
        return Par(
            [[_rename_stmt(s, rename) for s in blk] for blk in stmt.blocks]
        )
    return dataclasses.replace(stmt)
