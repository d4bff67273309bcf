"""Unit tests for IR expressions and statements."""

import pytest

from repro.errors import IRError
from repro.ir.ast import (
    ArraySpec,
    Assign,
    BinOp,
    Const,
    For,
    If,
    Load,
    Par,
    ParFor,
    Store,
    UnOp,
    Var,
    While,
    expr_vars,
    walk_exprs,
    walk_stmts,
    wrap,
)


class TestExprBuilding:
    def test_operator_sugar_builds_binops(self):
        e = Var("a") + 1
        assert isinstance(e, BinOp) and e.op == "+"
        assert e.rhs == Const(1)

    def test_reflected_operators(self):
        for expr, op, lhs in (
            (1 + Var("a"), "+", Const(1)),
            (2 - Var("a"), "-", Const(2)),
            (3 * Var("a"), "*", Const(3)),
            (8 // Var("a"), "//", Const(8)),
            (8 / Var("a"), "/", Const(8)),
            (8 % Var("a"), "%", Const(8)),
            (1 << Var("a"), "<<", Const(1)),
            (16 >> Var("a"), ">>", Const(16)),
            (6 & Var("a"), "&", Const(6)),
            (6 | Var("a"), "|", Const(6)),
            (6 ^ Var("a"), "^", Const(6)),
        ):
            assert isinstance(expr, BinOp)
            assert expr.op == op
            assert expr.lhs == lhs

    def test_comparison_sugar(self):
        assert (Var("a") < 3).op == "<"
        assert (Var("a") >= 3).op == ">="
        assert Var("a").eq(3).op == "=="
        assert Var("a").ne(3).op == "!="

    def test_min_max_methods(self):
        assert Var("a").min(3).op == "min"
        assert Var("a").max(3).op == "max"

    def test_negation(self):
        e = -Var("a")
        assert isinstance(e, UnOp) and e.op == "-"

    def test_bool_wraps_to_int_const(self):
        assert wrap(True) == Const(1)
        assert wrap(False) == Const(0)

    def test_wrap_rejects_junk(self):
        with pytest.raises(IRError):
            wrap("hello")
        with pytest.raises(IRError):
            wrap([1, 2])

    def test_unknown_binop_rejected(self):
        with pytest.raises(IRError):
            BinOp("**", Const(1), Const(2))

    def test_unknown_unop_rejected(self):
        with pytest.raises(IRError):
            UnOp("!", Const(1))


class TestArraySpec:
    def test_valid(self):
        spec = ArraySpec("a", 4, "f")
        assert spec.dtype == "f"

    def test_bad_dtype(self):
        with pytest.raises(IRError):
            ArraySpec("a", 4, "d")

    def test_bad_size(self):
        with pytest.raises(IRError):
            ArraySpec("a", 0)


class TestWalkers:
    def test_walk_exprs_visits_all(self):
        e = (Var("a") + 1) * -Var("b")
        kinds = [type(x).__name__ for x in walk_exprs(e)]
        assert kinds.count("Var") == 2
        assert kinds.count("Const") == 1

    def test_expr_vars(self):
        e = (Var("a") + Var("b")) * Var("a")
        assert expr_vars(e) == {"a", "b"}

    def test_walk_stmts_recurses_all_regions(self):
        body = [
            Assign("x", Const(1)),
            If(
                Var("x"),
                [Store("A", Const(0), Var("x"))],
                [Load("y", "A", Const(0))],
            ),
            While(Var("x"), [Assign("x", Const(0))]),
            For("i", Const(0), Const(4), Const(1), [Assign("z", Var("i"))]),
            Par([[Assign("w", Const(2))], [Assign("v", Const(3))]]),
        ]
        stmts = list(walk_stmts(body))
        assert sum(isinstance(s, Assign) for s in stmts) == 5
        assert sum(isinstance(s, Store) for s in stmts) == 1


class TestStatementDefaults:
    def test_if_defaults_empty_bodies(self):
        stmt = If(Const(1))
        assert stmt.then_body == [] and stmt.else_body == []

    def test_parfor_holds_body(self):
        stmt = ParFor("i", Const(0), Const(4), Const(1), [Assign("x", Const(1))])
        assert len(stmt.body) == 1
