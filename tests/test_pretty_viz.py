"""Tests for the IR pretty-printer and placement visualization."""

from repro.arch.fabric import clustered_single, monaco
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC
from repro.ir.pretty import format_expr, format_kernel, format_stmt
from repro.ir.ast import BinOp, Const, Store, UnOp, Var
from repro.pnr.flow import compile_once
from repro.pnr.viz import fabric_map, placement_map

from kernels import zoo_instance


class TestIRPretty:
    def test_expr_formatting(self):
        assert format_expr(Var("a") + 1) == "(a + 1)"
        assert format_expr(Var("a").min(Var("b"))) == "min(a, b)"
        assert format_expr(UnOp("abs", Var("x"))) == "abs(x)"
        assert format_expr(-Var("x")) == "(- x)"
        assert format_expr(Const(3.5)) == "3.5"

    def test_stmt_formatting(self):
        lines = format_stmt(Store("A", Const(0), BinOp("*", Var("v"), Const(2))))
        assert lines == ["A[0] = (v * 2)"]

    def test_kernel_roundtrip_readable(self):
        kernel, _, _ = zoo_instance("join")
        text = format_kernel(kernel)
        assert "kernel join(na, nb):" in text
        assert "while ((ia < na) & (ib < nb)):" in text
        assert "array A[16] : i" in text

    def test_for_with_step(self):
        from repro.ir.builder import KernelBuilder

        b = KernelBuilder("s")
        y = b.array("y", 8)
        with b.for_("i", 0, 8, step=2) as i:
            y.store(i, 1)
        text = format_kernel(b.build())
        assert "for i in range(0, 8, 2):" in text

    def test_parfor_and_if_render(self):
        kernel, _, _ = zoo_instance("branchy")
        text = format_kernel(kernel)
        assert "if (" in text and "else:" in text


class TestViz:
    def test_fabric_map_dimensions(self):
        text = fabric_map(monaco(8, 8))
        rows = [l for l in text.splitlines() if l.endswith("|mem")]
        assert len(rows) == 8
        assert "0" in rows[1]  # a D0 LS PE near memory

    def test_fabric_map_clustered(self):
        text = fabric_map(clustered_single(8, 8))
        rows = [l for l in text.splitlines() if l.endswith("|mem")]
        # Every row has LS PEs in CS.
        assert all(any(ch.isdigit() for ch in row) for row in rows)

    def test_placement_map_marks_criticality(self):
        kernel, _, _ = zoo_instance("join")
        compiled = compile_once(
            kernel, monaco(12, 12), ArchParams(), EFFCC, parallelism=1
        )
        text = placement_map(compiled)
        assert "A" in text  # critical loads visible
        assert "memory nodes per domain" in text
        rows = [l for l in text.splitlines() if l.endswith("|mem")]
        assert len(rows) == 12
