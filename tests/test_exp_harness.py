"""Tests for the experiment harness (configs, runner, figures, tables)."""

import pytest

from repro.arch.params import ArchParams
from repro.exp.cache import CompileCache
from repro.exp.configs import (
    MONACO,
    ideal,
    numa,
    primary_configs,
    upea,
)
from repro.exp.figures import (
    FigureResult,
    Grid,
    fig16,
    fig17,
    run_figure,
    run_figures,
)
from repro.exp.report import format_figure
from repro.exp.runner import run_workload_on_configs
from repro.exp.tables import PAPER_TABLE1, format_table1, table1

TINY = Grid(scale="tiny")
TINY_SPMSPV = Grid(scale="tiny", workloads=("spmspv",))


class TestConfigs:
    def test_names(self):
        assert ideal().name == "ideal"
        assert upea(3).name == "upea3"
        assert numa(2).name == "numa-upea2"
        assert MONACO.name == "monaco"

    def test_primary_set_matches_fig11(self):
        names = [c.name for c in primary_configs()]
        assert names == ["ideal", "upea2", "numa-upea2", "monaco"]

    def test_frontend_factories(self):
        from repro.arch.fabric import monaco as monaco_fabric
        from repro.arch.memory import AddressMap
        from repro.arch.params import MemoryParams
        from repro.sim.fmnoc_sim import MonacoFrontend
        from repro.sim.upea import NumaFrontend, UniformFrontend

        fab = monaco_fabric(12, 12)
        amap = AddressMap({"a": 64}, MemoryParams())
        assert isinstance(
            MONACO.frontend_factory(2)(fab, amap), MonacoFrontend
        )
        fe = upea(3).frontend_factory(2)(fab, amap)
        assert isinstance(fe, UniformFrontend) and fe.delay == 6
        assert isinstance(
            numa(1).frontend_factory(2)(fab, amap), NumaFrontend
        )


class TestCache:
    def test_hit_miss_accounting(self):
        cache = CompileCache()
        calls = []
        cache.get_or_compile(("k",), lambda: calls.append(1) or "x")
        cache.get_or_compile(("k",), lambda: calls.append(1) or "y")
        assert calls == [1]
        assert cache.hits == 1 and cache.misses == 1
        cache.clear()
        assert cache.hits == 0


class TestRunner:
    def test_run_workload_on_configs(self):
        runs = run_workload_on_configs(
            "spmspv", [ideal(), MONACO], scale="tiny"
        )
        assert set(runs) == {"ideal", "monaco"}
        for run in runs.values():
            assert run.cycles > 0
            assert run.workload == "spmspv"


class TestFigures:
    def test_fig6c_shape(self):
        result = run_figure("fig6c", TINY)
        row = result.rows["spmspv"]
        assert row["nupea"] == 1.0
        assert row["upea2"] > row["upea0"] * 0.99
        assert result.raw["spmspv"]["upea2"] > 0

    def test_fig12_policies_ordered(self):
        result = run_figure("fig12", TINY_SPMSPV)
        row = result.rows["spmspv"]
        assert row["domain-unaware"] == 1.0
        assert row["effcc"] >= row["only-domain-aware"] * 0.95
        assert row["effcc"] > 1.0

    def test_fig14_degrades_with_latency(self):
        result = run_figure("fig14", TINY_SPMSPV)
        row = result.rows["spmspv"]
        sweep = [row[f"upea{n}"] for n in range(5)]
        assert sweep == sorted(sweep)

    def test_fig16_fig17_structure(self):
        one = dict(sizes=(8,), tracks=(7,), topologies=("monaco",))
        results = run_figures(
            {"fig16": fig16(**one), "fig17": fig17(**one)}, TINY
        )
        assert "8x8/7trk" in results["fig16"].rows["monaco"]
        assert results["fig17"].rows["monaco"]["8x8/7trk"] > 0

    def test_geomean(self):
        result = FigureResult("f", "t", ["a"])
        result.rows = {"w1": {"a": 2.0}, "w2": {"a": 8.0}}
        assert result.geomean("a") == pytest.approx(4.0)
        assert result.geomean("missing") == 0.0


class TestReporting:
    def test_format_figure_renders_all_rows(self):
        result = FigureResult("figX", "demo", ["a", "b"])
        result.rows = {
            "w1": {"a": 1.0, "b": 2.0},
            "w2": {"a": 3.0, "b": float("inf")},
        }
        text = format_figure(result)
        assert "figX" in text and "w1" in text
        assert "unroutable" in text

    def test_table1_rows(self):
        rows = table1(scale="tiny")
        assert len(rows) == 13
        assert {r["application"] for r in rows} == set(PAPER_TABLE1)
        text = format_table1(rows)
        assert "spmspv" in text and "Sparsity" in text


def test_arch_params_plumbed_through():
    arch = ArchParams(noc_tracks=5)
    runs = run_workload_on_configs(
        "dmv", [MONACO], scale="tiny", arch=arch
    )
    assert runs["monaco"].cycles > 0
