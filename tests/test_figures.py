"""The one evaluation path: the ``repro.exp.figures`` registry, the job
graph that builds it, and the ``repro figure`` command that renders it."""

import json
import math
from dataclasses import replace
from unittest import mock

import pytest

from repro.arch.params import PROBE_SWITCHES
from repro.cli import main
from repro.errors import ExperimentError, RoutingError, ValidationError
from repro.exp import runner
from repro.exp.cache import GLOBAL_CACHE
from repro.exp.configs import MONACO
from repro.exp.fdo import DEFAULT_ROUNDS, run_fdo
from repro.exp.figures import (
    FIGURES,
    Entry,
    FigureResult,
    Grid,
    fig16,
    fig17,
    run_figures,
)
from repro.exp.report import format_figure
from repro.exp.spec import RunSpec

TINY_ONE = Grid(scale="tiny", workloads=("spmspv",))
#: Fig. 16/17 on their 8x8 column only: the 24x24 compiles are what
#: made fig16 the slowest tier-1 test. CI's ``figure all --scale small``
#: diff covers the full grid.
SMALL_FABRICS = {"fig16": fig16(sizes=(8,)), "fig17": fig17(sizes=(8,))}
ENTRIES = {**FIGURES, **SMALL_FABRICS}


@pytest.fixture(scope="module")
def tiny():
    """Every entry at ``tiny`` on one workload, built by one graph:
    ``(tables, points the entries asked for, simulations)``."""
    asked, sims = set(), []

    def recording(entry):
        def layout(grid, done):
            cells = entry.layout(grid, done)
            asked.update(
                spec for row in cells.values() for spec in row.values()
                if spec is not None
            )
            return cells

        return Entry(layout, entry.build)

    def counted(*args, **kwargs):
        sims.append(1)
        return simulate(*args, **kwargs)

    simulate = runner.simulate
    with mock.patch.object(runner, "simulate", counted):
        tables = run_figures(
            {name: recording(entry) for name, entry in ENTRIES.items()},
            TINY_ONE,
        )
    return tables, asked, len(sims)


@pytest.mark.parametrize("name", list(FIGURES))
def test_every_entry_runs_at_tiny_on_one_workload(name, tiny):
    tables, _, _ = tiny
    result = tables[name]
    assert result.rows
    for row in result.rows.values():
        assert row
        assert set(row) <= set(result.columns)
        assert all(isinstance(value, float) for value in row.values())
    for claim in result.claims:
        assert claim.statement
        assert math.isfinite(claim.measured)
        assert claim.paper is None or math.isfinite(claim.paper)
        assert claim.holds is None  # off the calibrated grid: unchecked
    text = format_figure(result)
    assert text.count("claim [unchecked]") == len(result.claims)


def test_the_graph_simulates_each_distinct_point_once(tiny):
    """One simulation per point: probe twins (fig11's columns are also
    stalls' traced and critblame's critpath runs) share one."""
    _, asked, sims = tiny

    def plain(spec):
        sim = replace(spec.arch.sim, **dict.fromkeys(PROBE_SWITCHES, False))
        return replace(spec, arch=replace(spec.arch, sim=sim))

    points = {plain(spec) for spec in asked}
    assert len(points) < len(asked)  # the entries do list probe twins
    assert sims == len(points)


def test_the_fdo_table_walks_the_rounds_repro_fdo_runs(tiny):
    """The table walks the feedback rounds through the graph; ``repro
    fdo`` drives the same rule one round at a time."""
    tables, _, _ = tiny
    loop = run_fdo(
        RunSpec("spmspv", MONACO, scale="tiny", divider=None),
        rounds=DEFAULT_ROUNDS,
    )
    raw = tables["fdo"].raw["spmspv"]
    assert raw["static"] == loop.baseline_cycles
    assert raw["fdo"] == loop.best_cycles


def test_adding_fig14_after_fig11_adds_only_its_upea_points():
    def points(name):
        return set(FIGURES[name].points(TINY_ONE, {}))

    added = points("fig14") - points("fig11")
    assert sorted(spec.config.name for spec in added) == [
        "upea0", "upea1", "upea3", "upea4",
    ]


def test_figure_all_writes_the_same_files_at_every_jobs(tmp_path):
    with mock.patch.dict(FIGURES, SMALL_FABRICS):
        for jobs in ("1", "2"):
            assert main([
                "figure", "all", "--scale", "tiny", "--workloads", "spmspv",
                "--jobs", jobs, "--out", str(tmp_path / jobs),
            ]) == 0
    serial, pooled = tmp_path / "1", tmp_path / "2"
    assert len(list(serial.iterdir())) == len(FIGURES) + 1
    for path in serial.iterdir():
        assert path.read_bytes() == (pooled / path.name).read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_reduce_side_artifact_reads_are_cache_hits(jobs, monkeypatch):
    """fig17's path delay, memorder's node count and the NoC ablation's
    hop count come from the compile cache the graph filled — in the
    pooled case a disk cache the workers wrote — never from a new PnR."""
    monkeypatch.setattr(GLOBAL_CACHE, "_store", {})
    monkeypatch.setattr(GLOBAL_CACHE, "disk_dir", None)
    compiled_in_reduce = []

    def counted(entry):
        def build(grid, cells):
            before = GLOBAL_CACHE.misses
            result = entry.build(grid, cells)
            compiled_in_reduce.append(GLOBAL_CACHE.misses - before)
            return result

        return Entry(entry.layout, build)

    names = ("fig17", "ablation_memorder", "ablation_noc_model")
    run_figures(
        {name: counted(ENTRIES[name]) for name in names},
        Grid(scale="tiny", workloads=("fft",), jobs=jobs),
    )
    assert compiled_in_reduce == [0, 0, 0]
    assert GLOBAL_CACHE.disk_dir is None


def test_a_point_whose_pnr_fails_renders_unroutable(monkeypatch):
    def congested(spec, **options):
        raise RoutingError("congested")

    monkeypatch.setattr(runner, "compile_point", congested)
    entry = fig16(sizes=(8,), tracks=(7,), topologies=("monaco",))
    result = run_figures({"fig16": entry}, TINY_ONE)["fig16"]
    assert result.rows == {"monaco": {"8x8/7trk": float("inf")}}
    assert "unroutable" in format_figure(result)


def test_a_wrong_answer_in_a_figure_point_fails_the_command(monkeypatch):
    def wrong(spec, instance, compiled, **options):
        raise ValidationError("output mismatch")

    monkeypatch.setattr(runner, "run_point", wrong)
    with pytest.raises(ExperimentError, match=r"\[validation\] output"):
        main(["figure", "fig6c", "--scale", "tiny"])


def _fake(holds: bool) -> Entry:
    def build(grid, cells):
        result = FigureResult("fake", "a table", ["a"])
        result.rows[grid.names(("dmv",))[0]] = {"a": 2.0}
        result.claim("the answer is two (a == 2)", 2.0, holds, paper=2.0)
        return result

    return Entry(lambda grid, done: {}, build)


def test_a_false_claim_fails_the_command_and_is_named(capsys):
    with mock.patch.dict(FIGURES, {"fake": _fake(False)}, clear=True):
        assert main(["figure", "fake"]) == 1
    out = capsys.readouterr().out
    assert "claim [FAILS] the answer is two" in out
    assert "FAILED fake: claim [FAILS] the answer is two" in out


@pytest.mark.parametrize(
    "subset", [["--workloads", "spmv"], ["--scale", "tiny"]]
)
def test_off_the_calibrated_grid_claims_print_unchecked(subset, capsys):
    with mock.patch.dict(FIGURES, {"fake": _fake(False)}, clear=True):
        assert main(["figure", "fake", *subset]) == 0
    out = capsys.readouterr().out
    assert "claim [unchecked] the answer is two" in out
    assert "FAILED" not in out


def test_figure_all_writes_one_file_per_entry_and_stable_claims(
    tmp_path, capsys
):
    registry = {"zeta": _fake(True), "alpha": _fake(True)}
    with mock.patch.dict(FIGURES, registry, clear=True):
        for out in ("first", "second"):
            assert main(["figure", "all", "--out", str(tmp_path / out)]) == 0
    first, second = tmp_path / "first", tmp_path / "second"
    assert sorted(p.name for p in first.iterdir()) == [
        "alpha.txt", "fidelity.json", "zeta.txt",
    ]
    for path in first.iterdir():
        assert path.read_bytes() == (second / path.name).read_bytes()
    assert (first / "alpha.txt").read_text() == (
        format_figure(_fake(True).reduce(Grid(), {})) + "\n"
    )
    text = (first / "fidelity.json").read_text()
    fidelity = json.loads(text)
    assert text == json.dumps(fidelity, indent=2, sort_keys=True) + "\n"
    assert fidelity["alpha"] == {
        "title": "a table",
        "claims": [
            {
                "statement": "the answer is two (a == 2)",
                "paper": 2.0,
                "measured": 2.0,
                "holds": True,
            }
        ],
    }


@pytest.mark.parametrize("command", ["dse", "table1"])
def test_the_folded_subcommands_are_gone(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([command])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_critval_reuses_critblames_points():
    """The validation table adds no simulation to the graph."""
    critval, critblame = (
        set(FIGURES[name].points(TINY_ONE, {}))
        for name in ("critval", "critblame")
    )
    assert critval and critval <= critblame


def test_critval_rows_score_the_same_runs(tiny):
    """Each row is ``validate_against_dynamic`` on the point's own run."""
    from repro.core.criticality import validate_against_dynamic

    tables, _, _ = tiny
    (spec,) = FIGURES["critval"].points(TINY_ONE, {})
    instance, compiled = runner.compile_point(spec)
    run = runner.run_point(spec, instance, compiled)
    for score in validate_against_dynamic(
        spec.workload,
        compiled.criticality,
        run.obs.critpath.dynamic_criticality(),
        0.01,
    ):
        row = tables["critval"].rows[f"{spec.workload}/{score.classes}"]
        assert row["predicted"] == score.predicted
        assert row["critical"] == score.actual
        assert row["true-pos"] == score.true_positive
        assert row.get("precision") == score.precision
        assert row.get("recall") == score.recall


def test_critval_is_the_same_table_at_every_jobs():
    texts = {
        jobs: format_figure(
            run_figures(
                {"critval": FIGURES["critval"]},
                Grid(scale="tiny", workloads=("spmspv", "dmv"), jobs=jobs),
            )["critval"]
        )
        for jobs in (1, 2)
    }
    assert texts[1] == texts[2]
    assert "micro-avg/A+B" in texts[1]
