"""The one evaluation path: the ``repro.exp.figures`` registry and the
``repro figure`` command that renders it."""

import json
import math
from unittest import mock

import pytest

from repro.cli import main
from repro.exp.figures import FIGURES, FigureResult, Grid, run_figure
from repro.exp.report import format_figure


@pytest.mark.parametrize("name", list(FIGURES))
def test_every_entry_runs_at_tiny_on_one_workload(name):
    result = run_figure(name, Grid(scale="tiny", workloads=("spmspv",)))
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


def _fake(holds: bool):
    def entry(grid):
        result = FigureResult("fake", "a table", ["a"])
        result.rows[grid.names(("dmv",))[0]] = {"a": 2.0}
        result.claim("the answer is two (a == 2)", 2.0, holds, paper=2.0)
        return result

    return entry


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
        format_figure(_fake(True)(Grid())) + "\n"
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
