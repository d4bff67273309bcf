"""Self-test of the benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py

Runs all four workloads once at ``--reps 1 --setups 1`` — a smoke
configuration, never a reportable one — and checks the harness's own
promises: the output obeys the driver's contract, a wrong answer is
counted and fails the run, and a file compared with itself is unchanged.
Not part of the tier-1 suite (``testpaths = ["tests"]``); about 50 s.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE = ("--reps", "1", "--setups", "1")


def run(*argv, cwd=REPO, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *argv],
        cwd=cwd, capture_output=True, text=True,
    )


def last_json(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All four workloads, once; the result file and the process."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = run(*SMOKE, "--out", str(out))
    assert done.returncode == 0, done.stderr
    return out, done


def test_benchmark_json_is_the_spec():
    document = json.loads((REPO / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json(document["run_seconds"])


def test_spec_obeys_the_contract_limits():
    document = json.loads((REPO / "BENCHMARK.json").read_text())
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in document[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in document["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    for entry in document["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in document["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in document["end_to_end"])


def test_every_workload_reports_every_end_to_end_metric(smoke):
    out, done = smoke
    lines = done.stdout.strip().splitlines()[-len(spec.WORKLOAD_NAMES):]
    results = json.loads(out.read_text())["results"]
    assert [r["workload"] for r in results] == list(spec.WORKLOAD_NAMES)
    for line, result in zip(lines, results):
        contract = json.loads(line)
        assert set(contract) == {"correct", "attempted", "failed", "metrics"}
        assert contract["correct"] is True
        assert contract["attempted"] >= 1 and contract["failed"] == 0
        assert list(contract["metrics"]) == [row[0] for row in spec.END_TO_END]
        for (name, unit, _, _), entry in zip(
            spec.END_TO_END, contract["metrics"].values()
        ):
            assert entry["unit"] == unit
            assert entry["value"] > 0, name
        assert result["drift"] == []  # seed 0 is pinned in expected.json
    by_name = {r["workload"]: r["metrics"] for r in results}
    # The sweep runs the same 39 points as sim_plain, through the CLI.
    for metric in ("model_cycles", "nupea_speedup"):
        assert (
            by_name["sweep_cold_warm"][metric]["value"]
            == by_name["sim_plain"][metric]["value"]
        )


def test_compare_of_a_file_with_itself_is_unchanged(smoke):
    out, _ = smoke
    done = run("--compare", str(out), str(out))
    assert done.returncode == 0, done.stdout
    rows = [line for line in done.stdout.splitlines()[1:] if line.strip()]
    assert len(rows) == len(spec.WORKLOAD_NAMES) * len(spec.END_TO_END)
    assert all("unchanged" in row for row in rows)


def test_compare_verdicts():
    lower = ("lower", 0.10)
    assert compare.verdict([10, 10, 10], [10.5, 10.4, 10.6], *lower) == "unchanged"
    assert compare.verdict([10, 10, 10], [12, 12.1, 11.9], *lower) == "regressed"
    assert compare.verdict([10, 10, 10], [8, 8.1, 7.9], *lower) == "improved"
    # Spread wider than the bound and the runs interleave: cannot tell.
    assert compare.verdict([8, 10, 12, 14], [9, 11, 13, 15], *lower) == "unresolved"
    # Wide spread, but every B run is worse than every A run.
    assert compare.verdict([8, 10, 12], [20, 24, 28], *lower) == "regressed"
    assert compare.verdict([1.2, 1.2], [1.0, 1.0], "higher", 0.05) == "regressed"


def test_traced_pass_reports_every_per_layer_metric():
    done = run("--workload", "sim_probed", "--trace", "1")
    assert done.returncode == 0, done.stderr
    contract = last_json(done)
    assert list(contract["metrics"]) == [row[0] for row in spec.PER_LAYER]
    assert contract["failed"] == 0  # includes the replica-digest checks
    metrics = {k: v["value"] for k, v in contract["metrics"].items()}
    assert metrics["obs.trace.overhead_x"] > 1.0
    assert metrics["pnr.place.anneal_s"] > 0 and metrics["trace.overhead_x"] > 0
    trace = json.loads((HERE / "out" / "trace-sim_probed.json").read_text())
    assert {"name", "id", "parent", "start", "end"} <= set(trace["spans"][0])


def test_corrupted_reference_output_fails_the_run():
    done = run(
        "--workload", "sim_probed", *SMOKE, "--corrupt-reference", "dmv"
    )
    assert done.returncode != 0
    contract = last_json(done)
    assert contract["correct"] is False and contract["failed"] > 0
    assert contract["metrics"]["verified_share"]["value"] < 1.0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run(
        "--workload", "sim_plain", "--seed", "1", "--seconds", "1",
        "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py",
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
