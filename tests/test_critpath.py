"""Tests for the dynamic critical-path profiler (:mod:`repro.obs.critpath`).

Contracts under test:

* **detached purity** — ``sim.critpath`` off (the default) is
  bit-identical to a build without the profiler, on every workload;
* **the sum invariant** — attributed category costs sum *exactly* to
  ``system_cycles``, on every workload, under deterministic fault
  injection, and with cycle skipping on or off (identical reports);
* **derived views** — dynamic criticality, slack histograms and the
  zero-latency what-if bound are internally consistent;
* **static-vs-dynamic validation** — the precision/recall scoring of the
  class-A/B heuristics, and the ``critval`` table built from it, behave
  on hand-built inputs;
* **manifests** — serial and parallel sweeps journal identical critpath
  blocks (modulo volatile fields);
* the satellite **zero-event guards** and the **by-class rollup** of the
  stall-attribution sink.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, FaultParams, SimParams
from repro.core.criticality import (
    CriticalityReport,
    validate_against_dynamic,
)
from repro.core.policy import EFFCC
from repro.exp.configs import MONACO, upea
from repro.exp.resilient import run_resilient
from repro.exp.runner import compile_cached, run_point
from repro.exp.spec import RunSpec, sweep_specs
from repro.obs.critpath import CATEGORIES, ROLLUP, ROLLUP_ORDER
from repro.obs.events import Recording
from repro.obs.manifest import read_manifest, stable_view
from repro.obs.sinks import CycleAttribution, FmnocHeatmap, NocHeatmap
from repro.workloads.registry import ALL_WORKLOADS, make_workload

SCALE = "tiny"


def _arch(**sim_kwargs) -> ArchParams:
    arch = ArchParams()
    return replace(arch, sim=replace(arch.sim, **sim_kwargs))


def _run(name, config=MONACO, arch=None, seed=0):
    arch = arch if arch is not None else _arch(critpath=True)
    instance = make_workload(name, scale=SCALE, seed=seed)
    compiled = compile_cached(
        instance, monaco(12, 12), arch, policy=EFFCC, seed=seed
    )
    spec = RunSpec(name, config, scale=SCALE, seed=seed, arch=arch)
    return compiled, run_point(spec, instance, compiled)


# -- detached purity + the sum invariant, all workloads ---------------------


class TestAttachedVsDetached:
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_bit_identity_and_sum_invariant(self, name):
        _, off = _run(name, arch=ArchParams())
        _, on = _run(name)

        # Detached: no observation object, no critpath block.
        assert off.obs is None
        assert not off.stats.critpath

        # Attached: recorder present, stats bit-identical (critpath is
        # compare-excluded, like executed_cycles), outputs were verified
        # by run_point on both runs.
        recorder = on.obs.critpath
        assert recorder is not None
        assert on.stats == off.stats
        assert on.cycles == off.cycles

        # The hard invariant: category costs sum exactly to the makespan.
        report = recorder.report
        assert report["system_cycles"] == on.cycles
        assert sum(report["categories"].values()) == on.cycles
        assert sum(report["rollup"].values()) == on.cycles
        assert set(report["categories"]) == set(CATEGORIES)
        assert set(report["rollup"]) == set(ROLLUP_ORDER)

    def test_critpath_off_is_default(self):
        assert ArchParams().sim.critpath is False


class TestInvariantUnderStress:
    def test_sum_invariant_under_fault_injection(self):
        faults = FaultParams(
            seed=3,
            mem_delay_prob=0.3,
            mem_delay_cycles=16,
            pe_stall_prob=0.05,
            grant_skip_prob=0.1,
        )
        _, run = _run("spmspv", arch=_arch(critpath=True, faults=faults))
        report = run.obs.critpath.report
        assert run.stats.faults_injected  # the injectors actually fired
        assert sum(report["categories"].values()) == run.cycles

    def test_cycle_skip_invariant(self, request):
        _, skip = _run("spmspv", upea(2))
        request.getfixturevalue("per_cycle_loop")
        _, loop = _run("spmspv", upea(2))
        assert skip.cycles == loop.cycles
        assert skip.obs.critpath.report == loop.obs.critpath.report

    def test_attached_runs_are_deterministic(self):
        _, a = _run("dmv")
        _, b = _run("dmv")
        assert a.obs.critpath.report == b.obs.critpath.report

    def test_upea_shifts_blame_into_arbitration(self):
        """The NUPEA causal story: uniform access pays per-request
        FM-NoC delay, and the profiler pins the makespan on it."""
        _, nupea = _run("spmspv", MONACO)
        _, upea2 = _run("spmspv", upea(2))
        mono = nupea.obs.critpath.report["rollup"]["fmnoc-arbitration"]
        uni = upea2.obs.critpath.report["rollup"]["fmnoc-arbitration"]
        assert uni > mono


# -- derived views ----------------------------------------------------------


class TestDerivedViews:
    @pytest.fixture(scope="class")
    def profiled(self):
        return _run("spmspv")

    def test_memory_node_entries_consistent(self, profiled):
        compiled, run = profiled
        report = run.obs.critpath.report
        sc = report["system_cycles"]
        mem_nids = {n.nid for n in compiled.dfg.memory_nodes()}
        assert {int(nid) for nid in report["memory_nodes"]} == mem_nids
        for entry in report["memory_nodes"].values():
            assert 0 <= entry["cycles"] <= sc
            assert 0.0 <= entry["criticality"] <= 1.0
            assert entry["whatif_savings_bound"] == entry["cycles"]
            assert entry["whatif_min_cycles"] == sc - entry["cycles"]
            assert entry["class"] in ("A", "B", "C")

    def test_top_loads_ranked_and_nonzero(self, profiled):
        _, run = profiled
        top = run.obs.critpath.report["top_loads"]
        assert top, "spmspv has loads on the critical path"
        cycles = [e["cycles"] for e in top]
        assert cycles == sorted(cycles, reverse=True)
        assert all(c > 0 for c in cycles)
        assert len(top) <= 5

    def test_slack_histograms_consistent(self, profiled):
        _, run = profiled
        report = run.obs.critpath.report
        slacks = [
            e["slack"]
            for e in report["memory_nodes"].values()
            if "slack" in e
        ]
        assert slacks, "spmspv consumes load responses"
        for slack in slacks:
            hist = {int(k): v for k, v in slack["histogram"].items()}
            assert sum(hist.values()) == slack["uses"]
            assert slack["zero"] == hist.get(0, 0)
            assert slack["min"] == min(hist)
            assert slack["max"] == max(hist)
            assert slack["min"] >= 0

    def test_dynamic_criticality_view(self, profiled):
        _, run = profiled
        recorder = run.obs.critpath
        dynamic = recorder.dynamic_criticality()
        report = run.obs.critpath.report
        assert dynamic == {
            int(nid): e["criticality"]
            for nid, e in report["memory_nodes"].items()
        }

    def test_compact_view_flows_into_stats(self, profiled):
        _, run = profiled
        compact = run.stats.critpath
        report = run.obs.critpath.report
        assert compact["categories"] == report["categories"]
        assert compact["top_loads"] == report["top_loads"]
        assert "memory_nodes" not in compact  # per-node detail stays off
        assert "critpath" in run.stats.to_dict()
        summary = run.stats.summary()
        assert "critical path" in summary
        assert "top critical loads" in summary

    def test_render_carries_the_invariant_line(self, profiled):
        _, run = profiled
        text = run.obs.critpath.render()
        assert "hard invariant" in text
        assert "critical memory nodes" in text

    def test_rollup_table_is_total(self):
        assert set(ROLLUP) == set(CATEGORIES)
        assert set(ROLLUP.values()) <= set(ROLLUP_ORDER)


# -- static-vs-dynamic validation -------------------------------------------


class TestValidation:
    def _report(self):
        return CriticalityReport(
            class_a=[1], class_b=[2, 3], class_c=[4]
        )

    def test_precision_recall_arithmetic(self):
        dynamic = {1: 0.4, 2: 0.02, 3: 0.001, 4: 0.0}
        rows = validate_against_dynamic(
            "toy", self._report(), dynamic, threshold=0.01
        )
        by = {row.classes: row for row in rows}
        # Dynamically critical: {1, 2}. Class A predicts {1}.
        assert by["A"].predicted == 1
        assert by["A"].actual == 2
        assert by["A"].true_positive == 1
        assert by["A"].precision == 1.0
        assert by["A"].recall == 0.5
        # A+B predicts {1, 2, 3}: recall 1.0, precision 2/3.
        assert by["A+B"].true_positive == 2
        assert by["A+B"].recall == 1.0
        assert by["A+B"].precision == pytest.approx(2 / 3)

    @staticmethod
    def _critval(monkeypatch, report, dynamic: dict):
        """The ``critval`` table over hand-built runs: ``dynamic`` maps
        a workload to its measured criticality, ``report`` is every
        workload's static classification."""
        from types import SimpleNamespace

        from repro.exp import figures

        monkeypatch.setattr(
            figures, "_artifact",
            lambda spec: SimpleNamespace(criticality=report),
        )
        cells = {
            name: {
                "run": SimpleNamespace(
                    obs=SimpleNamespace(
                        critpath=SimpleNamespace(
                            dynamic_criticality=lambda d=measured: d
                        )
                    )
                )
            }
            for name, measured in dynamic.items()
        }
        grid = figures.Grid(scale=SCALE, workloads=tuple(dynamic))
        return figures.critval(grid, cells)

    def test_zero_denominators_render_as_dash(self, monkeypatch):
        rows = validate_against_dynamic(
            "toy", CriticalityReport(), {}, threshold=0.01
        )
        assert all(row.precision is None for row in rows)
        assert all(row.recall is None for row in rows)
        from repro.exp.report import format_figure

        result = self._critval(monkeypatch, CriticalityReport(), {"toy": {}})
        for label in ("toy/A", "toy/A+B", "micro-avg/A+B"):
            assert "precision" not in result.rows[label]
            assert "recall" not in result.rows[label]
        table = format_figure(result)
        assert "-" in table.splitlines()[2]
        assert "precision" in table and "recall" in table
        assert all(map(math.isfinite, (c.measured for c in result.claims)))

    def test_table_has_micro_averages(self, monkeypatch):
        result = self._critval(
            monkeypatch, self._report(), {"a": {1: 0.5}, "b": {1: 0.5}}
        )
        assert list(result.rows) == [
            "a/A", "a/A+B", "b/A", "b/A+B", "micro-avg/A", "micro-avg/A+B",
        ]
        # Each workload: A predicts {1}, A+B {1, 2, 3}; only 1 is critical.
        assert result.rows["micro-avg/A"] == {
            "predicted": 2.0, "critical": 2.0, "true-pos": 2.0,
            "precision": 1.0, "recall": 1.0,
        }
        assert result.rows["micro-avg/A+B"] == {
            "predicted": 6.0, "critical": 2.0, "true-pos": 2.0,
            "precision": pytest.approx(1 / 3), "recall": 1.0,
        }

    def test_measured_validation_on_a_real_workload(self):
        compiled, run = _run("spmspv")
        rows = validate_against_dynamic(
            "spmspv",
            compiled.criticality,
            run.obs.critpath.dynamic_criticality(),
        )
        by = {row.classes: row for row in rows}
        # spmspv is the paper's flagship recurrence workload: its class-A
        # loads must show up as dynamically critical.
        assert by["A"].predicted > 0
        assert by["A"].true_positive > 0


# -- manifests: serial == parallel ------------------------------------------


class TestManifests:
    def test_serial_vs_parallel_critpath_manifests_match(self, tmp_path):
        specs = sweep_specs(
            ["spmspv"], [upea(2), MONACO], scale=SCALE,
            arch=_arch(critpath=True),
        )
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        for workers, path in ((1, serial_path), (2, parallel_path)):
            run_resilient(
                specs, max_workers=workers, cache_dir=tmp_path / "cache",
                manifest_path=path,
            )
        serial = [stable_view(r) for r in read_manifest(serial_path)]
        parallel = [stable_view(r) for r in read_manifest(parallel_path)]
        assert serial == parallel
        for record in serial:
            block = record["stats"]["critpath"]
            assert sum(block["categories"].values()) == record["cycles"]


# -- satellite: zero-event guards + by-class rollup -------------------------


#: A run with no node and nothing recorded.
EMPTY = Recording(buckets=True, services=False)
EMPTY_STATS = SimpleNamespace(system_cycles=0, numa={})


class TestSinkGuards:
    def test_attribution_render_guards_empty_run(self):
        sink = CycleAttribution({}, 2, EMPTY, EMPTY_STATS)
        assert "(no events recorded)" in sink.render()
        assert "(no events recorded)" in sink.render_by_class()

    def test_attribution_fractions_guard_empty_run(self):
        fractions = CycleAttribution({}, 2, EMPTY, EMPTY_STATS).fractions()
        assert fractions
        assert all(value == 0.0 for value in fractions.values())

    def test_noc_heatmap_guards_empty_run(self):
        heatmap = NocHeatmap({}, {}, EMPTY)
        assert "(no token traffic recorded)" in heatmap.render(12, 12)

    def test_fmnoc_heatmap_guards_empty_run(self):
        heatmap = FmnocHeatmap(None, None, EMPTY)
        assert "no arbitrated traffic" in heatmap.render()


class TestByClassRollup:
    def test_per_class_conserves_node_cycles(self):
        _, run = _run("spmspv", arch=_arch(trace=True))
        sink = run.obs.attribution
        rolled = sink.per_class()
        assert sum(nodes for nodes, _ in rolled.values()) == len(
            sink.node_info
        )
        per_class_total = sum(
            (counts for _, counts in rolled.values()), start=Counter()
        )
        per_node_total = Counter()
        for counts in sink.per_node.values():
            per_node_total.update(counts)
        assert per_class_total == per_node_total

    def test_render_by_class_lists_classes(self):
        _, run = _run("spmspv", arch=_arch(trace=True))
        text = run.obs.attribution.render_by_class()
        assert "non-mem" in text
        assert "A" in text


# -- CLI smoke --------------------------------------------------------------


class TestCli:
    def test_critpath_command(self, capsys):
        from repro import cli

        rc = cli.main(["run", "spmspv", "--scale", SCALE, "--critpath"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hard invariant" in out
        assert "critical memory nodes" in out
        # The report follows the stats line.
        assert out.index("stats:") < out.index("critical path over")

    def test_critpath_requires_workload_or_validate(self, capsys):
        """``run`` needs a workload; the per-command spellings are gone
        (the validation table is ``repro figure critval``)."""
        from repro import cli

        for argv in (
            ["critpath"], ["critpath", "--validate"], ["profile", "spmspv"],
            ["trace", "spmspv"], ["run", "--critpath"],
        ):
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
            assert err.value.code == 2
            wanted = "required" if argv[0] == "run" else "invalid choice"
            assert wanted in capsys.readouterr().err

    def test_profile_by_class(self, capsys):
        from repro import cli

        rc = cli.main(
            ["run", "spmspv", "--scale", SCALE, "--trace", "--by-class"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cycle attribution by criticality class" in out
