"""Tests for the observability layer (:mod:`repro.obs`).

Covers the tentpole contracts:

* tracing off is the default and changes nothing (bit-identical stats);
* tracing on is deterministic — two runs produce identical event
  streams, attribution tables, and Chrome traces;
* the cycle-attribution invariant: every node's buckets sum to
  ``system_cycles + 1`` (the final quiescence-check cycle is executed
  but does not advance the clock);
* the Chrome ``trace_event`` export is schema-valid JSON;
* structured run manifests are identical (modulo volatile fields)
  between serial and parallel sweeps.
"""

import io
import json
import pickle
from array import array
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, SimParams
from repro.exp.configs import MONACO, hybrid, numa, upea
from repro.exp.resilient import run_resilient
from repro.exp.runner import run_parallel, run_point
from repro.exp.spec import RunSpec, sweep_specs
from repro.obs.events import (
    FIELDS,
    FIRE,
    POPS,
    PUSH,
    SILENT,
    STALL_KINDS,
    TICK_KINDS,
    Recording,
    Walk,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    config_digest,
    read_manifest,
    stable_view,
)
from repro.pnr.flow import compile_kernel
from repro.workloads.registry import make_workload

WORKLOAD = "spmspv"
SCALE = "tiny"


def _traced_arch(trace=True, trace_path=None):
    return ArchParams(sim=SimParams(trace=trace, trace_path=trace_path))


def _compile(arch):
    instance = make_workload(WORKLOAD, scale=SCALE, seed=0)
    fabric = monaco(12, 12)
    compiled = compile_kernel(instance.kernel, fabric, arch, seed=0)
    return instance, compiled


def _run(arch, config=MONACO):
    spec = RunSpec(WORKLOAD, config, scale=SCALE, arch=arch)
    return run_point(spec, *_compile(arch))


class TestZeroOverheadOff:
    def test_trace_off_is_default(self):
        assert ArchParams().sim.trace is False

    def test_off_run_has_no_obs(self):
        run = _run(ArchParams())
        assert run.obs is None

    def test_stats_bit_identical_with_tracing(self):
        off = _run(ArchParams())
        on = _run(_traced_arch())
        assert on.cycles == off.cycles
        assert on.stats == off.stats


class TestAttribution:
    @pytest.fixture(scope="class")
    def traced(self):
        return _run(_traced_arch())

    def test_every_node_sums_to_system_cycles(self, traced):
        att = traced.obs.attribution
        assert att.per_node, "attribution saw no nodes"
        for nid in att.per_node:
            assert att.node_total(nid) == traced.cycles + 1

    def test_aggregate_covers_all_kinds(self, traced):
        agg = traced.obs.attribution.aggregate()
        assert agg[FIRE] > 0
        assert set(agg) <= set(TICK_KINDS) | set(STALL_KINDS)

    def test_fractions_sum_to_one(self, traced):
        fracs = traced.obs.attribution.fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_render_mentions_stall_columns(self, traced):
        text = traced.obs.attribution.render(top=5)
        assert "fire" in text and "op-wait" in text
        assert "divider-gap" in text and "skipped" not in text

    def test_heatmaps_render(self, traced):
        noc = traced.obs.noc_heatmap.render(12, 12)
        assert len(noc.splitlines()) >= 13
        fm = traced.obs.fmnoc_heatmap.render()
        assert "memory port" in fm


class TestTraceDeterminism:
    def test_two_runs_identical(self):
        a = _run(_traced_arch())
        b = _run(_traced_arch())
        assert a.obs.attribution.per_node == b.obs.attribution.per_node
        assert a.obs.noc_heatmap.channel_tokens == b.obs.noc_heatmap.channel_tokens
        assert a.obs.fmnoc_heatmap.stage_traffic == b.obs.fmnoc_heatmap.stage_traffic
        assert a.stats == b.stats

    def test_chrome_events_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            _run(_traced_arch(trace_path=str(path)))
        a, b = (json.loads(p.read_text()) for p in paths)
        assert a == b


class TestChromeTraceSchema:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "trace.json"
        run = _run(_traced_arch(trace_path=str(path)))
        return run, json.loads(path.read_text())

    def test_top_level_keys(self, trace):
        _, doc = trace
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]

    def test_event_schema(self, trace):
        _, doc = trace
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "C", "M")
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            if ev["ph"] == "X":
                assert isinstance(ev["ts"], int) and ev["ts"] >= 0
                assert isinstance(ev["dur"], int) and ev["dur"] >= 0
                assert ev["name"]
            if ev["ph"] == "C":
                assert isinstance(ev["args"], dict)

    def test_fire_events_match_stats(self, trace):
        run, doc = trace
        fires = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 0
        ]
        assert len(fires) == run.stats.total_firings

    def test_mem_events_carry_criticality(self, trace):
        _, doc = trace
        mems = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 1 and e["cat"] == "mem"
        ]
        assert mems
        assert all("criticality" in e["args"] for e in mems)


class TestManifests:
    def test_serial_manifest_records(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        run_resilient(
            sweep_specs([WORKLOAD], [upea(2), MONACO], scale=SCALE),
            max_workers=1,
            manifest_path=path,
        )
        records = read_manifest(path)
        assert [r["config"] for r in records] == ["upea2", "monaco"]
        for record in records:
            assert record["schema"] == MANIFEST_SCHEMA
            assert record["workload"] == WORKLOAD
            assert record["cycles"] > 0
            assert len(record["digest"]) == 16
            assert record["wall_time_s"] >= 0.0
            assert "system_cycles" in record["stats"]

    def test_serial_vs_parallel_manifests_match(self, tmp_path):
        kwargs = dict(
            workloads=[WORKLOAD],
            configs=[upea(2), numa(2)],
            scale=SCALE,
            seeds=(0,),
        )
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        # No cache_dir on the serial run: it executes in-process, and
        # enabling the disk cache there would mutate GLOBAL_CACHE for
        # the rest of the test session. Workers enable it privately.
        serial = run_parallel(
            max_workers=1, manifest_path=serial_path, **kwargs
        )
        parallel = run_parallel(
            max_workers=2,
            manifest_path=parallel_path,
            cache_dir=tmp_path / "cache",
            **kwargs,
        )
        assert serial == parallel
        a = [stable_view(r) for r in read_manifest(serial_path)]
        b = [stable_view(r) for r in read_manifest(parallel_path)]
        assert a == b

    def test_stable_view_drops_volatile_fields(self):
        view = stable_view(
            {"cycles": 1, "wall_time_s": 0.5, "timestamp": "x", "git_rev": "y"}
        )
        assert view == {"cycles": 1}

    def test_config_digest_is_order_insensitive(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )
        assert config_digest({"a": 1}) != config_digest({"a": 2})


class TestNumaAndEnergyReporting:
    """Counters that were tallied but never reported now surface.

    ``NumaFrontend.local_accesses``/``remote_accesses`` reach
    ``SimStats.numa`` (summary, to_dict, manifests) and every manifest
    record carries a deterministic ``energy`` block priced from stable
    counters — part of the stable view, equal serial vs parallel.
    """

    def test_numa_counters_surface_in_stats(self):
        arch = ArchParams()
        run = _run(arch, config=numa(2))
        stats = run.stats
        assert stats.numa
        total = (
            stats.numa["local_accesses"] + stats.numa["remote_accesses"]
        )
        # Every memory request was classified exactly once (no drops in
        # a clean run, so injects == serviced accesses).
        assert total == stats.mem.loads + stats.mem.stores
        assert "NUMA" in stats.summary()
        assert stats.to_dict()["numa"] == {
            "local_accesses": stats.numa["local_accesses"],
            "remote_accesses": stats.numa["remote_accesses"],
        }

    def test_non_numa_runs_report_nothing(self):
        # Monaco tallies no locality split: the key must stay absent so
        # existing stats digests are untouched.
        run = _run(ArchParams(), config=MONACO)
        assert run.stats.numa == {}
        assert "numa" not in run.stats.to_dict()
        assert "NUMA" not in run.stats.summary()

    def test_numa_counters_equal_serial_vs_parallel(self, tmp_path):
        kwargs = dict(
            workloads=[WORKLOAD],
            configs=[numa(2)],
            scale=SCALE,
            seeds=(0,),
        )
        serial = run_parallel(max_workers=1, **kwargs)
        pooled = run_parallel(
            max_workers=2, cache_dir=tmp_path / "cache", **kwargs
        )
        key = (WORKLOAD, numa(2).name, 0)
        assert serial[key].stats.numa == pooled[key].stats.numa
        assert serial[key].stats.numa["local_accesses"] > 0

    def test_manifest_carries_stable_energy_block(self, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        for path in (first, second):
            run_resilient(
                sweep_specs([WORKLOAD], [upea(2), MONACO], scale=SCALE),
                max_workers=1,
                manifest_path=path,
            )
        records = read_manifest(first)
        for record in records:
            energy = record["energy"]
            assert energy["total_pj"] > 0
            assert energy["mem_issue_pj"] > 0
            assert energy["data_movement_pj"] == pytest.approx(
                energy["total_pj"]
                - energy["compute_pj"]
                - energy["control_pj"]
            )
            # Energy derives from stable counters: part of the stable
            # view, not a volatile key.
            assert "energy" in stable_view(record)
        # Byte-for-byte digest stability across repeat runs.
        a = [json.dumps(stable_view(r), sort_keys=True)
             for r in records]
        b = [json.dumps(stable_view(r), sort_keys=True)
             for r in read_manifest(second)]
        assert a == b


class TestRecording:
    def test_a_recording_is_integer_columns_of_whole_rows(
        self, recordings, tmp_path
    ):
        """A timelined run records all six columns as ``array('q')`` of
        whole rows, and its tick rows account for every per-tick row."""
        run = _run(_traced_arch(trace_path=str(tmp_path / "trace.json")))
        (rec,) = recordings
        assert tuple(rec.lengths()) == tuple(FIELDS)
        assert set(vars(rec)) == set(FIELDS) | {"saved"}
        for name, fields in FIELDS.items():
            column = getattr(rec, name)
            assert isinstance(column, array) and column.typecode == "q"
            assert len(column) % len(fields) == 0, name
        assert list(rec.ticks[-3:]) == [
            len(getattr(rec, name))
            for name in ("emitted", "fired", "changes")
        ]
        counted, pushes = [0, 0, 0], Counter()
        for _now, emitted, fired, _popped, pushed, _over, changes in Walk(
            rec
        ):
            for k, rows in enumerate((emitted, fired, changes)):
                counted[k] += len(rows)
            pushes.update(pushed)
        assert Walk(rec).push_counts() == pushes
        assert counted == [
            len(getattr(rec, name)) // len(FIELDS[name])
            for name in ("emitted", "fired", "changes")
        ]
        assert len(rec.skips) // 2 == len(
            [e for e in run.obs.chrome.events if e["pid"] == 2]
        )

    def test_only_a_bucket_reader_classifies_stalls(
        self, recordings, monkeypatch
    ):
        """A run with only the critical path or the checker on never
        classifies a stall bucket (no ``changes`` column, no
        ``_stall_reason`` call); a run with attribution on does."""
        from repro.sim.engine import _Engine

        classified = []
        real = _Engine._stall_reason

        def counted(engine, nid):
            classified.append(nid)
            return real(engine, nid)

        monkeypatch.setattr(_Engine, "_stall_reason", counted)
        for sim, buckets in (
            (dict(critpath=True), False),
            (dict(check=True), False),
            (dict(critpath=True, check=True), False),
            (dict(trace=True), True),
        ):
            classified.clear()
            recordings.clear()
            _run(ArchParams(sim=SimParams(**sim)))
            (rec,) = recordings
            assert (rec.changes is not None) == buckets, sim
            assert bool(classified) == buckets, sim
            if buckets:
                assert len(rec.changes) > 0

    def test_walk_names_the_push_behind_each_pop(self):
        """A hand-built recording: producer 0 emits (event 0) and fires a
        ``PUSH`` (event 1) at cycle 2, both tokens landing on consumer
        2's port 0; node 2 pops them at cycles 4 and 6, in FIFO order,
        while 0 pushes again at 4 (event 3) — after that tick's pop, so
        the FIFO never exceeds its capacity of 2 and is full before
        either pop — and pops that token at 8 from a FIFO no longer
        full. The walk is format-level: which op could emit and push is
        not its concern."""
        dfg = SimpleNamespace(consumers=lambda: {0: [(2, 0)], 2: []})
        rec = Recording(buckets=True, services=False)
        pop = (2, POPS[(0,)], SILENT)
        for now, emits, fired in (
            (2, 1, [(0, 0, PUSH)]),
            (4, 0, [pop, (0, 0, PUSH)]),
            (6, 0, [pop]),
            (8, 0, [pop]),
        ):
            rec.emitted.extend([0] * len(FIELDS["emitted"]) * emits)
            for row in fired:
                rec.fired.extend(row)
            rec.ticks.extend((now, len(rec.emitted), len(rec.fired), 0))

        walk = Walk(rec, dfg, capacity=2)
        ticks = list(walk)
        assert [tick[3] for tick in ticks] == [
            [()], [[(0, True, 0)], ()], [[(0, True, 1)]], [[(0, False, 3)]]
        ]
        assert [tick[4] for tick in ticks] == [[0, 0], [0], [], []]
        assert [tick[5] for tick in ticks] == [[], [], [], []]
        assert walk.push_counts() == {0: 3}
        assert walk.cycle == [2, 2, 4, 4, 6, 8]
        assert walk.nid == [0, 0, 2, 0, 2, 2]
        assert not walk.fifos[2, 0]
        # One slot fewer: the first tick's second push overfills the FIFO.
        first, *_ = Walk(rec, dfg, capacity=1)
        assert first[5] == [((2, 0), 2)]
        # Unmirrored, the same walk numbers nothing and pops nothing.
        plain = Walk(rec)
        assert [tick[3] for tick in plain] == [(), (), (), ()]
        assert plain.cycle == []


#: ``pickle.dumps(run.obs)`` of the spmspv/tiny points below when every
#: probe was a live sink of an event bus: what a pooled worker sent back.
OBS_PICKLE_BYTES_BEFORE_RECORDING = {"probes": 55_157, "timeline": 309_348}


def test_run_obs_carries_the_probes_not_the_recording(tmp_path):
    """``SimResult.obs`` holds the built reports: its pickle names no
    recording column and is no bigger than the live sinks' was."""
    for case, sim in (
        ("probes", dict(trace=True, critpath=True, check=True)),
        ("timeline", dict(trace=True, trace_path=str(tmp_path / "t.json"))),
    ):
        blob = pickle.dumps(_run(ArchParams(sim=SimParams(**sim))).obs)
        named = set()

        class Globals(pickle.Unpickler):
            def find_class(self, module, name):
                named.add(f"{module}.{name}")
                return super().find_class(module, name)

        Globals(io.BytesIO(blob)).load()
        assert not {"array.array", "array._array_reconstructor",
                    "repro.obs.events.Recording"} & named, case
        assert len(blob) <= OBS_PICKLE_BYTES_BEFORE_RECORDING[case], case


class TestNumaCounters:
    def test_numa_frontend_publishes_locality(self):
        run = _run(_traced_arch(), config=numa(2))
        counters = run.obs.attribution.counters
        total = counters["numa-local"] + counters["numa-remote"]
        assert total > 0
        # Counted once, by the frontend: the sink reads SimStats.numa.
        assert counters == {
            "numa-local": run.stats.numa["local_accesses"],
            "numa-remote": run.stats.numa["remote_accesses"],
        }

    def test_hybrid_frontend_reports_its_split_too(self):
        run = _run(_traced_arch(), config=hybrid(2))
        counters = run.obs.attribution.counters
        assert sum(counters.values()) == sum(run.stats.numa.values()) > 0
        assert "counter numa-" in run.obs.attribution.render()


def test_bank_services_are_recorded_only_for_a_timeline(
    recordings, tmp_path
):
    """The memory system records bank services only for the Chrome
    timeline, the one probe that draws them."""
    chrome = str(tmp_path / "trace.json")
    for sim, expected in (
        (dict(check=True), False),
        (dict(critpath=True), False),
        (dict(trace=True), False),
        (dict(trace=True, trace_path=chrome), True),
    ):
        recordings.clear()
        run = _run(ArchParams(sim=SimParams(**sim)))
        assert run.obs is not None
        (rec,) = recordings
        assert (rec.services is not None) == expected, sim
        if expected:
            assert len(rec.services) // 4 == run.stats.mem.loads + (
                run.stats.mem.stores
            )


class TestDeadlockReport:
    def test_report_ranks_blocked_nodes(self):
        from repro.dfg.graph import PortRef
        from repro.errors import DeadlockError
        from repro.sim.engine import simulate

        arch = ArchParams(sim=SimParams(deadlock_cycles=2_000))
        instance, compiled = _compile(arch)
        victim = next(
            n for n in compiled.dfg.nodes.values() if n.op == "binop"
        )
        victim.inputs[0] = PortRef(victim.nid)
        with pytest.raises(DeadlockError) as excinfo:
            simulate(compiled, instance.params, instance.arrays, arch)
        text = str(excinfo.value)
        assert "Blocked nodes" in text
        # Each entry shows stall reason, FIFO occupancies, outstanding mem.
        assert "fifos" in text
        assert "mem-outstanding" in text
        assert "[operand-wait]" in text or "[output-backpressure]" in text
