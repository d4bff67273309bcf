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

import json
from collections import Counter

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, SimParams
from repro.exp.configs import MONACO, hybrid, numa, upea
from repro.exp.resilient import run_resilient
from repro.exp.runner import run_parallel, run_point
from repro.exp.spec import RunSpec, sweep_specs
from repro.obs.events import FIRE, STALL_KINDS, TICK_KINDS, EventBus
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


class TestEventBus:
    def test_attach_binds_only_implemented_hooks(self):
        class Sink:
            def __init__(self):
                self.ticks = []

            def on_tick(self, now, emitted, fired, changes, pushes):
                self.ticks.append((now, emitted, fired, changes, pushes))

        bus = EventBus()
        sink = Sink()
        bus.attach(sink)
        record = ([], [(7, (0,), False, True)], [(7, FIRE)], [(7, 42)])
        bus.tick(3, *record)
        bus.skip(4, 8)  # no on_skip handler: a no-op, not an error
        assert sink.ticks == [(3, *record)]

    def test_bus_knows_at_attach_time_who_takes_bucket_changes(self):
        class Plain:
            def on_tick(self, now, emitted, fired, changes, pushes):
                pass

        class Bucketed(Plain):
            TAKES_BUCKETS = True

        bus = EventBus()
        bus.attach(Plain())
        assert not bus.wants_buckets
        bus.attach(Bucketed())
        bus.attach(Plain())
        assert bus.wants_buckets


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


def test_a_traced_run_publishes_four_event_kinds(monkeypatch):
    """Only ``tick``, ``skip``, ``mem_service`` and ``finish`` reach the
    bus: no per-cycle gap event, no per-request counter, no per-stage
    FM-NoC event."""
    import repro.obs.sinks

    class Census:
        """Takes every hook the bus can publish and counts its calls."""

        def __init__(self):
            self.kinds = Counter()

        def __getattr__(self, hook):
            if not hook.startswith("on_"):
                raise AttributeError(hook)
            return lambda *args: self.kinds.update([hook[3:]])

    census = Census()
    real = repro.obs.sinks.make_observation

    def with_census(*args, **kwargs):
        obs = real(*args, **kwargs)
        obs.attach(census)
        return obs

    monkeypatch.setattr(repro.obs.sinks, "make_observation", with_census)
    for config in (numa(2), MONACO):
        census.kinds.clear()
        run = _run(_traced_arch(), config=config)
        assert run.stats.skipped_cycles > 0
        assert set(census.kinds) <= {
            "tick", "skip", "mem_service", "finish",
        }, census.kinds
        assert census.kinds["tick"] > 0 and census.kinds["finish"] == 1


def test_publishers_get_the_bus_only_for_a_reader(monkeypatch, tmp_path):
    """The memory system publishes only when a sink reads bank service
    (the Chrome sink): a run without one makes no publish call into an
    empty handler list."""
    from repro.sim.engine import _Engine

    wired = []
    real = _Engine.run

    def spy(engine):
        wired.append(engine.memsys.obs is not None)
        return real(engine)

    monkeypatch.setattr(_Engine, "run", spy)
    chrome = str(tmp_path / "trace.json")
    for sim, expected in (
        (dict(check=True), False),
        (dict(critpath=True), False),
        (dict(trace=True), False),
        (dict(trace=True, trace_path=chrome), True),
    ):
        wired.clear()
        run = _run(ArchParams(sim=SimParams(**sim)))
        assert run.obs is not None
        assert wired == [expected], sim


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
