"""Tests for mid-simulation checkpoint/restore (:mod:`repro.sim.snapshot`).

Contracts under test:

* **split-run bit-identity** — preempt at a pseudo-random cycle, resume
  from the snapshot, and the stats digest + final memory equal an
  uninterrupted run, on every workload, with fault injection and
  critical-path profiling each on or off, under the skipping scheduler
  and the per-cycle reference loop;
* **edge budgets** — preemption before the first executed cycle and one
  cycle before quiescence both resume exactly;
* **crash-safe files** — a torn snapshot, a foreign file, version skew,
  a failed checksum, a wrong config digest, a double resume and saved
  state that does not fit its class's declaration are all refused with
  :class:`~repro.errors.SnapshotError`; a stale ``.tmp`` (SIGKILL
  between write and rename) is never read; the ``discard`` policy
  unlinks the bad file and restarts from cycle 0;
* **cooperative preemption** — SIGTERM sets the watchdog flag, the
  engine snapshots-then-raises at the next boundary, and the sweep's
  two-stage grace alarm lets a timed-out job exit cooperatively;
* **declared state** — a payload names no class but containers and the
  value dataclasses captured whole (never the DFG, a sink or a bound
  method); the latency reservoir and the fault LCG streams continue
  their exact sequences after restore, and ``sim.check`` proves
  serialize/deserialize lossless, probes included, on every periodic
  write;
* **sweep recovery** — a cycle-budgeted sweep records its preempted
  points, ``--resume`` reruns continue them from their snapshots, and the
  results and (keyed) manifest records are bit-identical to an
  uninterrupted sweep.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import random
import signal
import types
from dataclasses import replace

import pytest

from repro.arch.clocks import PAPER_DIVIDER
from repro.arch.fabric import monaco
from repro.arch.memory import AddressMap
from repro.arch.params import ArchParams, FaultParams, SimParams
from repro.core.policy import EFFCC
from repro.errors import (
    ExperimentError,
    JobTimeout,
    SimulationError,
    SimulationPreempted,
    SnapshotError,
)
from repro.exp.configs import MONACO, hybrid, numa, upea
from repro.exp.resilient import SweepPolicy, call_with_timeout, run_resilient
from repro.exp.runner import compile_cached
from repro.exp.spec import RunSpec, sweep_specs
from repro.obs.events import FIELDS
from repro.obs.manifest import completed_points, read_manifest, stable_view
from repro.sim.engine import _Engine, simulate
from repro.sim.faults import _Stream
from repro.sim.memsys import DELIVER, MemorySystem
from repro.sim.snapshot import (
    SNAPSHOT_MAGIC,
    CheckpointConfig,
    Watchdog,
    capture,
    check_boundary_invariants,
    load_snapshot,
    restore,
    sidecar_path,
    sim_config_digest,
)
from repro.sim.stats import RESERVOIR_CAP, LatencyAccumulator
from repro.workloads.registry import ALL_WORKLOADS, make_workload

SCALE = "tiny"

#: Known-good injection mix: visible fault volume in every category that
#: perturbs timing without dropping responses (a dropped response
#: deadlocks by design — that detector has its own suite).
FAULTS = FaultParams(
    seed=3,
    mem_delay_prob=0.02,
    mem_delay_cycles=7,
    pe_stall_prob=0.01,
    grant_skip_prob=0.01,
)

_COMPILED: dict[str, tuple] = {}


def _compiled(name):
    """One compile per workload for the whole module — the snapshot layer
    is pure simulation state, so every toggle combination can share it."""
    if name not in _COMPILED:
        instance = make_workload(name, scale=SCALE, seed=0)
        compiled = compile_cached(
            instance, monaco(12, 12), ArchParams(), policy=EFFCC, seed=0
        )
        _COMPILED[name] = (instance, compiled)
    return _COMPILED[name]


def _arch(**sim_kwargs) -> ArchParams:
    arch = ArchParams()
    return replace(arch, sim=replace(arch.sim, **sim_kwargs))


def _simulate(name, arch, config=MONACO, **kwargs):
    instance, compiled = _compiled(name)
    divider = max(PAPER_DIVIDER, compiled.timing.clock_divider)
    return simulate(
        compiled,
        instance.params,
        instance.arrays,
        arch,
        frontend_factory=config.frontend_factory(divider),
        divider=divider,
        **kwargs,
    )


def _digest(result) -> str:
    return json.dumps(result.stats.to_dict(), sort_keys=True)


def _split(name, arch, budget, path, config=MONACO, at_split=None):
    """Preempt after ``budget`` executed cycles, then resume to the end;
    ``at_split`` must hold of the machine state the snapshot holds."""
    with pytest.raises(SimulationPreempted) as info:
        _simulate(
            name,
            arch,
            config,
            checkpoint=CheckpointConfig(path=path, cycle_budget=budget),
        )
    assert info.value.kind == "preempted"
    assert info.value.snapshot_path == path
    assert os.path.exists(path)
    if at_split is not None:
        with open(path, "rb") as handle:
            state = pickle.loads(pickle.loads(handle.read())["payload"])
        assert at_split(state), "the snapshot does not hold the state"
    return _simulate(name, arch, config, checkpoint=CheckpointConfig(path))


class _BoundaryWatch:
    """Stands on ``engine.snapshots`` as a checkpointer does, so it is
    polled at every cycle boundary: ``budgets`` lists the executed-cycle
    counts at whose boundary ``holds(engine)`` is true — the cycle
    budgets that split a run there."""

    def __init__(self, holds):
        self.holds, self.budgets = holds, []

    def boundary(self, engine):
        if self.holds(engine):
            self.budgets.append(engine.stats.executed_cycles)


def _watched(name, arch, config, holds, monkeypatch):
    """An uninterrupted run, and the budgets at which ``holds``."""
    watch, run = _BoundaryWatch(holds), _Engine.run

    def watched(engine):
        engine.snapshots = watch
        return run(engine)

    with monkeypatch.context() as patch:
        patch.setattr(_Engine, "run", watched)
        full = _simulate(name, arch, config)
    return full, watch.budgets


def _split_where(name, config, live, saved, tmp_path, monkeypatch):
    """Split a probed run at the middle one of the boundaries at which
    ``live(engine)`` holds, read off the uninterrupted run, check
    ``saved`` of the snapshot's state, resume, and return the resumed
    and the uninterrupted results."""
    arch = _arch(
        trace=True, critpath=True, trace_path=str(tmp_path / "trace.json"),
    )
    full, budgets = _watched(name, arch, config, live, monkeypatch)
    assert budgets, "the state to split at never arose"
    budget = budgets[len(budgets) // 2]
    resumed = _split(
        name, arch, budget, str(tmp_path / "p.snap"), config,
        at_split=saved,
    )
    assert resumed.resume_info["executed_before"] == budget
    return resumed, full


def _assert_reports_alike(resumed, full):
    """Digest, final memory and every probe output agree."""
    assert _digest(resumed) == _digest(full)
    assert resumed.memory == full.memory
    a, b = resumed.obs, full.obs
    assert a.attribution.per_node == b.attribution.per_node
    assert a.fmnoc_heatmap.stage_traffic == b.fmnoc_heatmap.stage_traffic
    assert a.chrome.events == b.chrome.events
    assert a.critpath.report == b.critpath.report


# -- split-run bit-identity, all workloads x all mode toggles ---------------


class TestSplitRunBitIdentity:
    @pytest.mark.parametrize("skip", [True, False], ids=["skip", "noskip"])
    @pytest.mark.parametrize("faults", [True, False], ids=["faults", "clean"])
    @pytest.mark.parametrize("crit", [True, False], ids=["critpath", "plain"])
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_resume_matches_uninterrupted_run(
        self, name, skip, faults, crit, tmp_path, request
    ):
        if not skip:
            request.getfixturevalue("per_cycle_loop")
        arch = _arch(critpath=crit, faults=FAULTS if faults else None)
        full = _simulate(name, arch)
        executed = full.stats.executed_cycles
        # Pseudo-random but reproducible split point per combination.
        rng = random.Random(f"{name}:{skip}:{faults}:{crit}")
        budget = rng.randint(1, max(1, executed - 1))

        path = str(tmp_path / "point.snap")
        resumed = _split(name, arch, budget, path)

        assert _digest(resumed) == _digest(full)
        assert resumed.memory == full.memory
        assert resumed.resume_info is not None
        assert resumed.resume_info["from_cycle"] > 0
        # Clean completion retires the snapshot.
        assert not os.path.exists(path)

    @pytest.mark.parametrize("skip", [True, False], ids=["skip", "noskip"])
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_traced_resume_reproduces_every_probe_output(
        self, name, skip, tmp_path, request
    ):
        """The sinks hold run-length state (open stall runs, a running
        histogram, per-producer push counts) and the engine's bucket
        cache does not survive a restore: the resumed run must still
        report exactly what the uninterrupted one does."""
        if not skip:
            request.getfixturevalue("per_cycle_loop")
        arch = _arch(trace=True, trace_path=str(tmp_path / "trace.json"))
        full = _simulate(name, arch)
        rng = random.Random(f"{name}:{skip}:traced")
        budget = rng.randint(1, max(1, full.stats.executed_cycles - 1))
        resumed = _split(name, arch, budget, str(tmp_path / "point.snap"))

        assert _digest(resumed) == _digest(full)
        a, b = resumed.obs, full.obs
        assert a.attribution.per_node == b.attribution.per_node
        assert a.attribution.render() == b.attribution.render()
        assert a.noc_heatmap.edge_tokens == b.noc_heatmap.edge_tokens
        assert a.noc_heatmap.channel_tokens == b.noc_heatmap.channel_tokens
        assert a.fmnoc_heatmap.stage_traffic == b.fmnoc_heatmap.stage_traffic
        assert a.chrome.events == b.chrome.events

    @pytest.mark.parametrize(
        "config", [MONACO, hybrid(2)], ids=lambda c: c.name
    )
    def test_resume_with_a_request_in_an_arbiter_latch(
        self, config, tmp_path, monkeypatch
    ):
        """A snapshot taken while a request sits in an arbiter latch
        restores the latches, and the per-stage held counts a tick skips
        idle stages by are rebuilt from them: the resumed run reports
        what the uninterrupted one does. The split cycle is read off the
        uninterrupted run, not left to a random budget."""
        resumed, full = _split_where(
            "spmspv", config,
            lambda engine: any(
                arbiter.latch is not None
                for arbiter in engine.frontend.arbiters.values()
            ),
            lambda state: any(
                arbiter["latch"] is not None
                for arbiter in state["frontend"]["arbiters"].values()
            ),
            tmp_path, monkeypatch,
        )
        _assert_reports_alike(resumed, full)

    @pytest.mark.parametrize(
        "config", [upea(2), numa(2), hybrid(2)], ids=lambda c: c.name
    )
    def test_resume_with_a_request_on_a_fixed_delay(
        self, config, tmp_path, monkeypatch
    ):
        """A snapshot taken while a request waits out a fixed delay on
        its way to memory — an entry of the engine's calendar — restores
        the calendar: the resumed run reports what the uninterrupted one
        does."""

        def waiting(calendar):
            return any(kind == DELIVER for _, kind, _, _ in calendar)

        resumed, full = _split_where(
            "spmspv", config,
            lambda engine: waiting(engine.calendar.entries),
            lambda state: waiting(state["calendar"]["entries"]),
            tmp_path, monkeypatch,
        )
        _assert_reports_alike(resumed, full)

    @pytest.mark.parametrize("name", ["spmspv", "dmv"])
    def test_budget_zero_snapshots_pristine_state(self, name, tmp_path):
        full = _simulate(name, ArchParams())
        path = str(tmp_path / "zero.snap")
        resumed = _split(name, ArchParams(), 0, path)
        assert resumed.resume_info["from_cycle"] == 0
        assert _digest(resumed) == _digest(full)
        assert resumed.memory == full.memory

    def test_budget_one_short_of_quiescence(self, tmp_path):
        full = _simulate("dmv", ArchParams())
        executed = full.stats.executed_cycles
        path = str(tmp_path / "last.snap")
        resumed = _split("dmv", ArchParams(), executed - 1, path)
        assert resumed.resume_info["executed_before"] == executed - 1
        assert _digest(resumed) == _digest(full)
        assert resumed.memory == full.memory

    def test_rules_compile_once_per_node_and_survive_restore(
        self, tmp_path, monkeypatch
    ):
        """Firing rules are built when the engine is (one per node, never
        per firing), and a restore refills the deques they closed over in
        place: the resumed run compiles nothing after its own init and
        still ends on the uninterrupted digest."""
        import repro.sim.engine as engine_mod

        compiles = []
        real = engine_mod.compile_rule

        def counting(node, row, params, sizes):
            compiles.append(node.nid)
            return real(node, row, params, sizes)

        monkeypatch.setattr(engine_mod, "compile_rule", counting)
        _instance, compiled = _compiled("spmspv")
        nodes = sorted(compiled.dfg.nodes)

        full = _simulate("spmspv", ArchParams())
        assert sorted(compiles) == nodes
        assert sum(full.stats.firings.values()) > 10 * len(nodes)

        compiles.clear()
        budget = full.stats.executed_cycles // 2
        resumed = _split(
            "spmspv", ArchParams(), budget, str(tmp_path / "rules.snap")
        )
        # Two simulate() calls (preempted + resumed), one build each.
        assert sorted(compiles) == sorted(nodes * 2)
        assert resumed.resume_info["from_cycle"] > 0
        assert _digest(resumed) == _digest(full)
        assert resumed.memory == full.memory

    def test_periodic_writes_are_detached_and_check_verified(self, tmp_path):
        # sim.check on: every periodic write round-trips the payload and
        # compares it against the live machine (verify_roundtrip), so a
        # green run here proves serialization lossless at ~7 boundaries.
        arch = _arch(check=True)
        base = _simulate("spmspv", arch)
        path = str(tmp_path / "periodic.snap")
        journal = tmp_path / "journal.jsonl"
        run = _simulate(
            "spmspv",
            arch,
            checkpoint=CheckpointConfig(
                path=path, every_cycles=100, journal_path=str(journal)
            ),
        )
        assert len(read_manifest(journal)) >= 5
        assert _digest(run) == _digest(base)
        assert run.memory == base.memory
        assert not os.path.exists(path)

    def test_checked_resume_keeps_the_checker_ledgers(self, tmp_path):
        """The checker replays the whole recording, the rows before the
        snapshot read back from its sidecar: a checked run preempted
        mid-way resumes to the uninterrupted digest, and its checker
        ends on the same ledgers."""
        arch = _arch(check=True)
        full = _simulate("spmspv", arch)
        budget = full.stats.executed_cycles // 2
        resumed = _split("spmspv", arch, budget, str(tmp_path / "c.snap"))
        assert resumed.resume_info["from_cycle"] > 0
        assert _digest(resumed) == _digest(full)
        a, b = resumed.obs.check, full.obs.check
        assert (a.fired, a.issues, a.responses) == (
            b.fired, b.issues, b.responses
        )

    def test_quiescence_violation_keeps_the_snapshot(
        self, tmp_path, monkeypatch
    ):
        """The checker's quiescence audit runs before the checkpointer
        retires its file: a failed audit leaves the snapshot behind."""
        from repro.check.invariants import (
            InvariantChecker,
            InvariantViolation,
        )

        def broken(checker, stats, engine):
            checker._fail("quiescence", "injected by the test")

        monkeypatch.setattr(InvariantChecker, "finish", broken)
        path = str(tmp_path / "kept.snap")
        with pytest.raises(InvariantViolation, match="quiescence"):
            _simulate(
                "spmspv",
                _arch(check=True),
                checkpoint=CheckpointConfig(path=path, every_cycles=100),
            )
        assert os.path.exists(path)

    def test_sim_knobs_arm_checkpointer(self, tmp_path, monkeypatch):
        """``repro run --snapshot-dir/--checkpoint-every`` arm a
        checkpointer through the sweep's job path; without them the
        engine carries none."""
        from repro.cli import main
        from repro.sim.snapshot import Checkpointer

        armed, writes = [], []
        run_engine, write = _Engine.run, Checkpointer.write

        def spy(engine):
            armed.append(engine.snapshots)
            return run_engine(engine)

        def counted(checkpointer, engine):
            writes.append(checkpointer.config.path)
            return write(checkpointer, engine)

        monkeypatch.setattr(_Engine, "run", spy)
        monkeypatch.setattr(Checkpointer, "write", counted)
        snaps = tmp_path / "snaps"
        stats = str(tmp_path / "stats.json")
        base = _simulate("dmv", ArchParams())
        assert main([
            "run", "dmv", "--scale", SCALE, "--snapshot-dir", str(snaps),
            "--checkpoint-every", "100", "--stats-json", stats,
        ]) == 0
        # Off: no checkpointer on the engine.
        assert armed[0] is None
        assert armed[1].config.every_cycles == 100
        assert writes and set(writes) == {armed[1].config.path}
        with open(stats, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload.pop("energy")
        assert payload == json.loads(_digest(base))
        assert armed[1].config.path.startswith(str(snaps))
        assert not os.listdir(snaps)


# -- rejection: every invalid-resume path -----------------------------------


class TestRejection:
    def _snap(self, tmp_path, name="dmv", config=MONACO):
        """A valid snapshot file, produced by preempting a real run."""
        path = str(tmp_path / "victim.snap")
        with pytest.raises(SimulationPreempted):
            _simulate(
                name,
                ArchParams(),
                config,
                checkpoint=CheckpointConfig(path=path, cycle_budget=50),
            )
        return path

    def _rewrite(self, path, mutate):
        with open(path, "rb") as handle:
            blob = pickle.loads(handle.read())
        mutate(blob)
        with open(path, "wb") as handle:
            handle.write(pickle.dumps(blob))

    def test_missing_file_strict(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot"):
            load_snapshot(str(tmp_path / "absent.snap"))

    def test_torn_file_strict(self, tmp_path):
        path = self._snap(tmp_path)
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        with pytest.raises(SnapshotError, match="torn or corrupt"):
            load_snapshot(path)

    def test_torn_file_discard_unlinks_and_restarts(self, tmp_path):
        full = _simulate("dmv", ArchParams())
        path = self._snap(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"\x80garbage")
        fresh = _simulate(
            "dmv", ArchParams(), checkpoint=CheckpointConfig(path)
        )
        # Bad file discarded, run restarted from cycle 0, still correct.
        assert fresh.resume_info is None
        assert _digest(fresh) == _digest(full)
        assert not os.path.exists(path)

    def test_journal_after_a_torn_tail_keeps_every_write(self, tmp_path):
        """A killed writer's torn journal line costs only itself: the
        checkpointer's next record is not glued onto it."""
        clean, torn = tmp_path / "clean.jsonl", tmp_path / "torn.jsonl"
        torn.write_text('{"schema": 4, "sta')  # killed mid-append
        for journal in (clean, torn):
            _simulate(
                "dmv",
                ArchParams(),
                checkpoint=CheckpointConfig(
                    path=str(tmp_path / "run.snap"),
                    every_cycles=100,
                    journal_path=str(journal),
                ),
            )
        written = read_manifest(clean)
        assert written and {r["status"] for r in written} == {"snapshot"}
        assert read_manifest(torn, strict=False) == written

    def test_short_sidecar_discards_the_probed_snapshot(self, tmp_path):
        """A recording sidecar that holds fewer rows than its snapshot
        counts is refused, so the point restarts from cycle 0."""
        arch = _arch(critpath=True)
        path = str(tmp_path / "probed.snap")
        with pytest.raises(SimulationPreempted):
            _simulate(
                "spmspv", arch,
                checkpoint=CheckpointConfig(path, cycle_budget=300),
            )
        fired = os.path.join(sidecar_path(path), "fired")
        os.truncate(fired, os.path.getsize(fired) - 12)
        with pytest.raises(SnapshotError, match="fewer 'fired' rows"):
            load_snapshot(path)
        run = _simulate("spmspv", arch, checkpoint=CheckpointConfig(path))
        assert run.resume_info is None
        assert _digest(run) == _digest(_simulate("spmspv", arch))

    def test_foreign_file_refused(self, tmp_path):
        path = str(tmp_path / "foreign.snap")
        with open(path, "wb") as handle:
            handle.write(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(SnapshotError, match="not a simulator snapshot"):
            load_snapshot(path)

    def test_version_skew_refused(self, tmp_path):
        # Versions 1-11 are real history: their state has another layout
        # (1: no open runs, per-edge token counters; 2: a ``skipped``
        # bucket beside the open runs; 3: a handler table naming
        # ``on_gap`` / ``on_counter``; 4: the invariant checker as a
        # ``check`` entry beside the bus; 5: a ``mem`` block in the
        # stats state; 6: hand-keyed engine tables and the probe object
        # pickled whole; 7: an arbiter stall counter and a fault-stream
        # draw counter; 8: FM-NoC stage traffic counted per stage rather
        # than issues per node; 9: every probe's accumulated state, event
        # logs and timeline included, rather than the recording's
        # lengths; 10: a stall-bucket change recorded as two int64s,
        # ``nid`` and ``bucket``, not one; 11: a request's timed hops on
        # four heaps — the engine's arrivals, memory's completions, a
        # UPEA pipe, the hybrid's stage — not on one calendar), so a
        # snapshot from those builds must be refused by name, up front.
        path = self._snap(tmp_path)
        for version in (99, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11):
            self._rewrite(
                path, lambda blob: blob.__setitem__("version", version)
            )
            with pytest.raises(
                SnapshotError, match=f"version {version}, this build reads"
            ):
                load_snapshot(path)

    def test_checksum_mismatch_refused(self, tmp_path):
        path = self._snap(tmp_path)
        self._rewrite(path, lambda blob: blob.__setitem__("sha256", "0" * 64))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path)

    def test_wrong_config_digest_refused(self, tmp_path):
        # Snapshot taken under Monaco; resuming the same workload under a
        # UPEA frontend is refused by name, never silently restored: the
        # simulation discards the file and starts from cycle 0.
        path = self._snap(tmp_path, config=MONACO)
        full = _simulate("dmv", ArchParams(), upea(2))
        with pytest.raises(SnapshotError, match="different configuration"):
            load_snapshot(path, expect_digest="0" * 16)
        fresh = _simulate(
            "dmv", ArchParams(), upea(2), checkpoint=CheckpointConfig(path)
        )
        assert fresh.resume_info is None
        assert _digest(fresh) == _digest(full)
        assert fresh.memory == full.memory
        assert not os.path.exists(path)

    def test_stale_tmp_is_never_read(self, tmp_path):
        # SIGKILL between write and rename leaves garbage at <path>.tmp;
        # the loader only ever reads the published path.
        path = self._snap(tmp_path)
        with open(path + ".tmp", "wb") as handle:
            handle.write(b"killed mid-write")
        snap = load_snapshot(path)
        assert snap.meta["cycle"] >= 0

    def test_double_resume_refused(self, tmp_path):
        path = self._snap(tmp_path)
        snap = load_snapshot(path)
        sink = types.SimpleNamespace(load_state_dict=lambda state: None)
        snap.install(sink)
        with pytest.raises(SnapshotError, match="already resumed"):
            snap.install(sink)

    def test_state_that_does_not_fit_is_refused_before_any_write(self):
        """A saved state whose names differ from the declaration, or a
        table of another shape, is refused with nothing restored."""
        stream = _Stream(3, "mem-delay", 0.25)
        before = capture(stream)
        with pytest.raises(SnapshotError, match="declared attributes"):
            restore(stream, {"state": 1, "draws": 2})
        assert capture(stream) == before

        _instance, compiled = _compiled("dmv")
        arch = ArchParams()
        data = {name: [0] * size for name, size in compiled.dfg.arrays.items()}
        memsys = MemorySystem(
            arch.memory, AddressMap(compiled.dfg.arrays, arch.memory), data
        )
        name = next(iter(data))
        saved = capture(memsys)
        saved["data"][name][0] = 99  # fits, and is declared first
        saved["bank_queues"].pop()
        with pytest.raises(SnapshotError, match=r"bank_queues has another"):
            restore(memsys, saved)
        assert data[name][0] == 0
        saved = capture(memsys)
        saved["data"][name].append(0)
        with pytest.raises(SnapshotError, match=r"data has another shape"):
            restore(memsys, saved)

    def test_boundary_invariants_refuse_corrupt_state(self):
        engine = types.SimpleNamespace(
            stats=types.SimpleNamespace(executed_cycles=3, skipped_cycles=0),
            now=5,
            fifos=types.SimpleNamespace(queues={}),
            tokens=0,
            resp_queue={},
            mem_inflight=0,
        )
        with pytest.raises(SimulationError, match="executed"):
            check_boundary_invariants(engine)
        # Ledgers sound, but a due list disagrees with its flags: a
        # flagged node missing from its list is never visited by the live
        # run, yet a resume's restore rebuilds the list from the flags,
        # so the snapshot would not continue the run it was taken from.
        engine = types.SimpleNamespace(
            stats=types.SimpleNamespace(executed_cycles=5, skipped_cycles=0),
            now=5, fifos=[], tokens=0, resp_queue=[], mem_inflight=0,
            active=bytearray([1, 0, 1]), active_due=[2, 0],
            emit_candidates=bytearray([0, 1, 0]), emit_due=[1],
        )
        check_boundary_invariants(engine)
        for name, due in (
            ("active_due", [2]), ("active_due", [0, 1, 2]),
            ("active_due", [0, 2, 2]), ("emit_due", []),
        ):
            corrupt = types.SimpleNamespace(**{**vars(engine), name: due})
            with pytest.raises(SimulationError, match=name):
                check_boundary_invariants(corrupt)


# -- configuration identity --------------------------------------------------


class TestConfigDigest:
    class _FE:
        def signature(self):
            return "dummy-frontend"

    def test_checkpoint_knobs_do_not_affect_identity(self, tmp_path):
        # Where and how often a run snapshots is its CheckpointConfig,
        # never a digest input; of the trace output path only whether a
        # Chrome timeline is collected counts.
        digests = []
        for name, every in (("a.snap", 0), ("b.snap", 7)):
            path = str(tmp_path / name)
            with pytest.raises(SimulationPreempted):
                _simulate(
                    "dmv",
                    ArchParams(),
                    checkpoint=CheckpointConfig(
                        path=path, every_cycles=every, cycle_budget=50
                    ),
                )
            digests.append(load_snapshot(path).meta["config_digest"])
        assert digests[0] == digests[1]
        _, compiled = _compiled("dmv")
        div = max(PAPER_DIVIDER, compiled.timing.clock_divider)
        base = sim_config_digest(compiled, ArchParams(), div, self._FE())
        traced = _arch(trace_path="elsewhere.json")
        assert sim_config_digest(compiled, traced, div, self._FE()) == base

    def test_negative_cadence_refused(self):
        with pytest.raises(SnapshotError, match="every_cycles"):
            CheckpointConfig(path="x.snap", every_cycles=-1)

    def test_machine_changes_change_identity(self):
        _, compiled = _compiled("dmv")
        div = max(PAPER_DIVIDER, compiled.timing.clock_divider)
        base = sim_config_digest(compiled, ArchParams(), div, self._FE())
        assert (
            sim_config_digest(compiled, _arch(fifo_capacity=4), div, self._FE())
            != base
        )
        assert (
            sim_config_digest(compiled, ArchParams(), div + 1, self._FE())
            != base
        )

        class _Other:
            def signature(self):
                return "other-frontend"

        assert (
            sim_config_digest(compiled, ArchParams(), div, _Other()) != base
        )


# -- cooperative preemption --------------------------------------------------


class TestWatchdog:
    def test_sigterm_sets_flag_first_request_wins(self):
        watchdog = Watchdog()
        previous = signal.getsignal(signal.SIGTERM)
        watchdog.install()
        try:
            os.kill(os.getpid(), signal.SIGTERM)
        finally:
            watchdog.uninstall()
        assert watchdog.reason == "signal SIGTERM"
        assert watchdog.kind == "preempted"
        watchdog.request("too late", kind="timeout")
        assert watchdog.reason == "signal SIGTERM"
        assert watchdog.kind == "preempted"
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_requested_watchdog_snapshots_then_resumes(self, tmp_path):
        full = _simulate("dmv", ArchParams())
        watchdog = Watchdog()
        watchdog.request("node reclaim imminent")
        path = str(tmp_path / "reclaim.snap")
        with pytest.raises(SimulationPreempted, match="node reclaim"):
            _simulate(
                "dmv",
                ArchParams(),
                checkpoint=CheckpointConfig(path=path, watchdog=watchdog),
            )
        resumed = _simulate(
            "dmv", ArchParams(), checkpoint=CheckpointConfig(path)
        )
        assert _digest(resumed) == _digest(full)
        assert resumed.memory == full.memory

    def test_wall_budget_preempts_with_timeout_kind(self, tmp_path):
        # A spent job wall budget reaches the engine the way the sweep's
        # grace alarm delivers it: a "timeout" request on the watchdog.
        watchdog = Watchdog()
        watchdog.request("job dmv exceeded 0.05s", kind="timeout")
        path = str(tmp_path / "wall.snap")
        with pytest.raises(SimulationPreempted) as info:
            _simulate(
                "dmv",
                ArchParams(),
                checkpoint=CheckpointConfig(path=path, watchdog=watchdog),
            )
        assert info.value.kind == "timeout"
        assert os.path.exists(path)

    def test_grace_alarm_allows_cooperative_exit(self):
        watchdog = Watchdog()

        def thunk():
            while watchdog.reason is None:
                pass
            return "cooperative"

        result = call_with_timeout(
            0.05, thunk, label="graceful", watchdog=watchdog, grace_s=30.0
        )
        assert result == "cooperative"
        assert watchdog.kind == "timeout"

    def test_grace_expiry_hard_kills(self):
        watchdog = Watchdog()

        def thunk():
            while True:
                pass

        with pytest.raises(JobTimeout):
            call_with_timeout(
                0.05, thunk, label="hung", watchdog=watchdog, grace_s=0.05
            )


# -- state round-trip units --------------------------------------------------


class TestStateDictRoundTrips:
    def test_latency_reservoir_continues_exact_stream(self):
        # A value dataclass: the capture takes it whole, so its pickled
        # copy is what a resumed run continues from.
        acc = LatencyAccumulator()
        # Push well past the reservoir cap so the LCG cursor is live.
        for i in range(RESERVOIR_CAP + 1000):
            acc.add((i * 37) % 113)
        clone = pickle.loads(pickle.dumps(acc))
        for i in range(500):
            acc.add(i % 29)
            clone.add(i % 29)
        assert clone == acc
        assert clone.to_dict() == acc.to_dict()

    def test_fault_stream_continues_exact_sequence(self):
        stream = _Stream(3, "mem-delay", 0.25)
        for _ in range(100):
            stream.hit()
        clone = _Stream(3, "mem-delay", 0.25)
        restore(clone, pickle.loads(pickle.dumps(capture(stream))))
        assert [stream.hit() for _ in range(200)] == [
            clone.hit() for _ in range(200)
        ]
        assert capture(clone) == capture(stream)

    def test_preempted_exception_survives_pickling(self):
        # The process-pool path ships the exception back to the
        # supervisor by pickle; the snapshot coordinates must survive.
        exc = SimulationPreempted(
            "preempted at cycle 41",
            kind="timeout",
            snapshot_path="p.snap",
            cycle=41,
        )
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, SimulationPreempted)
        assert (clone.kind, clone.snapshot_path, clone.cycle) == (
            "timeout",
            "p.snap",
            41,
        )


# -- what a snapshot carries -------------------------------------------------

#: Every global a payload may name: containers and the value dataclasses
#: captured whole. The program — the DFG, the sinks, the bus, the address
#: map behind a bound method — is rebuilt by the resuming run.
PAYLOAD_GLOBALS = {
    "collections.Counter",
    "collections.OrderedDict",
    "collections.deque",
    "repro.arch.fmnoc.ArbiterId",
    "repro.dfg.ops.MemRequest",
    "repro.sim.memsys.RequestRecord",
    "repro.sim.memsys.MemStats",
    "repro.sim.stats.SimStats",
    "repro.sim.stats.LatencyAccumulator",
}


class TestSnapshotContents:
    @pytest.mark.parametrize(
        "config", [MONACO, numa(2), hybrid(2)], ids=lambda c: c.name
    )
    def test_payload_holds_state_not_the_program(self, config, tmp_path):
        arch = _arch(
            trace=True, trace_path=str(tmp_path / "trace.json"),
            critpath=True, check=True, faults=FAULTS,
        )
        path = str(tmp_path / "probed.snap")
        with pytest.raises(SimulationPreempted):
            _simulate(
                "spmspv", arch, config,
                checkpoint=CheckpointConfig(path=path, cycle_budget=100),
            )
        with open(path, "rb") as handle:
            payload = pickle.loads(handle.read())["payload"]
        named = set()

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                named.add(f"{module}.{name}")
                return super().find_class(module, name)

        state = Recording(io.BytesIO(payload)).load()
        assert named <= PAYLOAD_GLOBALS, sorted(named - PAYLOAD_GLOBALS)
        # The probes keep no state: the recording's lengths stand for
        # the rows in the sidecar.
        names, lengths = state["recording"]
        assert names == tuple(FIELDS) and len(lengths) == 8 * len(FIELDS)
        assert sorted(os.listdir(sidecar_path(path))) == sorted(names)

    def test_probed_snapshot_does_not_grow_with_the_run(self, tmp_path):
        """The probes' share of a snapshot — its bytes minus a plain
        run's at the same cycle budget — is the same at 1,000 and 4,000
        executed cycles, with the critical path and the timeline on."""
        probed = _arch(
            critpath=True, trace=True, trace_path=str(tmp_path / "t.json")
        )
        shares = []
        for budget in (1_000, 4_000):
            sizes = []
            for arch in (probed, ArchParams()):
                path = str(tmp_path / "point.snap")
                with pytest.raises(SimulationPreempted):
                    _simulate(
                        "ic", arch,
                        checkpoint=CheckpointConfig(path, cycle_budget=budget),
                    )
                sizes.append(os.path.getsize(path))
                os.unlink(path)
            shares.append(sizes[0] - sizes[1])
        assert shares[0] == shares[1] > 0, shares

    def test_roundtrip_check_compares_the_probes(self, tmp_path, monkeypatch):
        """A clone whose probe state differs from the live machine's
        fails the ``sim.check`` round trip of a periodic write."""
        import repro.sim.snapshot as snapshot
        from repro.check.invariants import InvariantViolation

        def tampered(payload):
            state = pickle.loads(payload)
            if isinstance(state, dict) and state.get("recording"):
                names, lengths = state["recording"]
                state["recording"] = (names, bytes(len(lengths)))
            return state

        monkeypatch.setattr(
            snapshot,
            "pickle",
            types.SimpleNamespace(
                dumps=pickle.dumps,
                loads=tampered,
                HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
            ),
        )
        with pytest.raises(
            InvariantViolation, match="mismatch in 'recording'"
        ):
            _simulate(
                "spmspv",
                _arch(check=True),
                checkpoint=CheckpointConfig(
                    path=str(tmp_path / "p.snap"), every_cycles=100
                ),
            )

    def test_timeline_rerun_of_an_untimelined_snapshot_starts_over(
        self, tmp_path
    ):
        """A snapshot taken under ``trace`` without a timeline holds no
        Chrome sink: a rerun that asks for one starts at cycle 0 and
        writes the whole trace."""
        trace = tmp_path / "trace.json"
        timelined = _arch(trace=True, trace_path=str(trace))
        full = _simulate("spmspv", timelined)
        path = str(tmp_path / "traced.snap")
        with pytest.raises(SimulationPreempted):
            _simulate(
                "spmspv", _arch(trace=True),
                checkpoint=CheckpointConfig(path=path, cycle_budget=100),
            )
        trace.unlink()
        rerun = _simulate(
            "spmspv", timelined, checkpoint=CheckpointConfig(path=path)
        )
        assert rerun.resume_info is None
        assert rerun.obs.chrome.events == full.obs.chrome.events
        assert trace.exists()
        assert not os.path.exists(path)

    def test_cli_timeline_rerun_of_an_untimelined_snapshot(self, tmp_path):
        """``repro run --trace --trace-path`` over a point a sweep
        preempted under ``trace`` alone writes the trace and exits 0."""
        from repro.cli import main

        snaps = tmp_path / "snaps"
        spec = RunSpec(
            "spmspv", MONACO, scale=SCALE,
            arch=ArchParams(sim=SimParams(trace=True)), divider=None,
        )
        swept = run_resilient(
            [spec],
            sweep_policy=SweepPolicy(on_failure="skip", job_cycle_budget=300),
            snapshot_dir=snaps,
            max_workers=1,
            cache_dir=tmp_path / "cache",
        )
        assert [f.kind for f in swept.failures] == ["preempted"]
        assert list(snaps.glob("*.snap"))
        trace = tmp_path / "trace.json"
        assert main([
            "run", "spmspv", "--scale", SCALE, "--trace",
            "--trace-path", str(trace), "--snapshot-dir", str(snaps),
        ]) == 0
        with open(trace, encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]
        assert not list(snaps.glob("*.snap"))


# -- sweep recovery ----------------------------------------------------------


class TestSweepRecovery:
    def test_preempted_sweep_resumes_bit_identically(self, tmp_path):
        specs = sweep_specs(["dmv", "spmspv"], [MONACO], scale=SCALE)
        kwargs = dict(max_workers=1, cache_dir=tmp_path / "cache")
        clean_manifest = tmp_path / "clean.jsonl"
        clean = run_resilient(specs, manifest_path=clean_manifest, **kwargs)
        assert not clean.failures

        # Budget 150 < both points' executed cycles: every point is
        # preempted at least once, recorded, and resumed from its
        # snapshot by the next --resume round.
        snap_manifest = tmp_path / "snap.jsonl"
        snap_dir = tmp_path / "snaps"
        policy = SweepPolicy(on_failure="skip", job_cycle_budget=150)
        results = {}
        for _ in range(11):
            swept = run_resilient(
                specs,
                manifest_path=snap_manifest,
                sweep_policy=policy,
                resume=True,
                snapshot_dir=snap_dir,
                **kwargs,
            )
            assert {f.kind for f in swept.failures} <= {"preempted"}
            results.update(swept.results)
            if not swept.failures:
                break
        assert not swept.failures
        assert set(results) == set(clean.results)
        for key in clean.results:
            assert (
                results[key].stats.to_dict()
                == clean.results[key].stats.to_dict()
            )
            assert results[key].cycles == clean.results[key].cycles

        # Manifest ok-records must be compared keyed by point digest:
        # points finish in different --resume rounds, so record ORDER
        # legitimately differs from a clean sweep — content must not.
        def keyed(path):
            return {
                record["point_digest"]: stable_view(record)
                for record in read_manifest(path)
                if record["status"] == "ok"
            }

        assert keyed(snap_manifest) == keyed(clean_manifest)

        ok = [
            record
            for record in read_manifest(snap_manifest)
            if record["status"] == "ok"
        ]
        assert ok
        for record in ok:
            # Every point resumed mid-flight — its final attempt started
            # past cycle 0 and executed fewer cycles than the whole run.
            assert record["resume"]["from_cycle"] > 0
            assert record["resume"]["executed_before"] > 0

        # The checkpointer journaled its writes into the same manifest;
        # those records never count as completed points.
        snapshots = [
            record
            for record in read_manifest(snap_manifest)
            if record["status"] == "snapshot"
        ]
        assert snapshots
        assert all(
            record["snapshot_path"].endswith(".snap") for record in snapshots
        )
        assert completed_points(snap_manifest) == set(keyed(snap_manifest))

        # Clean completion drained the snapshot directory.
        assert not list(snap_dir.glob("*.snap"))

    def test_policy_validation(self):
        with pytest.raises(ExperimentError, match="checkpoint_every"):
            SweepPolicy(checkpoint_every=-1)
        with pytest.raises(ExperimentError, match="job_cycle_budget"):
            SweepPolicy(job_cycle_budget=-2)
