"""Bit-identical mid-simulation checkpoint/restore (preemption safety).

Long sweep points die to preemption — node reclaims, wall-clock limits,
``kill`` — and until this module the only recovery was rerunning the
point from cycle 0. A :class:`Checkpointer` armed on the engine writes
periodic, crash-safe snapshots of the *complete* machine state: engine
tick and cycle-skip bookkeeping, per-node FIFOs and firing state, memory
bank queues and in-flight requests, FM-NoC arbitration latches and
round-robin cursors, fault-injection LCG streams, and the observability
sinks. ``resume`` from any snapshot continues the run **bit-identically**
— the same :class:`~repro.sim.stats.SimStats`, the same final memory,
the same manifests — with cycle-skipping, fault injection and
critical-path profiling each on or off.

Three properties carry the design:

* **One pickle, shared identity.** A :class:`RequestRecord` in flight is
  simultaneously the engine's ``resp_queue`` entry *and* a bank-queue /
  completions-heap / frontend-latch entry. The whole state dict is
  serialized in a single ``pickle.dumps`` call, whose memo preserves that
  aliasing — restore rebuilds the same object graph, not per-container
  copies that would decouple on the next mutation.
* **Crash-safe files.** Snapshots are written to ``<path>.tmp``, fsynced,
  then :func:`os.replace`'d over ``<path>``. A SIGKILL between write and
  rename leaves a stale ``.tmp`` the loader never reads; the previous
  snapshot stays valid. The payload carries a SHA-256 checksum and a
  version tag, and the header pins a :func:`sim_config_digest` so a
  snapshot can never be resumed under a different kernel, architecture,
  clock divider or frontend.
* **Cooperative preemption.** A :class:`Watchdog` turns SIGTERM/SIGINT
  (and the sweep supervisor's grace alarm) into a flag the engine polls
  at cycle boundaries; the checkpointer then writes a final snapshot and
  raises :class:`~repro.errors.SimulationPreempted`, which the sweep
  layer classifies as retryable — the retry restarts from the snapshot,
  not from cycle 0.

Zero-overhead contract: the engine's only new per-cycle cost is one
``is not None`` test on ``engine.snapshots``; with checkpointing off
the engine carries no checkpointer and an armed run's results equal the
detached run's (``tests/test_snapshot.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import signal
import time
from dataclasses import dataclass

from repro.errors import SimulationError, SimulationPreempted, SnapshotError

SNAPSHOT_MAGIC = "repro-sim-snapshot"
#: Bump on any change to the engine state layout — resuming across
#: versions is refused rather than silently mis-restored. The sinks are
#: pickled whole, so their layout counts: 2 = sinks that hold open stall
#: runs, a running histogram and per-producer push counts; 3 = an
#: attribution sink that books scheduler jumps into the open runs (no
#: ``skipped`` bucket), and ``SimParams`` one field shorter; 4 = a bus
#: of five event kinds (a version 3 bus pickles the gap event's hook);
#: 5 = one probe object, the invariant checker one of its sinks (a
#: version 4 state carries the checker as a separate ``check`` entry).
SNAPSHOT_VERSION = 5


# -- configuration identity ------------------------------------------------


def sim_config_digest(compiled, arch, divider, frontend, params=None) -> str:
    """Identity of everything that must match for a resume to be sound.

    Covers the kernel (node set, arrays, placement), the architecture
    knobs, the clock divider, runtime params, and the frontend's own
    :meth:`signature` (which pins machine-config state such as the UPEA
    delay or a NUMA domain assignment that ``ArchParams`` never sees).
    The trace output path is nulled out first, and the
    :class:`CheckpointConfig` is no input: *where* you snapshot must not
    affect *whether* you may resume.
    """
    sim = dataclasses.replace(arch.sim, trace_path=None)
    dfg = compiled.dfg
    identity = {
        "version": SNAPSHOT_VERSION,
        "dfg": getattr(dfg, "name", ""),
        "nodes": sorted((nid, node.op) for nid, node in dfg.nodes.items()),
        "arrays": sorted(dfg.arrays.items()),
        "placement": sorted(compiled.placement.items()),
        "divider": divider,
        "params": sorted((params or {}).items()),
        "arch": repr(dataclasses.replace(arch, sim=sim)),
        "frontend": (
            frontend.signature()
            if hasattr(frontend, "signature")
            else type(frontend).__name__
        ),
    }
    return hashlib.sha256(repr(identity).encode()).hexdigest()[:16]


# -- snapshot files --------------------------------------------------------


def write_snapshot(path: str, meta: dict, payload: bytes) -> None:
    """Atomically publish one snapshot file.

    tmp + fsync + rename: the main path only ever holds a complete,
    checksummed snapshot. A crash mid-write leaves garbage at
    ``<path>.tmp``, which no loader reads.
    """
    blob = pickle.dumps(
        {
            "magic": SNAPSHOT_MAGIC,
            "version": SNAPSHOT_VERSION,
            "meta": dict(meta),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_snapshot(path: str, expect_digest: str | None = None) -> Snapshot:
    """Read, validate and deserialize one snapshot file.

    Every failure mode — missing file, torn/truncated pickle, checksum
    mismatch, foreign file, version skew, wrong config digest — raises
    :class:`~repro.errors.SnapshotError` (never a bare unpickling
    exception), so callers can apply one resume policy uniformly.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at {path}") from None
    try:
        blob = pickle.loads(raw)
    except Exception as exc:
        raise SnapshotError(f"torn or corrupt snapshot {path}: {exc}") from exc
    if not isinstance(blob, dict) or blob.get("magic") != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path} is not a simulator snapshot")
    if blob.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {path} has version {blob.get('version')}, this build "
            f"reads version {SNAPSHOT_VERSION}"
        )
    payload = blob["payload"]
    if hashlib.sha256(payload).hexdigest() != blob["sha256"]:
        raise SnapshotError(f"snapshot {path} failed its payload checksum")
    meta = blob["meta"]
    if expect_digest is not None and meta.get("config_digest") != expect_digest:
        raise SnapshotError(
            f"snapshot {path} was taken under a different configuration "
            f"(digest {meta.get('config_digest')}, this run is "
            f"{expect_digest}); refusing to resume"
        )
    try:
        state = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotError(
            f"snapshot {path} payload failed to deserialize: {exc}"
        ) from exc
    return Snapshot(meta, state, path=path)


class Snapshot:
    """One validated, installable machine state.

    Single-use: installing consumes the held state (restore hands the
    engine the snapshot's object graph *by reference* to preserve record
    aliasing, so a second install would share live mutable state between
    two runs — refused instead).
    """

    def __init__(self, meta: dict, state: dict, path: str | None = None):
        self.meta = meta
        self.path = path
        self._state = state

    @property
    def cycle(self) -> int:
        return self.meta["cycle"]

    def install(self, engine) -> None:
        if self._state is None:
            raise SnapshotError(
                f"snapshot {self.path or '<memory>'} already resumed once; "
                "load it again to resume a second run"
            )
        state, self._state = self._state, None
        engine.load_state_dict(state)


def resolve_resume(path: str, expect_digest: str, policy: str = "strict"):
    """Load a resume snapshot under one of two policies.

    ``"strict"`` propagates any :class:`SnapshotError` — the caller
    demanded this exact snapshot (``repro run --resume-from``).
    ``"discard"`` treats an invalid/missing snapshot as "start from
    cycle 0": the bad file is unlinked so the next checkpoint replaces
    it, and None is returned. Sweeps resume with ``"discard"`` — a torn
    snapshot must never wedge a retry loop.
    """
    if policy not in ("strict", "discard"):
        raise ValueError(f"unknown resume policy {policy!r}")
    try:
        return load_snapshot(path, expect_digest=expect_digest)
    except SnapshotError:
        if policy == "strict":
            raise
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


# -- cooperative preemption ------------------------------------------------


class Watchdog:
    """Turns asynchronous stop requests into a cooperatively-polled flag.

    Signal handlers (and the sweep supervisor's grace alarm) may only
    *request* preemption; the engine acts on it at the next cycle
    boundary, where the machine state is snapshot-consistent. First
    request wins; later ones are ignored.
    """

    def __init__(self):
        self.reason: str | None = None
        self.kind: str = "preempted"
        self._previous: dict[int, object] = {}

    def request(self, reason: str, kind: str = "preempted") -> None:
        if self.reason is None:
            self.reason = reason
            self.kind = kind

    def _handle(self, signum, frame) -> None:
        self.request(f"signal {signal.Signals(signum).name}")

    def install(self) -> None:
        """Route SIGTERM/SIGINT through :meth:`request`. Off the main
        thread (where ``signal.signal`` raises) this is a no-op — worker
        pools deliver preemption via the shared watchdog instead."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:
                pass

    def uninstall(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except ValueError:
                pass
        self._previous.clear()


# -- the checkpointer ------------------------------------------------------


@dataclass
class CheckpointConfig:
    """How one simulation checkpoints (see :func:`repro.sim.engine.simulate`).

    ``cycle_budget`` counts cycles executed *by this process* — not the
    absolute simulation cycle — so a resumed attempt under the same
    budget always makes forward progress instead of immediately
    re-preempting at its resume cycle.
    """

    path: str
    #: Periodic snapshot cadence in system cycles (0 = only on preempt).
    every_cycles: int = 0
    #: Preempt (kind "preempted") after executing this many cycles here.
    cycle_budget: int | None = None
    #: Install SIGTERM/SIGINT handlers around the run.
    install_signals: bool = False
    #: Shared watchdog (e.g. with the sweep supervisor's grace alarm);
    #: None + ``install_signals`` builds a private one.
    watchdog: Watchdog | None = None
    #: JSONL journal the checkpointer appends ``status: "snapshot"``
    #: records to (the sweep manifest), plus fixed identity fields.
    journal_path: str | None = None
    journal_fields: dict | None = None

    def __post_init__(self):
        if self.every_cycles < 0:
            raise SnapshotError("checkpoint every_cycles must be >= 0")


class Checkpointer:
    """Armed on ``engine.snapshots``; polled once per executed cycle."""

    def __init__(self, config: CheckpointConfig, digest: str):
        self.config = config
        self.digest = digest
        self.watchdog = config.watchdog or (
            Watchdog() if config.install_signals else None
        )
        self._next_cycle: int | None = None
        self._boundaries = 0
        self._last_write_now: int | None = None
        self.writes = 0
        self.write_wall_s = 0.0

    def boundary(self, engine) -> None:
        """Cycle-boundary hook: periodic snapshot + preemption checks.

        Called at the top of the engine loop, where ``pending_pushes``
        is empty and ``executed + skipped == now`` — the only points at
        which the machine state is closed under serialization.
        """
        now = engine.now
        every = self.config.every_cycles
        if every:
            if self._next_cycle is None:
                # First boundary after start *or* resume: schedule the
                # next snapshot one full cadence out, never at the cycle
                # we just restored.
                self._next_cycle = now + every
            elif now >= self._next_cycle:
                self.write(engine)
                while self._next_cycle <= now:
                    self._next_cycle += every
        reason = kind = None
        if self.watchdog is not None and self.watchdog.reason is not None:
            reason, kind = self.watchdog.reason, self.watchdog.kind
        elif (
            self.config.cycle_budget is not None
            and self._boundaries >= self.config.cycle_budget
        ):
            reason = f"cycle budget ({self.config.cycle_budget}) exhausted"
            kind = "preempted"
        self._boundaries += 1
        if reason is None:
            return
        if self._last_write_now != now:
            self.write(engine)
        raise SimulationPreempted(
            f"simulation preempted at cycle {now}: {reason} "
            f"(snapshot at {self.config.path})",
            kind=kind,
            snapshot_path=self.config.path,
            cycle=now,
        )

    def write(self, engine) -> str:
        start = time.perf_counter()
        check_boundary_invariants(engine)
        state = engine.state_dict()
        # ONE dumps call for the whole machine: pickle's memo preserves
        # RequestRecord aliasing across engine/memsys/frontend/sinks.
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        if engine.arch.sim.check:
            verify_roundtrip(state, payload)
        meta = {
            "config_digest": self.digest,
            "cycle": engine.now,
            "executed_cycles": engine.stats.executed_cycles,
        }
        write_snapshot(self.config.path, meta, payload)
        self.writes += 1
        self.write_wall_s += time.perf_counter() - start
        self._last_write_now = engine.now
        self._journal(meta)
        return self.config.path

    def _journal(self, meta: dict) -> None:
        if self.config.journal_path is None:
            return
        from repro.obs.manifest import MANIFEST_SCHEMA

        record = {
            "schema": MANIFEST_SCHEMA,
            "status": "snapshot",
            "cycle": meta["cycle"],
            "executed_cycles": meta["executed_cycles"],
            "snapshot_path": self.config.path,
            **(self.config.journal_fields or {}),
        }
        with open(self.config.journal_path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def finish(self) -> None:
        """Clean completion: the run no longer needs its snapshot."""
        try:
            os.unlink(self.config.path)
        except FileNotFoundError:
            pass

    def telemetry(self) -> dict:
        """Snapshot-side costs for benchmarks and manifests."""
        return {
            "writes": self.writes,
            "write_wall_s": round(self.write_wall_s, 6),
            "path": self.config.path,
            "last_cycle": self._last_write_now,
        }


# -- integrity checks ------------------------------------------------------


def check_boundary_invariants(engine) -> None:
    """Conservation laws that must hold at every snapshot boundary.

    Cheap enough to run on every write: a snapshot of a state violating
    these would restore into a corrupted machine, so writing one is
    refused loudly instead.
    """
    stats = engine.stats
    if stats.executed_cycles + stats.skipped_cycles != engine.now:
        raise SimulationError(
            f"snapshot boundary: executed ({stats.executed_cycles}) + "
            f"skipped ({stats.skipped_cycles}) != now ({engine.now})"
        )
    if engine.pending_pushes:
        raise SimulationError(
            "snapshot boundary: uncommitted pushes mid-fabric-tick"
        )
    held = sum(
        len(queue)
        for row in engine.fifos
        for queue in row
        if queue is not None
    )
    if held != engine.tokens:
        raise SimulationError(
            f"snapshot boundary: FIFOs hold {held} tokens, "
            f"ledger says {engine.tokens}"
        )
    outstanding = sum(len(queue) for queue in engine.resp_queue if queue)
    if outstanding != engine.mem_inflight:
        raise SimulationError(
            f"snapshot boundary: {outstanding} responses outstanding, "
            f"ledger says {engine.mem_inflight}"
        )


def verify_roundtrip(state: dict, payload: bytes) -> None:
    """Prove serialize/deserialize is lossless for this state.

    Runs under ``sim.check`` on every snapshot write: the payload is
    deserialized back and compared value-by-value against the live
    state. The ``obs`` entry is pickled wholesale and has no value
    equality (a restored copy compares unequal by identity), so the
    comparison covers the engine/memsys/frontend/faults state —
    everything the quiescence ledger is computed from.
    """
    clone = pickle.loads(payload)
    for key in state:
        if key != "obs" and clone[key] != state[key]:
            from repro.check.invariants import InvariantViolation

            raise InvariantViolation(
                f"snapshot round-trip mismatch in {key!r}: the serialized "
                "state does not reproduce the live machine"
            )
