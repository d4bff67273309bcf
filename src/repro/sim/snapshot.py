"""Bit-identical mid-simulation checkpoint/restore (preemption safety).

Long sweep points die to preemption — node reclaims, wall-clock limits,
``kill`` — and until this module the only recovery was rerunning the
point from cycle 0. A :class:`Checkpointer` armed on the engine writes
periodic, crash-safe snapshots of the *complete* machine state: engine
tick and cycle-skip bookkeeping, per-node FIFOs and firing state, memory
bank queues and in-flight requests, FM-NoC arbitration latches and
round-robin cursors, fault-injection LCG streams, and — for a probed
run — how far its recording (:mod:`repro.obs.events`) had got.
``resume`` from any snapshot continues the run **bit-identically** — the
same :class:`~repro.sim.stats.SimStats`, the same final memory, the same
manifests and probe outputs — with cycle-skipping, fault injection and
every probe each on or off.

Five properties carry the design:

* **Declared state.** Each stateful class names the attributes a run
  changes in one class-level tuple, ``SNAPSHOT_STATE``; :func:`capture`
  copies those and :func:`restore` writes them back in place. Wiring
  and configuration (compiled rules, plans, the DFG, the routed edges)
  are not state: the resuming run rebuilds them from the same compiled
  kernel, which the config digest guarantees. So a snapshot carries
  plain containers and a handful of value dataclasses, never the
  program.
* **A recording is a sidecar.** A probed run's rows live in
  append-only column files under ``<path>.rec`` beside the snapshot:
  each write appends the columns' new tails and fsyncs them before the
  snapshot is published, and the snapshot itself keeps only the column
  lengths — so its size does not grow with the run. A resume reads
  each file back truncated to those lengths.
* **One pickle, shared identity.** A :class:`RequestRecord` in flight is
  simultaneously the engine's ``resp_queue`` entry *and* a bank-queue /
  completions-heap / frontend-latch entry. The whole captured state is
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
  layer records as ``preempted`` / ``timeout`` — a rerun of the point
  (``repro sweep --resume``, or ``repro run`` again) restarts from the
  snapshot, not from cycle 0.

Zero-overhead contract: the engine's only new per-cycle cost is one
``is not None`` test on ``engine.snapshots``; with checkpointing off
the engine carries no checkpointer and an armed run's results equal the
detached run's (``tests/test_snapshot.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import pickle
import signal
import shutil
from array import array
from collections import deque
from dataclasses import dataclass

from repro.errors import SimulationError, SimulationPreempted, SnapshotError
from repro.obs.events import lengths_of

SNAPSHOT_MAGIC = "repro-sim-snapshot"
#: Bump on any change to a ``SNAPSHOT_STATE`` declaration or to what a
#: declared attribute holds — resuming across versions is refused rather
#: than silently mis-restored (history: docs/INTERNALS.md, Sec. 10).
SNAPSHOT_VERSION = 10


# -- configuration identity ------------------------------------------------


def sim_config_digest(compiled, arch, divider, frontend, params=None) -> str:
    """Identity of everything that must match for a resume to be sound.

    Covers the kernel (node set, arrays, placement), the architecture
    knobs, the clock divider, runtime params, and the frontend's own
    :meth:`signature` (which pins machine-config state such as the UPEA
    delay or a NUMA domain assignment that ``ArchParams`` never sees).
    Of the trace path only *whether* a Chrome timeline is collected
    counts (the run then carries that sink), and the
    :class:`CheckpointConfig` is no input: *where* you write must not
    affect *whether* you may resume.
    """
    sim = dataclasses.replace(arch.sim, trace_path=None)
    dfg = compiled.dfg
    identity = {
        "version": SNAPSHOT_VERSION,
        "chrome": arch.sim.trace and arch.sim.trace_path is not None,
        "dfg": getattr(dfg, "name", ""),
        "nodes": sorted((nid, node.op) for nid, node in dfg.nodes.items()),
        "arrays": sorted(dfg.arrays.items()),
        "placement": sorted(compiled.placement.items()),
        "divider": divider,
        "params": sorted((params or {}).items()),
        "arch": repr(dataclasses.replace(arch, sim=sim)),
        "frontend": frontend.signature(),
    }
    return hashlib.sha256(repr(identity).encode()).hexdigest()[:16]


# -- declared state --------------------------------------------------------

#: Containers :func:`restore` refills in place, so the handles wired at
#: init (FIFO deques in compiled rules, arbiters in grant plans, the
#: memory arrays a ``SimResult`` returns) stay valid.
_REFILLED = (dict, list, deque, bytearray)


def capture(obj) -> dict:
    """The attributes ``obj.SNAPSHOT_STATE`` declares, by name: a nested
    declared object becomes its own dict, each container a fresh one of
    the same type, and any other value (ints, tuples, ``RequestRecord``,
    ``SimStats``) is taken as is — the caller pickles it at once."""
    return {name: _copy(getattr(obj, name)) for name in obj.SNAPSHOT_STATE}


def _copy(value):
    if isinstance(value, dict):
        out = type(value)()
        for key, item in value.items():
            out[key] = _copy(item)
        return out
    if isinstance(value, _REFILLED):
        return type(value)(map(_copy, value))
    if hasattr(type(value), "SNAPSHOT_STATE"):
        return capture(value)
    return value


def restore(obj, state: dict) -> None:
    """Write a :func:`capture` back into ``obj``: declared objects in
    place, ``_REFILLED`` containers refilled in the snapshot's order,
    anything else replaced. Saved names that differ from a declaration,
    or another shape for a container the fresh object already fills (a
    table built from the configuration: bank queues, memory arrays,
    per-node rows), is refused before anything is written."""
    _refill(obj, state, False, type(obj).__name__)
    _refill(obj, state, True, type(obj).__name__)


def _refill(live, saved, write: bool, where: str):
    """The value ``saved`` restores ``live`` to; mutates only if ``write``."""
    names = getattr(type(live), "SNAPSHOT_STATE", None)
    if names is not None:
        if not isinstance(saved, dict) or tuple(saved) != names:
            raise SnapshotError(
                f"snapshot state of {where} does not match its declared "
                f"attributes {names}"
            )
        for name in names:
            value = _refill(
                getattr(live, name), saved[name], write, f"{where}.{name}"
            )
            if write:
                setattr(live, name, value)
        return live
    if type(saved) is not type(live) or not isinstance(live, _REFILLED):
        return saved
    if live and (
        len(live) != len(saved)
        or (isinstance(live, dict) and live.keys() != saved.keys())
    ):
        raise SnapshotError(
            f"snapshot state of {where} has another shape than this run "
            f"builds ({len(saved)} entries, this run has {len(live)})"
        )
    if isinstance(live, dict):
        items = [
            (key, _refill(live.get(key), item, write, where))
            for key, item in saved.items()
        ]
        if write:
            live.clear()
            for key, item in items:  # ``Counter.update`` would add
                live[key] = item
        return live
    items = [
        _refill(old, item, write, where) for old, item in zip(live, saved)
    ] if live else saved
    if write:
        live.clear()
        live.extend(items)
    return live


# -- the recording's sidecar -----------------------------------------------


def sidecar_path(path: str) -> str:
    """The directory beside the snapshot at ``path`` holding its run's
    recording: one file of native int64s per column."""
    return path + ".rec"


def append_sidecar(path: str, recording) -> None:
    """Append each column's rows since the last append
    (``recording.saved``) to its file and fsync it; rows past that (a
    killed process's, never counted by a snapshot) are cut first."""
    os.makedirs(path, exist_ok=True)
    for name, length in recording.lengths().items():
        start = recording.saved.get(name, 0)
        with open(os.path.join(path, name), "ab") as handle:
            handle.truncate(8 * start)
            handle.write(getattr(recording, name)[start:length].tobytes())
            handle.flush()
            os.fsync(handle.fileno())
        recording.saved[name] = length


def read_sidecar(path: str, lengths: dict[str, int]) -> dict[str, array]:
    """The first ``lengths`` items of each column file — the rows a
    snapshot counted; a missing or short file is a
    :class:`~repro.errors.SnapshotError`."""
    columns = {}
    for name, length in lengths.items():
        column = columns[name] = array("q")
        with contextlib.suppress(OSError, ValueError):  # missing, torn
            with open(os.path.join(path, name), "rb") as handle:
                column.frombytes(handle.read(8 * length))
        if len(column) != length:
            raise SnapshotError(
                f"recording sidecar {path} holds fewer {name!r} rows than "
                "its snapshot counts"
            )
    return columns


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
    exception), which :func:`resolve_resume` discards uniformly.
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
    mark = state.get("recording") if isinstance(state, dict) else None
    columns = None
    if mark is not None:
        columns = read_sidecar(sidecar_path(path), lengths_of(mark))
    return Snapshot(meta, state, path=path, columns=columns)


class Snapshot:
    """One validated, installable machine state.

    Single-use: installing consumes the held state (restore hands the
    engine the snapshot's object graph *by reference* to preserve record
    aliasing, so a second install would share live mutable state between
    two runs — refused instead).
    """

    def __init__(self, meta: dict, state: dict, path: str, columns=None):
        self.meta = meta
        self.path = path
        self._state = state
        #: The recording's columns read back from the sidecar, or None.
        self._columns = columns

    @property
    def cycle(self) -> int:
        return self.meta["cycle"]

    def install(self, engine) -> None:
        if self._state is None:
            raise SnapshotError(
                f"snapshot {self.path} already resumed once; "
                "load it again to resume a second run"
            )
        state, self._state = self._state, None
        engine.load_state_dict(state)
        if self._columns is not None:
            engine.recording.load(self._columns)


def resolve_resume(path: str, expect_digest: str):
    """The snapshot at ``path`` to resume from, or None to start at cycle 0.

    A missing, torn, foreign, version-skewed or configuration-mismatched
    snapshot (any :class:`SnapshotError` of :func:`load_snapshot`) is
    discarded: the file and its sidecar are unlinked so the next
    checkpoint replaces them, and None is returned. A bad snapshot must
    never wedge a retried sweep point, and a ``repro run`` rerun under
    other settings simply starts over (:func:`repro.exp.runner._run_sweep_job` is the one
    caller that decides where a point's snapshot lives).
    """
    try:
        return load_snapshot(path, expect_digest=expect_digest)
    except SnapshotError:
        _discard(path)
        return None


def _discard(path: str) -> None:
    """Delete the snapshot at ``path`` and its sidecar, if there."""
    with contextlib.suppress(OSError):
        os.unlink(path)
    shutil.rmtree(sidecar_path(path), ignore_errors=True)


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
    #: Shared watchdog (e.g. with the sweep supervisor's grace alarm);
    #: None builds a private one. Either way it handles SIGTERM/SIGINT
    #: for the length of the run.
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
        self.watchdog = config.watchdog or Watchdog()
        self._next_cycle: int | None = None
        self._boundaries = 0
        self._last_write_now: int | None = None

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
        if self.watchdog.reason is not None:
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
        check_boundary_invariants(engine)
        state = engine.state_dict()
        # ONE dumps call for the whole machine: pickle's memo preserves
        # RequestRecord aliasing across engine/memsys/frontend.
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        if engine.arch.sim.check:
            verify_roundtrip(state, payload)
        if engine.recording is not None:
            # The rows first: a published snapshot never counts rows
            # its sidecar does not hold.
            append_sidecar(sidecar_path(self.config.path), engine.recording)
        meta = {
            "config_digest": self.digest,
            "cycle": engine.now,
            "executed_cycles": engine.stats.executed_cycles,
        }
        write_snapshot(self.config.path, meta, payload)
        self._last_write_now = engine.now
        self._journal(meta)
        return self.config.path

    def _journal(self, meta: dict) -> None:
        if self.config.journal_path is None:
            return
        from repro.obs.manifest import MANIFEST_SCHEMA, append_manifest

        record = {
            "schema": MANIFEST_SCHEMA,
            "status": "snapshot",
            "cycle": meta["cycle"],
            "executed_cycles": meta["executed_cycles"],
            "snapshot_path": self.config.path,
            **(self.config.journal_fields or {}),
        }
        append_manifest(self.config.journal_path, record)

    def finish(self) -> None:
        """Clean completion: the run no longer needs its snapshot."""
        _discard(self.config.path)


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
    deserialized back and compared value-by-value against the whole
    captured state, the probes' included (a capture holds only plain
    containers and value dataclasses, so equality is value equality).
    """
    clone = pickle.loads(payload)
    for key in state:
        if clone[key] != state[key]:
            from repro.check.invariants import InvariantViolation

            raise InvariantViolation(
                f"snapshot round-trip mismatch in {key!r}: the serialized "
                "state does not reproduce the live machine"
            )
