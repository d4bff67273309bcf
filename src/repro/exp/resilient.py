"""Resilient sweep supervision: timeout, skip, resume.

The paper's evaluation (Sec. 6) is a large (workload x config x seed)
sweep. Before this module, one raising job — a
:class:`~repro.errors.DeadlockError`, a routing failure on a tight
fabric, a reference-check mismatch, a killed worker — aborted the whole
sweep at ``future.result()`` and left a truncated manifest. The
supervisor here gives the harness the fault model of a real job
scheduler:

* every job runs under a :class:`SweepPolicy` — per-job wall-clock
  timeout (delivered *inside* the job via ``SIGALRM``, so it measures
  execution, not queueing) and an ``on_failure`` disposition (``abort``
  preserves the historical fail-fast behavior and stays the default);
* failures are caught per job — including worker-process death, which
  surfaces as ``BrokenProcessPool`` — classified against the repro
  exception hierarchy (:func:`classify_failure`), and surfaced as typed
  :class:`FailureRecord` s; the sweep returns every healthy point plus
  the failure records instead of crashing. Each point is settled
  exactly once: a failure is a result (the paper's "until PnR fails"),
  never retried;
* completed points are journaled to the JSONL manifest
  (:mod:`repro.obs.manifest`) and :func:`run_resilient` with
  ``resume=True`` skips any point whose validated journal entry already
  succeeded — a crash halfway through an overnight sweep costs only the
  unfinished points, and a failed or preempted point reruns (from its
  snapshot, when one was taken);
* a pooled sweep places-and-routes each distinct compile key once: the
  dispatcher (:func:`_dispatch_pooled`) runs one cache-warming compile
  task per key and holds the key's points back until it was attempted,
  so idle workers compile *other* kernels instead of racing on one.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial

from repro.arch.params import PROBE_SWITCHES
from repro.errors import (
    DeadlockError,
    ExperimentError,
    JobTimeout,
    KernelFault,
    PlacementError,
    PnRError,
    ReproError,
    RoutingError,
    SimulationError,
    SimulationPreempted,
    ValidationError,
)
from repro.exp.cache import GLOBAL_CACHE
from repro.exp.spec import RunSpec
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    append_manifest,
    build_manifest,
    completed_points,
    git_rev,
)

#: Failure kinds that mean "this point does not fit" (a figure's ``inf``).
PNR_KINDS = ("routing", "placement", "pnr")

#: Seconds a timed-out job gets to snapshot cooperatively before the
#: hard :class:`~repro.errors.JobTimeout` fires.
GRACE_S = 5.0


def classify_failure(exc: BaseException) -> str:
    """Map an exception to the supervisor's failure taxonomy."""
    if isinstance(exc, SimulationPreempted):
        # Deliberately NOT a SimulationError: a preempted job left a
        # snapshot to resume from, it is never a deterministic bug.
        return exc.kind
    if isinstance(exc, JobTimeout):
        return "timeout"
    if isinstance(exc, ValidationError):
        return "validation"
    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, RoutingError):
        return "routing"
    if isinstance(exc, PlacementError):
        return "placement"
    if isinstance(exc, PnRError):
        return "pnr"
    if isinstance(exc, (SimulationError, KernelFault)):
        return "simulation"
    if isinstance(exc, BrokenProcessPool):
        return "worker-death"
    if isinstance(exc, ReproError):
        return "repro"
    return "infrastructure"


def call_with_timeout(timeout_s, thunk, label: str = "", watchdog=None,
                      grace_s: float = GRACE_S):
    """Run ``thunk`` under a wall-clock budget; raise :class:`JobTimeout`.

    Uses ``SIGALRM``/``setitimer``, so it interrupts pure-Python
    simulation loops mid-flight and measures actual execution (it runs
    in the worker's main thread, after the job was dequeued). On
    platforms without ``SIGALRM`` — or off the main thread — the budget
    is silently not enforced.

    ``watchdog`` (a :class:`repro.sim.snapshot.Watchdog`) switches
    expiry to a two-stage graceful kill: the first alarm only *requests*
    cooperative preemption — the simulator snapshots its state and
    raises :class:`~repro.errors.SimulationPreempted` at the next cycle
    boundary — and the timer is re-armed for ``grace_s``; only if the
    job is still running when the grace period expires (hung outside
    the engine loop) does the hard :class:`JobTimeout` fire.
    """
    if not timeout_s:
        return thunk()
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return thunk()

    graced = False

    def _alarm(signum, frame):
        nonlocal graced
        if watchdog is not None and not graced:
            graced = True
            watchdog.request(
                f"job {label or '<anonymous>'} exceeded {timeout_s}s",
                kind="timeout",
            )
            signal.setitimer(signal.ITIMER_REAL, max(grace_s, 0.001))
            return
        raise JobTimeout(f"job {label or '<anonymous>'} exceeded {timeout_s}s")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return thunk()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class SweepPolicy:
    """How the supervisor treats one job's lifecycle.

    ``on_failure``:

    * ``"abort"`` — re-raise the first failure (historical behavior;
      the default, so unsupervised callers see no change);
    * ``"skip"`` — record a :class:`FailureRecord` and move on; a
      ``--resume`` of the journal reruns the point (from its snapshot,
      when one was taken).
    """

    #: Per-job wall-clock budget in seconds (None = unlimited).
    job_timeout_s: float | None = None
    on_failure: str = "abort"
    #: Periodic snapshot cadence in system cycles, per job (0 = only on
    #: preemption). Effective only when the sweep runs with a
    #: ``snapshot_dir``.
    checkpoint_every: int = 0
    #: Cycles each run of a point may execute before snapshotting and
    #: yielding (None = unlimited). Counts per process, so a resumed run
    #: always advances past its predecessor.
    job_cycle_budget: int | None = None

    def __post_init__(self):
        if self.on_failure not in ("abort", "skip"):
            raise ExperimentError(
                f"on_failure must be abort|skip, got {self.on_failure!r}"
            )
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ExperimentError("job_timeout_s must be positive")
        if self.checkpoint_every < 0:
            raise ExperimentError("checkpoint_every must be >= 0")
        if self.job_cycle_budget is not None and self.job_cycle_budget < 0:
            raise ExperimentError("job_cycle_budget must be >= 0")


#: Fail-fast policy: exactly the pre-supervisor sweep semantics.
ABORT = SweepPolicy(on_failure="abort")


@dataclass(frozen=True)
class SweepEnv:
    """What every job of one sweep shares that is not point identity."""

    #: Compile-cache directory the job attaches to (None = leave the
    #: process's cache as it is).
    cache_dir: str | None = None
    #: Arms mid-simulation checkpointing to
    #: ``<snapshot_dir>/<point_digest>.snap`` (None = off).
    snapshot_dir: str | None = None
    #: Manifest path snapshot writes are journaled to.
    journal: str | None = None
    #: The job's timeout, snapshot cadence and cycle budget.
    policy: SweepPolicy = ABORT


@dataclass
class FailureRecord:
    """One sweep point that did not produce a result."""

    workload: str
    config: str
    seed: int
    #: Taxonomy bucket from :func:`classify_failure`.
    kind: str
    message: str
    #: Pre-run identity digest (matches the resume journal).
    point_digest: str = ""

    def describe(self) -> str:
        """One line; an empty message (a bare ``assert``) reads as such."""
        first = (self.message.splitlines() or ["<no message>"])[0]
        return (
            f"{self.workload}/{self.config}/seed{self.seed}: "
            f"[{self.kind}] {first}"
        )

    def to_manifest(self, spec: RunSpec) -> dict:
        """A ``status: failed`` journal record for this failure of the
        point ``spec``."""
        return {
            "schema": MANIFEST_SCHEMA,
            "status": "failed",
            "point_digest": spec.point_digest(),
            **spec.point_fields(),
            "kind": self.kind,
            "message": self.message,
            "git_rev": git_rev(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }


@dataclass
class SweepOutcome:
    """What a supervised sweep produced.

    ``results`` maps every healthy point to its result, ``failures``
    holds a typed record per point that failed, ``skipped`` the points
    resumed from the journal (already complete, not rerun).
    """

    results: dict[RunSpec, object] = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    skipped: list[RunSpec] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _dispatch_pooled(
    specs: list[RunSpec], workers: int, job_fn, compile_fn, env: SweepEnv,
    settle,
) -> None:
    """Run ``specs`` over a pool of ``workers`` processes, compiling each
    key once.

    Tasks are submitted as ``fn(spec, env)``. Every compile key
    (:attr:`RunSpec.compile_key <repro.exp.spec.RunSpec.compile_key>`)
    gets one ``compile_fn`` task, which only warms the shared disk
    cache; a key's points become *ready* once that task finished —
    succeeded or not, a point that cannot compile fails on its own,
    under its own policy. At most ``workers + 1`` tasks are in flight
    (one queued, so no worker idles on the parent), and a free slot goes
    to the lowest-numbered ready point before a new compile, so results
    keep arriving in near job order. Completions are buffered and handed
    to ``settle(spec, future.result)`` strictly in job order — the
    serial/parallel manifest-equivalence contract.

    A dead worker poisons every outstanding future of its pool: those
    points settle as worker deaths, the pool is replaced, and the rest
    of the sweep carries on.
    """
    parked: dict[tuple, list[int]] = {}
    for index, spec in enumerate(specs):
        parked.setdefault(spec.compile_key, []).append(index)
    compiles = deque(parked)
    ready: list[int] = []
    inflight: dict[Future, int | tuple] = {}
    settled: dict[int, Future] = {}
    emitted = 0
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while emitted < len(specs):
            while len(inflight) <= workers:
                if ready:
                    index = tag = ready.pop(0)
                    fn = job_fn
                elif compiles:
                    tag = compiles.popleft()
                    fn, index = compile_fn, parked[tag][0]
                else:
                    break
                try:
                    future = pool.submit(fn, specs[index], env)
                except BrokenProcessPool as exc:
                    future = Future()
                    future.set_exception(exc)
                inflight[future] = tag
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            if any(isinstance(f.exception(), BrokenProcessPool) for f in done):
                done, _ = wait(inflight)
                pool.shutdown()
                pool = ProcessPoolExecutor(max_workers=workers)
            for future in done:
                tag = inflight.pop(future)
                if isinstance(tag, int):
                    settled[tag] = future
                else:
                    ready.extend(parked.pop(tag))
                    ready.sort()
            while emitted in settled:
                settle(specs[emitted], settled.pop(emitted).result)
                emitted += 1
    finally:
        # Reached with work still queued only when ``settle`` raised
        # (fail-fast abort): drop it instead of running it out.
        pool.shutdown(wait=True, cancel_futures=True)


def _chrome_paths(twins) -> list[str]:
    """The Chrome-file paths ``twins`` ask for, first asked first."""
    sims = [twin.arch.sim for twin in twins]
    return list(dict.fromkeys(
        sim.trace_path for sim in sims if sim.trace and sim.trace_path
    ))


def _probing(spec: RunSpec, twins) -> RunSpec:
    """``spec`` with each probe switch on that one of ``twins`` sets, its
    timeline written where the first traced twin asks for one."""
    paths = _chrome_paths(twins)
    sim = replace(spec.arch.sim, trace_path=paths[0] if paths else None, **{
        name: any(getattr(twin.arch.sim, name) for twin in twins)
        for name in PROBE_SWITCHES
    })
    return replace(spec, arch=replace(spec.arch, sim=sim))


def run_resilient(
    specs: list[RunSpec],
    max_workers: int | None = None,
    cache_dir=None,
    manifest_path=None,
    sweep_policy: SweepPolicy | None = None,
    resume: bool = False,
    snapshot_dir=None,
    job_fn=None,
) -> SweepOutcome:
    """Supervised sweep over the points ``specs``, in that order.

    Returns a :class:`SweepOutcome` of ``(results, failures, skipped)``
    keyed by the spec as given, instead of raising on the first bad
    point; :func:`repro.exp.spec.sweep_specs` builds the (workload x
    config x seed) product a sweep usually is, and
    :func:`repro.exp.runner.run_parallel` is the results-only facade
    over that. With the default :data:`ABORT` policy the behavior —
    results, manifest records, raised exception — is bit-identical to
    the historical fail-fast sweep. Probe twins, specs that differ only
    in :data:`~repro.arch.params.PROBE_SWITCHES`, run once with every
    switch any of them sets, and write the Chrome file of the first that
    asks for one (``sim.trace_path``), copied afterwards to every other
    path asked for; that run settles under each of them and is journaled
    once.

    ``resume=True`` requires ``manifest_path`` and skips every point the
    journal proves complete (see
    :func:`repro.obs.manifest.completed_points` for the digest
    validation that keeps a stale journal from poisoning the run).

    ``snapshot_dir`` arms mid-simulation checkpointing
    (:mod:`repro.sim.snapshot`): each job periodically snapshots to
    ``<snapshot_dir>/<point_digest>.snap`` per the policy's
    ``checkpoint_every``/``job_cycle_budget``, a timed-out or SIGTERMed
    job snapshots during its grace period instead of dying cold, and a
    ``resume=True`` rerun of a failed or preempted point *continues from
    its last valid snapshot* rather than from cycle 0. Torn or
    configuration-mismatched snapshots are detected, discarded and the
    point restarts fresh.

    ``job_fn`` is a test seam: a picklable callable taking
    ``(spec, env)`` like :func:`repro.exp.runner._run_sweep_job` — one
    :class:`~repro.exp.spec.RunSpec` naming the point and the sweep's
    :class:`SweepEnv`, the same two arguments on the serial and the
    pooled path, whatever features are armed.

    With a pool (``max_workers`` None or > 1) the jobs go through
    :func:`_dispatch_pooled`: one
    :func:`repro.exp.runner._compile_sweep_job` task per distinct
    compile key warms the shared disk cache before that key's points
    run, so each key is placed-and-routed once per sweep. Without a
    ``cache_dir`` the workers share a sweep-scoped temporary directory,
    removed on return.
    """
    from repro.exp.runner import _compile_sweep_job, _run_sweep_job

    sweep_policy = sweep_policy or ABORT
    job_fn = job_fn or _run_sweep_job
    if snapshot_dir is not None:
        os.makedirs(snapshot_dir, exist_ok=True)
    env = SweepEnv(
        cache_dir=None if cache_dir is None else str(cache_dir),
        snapshot_dir=None if snapshot_dir is None else str(snapshot_dir),
        journal=None if manifest_path is None else str(manifest_path),
        policy=sweep_policy,
    )
    outcome = SweepOutcome()
    if resume:
        if manifest_path is None:
            raise ExperimentError("resume requires a manifest path")
        done = completed_points(manifest_path)
        remaining = []
        for spec in specs:
            if spec.point_digest() in done:
                outcome.skipped.append(spec)
            else:
                remaining.append(spec)
        specs = remaining
    twins: dict[RunSpec, list[RunSpec]] = {}
    for spec in specs:
        twins.setdefault(_probing(spec, ()), []).append(spec)
    runs = {_probing(plain, group): group for plain, group in twins.items()}

    def settle(spec: RunSpec, result) -> None:
        """Settle the run ``spec`` once: ``result()`` returns its run,
        kept for each twin, or raises its failure (abort or journal)."""
        try:
            run = result()
        except Exception as exc:
            if sweep_policy.on_failure == "abort":
                raise
            failure = FailureRecord(
                workload=spec.workload,
                config=spec.config.name,
                seed=spec.seed,
                kind=classify_failure(exc),
                message=str(exc),
                point_digest=spec.point_digest(),
            )
            outcome.failures.append(failure)
            if manifest_path is not None:
                append_manifest(manifest_path, failure.to_manifest(spec))
        else:
            outcome.results.update(dict.fromkeys(runs[spec], run))
            for path in _chrome_paths(runs[spec])[1:]:
                shutil.copyfile(spec.arch.sim.trace_path, path)
            if manifest_path is not None:
                append_manifest(manifest_path, build_manifest(run, spec))

    if max_workers is not None and max_workers <= 1:
        # In-process twin of the pool path — same supervision, no fork,
        # and the in-memory cache already compiles each key once. The
        # jobs point this process's cache at the sweep's directory; the
        # caller gets its own disk layer back.
        disk_dir = GLOBAL_CACHE.disk_dir
        try:
            for spec in runs:
                settle(spec, partial(job_fn, spec, env))
        finally:
            GLOBAL_CACHE.disk_dir = disk_dir
        return outcome

    # Workers share compiles only through a disk cache; without one every
    # worker would PnR every kernel it touches. The scratch directory is
    # theirs alone: the parent's GLOBAL_CACHE is never pointed at it.
    with (
        tempfile.TemporaryDirectory(prefix="repro-sweep-cache-")
        if env.cache_dir is None
        else contextlib.nullcontext(env.cache_dir)
    ) as shared_cache:
        _dispatch_pooled(
            list(runs),
            max_workers or os.cpu_count() or 1,
            job_fn,
            _compile_sweep_job,
            replace(env, cache_dir=shared_cache),
            settle,
        )
    return outcome
