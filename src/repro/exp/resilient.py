"""Resilient sweep supervision: retry, timeout, skip, resume.

The paper's evaluation (Sec. 6) is a large (workload x config x seed)
sweep. Before this module, one raising job — a
:class:`~repro.errors.DeadlockError`, a routing failure on a tight
fabric, a reference-check mismatch, a killed worker — aborted the whole
sweep at ``future.result()`` and left a truncated manifest. The
supervisor here gives the harness the fault model of a real job
scheduler:

* every job runs under a :class:`SweepPolicy` — per-job wall-clock
  timeout (delivered *inside* the job via ``SIGALRM``, so it measures
  execution, not queueing), bounded retries with exponential backoff,
  and an ``on_failure`` disposition (``abort`` preserves the historical
  fail-fast behavior and stays the default);
* failures are caught per job — including worker-process death, which
  surfaces as ``BrokenProcessPool`` — classified against the repro
  exception hierarchy (:func:`classify_failure`), and surfaced as typed
  :class:`FailureRecord` s; the sweep returns every healthy point plus
  the failure records instead of crashing;
* place-and-route failures retry under a *perturbed placement seed*
  (``seed + PNR_SEED_STRIDE * attempt`` — deterministic, journaled into
  the manifest as ``pnr_seed``, so a retried result stays exactly
  reproducible) while the workload's *input* seed never changes;
* completed points are journaled to the JSONL manifest
  (:mod:`repro.obs.manifest`) and :func:`run_resilient` with
  ``resume=True`` skips any point whose validated journal entry already
  succeeded — a crash halfway through an overnight sweep costs only the
  unfinished points;
* a pooled sweep places-and-routes each distinct compile key once: the
  dispatcher (:func:`_dispatch_pooled`) runs one cache-warming compile
  task per key and holds the key's points back until it was attempted,
  so idle workers compile *other* kernels instead of racing on one.
"""

from __future__ import annotations

import contextlib
import os
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

from repro.errors import (
    DeadlockError,
    ExperimentError,
    JobTimeout,
    PlacementError,
    PnRError,
    ReproError,
    RoutingError,
    SimulationError,
    SimulationPreempted,
    ValidationError,
)
from repro.exp.spec import RunSpec, SweepEnv
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    append_manifest,
    build_manifest,
    completed_points,
    git_rev,
)

#: Stride between perturbed placement seeds on PnR retry. A large prime
#: keeps retried seeds far from every input seed a sweep plausibly uses,
#: so a perturbed compile can never collide with a sibling point's cache
#: key.
PNR_SEED_STRIDE = 7919

#: Failure kinds whose retry may consult a perturbed placement seed.
PNR_KINDS = ("routing", "placement", "pnr")

#: Failure kinds :class:`SweepPolicy` retries under ``on_failure="retry"``.
RETRYABLE_KINDS = PNR_KINDS + ("timeout", "worker-death", "preempted")

#: Kinds that are deterministic properties of the point itself — the
#: same inputs will fail the same way, so retrying burns time for
#: nothing. (Deadlock and wrong answers are *bugs*, not bad luck.)
DETERMINISTIC_KINDS = ("validation", "deadlock", "simulation")


def classify_failure(exc: BaseException) -> str:
    """Map an exception to the supervisor's failure taxonomy."""
    if isinstance(exc, SimulationPreempted):
        # Deliberately NOT a SimulationError: a preempted job is
        # retryable (it left a snapshot), never a deterministic bug.
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
    if isinstance(exc, SimulationError):
        return "simulation"
    if isinstance(exc, BrokenProcessPool):
        return "worker-death"
    if isinstance(exc, ReproError):
        return "repro"
    return "infrastructure"


def call_with_timeout(timeout_s, thunk, label: str = "", watchdog=None,
                      grace_s: float = 5.0):
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
    * ``"skip"`` — record a :class:`FailureRecord` and move on;
    * ``"retry"`` — retry kinds in :data:`RETRYABLE_KINDS` up to
      ``max_retries`` times (PnR kinds under a perturbed placement
      seed), then degrade to skip.
    """

    #: Per-job wall-clock budget in seconds (None = unlimited).
    job_timeout_s: float | None = None
    max_retries: int = 2
    #: Base backoff; attempt ``n`` starts no sooner than
    #: ``backoff_s * 2**(n-1)`` after its predecessor failed.
    backoff_s: float = 0.0
    on_failure: str = "abort"
    #: Periodic snapshot cadence in system cycles, per job (0 = only on
    #: preemption). Effective only when the sweep runs with a
    #: ``snapshot_dir``.
    checkpoint_every: int = 0
    #: Cycles each *attempt* may execute before snapshotting and yielding
    #: (None = unlimited). Counts per process, so a resumed attempt
    #: always advances past its predecessor.
    job_cycle_budget: int | None = None
    #: Seconds a timed-out job gets to snapshot cooperatively before the
    #: hard :class:`~repro.errors.JobTimeout` fires.
    grace_s: float = 5.0

    def __post_init__(self):
        if self.on_failure not in ("abort", "skip", "retry"):
            raise ExperimentError(
                f"on_failure must be abort|skip|retry, got {self.on_failure!r}"
            )
        if self.max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if self.backoff_s < 0:
            raise ExperimentError("backoff_s must be >= 0")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ExperimentError("job_timeout_s must be positive")
        if self.checkpoint_every < 0:
            raise ExperimentError("checkpoint_every must be >= 0")
        if self.job_cycle_budget is not None and self.job_cycle_budget < 0:
            raise ExperimentError("job_cycle_budget must be >= 0")
        if self.grace_s <= 0:
            raise ExperimentError("grace_s must be positive")

    def wants_retry(self, kind: str, attempts: int) -> bool:
        return (
            self.on_failure == "retry"
            and kind in RETRYABLE_KINDS
            and attempts <= self.max_retries
        )


#: Fail-fast policy: exactly the pre-supervisor sweep semantics.
ABORT = SweepPolicy(on_failure="abort")


@dataclass
class FailureRecord:
    """One sweep point that did not produce a result."""

    workload: str
    config: str
    seed: int
    #: Taxonomy bucket from :func:`classify_failure`.
    kind: str
    message: str
    #: Total attempts made (1 = failed first try, no retries granted).
    attempts: int = 1
    #: Perturbed placement seeds tried on PnR retries (reproducibility).
    pnr_seeds: tuple[int, ...] = ()
    #: Pre-run identity digest (matches the resume journal).
    point_digest: str = ""

    def describe(self) -> str:
        extra = (
            f" after {self.attempts} attempts" if self.attempts > 1 else ""
        )
        return (
            f"{self.workload}/{self.config}/seed{self.seed}: "
            f"[{self.kind}]{extra} {self.message.splitlines()[0]}"
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
            "attempts": self.attempts,
            "pnr_seeds": list(self.pnr_seeds),
            "git_rev": git_rev(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }


@dataclass
class SweepOutcome:
    """What a supervised sweep produced.

    ``results`` maps every healthy point (the spec as requested, also
    when a retry perturbed its placement seed) to its result,
    ``failures`` holds a typed record per point that exhausted its
    policy, ``skipped`` the points resumed from the journal (already
    complete, not rerun).
    """

    results: dict[RunSpec, object] = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    skipped: list[RunSpec] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class _Job:
    """One sweep point plus its mutable supervision state."""

    #: The point as requested: its key in the outcome.
    point: RunSpec
    #: What the job runs; replaced (never mutated) when a PnR retry
    #: perturbs ``pnr_seed``.
    spec: RunSpec
    attempts: int = 0
    pnr_seeds: list[int] = field(default_factory=list)
    #: ``time.monotonic()`` before which a retry must not start (backoff).
    not_before: float = 0.0


def _dispatch_pooled(
    pending: deque, workers: int, job_fn, compile_fn, env: SweepEnv, settle
) -> None:
    """Run ``pending`` (and whatever ``settle`` requeues onto it) over a
    pool of ``workers`` processes, compiling each key once.

    Each round takes the current ``pending`` jobs; tasks are submitted
    as ``fn(job.spec, env)``. Every compile key
    (:attr:`RunSpec.compile_key <repro.exp.spec.RunSpec.compile_key>`)
    no task has attempted yet gets one ``compile_fn`` task, which only
    warms the shared disk cache; a key's points become *ready* once that
    task finished — succeeded or not, a point that cannot compile fails
    on its own, under its own policy. At most ``workers + 1`` tasks are
    in flight (one queued, so no worker idles on the parent), and a free
    slot goes to the lowest-numbered ready point before a new compile,
    so results keep arriving in near job order. Completions are buffered
    and handed to ``settle(job, future)`` strictly in job order — the
    serial/parallel manifest-equivalence contract.

    A dead worker poisons every outstanding future of its pool: those
    points settle as worker deaths, the pool is replaced, and the rest
    of the round carries on.
    """
    attempted: set[tuple] = set()
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while pending:
            batch = list(pending)
            pending.clear()
            parked: dict[tuple, list[int]] = {}
            ready: list[int] = []
            for index, job in enumerate(batch):
                key = job.spec.compile_key
                if key in attempted:
                    ready.append(index)
                else:
                    parked.setdefault(key, []).append(index)
            compiles = deque(parked)
            inflight: dict[Future, int | tuple] = {}
            settled: dict[int, Future] = {}
            emitted = 0
            while emitted < len(batch):
                now = time.monotonic()
                while len(inflight) <= workers:
                    index = next(
                        (i for i in ready if batch[i].not_before <= now), None
                    )
                    if index is not None:
                        ready.remove(index)
                        fn, tag = job_fn, index
                    elif compiles:
                        tag = compiles.popleft()
                        attempted.add(tag)
                        fn, index = compile_fn, parked[tag][0]
                    else:
                        break
                    try:
                        future = pool.submit(fn, batch[index].spec, env)
                    except BrokenProcessPool as exc:
                        future = Future()
                        future.set_exception(exc)
                    inflight[future] = tag
                # Wake for the next backoff expiry too; with nothing in
                # flight this is a plain sleep until then.
                wake = min(
                    (
                        batch[i].not_before
                        for i in ready
                        if batch[i].not_before > now
                    ),
                    default=None,
                )
                done, _ = wait(
                    inflight,
                    timeout=None if wake is None else wake - now,
                    return_when=FIRST_COMPLETED,
                )
                if any(
                    isinstance(f.exception(), BrokenProcessPool) for f in done
                ):
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
                    settle(batch[emitted], settled.pop(emitted))
                    emitted += 1
    finally:
        # Reached with work still queued only when ``settle`` raised
        # (fail-fast abort): drop it instead of running it out.
        pool.shutdown(wait=True, cancel_futures=True)


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
    the historical fail-fast sweep.

    ``resume=True`` requires ``manifest_path`` and skips every point the
    journal proves complete (see
    :func:`repro.obs.manifest.completed_points` for the digest
    validation that keeps a stale journal from poisoning the run).

    ``snapshot_dir`` arms mid-simulation checkpointing
    (:mod:`repro.sim.snapshot`): each job periodically snapshots to
    ``<snapshot_dir>/<point_digest>.snap`` per the policy's
    ``checkpoint_every``/``job_cycle_budget``, a timed-out or SIGTERMed
    job snapshots during its grace period instead of dying cold, and a
    retried (or ``resume=True``-rerun) point *continues from its last
    valid snapshot* rather than from cycle 0. Torn or configuration-
    mismatched snapshots are detected, discarded and the point restarts
    fresh — never wedging the retry loop.

    ``job_fn`` is a test seam: a picklable callable taking
    ``(spec, env)`` like :func:`repro.exp.runner._run_sweep_job` — one
    :class:`~repro.exp.spec.RunSpec` naming the point and the sweep's
    :class:`~repro.exp.spec.SweepEnv`, the same two arguments on the
    serial and the pooled path, whatever features are armed.

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
        timeout_s=sweep_policy.job_timeout_s,
        snapshot_dir=None if snapshot_dir is None else str(snapshot_dir),
        checkpoint_every=sweep_policy.checkpoint_every,
        cycle_budget=sweep_policy.job_cycle_budget,
        grace_s=sweep_policy.grace_s,
        journal=None if manifest_path is None else str(manifest_path),
    )
    jobs = [_Job(spec, spec) for spec in specs]

    outcome = SweepOutcome()
    if resume:
        if manifest_path is None:
            raise ExperimentError("resume requires a manifest path")
        done = completed_points(manifest_path)
        remaining = []
        for job in jobs:
            if job.spec.point_digest() in done:
                outcome.skipped.append(job.point)
            else:
                remaining.append(job)
        jobs = remaining

    def emit_success(job: _Job, run) -> None:
        outcome.results[job.point] = run
        if manifest_path is not None:
            append_manifest(manifest_path, build_manifest(run, job.spec))

    def handle_failure(job: _Job, exc: BaseException) -> None:
        kind = classify_failure(exc)
        job.attempts += 1
        if sweep_policy.on_failure == "abort":
            raise exc
        spec = job.spec
        if sweep_policy.wants_retry(kind, job.attempts):
            if kind in PNR_KINDS:
                pnr_seed = spec.seed + PNR_SEED_STRIDE * job.attempts
                job.spec = replace(spec, pnr_seed=pnr_seed)
                job.pnr_seeds.append(pnr_seed)
            # A not-before time, not a sleep: the supervisor keeps
            # feeding workers while this one point backs off.
            job.not_before = time.monotonic() + sweep_policy.backoff_s * (
                2 ** (job.attempts - 1)
            )
            pending.append(job)
            return
        failure = FailureRecord(
            workload=spec.workload,
            config=spec.config.name,
            seed=spec.seed,
            kind=kind,
            message=str(exc),
            attempts=job.attempts,
            pnr_seeds=tuple(job.pnr_seeds),
            point_digest=spec.point_digest(),
        )
        outcome.failures.append(failure)
        if manifest_path is not None:
            append_manifest(manifest_path, failure.to_manifest(spec))

    pending: deque[_Job] = deque(jobs)
    if max_workers is not None and max_workers <= 1:
        # In-process twin of the pool path — same supervision, no fork,
        # and the in-memory cache already compiles each key once.
        while pending:
            job = pending.popleft()
            time.sleep(max(0.0, job.not_before - time.monotonic()))
            try:
                run = job_fn(job.spec, env)
            except Exception as exc:
                handle_failure(job, exc)
            else:
                emit_success(job, run)
        return outcome

    def settle(job: _Job, future: Future) -> None:
        try:
            run = future.result()
        except Exception as exc:
            handle_failure(job, exc)
        else:
            emit_success(job, run)

    # Workers share compiles only through a disk cache; without one every
    # worker would PnR every kernel it touches. The scratch directory is
    # theirs alone: the parent's GLOBAL_CACHE is never pointed at it.
    with (
        tempfile.TemporaryDirectory(prefix="repro-sweep-cache-")
        if env.cache_dir is None
        else contextlib.nullcontext(env.cache_dir)
    ) as shared_cache:
        _dispatch_pooled(
            pending,
            max_workers or os.cpu_count() or 1,
            job_fn,
            _compile_sweep_job,
            replace(env, cache_dir=shared_cache),
            settle,
        )
    return outcome
