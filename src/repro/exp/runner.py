"""Run (workload, machine config) pairs and collect cycle counts.

Every simulated run is validated against the workload's reference output
— a performance number from a run that computed the wrong answer would be
meaningless.

:func:`run_parallel` fans a (workload x config x seed) sweep out over a
``ProcessPoolExecutor``; simulation and PnR are deterministic, so the
parallel sweep is bit-identical to the serial one. Workers share PnR
results through an on-disk compile cache (see :mod:`repro.exp.cache`),
and the supervisor compiles each distinct key once, ahead of the points
that simulate it (:func:`_compile_sweep_job`).

Both :func:`run_parallel` and :func:`run_workload_on_configs` run their
jobs under the resilient sweep supervisor (:mod:`repro.exp.resilient`):
pass a :class:`~repro.exp.resilient.SweepPolicy` to get per-job
timeouts, retries with deterministic placement-seed perturbation, and
typed failure records instead of a crashed sweep. The default policy is
fail-fast ``abort`` — exactly the historical behavior.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.arch.fabric import Fabric, build_fabric, monaco
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC, PlacementPolicy, get_policy
from repro.exp.cache import GLOBAL_CACHE
from repro.exp.configs import MachineConfig
from repro.obs.manifest import append_manifest, build_manifest
from repro.pnr.flow import compile_kernel
from repro.pnr.result import CompiledKernel
from repro.sim.engine import simulate
from repro.sim.stats import SimStats
from repro.workloads.base import WorkloadInstance
from repro.workloads.registry import make_workload

#: The paper's evaluated fabric clock divider (Sec. 6).
PAPER_DIVIDER = 2

#: (topology, rows, cols) triple — picklable stand-in for a Fabric when
#: shipping jobs to worker processes.
FabricSpec = tuple[str, int, int]

DEFAULT_FABRIC_SPEC: FabricSpec = ("monaco", 12, 12)


def _fault_signature(arch: ArchParams) -> str | None:
    """Stable fault-model signature for manifest/journal records."""
    faults = arch.sim.faults
    if faults is None or not faults.active():
        return None
    return faults.signature()


@dataclass
class RunResult:
    workload: str
    config: str
    cycles: int
    stats: SimStats
    parallelism: int
    #: Wall-clock seconds the timed simulation took (excluded from
    #: equality — two bit-identical runs never take identical time).
    wall_time: float = field(default=0.0, compare=False)
    #: Observability bus of the run (tracing on only), for profiling.
    obs: object = field(default=None, compare=False, repr=False)
    #: Placement seed the supervisor actually compiled with when a PnR
    #: retry perturbed it (None = the point's own seed). Journaled so
    #: retried results stay reproducible; excluded from equality so a
    #: retried run still compares equal to a direct run of that seed.
    pnr_seed: int | None = field(default=None, compare=False)
    #: Compile-time telemetry (:class:`repro.pnr.result.PnRStats`) of the
    #: kernel this run simulated. Wall-clock data, so excluded from
    #: equality like ``wall_time``; None when the compile predates the
    #: stats (old cache entries).
    pnr: object = field(default=None, compare=False, repr=False)
    #: ``{"from_cycle", "executed_before", "snapshot", "restore_wall_s"}``
    #: when this run continued from a mid-simulation snapshot (see
    #: :mod:`repro.sim.snapshot`); None for fresh runs. Excluded from
    #: equality — a resumed run is bit-identical to an uninterrupted one.
    resume_info: dict | None = field(default=None, compare=False)
    #: Checkpointer write telemetry, or None when checkpointing was off.
    #: Wall-clock data, excluded from equality like ``wall_time``.
    snapshot_stats: dict | None = field(
        default=None, compare=False, repr=False
    )
    #: :meth:`repro.core.profile.ProfileReport.to_dict` of the compile's
    #: profile-guided refinement pass, or None for static compiles.
    #: Deterministic, but excluded from equality so a profiled run still
    #: compares against hand-built expectations on cycles/stats.
    profile: dict | None = field(default=None, compare=False, repr=False)


def weight_map_digest(node_weights: dict[int, float]) -> str:
    """Stable 16-hex digest of a per-node weight override map."""
    import hashlib
    import json

    payload = json.dumps(
        {str(int(n)): float(w) for n, w in node_weights.items()},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def compile_cached(
    instance: WorkloadInstance,
    fabric: Fabric,
    arch: ArchParams,
    policy: PlacementPolicy = EFFCC,
    parallelism: int | None = None,
    seed: int = 0,
    incremental: bool = True,
    portfolio_jobs: int = 1,
    profile_guided: bool = False,
    node_weights: dict[int, float] | None = None,
) -> CompiledKernel:
    """Compile with the shared cache (PnR is deterministic given the key).

    ``incremental`` and ``portfolio_jobs`` only change *how fast* the
    same artifact is produced (bit-identical outputs, see
    :mod:`repro.pnr.flow`), so they are deliberately not part of the
    cache key.

    ``profile_guided`` refines class-B/C criticality by a profiling run
    on the instance's own inputs; ``node_weights`` overrides per-node
    placement weights outright (:mod:`repro.exp.fdo`). Both change the
    compiled artifact, so both extend the cache key — a profile-guided
    or weight-overridden compile can never alias the static entry (and
    vice versa: the base key is unchanged when neither is set, so every
    pre-existing cache entry and pinned digest stays reachable).
    """
    key = (
        instance.name,
        instance.meta.get("table1"),
        fabric.name,
        arch.noc_tracks,
        policy.name,
        parallelism,
        seed,
    )
    if profile_guided:
        # The profiling inputs ARE the instance (name/table1/seed are
        # already in the key); the marker separates refined artifacts
        # from static ones.
        key = key + ("profile-guided",)
    if node_weights:
        key = key + ("node-weights", weight_map_digest(node_weights))
    profile = (instance.params, instance.arrays) if profile_guided else None
    return GLOBAL_CACHE.get_or_compile(
        key,
        lambda: compile_kernel(
            instance.kernel,
            fabric,
            arch,
            policy=policy,
            parallelism=parallelism,
            seed=seed,
            incremental=incremental,
            portfolio_jobs=portfolio_jobs,
            profile=profile,
            node_weights=node_weights,
        ),
    )


def run_config(
    instance: WorkloadInstance,
    compiled: CompiledKernel,
    config: MachineConfig,
    arch: ArchParams,
    divider: int = PAPER_DIVIDER,
    obs=None,
    checkpoint=None,
    resume_from=None,
    resume_policy: str = "strict",
) -> RunResult:
    """Simulate one (compiled workload, machine config) pair and validate.

    ``checkpoint``/``resume_from``/``resume_policy`` pass through to
    :func:`repro.sim.engine.simulate` (see :mod:`repro.sim.snapshot`).
    """
    start = time.perf_counter()
    result = simulate(
        compiled,
        instance.params,
        instance.arrays,
        arch,
        frontend_factory=config.frontend_factory(divider),
        divider=divider,
        obs=obs,
        checkpoint=checkpoint,
        resume_from=resume_from,
        resume_policy=resume_policy,
    )
    wall = time.perf_counter() - start
    instance.check(result.memory)
    return RunResult(
        workload=instance.name,
        config=config.name,
        cycles=result.stats.system_cycles,
        stats=result.stats,
        parallelism=compiled.parallelism,
        wall_time=wall,
        obs=result.obs,
        pnr=compiled.pnr,
        resume_info=result.resume_info,
        snapshot_stats=result.snapshot_stats,
    )


def run_workload_on_configs(
    name: str,
    configs: list[MachineConfig],
    scale: str = "small",
    seed: int = 0,
    arch: ArchParams | None = None,
    fabric: Fabric | None = None,
    policy: PlacementPolicy = EFFCC,
    divider: int = PAPER_DIVIDER,
    manifest_path: str | os.PathLike | None = None,
    sweep_policy=None,
    failures: list | None = None,
    profile_guided: bool = False,
) -> dict[str, RunResult]:
    """Compile once, then simulate under each interconnect config.

    ``manifest_path`` appends one JSONL record per config (the serial
    twin of :func:`run_parallel`'s manifest emission).

    ``sweep_policy`` (a :class:`repro.exp.resilient.SweepPolicy`) puts
    each config's run under supervision: with ``on_failure`` other than
    ``"abort"``, failing configs are recorded as
    :class:`~repro.exp.resilient.FailureRecord` s (appended to the
    ``failures`` list when given, and journaled to the manifest) while
    the healthy configs still return.

    ``profile_guided`` refines criticality classes by a profiling run on
    the instance's own inputs before placement (see
    :mod:`repro.core.profile`); the manifest identity gains a
    ``profile: "guided"`` marker and each record carries the
    refinement's ``profile_report``.
    """
    from repro.exp.resilient import (
        ABORT,
        PNR_KINDS,
        PNR_SEED_STRIDE,
        FailureRecord,
        call_with_timeout,
        classify_failure,
    )

    arch = arch or ArchParams()
    fabric = fabric or monaco(12, 12)
    sweep_policy = sweep_policy or ABORT
    faults_sig = _fault_signature(arch)
    profile_sig = "guided" if profile_guided else None
    fabric_spec = (fabric.name, fabric.rows, fabric.cols)
    instance = make_workload(name, scale=scale, seed=seed)
    results: dict[str, RunResult] = {}

    def emit(run: RunResult) -> None:
        if manifest_path is not None:
            append_manifest(
                manifest_path,
                build_manifest(
                    run,
                    scale=scale,
                    seed=seed,
                    divider=divider,
                    fabric_spec=fabric_spec,
                    policy=policy.name,
                    faults=faults_sig,
                    profile=profile_sig,
                ),
            )

    def one_config(config: MachineConfig, pnr_seed: int | None) -> RunResult:
        compiled = compile_cached(
            instance,
            fabric,
            arch,
            policy=policy,
            seed=seed if pnr_seed is None else pnr_seed,
            profile_guided=profile_guided,
        )
        run = run_config(instance, compiled, config, arch, divider)
        run.pnr_seed = pnr_seed
        run.profile = compiled.meta.get("profile")
        return run

    for config in configs:
        attempts = 0
        pnr_seed: int | None = None
        pnr_seeds: list[int] = []
        while True:
            try:
                run = call_with_timeout(
                    sweep_policy.job_timeout_s,
                    lambda: one_config(config, pnr_seed),
                    label=f"{name}/{config.name}/seed{seed}",
                )
            except Exception as exc:
                kind = classify_failure(exc)
                attempts += 1
                if sweep_policy.on_failure == "abort":
                    raise
                if sweep_policy.wants_retry(kind, attempts):
                    if kind in PNR_KINDS:
                        pnr_seed = seed + PNR_SEED_STRIDE * attempts
                        pnr_seeds.append(pnr_seed)
                    if sweep_policy.backoff_s:
                        time.sleep(
                            sweep_policy.backoff_s * (2 ** (attempts - 1))
                        )
                    continue
                failure = FailureRecord(
                    workload=name,
                    config=config.name,
                    seed=seed,
                    kind=kind,
                    message=str(exc),
                    attempts=attempts,
                    pnr_seeds=tuple(pnr_seeds),
                )
                if failures is not None:
                    failures.append(failure)
                if manifest_path is not None:
                    append_manifest(
                        manifest_path,
                        failure.to_manifest(
                            scale=scale,
                            divider=divider,
                            fabric_spec=fabric_spec,
                            policy=policy.name,
                            faults=faults_sig,
                            profile=profile_sig,
                        ),
                    )
                break
            else:
                results[config.name] = run
                emit(run)
                break
    return results


# -- parallel sweep ---------------------------------------------------------


def _attach_cache(cache_dir: str | None) -> None:
    """Point this process's compile cache at the sweep's directory."""
    if cache_dir is not None and (
        GLOBAL_CACHE.disk_dir is None
        or str(GLOBAL_CACHE.disk_dir) != cache_dir
    ):
        # Always point at the *requested* dir: warm in-process reuse
        # (max_workers <= 1) must not silently keep a previous sweep's
        # cache directory.
        GLOBAL_CACHE.enable_disk(cache_dir)


def _compile_point(
    name: str,
    scale: str,
    seed: int,
    arch: ArchParams,
    policy_name: str,
    fabric_spec: FabricSpec,
    pnr_seed: int | None,
    profile_guided: bool,
) -> tuple[WorkloadInstance, CompiledKernel]:
    """Build one sweep point's workload and compile it through the cache."""
    instance = make_workload(name, scale=scale, seed=seed)
    compiled = compile_cached(
        instance,
        build_fabric(*fabric_spec),
        arch,
        policy=get_policy(policy_name),
        seed=seed if pnr_seed is None else pnr_seed,
        profile_guided=profile_guided,
    )
    return instance, compiled


def _compile_sweep_job(
    name: str,
    config: MachineConfig,
    scale: str,
    seed: int,
    arch: ArchParams,
    divider: int,
    policy_name: str,
    fabric_spec: FabricSpec,
    cache_dir: str | None,
    pnr_seed: int | None = None,
    timeout_s: float | None = None,
    snapshot: dict | None = None,
    profile_guided: bool = False,
) -> None:
    """The PnR half of :func:`_run_sweep_job`, run once per compile key.

    Takes a point's argument list unchanged (``config``, ``divider`` and
    ``snapshot`` play no part in PnR) and leaves the compiled kernel in
    the shared disk cache, so every point of the key disk-hits. Returns
    nothing: the artifact travels through ``cache_dir``, not the pipe.
    """
    from repro.exp.resilient import call_with_timeout

    _attach_cache(cache_dir)
    call_with_timeout(
        timeout_s,
        lambda: _compile_point(
            name, scale, seed, arch, policy_name, fabric_spec, pnr_seed,
            profile_guided,
        ),
        label=f"{name}/compile/seed{seed}",
    )


def _run_sweep_job(
    name: str,
    config: MachineConfig,
    scale: str,
    seed: int,
    arch: ArchParams,
    divider: int,
    policy_name: str,
    fabric_spec: FabricSpec,
    cache_dir: str | None,
    pnr_seed: int | None = None,
    timeout_s: float | None = None,
    snapshot: dict | None = None,
    profile_guided: bool = False,
) -> RunResult:
    """One (workload, config, seed) point; runs inside a worker process.

    ``pnr_seed`` overrides the *placement* seed only (the supervisor's
    deterministic perturbation on PnR retry); the workload's input seed
    is always ``seed``. ``timeout_s`` arms a ``SIGALRM`` wall-clock
    budget around compile+simulate (see
    :func:`repro.exp.resilient.call_with_timeout`).

    ``profile_guided`` compiles with profile-refined criticality classes
    (the profiling input is the point's own workload instance).

    ``snapshot`` (``{"dir", "every", "cycle_budget", "grace_s",
    "journal"}``, supplied by the supervisor when a ``snapshot_dir`` is
    set) arms mid-simulation checkpointing: the snapshot path is derived
    from the point's identity digest, any valid snapshot already there
    is resumed (invalid ones are discarded), SIGTERM/SIGINT and timeout
    expiry snapshot-then-raise instead of killing the attempt cold, and
    snapshot writes are journaled to the sweep manifest.
    """
    from repro.exp.resilient import call_with_timeout

    _attach_cache(cache_dir)
    watchdog = None
    grace_s = 5.0
    if snapshot is not None:
        from repro.sim.snapshot import Watchdog

        watchdog = Watchdog()
        grace_s = snapshot.get("grace_s", 5.0)

    def job() -> RunResult:
        instance, compiled = _compile_point(
            name, scale, seed, arch, policy_name, fabric_spec, pnr_seed,
            profile_guided,
        )
        checkpoint = resume_from = None
        resume_policy = "strict"
        if snapshot is not None:
            from repro.obs.manifest import config_digest, point_fields
            from repro.sim.snapshot import CheckpointConfig

            identity = point_fields(
                workload=name,
                config=config.name,
                scale=scale,
                seed=seed,
                divider=divider,
                fabric=fabric_spec,
                policy=policy_name,
                faults=_fault_signature(arch),
                profile="guided" if profile_guided else None,
            )
            digest = config_digest(identity)
            path = os.path.join(snapshot["dir"], f"{digest}.snap")
            checkpoint = CheckpointConfig(
                path=path,
                every_cycles=snapshot.get("every", 0) or 0,
                cycle_budget=snapshot.get("cycle_budget"),
                install_signals=True,
                watchdog=watchdog,
                journal_path=snapshot.get("journal"),
                journal_fields={"point_digest": digest, **identity},
            )
            # A retried attempt continues from its predecessor's
            # snapshot; torn/stale files are discarded, never fatal.
            resume_from = path
            resume_policy = "discard"
        run = run_config(
            instance,
            compiled,
            config,
            arch,
            divider,
            checkpoint=checkpoint,
            resume_from=resume_from,
            resume_policy=resume_policy,
        )
        run.pnr_seed = pnr_seed
        run.profile = compiled.meta.get("profile")
        return run

    return call_with_timeout(
        timeout_s,
        job,
        label=f"{name}/{config.name}/seed{seed}",
        watchdog=watchdog,
        grace_s=grace_s,
    )


def run_parallel(
    workloads: list[str],
    configs: list[MachineConfig],
    scale: str = "small",
    seeds: tuple[int, ...] = (0,),
    arch: ArchParams | None = None,
    policy: PlacementPolicy = EFFCC,
    divider: int = PAPER_DIVIDER,
    fabric_spec: FabricSpec = DEFAULT_FABRIC_SPEC,
    max_workers: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    manifest_path: str | os.PathLike | None = None,
    sweep_policy=None,
    resume: bool = False,
    snapshot_dir: str | os.PathLike | None = None,
    profile_guided: bool = False,
) -> dict[tuple[str, str, int], RunResult]:
    """Fan (workload x config x seed) out over worker processes.

    Returns ``{(workload, config_name, seed): RunResult}``. Results are
    bit-identical to running each point serially: compilation and
    simulation are deterministic, and every job loads its kernel from the
    shared on-disk cache (or recompiles it), so no cross-job state leaks.

    ``max_workers <= 1`` runs in-process — same job function minus the
    pool, which keeps the serial-vs-parallel equivalence testable without
    fork overhead. With a pool, each distinct PnR key of the sweep is
    placed-and-routed once, by a compile task the key's points wait for
    (see :func:`repro.exp.resilient._dispatch_pooled`); ``cache_dir``
    makes those artifacts outlive the sweep, so a later invocation on
    the same directory compiles nothing. Without it the workers share a
    temporary directory that is removed when the sweep returns.

    ``manifest_path`` appends one JSONL record per run (see
    :mod:`repro.obs.manifest`). Records are written by the parent in job
    order, so serial and parallel sweeps produce identical manifests up
    to the volatile ``wall_time_s``/``timestamp`` fields.

    This is the results-only facade over
    :func:`repro.exp.resilient.run_resilient`: with the default
    fail-fast policy the first failure raises, exactly as before the
    supervisor existed. Pass ``sweep_policy`` / ``resume`` for graceful
    degradation — but use :func:`~repro.exp.resilient.run_resilient`
    directly when you need the typed
    :class:`~repro.exp.resilient.FailureRecord` s and the skipped-point
    list, since this facade returns the healthy results alone.
    """
    from repro.exp.resilient import run_resilient

    outcome = run_resilient(
        workloads,
        configs,
        scale=scale,
        seeds=seeds,
        arch=arch,
        policy=policy,
        divider=divider,
        fabric_spec=fabric_spec,
        max_workers=max_workers,
        cache_dir=cache_dir,
        manifest_path=manifest_path,
        sweep_policy=sweep_policy,
        resume=resume,
        snapshot_dir=snapshot_dir,
        profile_guided=profile_guided,
    )
    return outcome.results
