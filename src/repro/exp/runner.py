"""Run (workload, machine config) pairs and collect cycle counts.

Every simulated run is validated against the workload's reference output
— a performance number from a run that computed the wrong answer would be
meaningless.

:func:`run_parallel` fans a (workload x config x seed) sweep out over
worker processes; simulation and PnR are deterministic, so the
parallel sweep is bit-identical to the serial one. Workers share PnR
results through an on-disk compile cache (see :mod:`repro.exp.cache`),
and the supervisor compiles each distinct key once, ahead of the points
that simulate it (:func:`_compile_sweep_job`).

Both :func:`run_parallel` and :func:`run_workload_on_configs` are
facades over the resilient sweep supervisor
(:mod:`repro.exp.resilient`): pass a
:class:`~repro.exp.resilient.SweepPolicy` to get per-job timeouts,
retries with deterministic placement-seed perturbation, and typed
failure records instead of a crashed sweep. The default policy is
fail-fast ``abort``. A point is named by one
:class:`~repro.exp.spec.RunSpec`; jobs take ``(spec, env)``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.arch.fabric import Fabric, build_fabric
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC, PlacementPolicy, get_policy
from repro.exp.cache import GLOBAL_CACHE
from repro.exp.configs import MachineConfig
from repro.exp.spec import (
    DEFAULT_FABRIC_SPEC,
    PAPER_DIVIDER,
    FabricSpec,
    RunSpec,
    SweepEnv,
    compile_key,
    sweep_specs,
)
from repro.pnr.flow import compile_kernel
from repro.pnr.result import CompiledKernel
from repro.sim.engine import simulate
from repro.sim.stats import SimStats
from repro.workloads.base import WorkloadInstance
from repro.workloads.registry import make_workload


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
    #: Observability bus of the run (None with every probe off).
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


def compile_cached(
    instance: WorkloadInstance,
    fabric: Fabric,
    arch: ArchParams,
    policy: PlacementPolicy = EFFCC,
    parallelism: int | None = None,
    seed: int = 0,
    profile_guided: bool = False,
    node_weights: dict[int, float] | None = None,
    mem_mode: str = "raw",
) -> CompiledKernel:
    """Compile with the shared cache (PnR is deterministic given the key).

    The key is :func:`repro.exp.spec.compile_key` — the declared compile
    subset, covering every ``arch`` field ``compile_once`` reads
    (``noc_tracks``, ``noc_model``, ``timing``); the simulator's knobs
    (``arch.sim``, ``arch.memory``) are not in it.

    ``profile_guided`` refines class-B/C criticality by a profiling run
    on the instance's own inputs; ``node_weights`` overrides per-node
    placement weights outright (:mod:`repro.exp.fdo`). Both change the
    compiled artifact, so both are key members (``None`` when off), as
    is ``mem_mode``, the memory-ordering lowering.
    """
    key = compile_key(
        instance.name,
        instance.meta.get("table1"),
        fabric.name,
        arch,
        policy.name,
        parallelism,
        seed,
        profile_guided,
        node_weights,
        mem_mode,
    )
    profile = (instance.params, instance.arrays) if profile_guided else None
    return GLOBAL_CACHE.get_or_compile(
        key,
        lambda: compile_kernel(
            instance.kernel,
            fabric,
            arch,
            policy=policy,
            parallelism=parallelism,
            mem_mode=mem_mode,
            seed=seed,
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
    fabric_spec: FabricSpec = DEFAULT_FABRIC_SPEC,
    policy: PlacementPolicy = EFFCC,
    divider: int | None = PAPER_DIVIDER,
    manifest_path: str | os.PathLike | None = None,
    sweep_policy=None,
    failures: list | None = None,
    profile_guided: bool = False,
) -> dict[str, RunResult]:
    """Compile once, then simulate under each interconnect config.

    The one-workload, one-seed, in-process case of
    :func:`repro.exp.resilient.run_resilient`, returning
    ``{config_name: RunResult}``. With a ``sweep_policy`` whose
    ``on_failure`` is not ``"abort"``, failing configs are appended to
    ``failures`` (when given) as
    :class:`~repro.exp.resilient.FailureRecord` s and journaled to the
    manifest, while the healthy configs still return.
    """
    from repro.exp.resilient import run_resilient

    outcome = run_resilient(
        sweep_specs(
            [name],
            configs,
            (seed,),
            **_shared_fields(
                scale, arch, policy, divider, fabric_spec, profile_guided
            ),
        ),
        max_workers=1,
        manifest_path=manifest_path,
        sweep_policy=sweep_policy,
    )
    if failures is not None:
        failures.extend(outcome.failures)
    return {spec.config.name: run for spec, run in outcome.results.items()}


def _shared_fields(
    scale, arch, policy, divider, fabric_spec, profile_guided
) -> dict:
    """The :class:`RunSpec` fields every point of a facade's sweep shares."""
    return dict(
        scale=scale,
        arch=arch or ArchParams(),
        divider=divider,
        policy=policy.name,
        fabric=tuple(fabric_spec),
        profile_guided=profile_guided,
    )


# -- sweep jobs -------------------------------------------------------------


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


def compile_point(spec: RunSpec) -> tuple[WorkloadInstance, CompiledKernel]:
    """Build ``spec``'s workload and compile it through the cache."""
    instance = make_workload(spec.workload, scale=spec.scale, seed=spec.seed)
    compiled = compile_cached(
        instance,
        build_fabric(*spec.fabric),
        spec.arch,
        policy=get_policy(spec.policy),
        parallelism=spec.parallelism,
        seed=spec.placement_seed,
        profile_guided=spec.profile_guided,
        mem_mode=spec.mem_mode,
    )
    return instance, compiled


def run_point(
    spec: RunSpec,
    instance: WorkloadInstance,
    compiled: CompiledKernel,
    **options,
) -> RunResult:
    """Simulate ``spec`` on its compiled kernel (``options`` pass through
    to :func:`run_config`).

    ``spec.divider=None`` runs at the divider the routed design achieved,
    never below :data:`PAPER_DIVIDER` — so a congested design pays in
    fabric frequency, the Fig. 16 mechanism.
    """
    divider = spec.divider
    if divider is None:
        divider = max(PAPER_DIVIDER, compiled.timing.clock_divider)
    run = run_config(
        instance, compiled, spec.config, spec.arch, divider, **options
    )
    run.pnr_seed = spec.pnr_seed
    run.profile = compiled.meta.get("profile")
    return run


def _compile_sweep_job(spec: RunSpec, env: SweepEnv) -> None:
    """The PnR half of :func:`_run_sweep_job`, run once per compile key.

    Leaves the compiled kernel in the shared disk cache, so every point
    of the key disk-hits. Returns nothing: the artifact travels through
    ``env.cache_dir``, not the pipe.
    """
    from repro.exp.resilient import call_with_timeout

    _attach_cache(env.cache_dir)
    call_with_timeout(
        env.timeout_s,
        lambda: compile_point(spec),
        label=f"{spec.workload}/compile/seed{spec.seed}",
    )


def _run_sweep_job(spec: RunSpec, env: SweepEnv) -> RunResult:
    """One sweep point; runs inside a worker process.

    ``env.timeout_s`` arms a ``SIGALRM`` wall-clock budget around
    compile+simulate (see :func:`repro.exp.resilient.call_with_timeout`).

    ``env.snapshot_dir`` arms mid-simulation checkpointing: the snapshot
    path is derived from the point digest, any valid snapshot already
    there is resumed (invalid ones are discarded), SIGTERM/SIGINT and
    timeout expiry snapshot-then-raise instead of killing the attempt
    cold, and snapshot writes are journaled to ``env.journal``.
    """
    from repro.exp.resilient import call_with_timeout

    _attach_cache(env.cache_dir)
    watchdog = None
    checkpointing = {}
    if env.snapshot_dir is not None:
        from repro.sim.snapshot import CheckpointConfig, Watchdog

        watchdog = Watchdog()
        digest = spec.point_digest()
        path = os.path.join(env.snapshot_dir, f"{digest}.snap")
        checkpointing = {
            "checkpoint": CheckpointConfig(
                path=path,
                every_cycles=env.checkpoint_every,
                cycle_budget=env.cycle_budget,
                install_signals=True,
                watchdog=watchdog,
                journal_path=env.journal,
                journal_fields={"point_digest": digest, **spec.point_fields()},
            ),
            # A retried attempt continues from its predecessor's
            # snapshot; torn/stale files are discarded, never fatal.
            "resume_from": path,
            "resume_policy": "discard",
        }

    return call_with_timeout(
        env.timeout_s,
        lambda: run_point(spec, *compile_point(spec), **checkpointing),
        label=spec.label,
        watchdog=watchdog,
        grace_s=env.grace_s,
    )


def run_parallel(
    workloads: list[str],
    configs: list[MachineConfig],
    scale: str = "small",
    seeds: tuple[int, ...] = (0,),
    arch: ArchParams | None = None,
    policy: PlacementPolicy = EFFCC,
    divider: int | None = PAPER_DIVIDER,
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
    simulation are deterministic, and every job — one picklable
    :class:`~repro.exp.spec.RunSpec` plus the sweep's
    :class:`~repro.exp.spec.SweepEnv` — loads its kernel from the shared
    on-disk cache (or recompiles it), so no cross-job state leaks.

    ``max_workers <= 1`` runs in-process — same job function minus the
    pool, which keeps the serial-vs-parallel equivalence testable without
    fork overhead. With a pool, each distinct compile key of the sweep
    (:attr:`RunSpec.compile_key <repro.exp.spec.RunSpec.compile_key>`)
    is placed-and-routed once, by a compile task the key's points wait
    for (see :func:`repro.exp.resilient._dispatch_pooled`); ``cache_dir``
    makes those artifacts outlive the sweep, so a later invocation on
    the same directory compiles nothing. Without it the workers share a
    temporary directory that is removed when the sweep returns.

    ``manifest_path`` appends one JSONL record per run (see
    :mod:`repro.obs.manifest`). Records are written by the parent in job
    order, so serial and parallel sweeps produce identical manifests up
    to the volatile ``wall_time_s``/``timestamp`` fields.

    This is the results-only facade over
    :func:`repro.exp.resilient.run_resilient`: with the default
    fail-fast policy the first failure raises. Pass ``sweep_policy`` /
    ``resume`` for graceful degradation — but use
    :func:`~repro.exp.resilient.run_resilient` directly when you need
    the typed :class:`~repro.exp.resilient.FailureRecord` s and the
    skipped-point list, since this facade returns the healthy results
    alone.
    """
    from repro.exp.resilient import run_resilient

    outcome = run_resilient(
        sweep_specs(
            workloads,
            configs,
            seeds,
            **_shared_fields(
                scale, arch, policy, divider, fabric_spec, profile_guided
            ),
        ),
        max_workers=max_workers,
        cache_dir=cache_dir,
        manifest_path=manifest_path,
        sweep_policy=sweep_policy,
        resume=resume,
        snapshot_dir=snapshot_dir,
    )
    return {spec.key: run for spec, run in outcome.results.items()}
