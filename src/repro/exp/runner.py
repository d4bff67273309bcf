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

A point is named by one :class:`~repro.exp.spec.RunSpec`:
:func:`compile_point` compiles it and :func:`run_point` simulates it —
the one place a simulation becomes a :class:`RunResult`. Sweep jobs
take ``(spec, env)``. :func:`run_parallel` is a fail-fast facade over
the resilient sweep supervisor (:mod:`repro.exp.resilient`); a caller
that wants per-job timeouts, typed failure records or other point
fields calls :func:`~repro.exp.resilient.run_resilient` on
:func:`~repro.exp.spec.sweep_specs` itself.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.arch.clocks import PAPER_DIVIDER
from repro.arch.fabric import Fabric, build_fabric
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC, PlacementPolicy, get_policy
from repro.exp.cache import GLOBAL_CACHE
from repro.exp.configs import MachineConfig
from repro.exp.resilient import SweepEnv, call_with_timeout, run_resilient
from repro.exp.spec import RunSpec, compile_key, sweep_specs
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
    #: The run's probes (``SimResult.obs``; None with every probe off).
    #: A probe twin's result carries every probe its twins asked for.
    obs: object = field(default=None, compare=False, repr=False)
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
    mem_mode: str = "raw",
) -> CompiledKernel:
    """Compile with the shared cache (PnR is deterministic given the key).

    The key is :func:`repro.exp.spec.compile_key` — the declared compile
    subset, covering every ``arch`` field ``compile_once`` reads
    (``noc_tracks``, ``noc_model``, ``timing``); the simulator's knobs
    (``arch.sim``, ``arch.memory``) are not in it.

    ``profile_guided`` refines class-B/C criticality by a profiling run
    on the instance's own inputs; it changes the compiled artifact, so
    it is a key member (``None`` when off), as is ``mem_mode``, the
    memory-ordering lowering. Only :func:`compile_point` compiles with
    per-node weight overrides.
    """
    return _compile(
        instance, fabric, arch, policy, parallelism, seed, profile_guided,
        None, mem_mode,
    )


def _compile(
    instance, fabric, arch, policy, parallelism, seed, profile_guided,
    node_weights, mem_mode,
) -> CompiledKernel:
    """:func:`compile_cached`, plus ``node_weights`` pairs (or None)."""
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
            node_weights=dict(node_weights) if node_weights else None,
        ),
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
    compiled = _compile(
        instance, build_fabric(*spec.fabric), spec.arch,
        get_policy(spec.policy), spec.parallelism, spec.seed,
        spec.profile_guided, spec.node_weights, spec.mem_mode,
    )
    return instance, compiled


def run_point(
    spec: RunSpec,
    instance: WorkloadInstance,
    compiled: CompiledKernel,
    **options,
) -> RunResult:
    """Simulate ``spec`` on its compiled kernel and validate the output.

    ``spec.divider=None`` runs at the divider the routed design achieved,
    never below :data:`PAPER_DIVIDER` — so a congested design pays in
    fabric frequency, the Fig. 16 mechanism. ``options``
    (``checkpoint``) pass through to :func:`repro.sim.engine.simulate`;
    :func:`_run_sweep_job` is the one caller that sets them (see
    :mod:`repro.sim.snapshot`).
    """
    divider = spec.divider
    if divider is None:
        divider = max(PAPER_DIVIDER, compiled.timing.clock_divider)
    start = time.perf_counter()
    result = simulate(
        compiled,
        instance.params,
        instance.arrays,
        spec.arch,
        frontend_factory=spec.config.frontend_factory(divider),
        divider=divider,
        **options,
    )
    wall = time.perf_counter() - start
    instance.check(result.memory)
    return RunResult(
        workload=instance.name,
        config=spec.config.name,
        cycles=result.stats.system_cycles,
        stats=result.stats,
        parallelism=compiled.parallelism,
        wall_time=wall,
        obs=result.obs,
        pnr=compiled.pnr,
        resume_info=result.resume_info,
        profile=compiled.meta.get("profile"),
    )


def _compile_sweep_job(spec: RunSpec, env: SweepEnv) -> None:
    """The PnR half of :func:`_run_sweep_job`, run once per compile key.

    Leaves the compiled kernel in the shared disk cache, so every point
    of the key disk-hits. Returns nothing: the artifact travels through
    ``env.cache_dir``, not the pipe.
    """
    _attach_cache(env.cache_dir)
    call_with_timeout(
        env.policy.job_timeout_s,
        lambda: compile_point(spec),
        label=f"{spec.workload}/compile/seed{spec.seed}",
    )


def _run_sweep_job(spec: RunSpec, env: SweepEnv) -> RunResult:
    """One sweep point (or ``repro run``'s one point), in a worker
    process or in-process.

    ``env.policy.job_timeout_s`` arms a ``SIGALRM`` wall-clock budget
    around compile+simulate (see
    :func:`repro.exp.resilient.call_with_timeout`).

    ``env.snapshot_dir`` arms mid-simulation checkpointing, and this is
    the one place that decides where a point's snapshot lives: the path
    is derived from the point digest, any valid snapshot already there
    is resumed (an invalid one is discarded, see
    :func:`repro.sim.snapshot.resolve_resume`), SIGTERM/SIGINT and
    timeout expiry snapshot-then-raise instead of killing the attempt
    cold, and snapshot writes are journaled to ``env.journal``.
    """
    _attach_cache(env.cache_dir)
    policy = env.policy
    watchdog = None
    checkpointing = {}
    if env.snapshot_dir is not None:
        from repro.sim.snapshot import CheckpointConfig, Watchdog

        watchdog = Watchdog()
        digest = spec.point_digest()
        path = os.path.join(env.snapshot_dir, f"{digest}.snap")
        checkpointing = {
            # A rerun of the point continues from its predecessor's
            # snapshot; torn/stale files are discarded, never fatal.
            "checkpoint": CheckpointConfig(
                path=path,
                every_cycles=policy.checkpoint_every,
                cycle_budget=policy.job_cycle_budget,
                watchdog=watchdog,
                journal_path=env.journal,
                journal_fields={"point_digest": digest, **spec.point_fields()},
            ),
        }

    return call_with_timeout(
        policy.job_timeout_s,
        lambda: run_point(spec, *compile_point(spec), **checkpointing),
        label=spec.label,
        watchdog=watchdog,
    )


def run_parallel(
    workloads: list[str],
    configs: list[MachineConfig],
    scale: str = "small",
    seeds: tuple[int, ...] = (0,),
    max_workers: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    manifest_path: str | os.PathLike | None = None,
) -> dict[tuple[str, str, int], RunResult]:
    """Fan (workload x config x seed) out over worker processes.

    Returns ``{(workload, config_name, seed): RunResult}``. Every point
    is a default :class:`~repro.exp.spec.RunSpec` (default machine, the
    paper's divider, effcc on Monaco 12x12). Results are bit-identical
    to running each point serially: compilation and simulation are
    deterministic, and every job — one picklable
    :class:`~repro.exp.spec.RunSpec` plus the sweep's
    :class:`~repro.exp.resilient.SweepEnv` — loads its kernel from the
    shared on-disk cache (or recompiles it), so no cross-job state leaks.

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

    This is the results-only, fail-fast facade over
    :func:`repro.exp.resilient.run_resilient`; other point fields, a
    policy, resume or snapshots call that on
    :func:`~repro.exp.spec.sweep_specs` directly.
    """
    outcome = run_resilient(
        sweep_specs(workloads, configs, seeds, scale=scale),
        max_workers=max_workers,
        cache_dir=cache_dir,
        manifest_path=manifest_path,
    )
    return {spec.key: run for spec, run in outcome.results.items()}
