"""Regeneration of every figure in the paper's evaluation (Sec. 7).

Each ``figNN`` function returns a :class:`FigureResult` whose rows mirror
the corresponding plot's series; ``repro.exp.report.format_figure`` renders
the same rows as a text table. Absolute cycle counts differ from the paper
(scaled inputs, Python-simulated substrate); the claims under test are the
*shapes* — who wins, by roughly what factor, where the crossovers fall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.arch.fabric import build_fabric, monaco
from repro.arch.params import ArchParams
from repro.core.policy import DOMAIN_AWARE, DOMAIN_UNAWARE, EFFCC
from repro.errors import PnRError
from repro.exp.configs import MONACO, ideal, numa, primary_configs, upea
from repro.exp.runner import (
    PAPER_DIVIDER,
    compile_cached,
    run_config,
)
from repro.workloads.registry import ALL_WORKLOADS, make_workload


@dataclass
class FigureResult:
    """Rows of one regenerated figure."""

    figure: str
    title: str
    columns: list[str]
    #: row label -> column -> value (exec time normalized unless noted).
    rows: dict[str, dict[str, float]] = field(default_factory=dict)
    #: row label -> column -> raw system-cycle count (when applicable).
    raw: dict[str, dict[str, float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def geomean(self, column: str) -> float:
        """Geometric mean over the column's finite positive values.

        ``None`` cells (points a resilient sweep failed to produce — see
        :mod:`repro.exp.resilient`) and non-finite values are skipped, so
        a partial figure still reports the geomean of what it has.
        """
        values = [
            row[column]
            for row in self.rows.values()
            if column in row
            and row[column] is not None
            and math.isfinite(row[column])
            and row[column] > 0
        ]
        if not values:
            return 0.0
        return math.exp(sum(math.log(v) for v in values) / len(values))


def _workload_list(workloads):
    return list(workloads) if workloads else list(ALL_WORKLOADS)


def fig_stalls(
    scale: str = "small",
    seed: int = 0,
    workloads=None,
    arch=None,
    config=None,
) -> FigureResult:
    """Supplementary: where cycles go, per workload (stall taxonomy).

    Runs each workload on Monaco (or ``config``) with cycle-attribution
    tracing on and reports the machine-wide share of node-cycles in each
    bucket of :data:`repro.obs.events.STALL_KINDS` (+ ``fire``). This is
    the attribution behind the paper's Sec. 5 argument: on Monaco the
    critical recurrences wait on memory round-trips
    (``memory-outstanding``), not on fabric compute.
    """
    from dataclasses import replace

    from repro.obs.events import FIRE, STALL_KINDS

    arch = arch or ArchParams()
    arch = ArchParams(
        memory=arch.memory,
        sim=replace(arch.sim, trace=True),
        timing=arch.timing,
        noc_tracks=arch.noc_tracks,
        noc_model=arch.noc_model,
    )
    config = config or MONACO
    fabric = monaco(12, 12)
    kinds = [FIRE] + list(STALL_KINDS)
    result = FigureResult(
        "fig_stalls",
        f"Cycle attribution on {config.name} "
        "(share of node-cycles per stall bucket)",
        kinds,
    )
    for name in _workload_list(workloads):
        instance = make_workload(name, scale=scale, seed=seed)
        compiled = compile_cached(
            instance, fabric, arch, policy=EFFCC, seed=seed
        )
        run = run_config(instance, compiled, config, arch)
        fractions = run.obs.attribution.fractions()
        result.rows[name] = {kind: fractions[kind] for kind in kinds}
        result.raw[name] = {"cycles": float(run.cycles)}
    result.notes.append(
        "rows sum to 1.0; divider-gap is a global machine state, "
        "the rest attribute fabric ticks per node "
        "(repro profile <workload> breaks these down per node/PE)"
    )
    return result


def fig_critblame(
    scale: str = "small",
    seed: int = 0,
    workloads=None,
    arch=None,
) -> FigureResult:
    """Supplementary: critical-path blame, NUPEA vs UPEA (stacked bars).

    Runs each workload under Monaco and UPEA2 with the dynamic
    critical-path profiler (:mod:`repro.obs.critpath`) and reports each
    coarse category's share of the makespan. The per-row shares sum to
    1.0 by the profiler's hard invariant (segment costs sum exactly to
    ``system_cycles``). This figure explains the NUPEA-vs-UPEA speedups
    *causally*: under UPEA the extra cycles land in
    ``fmnoc-arbitration`` (the uniform access delay) on the critical
    recurrences, which is precisely what NUPEA's D0 placement removes.
    """
    from dataclasses import replace

    from repro.obs.critpath import ROLLUP_ORDER

    arch = arch or ArchParams()
    arch = ArchParams(
        memory=arch.memory,
        sim=replace(arch.sim, critpath=True),
        timing=arch.timing,
        noc_tracks=arch.noc_tracks,
        noc_model=arch.noc_model,
    )
    fabric = monaco(12, 12)
    configs = [MONACO, upea(2)]
    result = FigureResult(
        "fig_critblame",
        "Critical-path blame attribution, NUPEA vs UPEA "
        "(share of system cycles per category)",
        list(ROLLUP_ORDER),
    )
    for name in _workload_list(workloads):
        instance = make_workload(name, scale=scale, seed=seed)
        compiled = compile_cached(
            instance, fabric, arch, policy=EFFCC, seed=seed
        )
        for config in configs:
            run = run_config(instance, compiled, config, arch)
            rollup = run.stats.critpath["rollup"]
            denom = max(1, run.cycles)
            result.rows[f"{name}/{config.name}"] = {
                bucket: rollup[bucket] / denom for bucket in ROLLUP_ORDER
            }
            result.raw[f"{name}/{config.name}"] = {
                "cycles": float(run.cycles)
            }
    result.notes.append(
        "rows sum to 1.0 (profiler invariant: blamed cycles == "
        "system_cycles); repro critpath <workload> breaks these down "
        "per load with slack histograms"
    )
    return result


def fig_fdo(
    scale: str = "small",
    seed: int = 0,
    workloads=None,
    arch=None,
    rounds: int = 3,
) -> FigureResult:
    """Supplementary: static EFFCC vs profile-guided vs FDO placement.

    For each workload, three Monaco compiles — plain static EFFCC,
    profile-guided criticality refinement
    (:func:`repro.core.profile.analyze_with_profile`), and the
    feedback-directed loop's best round (:func:`repro.exp.fdo.run_fdo`)
    — are each reported as speedup over the *same* UPEA2 baseline run.
    All compiles are pinned to the static compile's parallelism degree,
    so the columns isolate what the placement knows about criticality,
    not the lowering. Where the static class-A/B prediction matches the
    measured critical path, the three columns tie; the interesting rows
    are the recall misses, where measured blame finds critical loads the
    static heuristic did not.
    """
    from repro.exp.fdo import run_fdo

    arch = arch or ArchParams()
    fabric = monaco(12, 12)
    baseline = upea(2)
    result = FigureResult(
        "fig_fdo",
        "Speedup over UPEA2 by placement-criticality source "
        "(taller is better)",
        ["static", "profile-guided", "fdo"],
    )
    for name in _workload_list(workloads):
        instance = make_workload(name, scale=scale, seed=seed)
        static_c = compile_cached(
            instance, fabric, arch, policy=EFFCC, seed=seed
        )
        divider = max(PAPER_DIVIDER, static_c.timing.clock_divider)
        upea_cycles = run_config(
            instance, static_c, baseline, arch, divider=divider
        ).cycles
        static_cycles = run_config(
            instance, static_c, MONACO, arch, divider=divider
        ).cycles
        guided_c = compile_cached(
            instance,
            fabric,
            arch,
            policy=EFFCC,
            parallelism=static_c.parallelism,
            seed=seed,
            profile_guided=True,
        )
        guided_cycles = run_config(
            instance,
            guided_c,
            MONACO,
            arch,
            divider=max(PAPER_DIVIDER, guided_c.timing.clock_divider),
        ).cycles
        fdo_res = run_fdo(
            name, rounds=rounds, scale=scale, seed=seed, arch=arch
        )
        cycles = {
            "static": static_cycles,
            "profile-guided": guided_cycles,
            "fdo": fdo_res.best_cycles,
        }
        result.raw[name] = {**cycles, "upea2": float(upea_cycles)}
        result.rows[name] = {k: upea_cycles / v for k, v in cycles.items()}
    for column in result.columns:
        result.notes.append(
            f"geomean {column} speedup over upea2 = "
            f"{result.geomean(column):.3f}"
        )
    result.notes.append(
        "fdo column is each workload's best feedback round "
        f"(bounded at {rounds} rounds; repro fdo <workload> shows the "
        "per-round trajectory)"
    )
    return result


def fig6c(scale: str = "small", seed: int = 0, arch=None) -> FigureResult:
    """spmspv: NUPEA vs idealized UPEA0 and practical UPEA2 (Fig. 6c)."""
    arch = arch or ArchParams()
    fabric = monaco(12, 12)
    instance = make_workload("spmspv", scale=scale, seed=seed)
    compiled = compile_cached(instance, fabric, arch, policy=EFFCC, seed=seed)
    configs = [ideal(), upea(2), MONACO]
    result = FigureResult(
        "fig6c",
        "spmspv execution time (normalized to NUPEA/Monaco)",
        ["upea0", "upea2", "nupea"],
    )
    cycles = {}
    for config in configs:
        run = run_config(instance, compiled, config, arch)
        cycles[config.name] = run.cycles
    base = cycles["monaco"]
    result.rows["spmspv"] = {
        "upea0": cycles["ideal"] / base,
        "upea2": cycles["upea2"] / base,
        "nupea": 1.0,
    }
    result.raw["spmspv"] = {
        "upea0": cycles["ideal"],
        "upea2": cycles["upea2"],
        "nupea": base,
    }
    slowdown = cycles["upea2"] / cycles["ideal"] - 1.0
    result.notes.append(
        f"UPEA2 is {slowdown:.0%} slower than the 0-cycle ideal "
        "(paper: 24-32% on spmspv)"
    )
    return result


def fig11(
    scale: str = "small",
    seed: int = 0,
    workloads=None,
    arch=None,
    jobs: int = 1,
    sweep_policy=None,
) -> FigureResult:
    """Monaco vs Ideal / UPEA2 / NUMA-UPEA2 across workloads (Fig. 11).

    ``jobs > 1`` fans the (workload x config) sweep out over worker
    processes via :func:`repro.exp.resilient.run_resilient`; each kernel
    is still compiled once, and rows are bit-identical to the serial
    sweep (the simulator is deterministic).

    ``sweep_policy`` (a :class:`repro.exp.resilient.SweepPolicy` with
    ``on_failure != "abort"``) renders whatever the sweep salvaged:
    failed points become ``None`` cells (shown as ``-`` by
    ``format_figure``), each gap is called out in ``notes``, and the
    geomeans cover the surviving rows only.
    """
    arch = arch or ArchParams()
    fabric = monaco(12, 12)
    configs = primary_configs()
    result = FigureResult(
        "fig11",
        "Execution time normalized to Monaco (shorter is faster)",
        [c.name for c in configs],
    )
    names = _workload_list(workloads)
    if jobs > 1 or sweep_policy is not None:
        from repro.exp.cache import GLOBAL_CACHE
        from repro.exp.resilient import run_resilient

        outcome = run_resilient(
            names,
            configs,
            scale=scale,
            seeds=(seed,),
            arch=arch,
            max_workers=jobs,
            cache_dir=GLOBAL_CACHE.disk_dir,
            sweep_policy=sweep_policy,
        )
        per_workload = {
            name: {
                c.name: (
                    outcome.results[(name, c.name, seed)].cycles
                    if (name, c.name, seed) in outcome.results
                    else None
                )
                for c in configs
            }
            for name in names
        }
        for failure in outcome.failures:
            result.notes.append(f"gap: {failure.describe()}")
    else:
        per_workload = {}
        for name in names:
            instance = make_workload(name, scale=scale, seed=seed)
            compiled = compile_cached(
                instance, fabric, arch, policy=EFFCC, seed=seed
            )
            per_workload[name] = {
                c.name: run_config(instance, compiled, c, arch).cycles
                for c in configs
            }
    for name in names:
        cycles = per_workload[name]
        base = cycles.get("monaco")
        result.raw[name] = dict(cycles)
        if base:
            result.rows[name] = {
                k: (v / base if v is not None else None)
                for k, v in cycles.items()
            }
        else:
            # The Monaco baseline itself failed: nothing to normalize
            # against, so the whole row renders as gaps.
            result.rows[name] = {k: None for k in cycles}
            result.notes.append(
                f"gap: {name} has no monaco baseline; row unnormalized"
            )
    for column, paper in (
        ("upea2", "+28% (paper)"),
        ("numa-upea2", "+20% (paper)"),
        ("ideal", "-21%-of-ideal (paper)"),
    ):
        gm = result.geomean(column)
        result.notes.append(
            f"geomean {column}/monaco = {gm:.3f}  [{paper}]"
        )
    return result


def fig12(
    scale: str = "small",
    seed: int = 0,
    workloads=None,
    arch=None,
) -> FigureResult:
    """Speedup from NUPEA-aware PnR heuristics on Monaco (Fig. 12).

    All three policies compile at the parallelism degree effcc's search
    chose, isolating the placement heuristic itself.
    """
    arch = arch or ArchParams()
    fabric = monaco(12, 12)
    policies = [DOMAIN_UNAWARE, DOMAIN_AWARE, EFFCC]
    result = FigureResult(
        "fig12",
        "Speedup over Domain-Unaware PnR on Monaco (taller is better)",
        [p.name for p in policies],
    )
    for name in _workload_list(workloads):
        instance = make_workload(name, scale=scale, seed=seed)
        reference = compile_cached(
            instance, fabric, arch, policy=EFFCC, seed=seed
        )
        cycles = {}
        for policy in policies:
            compiled = compile_cached(
                instance,
                fabric,
                arch,
                policy=policy,
                parallelism=reference.parallelism,
                seed=seed,
            )
            cycles[policy.name] = run_config(
                instance, compiled, MONACO, arch
            ).cycles
        base = cycles[DOMAIN_UNAWARE.name]
        result.raw[name] = dict(cycles)
        result.rows[name] = {k: base / v for k, v in cycles.items()}
    result.notes.append(
        f"geomean speedup: only-domain-aware "
        f"{result.geomean(DOMAIN_AWARE.name):.3f} [paper avg 1.16], "
        f"effcc {result.geomean(EFFCC.name):.3f} [paper avg 1.25]"
    )
    return result


def _latency_sweep(
    figure: str,
    title: str,
    config_for,
    max_delay: int,
    scale: str,
    seed: int,
    workloads,
    arch,
) -> FigureResult:
    arch = arch or ArchParams()
    fabric = monaco(12, 12)
    sweep = [config_for(n) for n in range(max_delay + 1)] + [MONACO]
    result = FigureResult(figure, title, [c.name for c in sweep])
    for name in _workload_list(workloads):
        instance = make_workload(name, scale=scale, seed=seed)
        compiled = compile_cached(
            instance, fabric, arch, policy=EFFCC, seed=seed
        )
        cycles = {
            c.name: run_config(instance, compiled, c, arch).cycles
            for c in sweep
        }
        base = cycles["monaco"]
        result.raw[name] = dict(cycles)
        result.rows[name] = {k: v / base for k, v in cycles.items()}
    for config in sweep[:-1]:
        result.notes.append(
            f"geomean {config.name}/monaco = "
            f"{result.geomean(config.name):.3f}"
        )
    return result


def fig14(
    scale: str = "small", seed: int = 0, workloads=None, arch=None,
    max_delay: int = 4,
) -> FigureResult:
    """UPEA access-latency sweep, 0-4 fabric cycles, vs Monaco (Fig. 14)."""
    return _latency_sweep(
        "fig14",
        "Execution time normalized to Monaco under a UPEA latency sweep",
        upea,
        max_delay,
        scale,
        seed,
        workloads,
        arch,
    )


def fig15(
    scale: str = "small", seed: int = 0, workloads=None, arch=None,
    max_delay: int = 4,
) -> FigureResult:
    """NUMA-UPEA remote-latency sweep vs Monaco (Fig. 15)."""
    return _latency_sweep(
        "fig15",
        "Execution time normalized to Monaco under a NUMA-UPEA sweep",
        numa,
        max_delay,
        scale,
        seed,
        workloads,
        arch,
    )


def fig_jitter(
    scale: str = "small",
    seed: int = 0,
    workloads=None,
    arch=None,
    probs=(0.01, 0.05),
    delay_cycles: int = 8,
    fault_seed: int = 0,
) -> FigureResult:
    """Supplementary: NUPEA vs UPEA2 under injected memory jitter.

    Uses the deterministic fault layer (:mod:`repro.sim.faults`) to add
    ``delay_cycles`` system cycles to each memory response with
    probability ``p``, then reports each configuration's slowdown
    relative to its own clean run. The question this answers: does
    NUPEA's advantage survive a memory system with realistic latency
    noise, or is it an artifact of perfectly predictable service times?
    Every faulted run still validates its output — jitter moves
    responses in time, never corrupts them.
    """
    from dataclasses import replace

    from repro.arch.params import FaultParams

    arch = arch or ArchParams()
    fabric = monaco(12, 12)
    configs = [MONACO, upea(2)]
    columns = [f"{c.name}@p{p}" for c in configs for p in probs]
    result = FigureResult(
        "fig_jitter",
        f"Slowdown under memory-response jitter (+{delay_cycles} system "
        "cycles w.p. p), each config normalized to its own clean run",
        columns,
    )
    for name in _workload_list(workloads):
        instance = make_workload(name, scale=scale, seed=seed)
        compiled = compile_cached(
            instance, fabric, arch, policy=EFFCC, seed=seed
        )
        row, raw = {}, {}
        for config in configs:
            clean = run_config(instance, compiled, config, arch).cycles
            raw[f"{config.name}@clean"] = float(clean)
            for p in probs:
                faulted = replace(
                    arch,
                    sim=replace(
                        arch.sim,
                        faults=FaultParams(
                            seed=fault_seed,
                            mem_delay_prob=p,
                            mem_delay_cycles=delay_cycles,
                        ),
                    ),
                )
                cycles = run_config(
                    instance, compiled, config, faulted
                ).cycles
                row[f"{config.name}@p{p}"] = cycles / clean
                raw[f"{config.name}@p{p}"] = float(cycles)
        result.rows[name] = row
        result.raw[name] = raw
    for p in probs:
        nupea = result.geomean(f"monaco@p{p}")
        upea2 = result.geomean(f"upea2@p{p}")
        result.notes.append(
            f"p={p}: geomean slowdown monaco {nupea:.3f} vs "
            f"upea2 {upea2:.3f} "
            f"({'NUPEA more jitter-tolerant' if nupea <= upea2 else 'UPEA more jitter-tolerant'})"
        )
    result.notes.append(
        "faulted runs reuse the clean compile and still validate their "
        "outputs; fault draws are per-event, so results are independent "
        "of the cycle-skip setting"
    )
    return result


#: Fabric sizes and NoC track counts evaluated in Fig. 16/17.
SCALABILITY_SIZES = (8, 16, 24)
SCALABILITY_TRACKS = (2, 7)
SCALABILITY_TOPOLOGIES = (
    "monaco",
    "clustered-single",
    "clustered-double",
)


def _scalability_compiles(scale, seed, arch_tracks, sizes, topologies):
    """Compile spmspv for each (topology, size, tracks) point."""
    compiles = {}
    for tracks in arch_tracks:
        arch = ArchParams(noc_tracks=tracks)
        for size in sizes:
            for topology in topologies:
                fabric = build_fabric(topology, size, size)
                instance = make_workload("spmspv", scale=scale, seed=seed)
                try:
                    compiled = compile_cached(
                        instance, fabric, arch, policy=EFFCC, seed=seed
                    )
                except PnRError:
                    compiled = None
                compiles[(topology, size, tracks)] = (
                    instance,
                    compiled,
                    arch,
                )
    return compiles


def fig16(
    scale: str = "small",
    seed: int = 0,
    sizes=SCALABILITY_SIZES,
    tracks=SCALABILITY_TRACKS,
    topologies=SCALABILITY_TOPOLOGIES,
) -> FigureResult:
    """spmspv execution time across topologies/sizes/tracks (Fig. 16).

    Runs use each design's PnR-chosen clock divider — the mechanism by
    which congested clustered topologies lose fabric frequency.
    """
    result = FigureResult(
        "fig16",
        "spmspv execution time (system cycles) by topology and fabric size",
        [f"{s}x{s}/{t}trk" for t in tracks for s in sizes],
    )
    compiles = _scalability_compiles(scale, seed, tracks, sizes, topologies)
    for topology in topologies:
        row, raw = {}, {}
        for t in tracks:
            for size in sizes:
                instance, compiled, arch = compiles[(topology, size, t)]
                label = f"{size}x{size}/{t}trk"
                if compiled is None:
                    row[label] = float("inf")
                    raw[label] = float("inf")
                    continue
                divider = max(
                    PAPER_DIVIDER, compiled.timing.clock_divider
                )
                run = run_config(
                    instance, compiled, MONACO, arch, divider=divider
                )
                row[label] = float(run.cycles)
                raw[label] = float(run.cycles)
        result.rows[topology] = row
        result.raw[topology] = raw
    result.notes.append(
        "values are raw system cycles; paper claim: Monaco wins at 2 "
        "tracks on large fabrics, all topologies competitive at 7 tracks"
    )
    return result


def fig17(
    scale: str = "small",
    seed: int = 0,
    sizes=SCALABILITY_SIZES,
    tracks=SCALABILITY_TRACKS,
    topologies=SCALABILITY_TOPOLOGIES,
) -> FigureResult:
    """Max routed path delay from PnR, same sweep as Fig. 16 (Fig. 17)."""
    result = FigureResult(
        "fig17",
        "Maximum routed path delay (delay units) by topology and size",
        [f"{s}x{s}/{t}trk" for t in tracks for s in sizes],
    )
    compiles = _scalability_compiles(scale, seed, tracks, sizes, topologies)
    for topology in topologies:
        row = {}
        parallel = {}
        for t in tracks:
            for size in sizes:
                _, compiled, _ = compiles[(topology, size, t)]
                label = f"{size}x{size}/{t}trk"
                if compiled is None:
                    row[label] = float("inf")
                    continue
                row[label] = compiled.timing.max_path_delay_units
                parallel[label] = compiled.parallelism
        result.rows[topology] = row
        result.raw[topology] = {
            k: float(v) for k, v in parallel.items()
        }
    result.notes.append(
        "raw table holds the PnR-chosen parallelism degree per point"
    )
    return result
