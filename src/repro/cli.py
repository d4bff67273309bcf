"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``workloads`` — list the Table 1 applications;
* ``fabric`` — draw a fabric topology with its NUPEA domains;
* ``run`` — compile and simulate one workload on one configuration;
* ``profile`` — run with cycle-attribution tracing and print the stall
  taxonomy tables, latency percentiles, and traffic heatmaps;
* ``critpath`` — run with the dynamic critical-path profiler and print
  cycle-exact blame attribution (segment costs sum to ``system_cycles``),
  dynamic criticality and slack per load; ``--validate`` scores the
  static class-A/B heuristic against measured criticality on every
  Table 1 workload;
* ``trace`` — run with tracing and export a Chrome ``trace_event`` JSON
  (load it in Perfetto / ``chrome://tracing``);
* ``fdo`` — feedback-directed placement: iterate compile -> profiled
  run -> per-node blame -> reweighted PnR until the weight map or the
  makespan converges (see :mod:`repro.exp.fdo`);
* ``figure`` — regenerate one reproduced table (a paper figure, Table
  1, the LS-PE placement DSE, an ablation, the energy breakdown, the
  hybrid extension: every entry of :data:`repro.exp.figures.FIGURES`)
  and print the paper's claims about it; ``figure all --out DIR``
  writes one ``NAME.txt`` per entry plus ``fidelity.json`` and exits
  non-zero when a claim fails on the full default grid;
* ``sweep`` — run a (workload x config x seed) sweep, optionally across
  worker processes sharing a persistent compile cache; supervised by
  the resilient sweep layer (``--timeout/--retries/--on-failure``),
  checkpointed to the manifest journal (``--resume``), and able to
  inject deterministic faults (``--fault-*``);
* ``cache`` — inspect, clear, or LRU-prune the persistent compile cache;
* ``check`` — cross-layer conformance: run the three-way differential
  oracle (IR interpreter vs. DFG token interpreter vs. cycle-level
  simulator, with the static lint pass and runtime invariant checkers
  armed) over Table 1 workloads, and/or fuzz random kernels
  (``--fuzz N --seed S``), shrinking any divergence to a minimal JSON
  reproducer in the corpus directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

from repro.arch.fabric import TOPOLOGIES, build_fabric
from repro.arch.params import ArchParams, SimParams
from repro.core.criticality import format_report
from repro.core.policy import POLICIES
from repro.exp.configs import MONACO, ideal, numa, upea
from repro.exp.figures import FIGURES, Grid, run_figures
from repro.exp.report import fidelity_record, format_claim, format_figure
from repro.exp.runner import compile_point, run_point
from repro.exp.spec import RunSpec, sweep_specs
from repro.exp.tables import table1
from repro.pnr.viz import fabric_map, placement_map
from repro.sim.energy import estimate_energy
from repro.workloads.registry import ALL_WORKLOADS, make_workload


def _config_for(name: str):
    if name == "monaco":
        return MONACO
    if name == "ideal":
        return ideal()
    try:
        if name.startswith("upea"):
            return upea(int(name[4:] or 2))
        if name.startswith("numa"):
            return numa(int(name.rsplit("a", 1)[-1] or 2))
    except ValueError:
        pass
    raise SystemExit(
        f"unknown config {name!r}; use monaco | ideal | upeaN | numaN"
    )


#: The options of the shared sim-argument block, in declaration order.
_SIM_OPTIONS = (
    "scale", "config", "policy", "rows", "cols", "topology", "tracks", "seed"
)


def _add_sim_args(p, **workload_kwargs) -> None:
    """The argument block every compile-and-simulate command shares
    (read back by :func:`_spec_from_args`; its options are
    :data:`_SIM_OPTIONS`)."""
    p.add_argument(
        "workload", choices=sorted(ALL_WORKLOADS), **workload_kwargs
    )
    p.add_argument("--scale", default="small")
    p.add_argument(
        "--config", default="monaco",
        help="monaco | ideal | upeaN | numaN (default: monaco)",
    )
    p.add_argument("--policy", choices=sorted(POLICIES), default="effcc")
    p.add_argument("--rows", type=int, default=12)
    p.add_argument("--cols", type=int, default=12)
    p.add_argument("--topology", default="monaco")
    p.add_argument("--tracks", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NUPEA reproduction (ISCA 2025) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the Table 1 applications")

    p_fabric = sub.add_parser("fabric", help="draw a fabric topology")
    p_fabric.add_argument(
        "topology", choices=sorted(TOPOLOGIES), nargs="?", default="monaco"
    )
    p_fabric.add_argument("--rows", type=int, default=12)
    p_fabric.add_argument("--cols", type=int, default=12)

    p_run = sub.add_parser(
        "run", help="compile + simulate one workload"
    )
    _add_sim_args(p_run)
    p_run.add_argument(
        "--map", action="store_true", help="print the placement map"
    )
    p_run.add_argument(
        "--criticality", action="store_true",
        help="print the critical-load report",
    )
    p_run.add_argument(
        "--energy", action="store_true", help="print the energy estimate"
    )
    p_run.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="also write the run's SimStats as machine-readable JSON",
    )
    p_run.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="CYCLES",
        help="snapshot the simulation every N system cycles (and on "
        "SIGTERM/SIGINT); resumable with --resume-from "
        "(see repro.sim.snapshot)",
    )
    p_run.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="snapshot file path (default: <workload>.snap when "
        "--checkpoint-every is set)",
    )
    p_run.add_argument(
        "--resume-from", default=None, metavar="PATH",
        help="continue a preempted simulation from this snapshot "
        "(bit-identical to an uninterrupted run); an invalid or "
        "mismatched snapshot is refused",
    )
    p_run.add_argument(
        "--profile-guided", action="store_true",
        help="refine class-B/C criticality by a profiling run on this "
        "instance's own inputs before placement "
        "(see repro.core.profile)",
    )

    p_profile = sub.add_parser(
        "profile",
        help="simulate with cycle-attribution tracing and print the "
        "stall-taxonomy tables and traffic heatmaps",
    )
    _add_sim_args(p_profile)
    p_profile.add_argument(
        "--top", type=int, default=20,
        help="rows of the per-node attribution table (default 20)",
    )
    p_profile.add_argument(
        "--by-class", action="store_true",
        help="also fold the per-node stall buckets into criticality-"
        "class totals (A / B / C / non-mem)",
    )
    p_profile.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="also write the run's SimStats as machine-readable JSON",
    )

    p_crit = sub.add_parser(
        "critpath",
        help="simulate with the dynamic critical-path profiler and "
        "print cycle-exact blame attribution (costs sum to "
        "system_cycles); --validate scores the static class-A/B "
        "heuristic against measured criticality on every workload",
    )
    _add_sim_args(p_crit, nargs="?")
    p_crit.add_argument(
        "--top", type=int, default=10,
        help="rows of the critical-memory-node table (default 10)",
    )
    p_crit.add_argument(
        "--validate", action="store_true",
        help="run every Table 1 workload and print the static-vs-"
        "dynamic precision/recall table",
    )
    p_crit.add_argument(
        "--threshold", type=float, default=0.01,
        help="dynamic-criticality threshold for --validate and the "
        "per-workload confusion line (default 0.01)",
    )
    p_crit.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full attribution report as JSON",
    )

    p_trace = sub.add_parser(
        "trace",
        help="simulate with tracing and export a Chrome trace_event "
        "JSON (Perfetto / chrome://tracing)",
    )
    _add_sim_args(p_trace)
    p_trace.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="where to write the trace (default: trace.json)",
    )

    p_fdo = sub.add_parser(
        "fdo",
        help="feedback-directed placement: compile -> profiled run -> "
        "per-node blame -> reweighted PnR, iterated to convergence",
    )
    _add_sim_args(p_fdo)
    p_fdo.add_argument(
        "--rounds", type=int, default=3, metavar="N",
        help="bound on feedback rounds after the static round 0 "
        "(default 3)",
    )
    p_fdo.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="append one deterministic JSONL record per round",
    )
    p_fdo.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full round journal and outcome as JSON",
    )

    p_fig = sub.add_parser(
        "figure",
        help="regenerate one reproduced table (or all) and check the "
        "paper's claims about it",
    )
    p_fig.add_argument("name", choices=[*FIGURES, "all"])
    p_fig.add_argument("--scale", default="small")
    p_fig.add_argument(
        "--workloads", nargs="*", default=None,
        help="run these workloads instead of the entry's own list "
        "(claims are then printed unchecked)",
    )
    p_fig.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes the selected entries' deduplicated points "
        "run on (<=1 runs in-process; the tables are identical)",
    )
    p_fig.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write NAME.txt per entry and fidelity.json there",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="run a (workload x config x seed) sweep, optionally parallel",
    )
    p_sweep.add_argument(
        "--workloads", nargs="+", choices=sorted(ALL_WORKLOADS),
        default=["spmspv", "dmv"], metavar="WORKLOAD",
        help="workloads to sweep (default: spmspv dmv)",
    )
    p_sweep.add_argument(
        "--configs", nargs="*", default=["ideal", "upea2", "numa2", "monaco"],
        help="configs: monaco | ideal | upeaN | numaN",
    )
    p_sweep.add_argument("--scale", default="small")
    p_sweep.add_argument(
        "--seeds", nargs="*", type=int, default=[0],
        help="input seeds (one run per workload x config x seed)",
    )
    p_sweep.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes (<=1 runs in-process)",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None,
        help="persistent compile-cache directory shared across workers "
        "(default: the user cache dir; see repro.exp.cache)",
    )
    p_sweep.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="append one JSONL manifest record per run "
        "(see repro.obs.manifest)",
    )
    p_sweep.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="write every run's SimStats as one machine-readable JSON map",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="skip points the manifest journal proves already completed "
        "(requires --manifest; see repro.exp.resilient)",
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (SIGALRM in the worker)",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=2,
        help="retry budget per point for transient failures (default 2)",
    )
    p_sweep.add_argument(
        "--on-failure", choices=["abort", "skip", "retry"], default="abort",
        help="abort: fail fast (default); skip: record and move on; "
        "retry: perturb the placement seed for PnR failures, then skip",
    )
    p_sweep.add_argument(
        "--backoff", type=float, default=0.0, metavar="SECONDS",
        help="base for exponential backoff between retries (default 0)",
    )
    p_sweep.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="arm mid-simulation checkpointing: jobs snapshot to "
        "DIR/<point_digest>.snap, a SIGTERMed or timed-out job "
        "snapshots during its grace period, and a retried or --resume'd "
        "point continues from its snapshot instead of cycle 0",
    )
    p_sweep.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="CYCLES",
        help="periodic snapshot cadence per job in system cycles "
        "(default 0 = snapshot only on preemption; implies a default "
        "--snapshot-dir of 'snapshots' when none is given)",
    )
    p_sweep.add_argument(
        "--grace", type=float, default=5.0, metavar="SECONDS",
        help="seconds a timed-out job may spend writing its snapshot "
        "before the hard kill (default 5)",
    )
    p_sweep.add_argument(
        "--profile-guided", action="store_true",
        help="compile every point with profile-refined criticality "
        "(each point profiles its own instance; the manifest identity "
        "gains a profile marker, so static and profiled journals never "
        "mix on --resume)",
    )
    fault_group = p_sweep.add_argument_group(
        "fault injection",
        "deterministic fault injection (repro.sim.faults); all default "
        "to off, and an all-off run is bit-identical to a build without "
        "the fault layer",
    )
    fault_group.add_argument("--fault-seed", type=int, default=0)
    fault_group.add_argument(
        "--fault-mem-delay-prob", type=float, default=0.0,
        help="probability a memory response is delayed",
    )
    fault_group.add_argument(
        "--fault-mem-delay-cycles", type=int, default=8,
        help="delay added to a jittered response (system cycles)",
    )
    fault_group.add_argument(
        "--fault-mem-drop-prob", type=float, default=0.0,
        help="probability a memory response is dropped (never delivered)",
    )
    fault_group.add_argument(
        "--fault-pe-stall-prob", type=float, default=0.0,
        help="probability a ready node firing is suppressed for a tick",
    )
    fault_group.add_argument(
        "--fault-grant-skip-prob", type=float, default=0.0,
        help="probability an FM-NoC arbitration grant is skipped",
    )

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain the persistent compile cache"
    )
    p_cache.add_argument(
        "action", choices=["info", "clear", "prune"],
        help="info: show both layers; clear: delete all disk entries; "
        "prune: evict LRU entries down to --max-size",
    )
    p_cache.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: the user cache dir)",
    )
    p_cache.add_argument(
        "--max-size", default="256M", metavar="BYTES",
        help="prune target; accepts suffixes K/M/G (default 256M)",
    )

    p_regions = sub.add_parser(
        "regions",
        help="split an oversized workload into bitstream regions and run",
    )
    p_regions.add_argument("workload", choices=sorted(ALL_WORKLOADS))
    p_regions.add_argument("--scale", default="tiny")
    p_regions.add_argument("--rows", type=int, default=10)
    p_regions.add_argument("--cols", type=int, default=10)
    p_regions.add_argument("--seed", type=int, default=0)

    p_check = sub.add_parser(
        "check",
        help="cross-layer conformance: differential oracle + random fuzzing",
    )
    p_check.add_argument(
        "workloads", nargs="*", metavar="workload",
        help="workloads to check (default with --all: every Table 1 app)",
    )
    p_check.add_argument(
        "--all", action="store_true",
        help="run the three-way oracle on all Table 1 workloads",
    )
    p_check.add_argument("--scale", default="tiny")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--fuzz", type=int, default=None, metavar="N",
        help="generate and oracle-check N random kernels",
    )
    p_check.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="directory for shrunken fuzz reproducers "
        "(default: checks/corpus when fuzzing)",
    )
    p_check.add_argument(
        "--no-shrink", action="store_true",
        help="keep failing fuzz kernels at full size (faster triage off)",
    )
    p_check.add_argument(
        "--json", action="store_true",
        help="print machine-readable reports instead of the summary table",
    )

    return parser


def cmd_workloads(_args) -> int:
    for row in table1(scale="tiny"):
        print(
            f"{row['application']:12s} {row['category']:24s} "
            f"paper: {row['paper_input']}"
        )
    return 0


def cmd_fabric(args) -> int:
    print(fabric_map(build_fabric(args.topology, args.rows, args.cols)))
    return 0


def _spec_from_args(
    args, workload: str | None = None, profile_guided: bool = False, **sim
) -> RunSpec:
    """The point the shared sim-argument block names, at the divider its
    routed design achieves; ``sim`` are the command's own
    :class:`~repro.arch.params.SimParams` settings."""
    return RunSpec(
        workload=workload or args.workload,
        config=_config_for(args.config),
        scale=args.scale,
        seed=args.seed,
        arch=ArchParams(noc_tracks=args.tracks, sim=SimParams(**sim)),
        divider=None,
        policy=args.policy,
        fabric=(args.topology, args.rows, args.cols),
        profile_guided=profile_guided,
    )


def _compile_and_run(spec, on_compiled=None, **options):
    """Compile ``spec`` through the cache, then simulate it (``options``
    pass through to :func:`~repro.exp.runner.run_point`).

    ``on_compiled(compiled)`` runs between the two, for output that
    should appear before a long simulation does.
    """
    instance, compiled = compile_point(spec)
    if on_compiled is not None:
        on_compiled(compiled)
    run = run_point(spec, instance, compiled, **options)
    return compiled, run


def _print_run(spec, run, stats: bool = True) -> None:
    print(
        f"{spec.workload} on {spec.config.name}: {run.cycles} system cycles "
        f"(output verified)"
    )
    if stats:
        print("stats:", run.stats.summary())


def _write_json(path, payload, what: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{what} written to {path}")


def _stats_payload(stats) -> dict:
    """``--stats-json`` payload: the full stats dict plus the energy
    breakdown (deterministic from stable counters, so machine consumers
    get the Sec. 1 headline metric without re-pricing the run)."""
    return {**stats.to_dict(), "energy": estimate_energy(stats).to_dict()}


def _resume_command(args, checkpoint) -> str:
    """The ``repro run`` command that continues a run preempted into
    ``checkpoint.path``: every sim argument it was given, so the resume
    compiles the same placement and passes the snapshot's config check,
    and its checkpointing."""
    words = ["repro", "run", args.workload]
    for option in _SIM_OPTIONS:
        words += [f"--{option}", str(getattr(args, option))]
    if args.profile_guided:
        words.append("--profile-guided")
    words += [
        "--checkpoint", checkpoint.path,
        "--checkpoint-every", str(checkpoint.every_cycles),
        "--resume-from", checkpoint.path,
    ]
    return shlex.join(words)


def cmd_run(args) -> int:
    from repro.errors import SimulationPreempted
    from repro.sim.snapshot import CheckpointConfig

    spec = _spec_from_args(args, profile_guided=args.profile_guided)
    checkpoint = None
    if args.checkpoint is not None or args.checkpoint_every:
        checkpoint = CheckpointConfig(
            path=args.checkpoint or f"{args.workload}.snap",
            every_cycles=args.checkpoint_every,
            install_signals=True,
        )

    def show(compiled) -> None:
        print(compiled.summary())
        profile_report = compiled.meta.get("profile")
        if profile_report is not None:
            promoted = profile_report.get("promoted", [])
            demoted = profile_report.get("demoted", [])
            print(
                f"profile-guided: promoted {len(promoted)} node(s) C->B "
                f"{promoted}, demoted {len(demoted)} node(s) B->C {demoted}"
            )
            if profile_report.get("note"):
                print(f"profile-guided: {profile_report['note']}")
        if compiled.pnr is not None:
            pnr = compiled.pnr
            print(
                f"pnr: {pnr.total_wall_s:.2f}s compile "
                f"({pnr.moves_per_s:,.0f} moves/s, "
                f"{pnr.route_iterations} route iters, "
                f"{pnr.nets_rerouted} reroutes, "
                f"{pnr.candidates} candidates)"
            )
        if args.criticality:
            print(format_report(compiled.dfg, compiled.criticality))
        if args.map:
            print(placement_map(compiled))

    try:
        _compiled, run = _compile_and_run(
            spec,
            on_compiled=show,
            checkpoint=checkpoint,
            resume_from=args.resume_from,
        )
    except SimulationPreempted as exc:
        # Exit 75 (EX_TEMPFAIL): the run was preempted but left a
        # resumable snapshot — rerun with --resume-from to continue.
        print(f"preempted at cycle {exc.cycle}: snapshot written to "
              f"{exc.snapshot_path}")
        print(f"resume with: {_resume_command(args, checkpoint)}")
        return 75
    if run.resume_info is not None:
        print(
            f"resumed from {run.resume_info['snapshot']} at cycle "
            f"{run.resume_info['from_cycle']}"
        )
    _print_run(spec, run)
    if args.energy:
        print("energy:", estimate_energy(run.stats).summary())
    if args.stats_json:
        _write_json(args.stats_json, _stats_payload(run.stats), "stats JSON")
    return 0


def cmd_critpath(args) -> int:
    from repro.core.criticality import (
        format_validation_table,
        validate_against_dynamic,
    )

    def profiled(workload):
        spec = _spec_from_args(args, workload, critpath=True)
        compiled, run = _compile_and_run(spec)
        rows = validate_against_dynamic(
            workload,
            compiled.criticality,
            run.obs.critpath.dynamic_criticality(),
            threshold=args.threshold,
        )
        return spec, compiled, run, rows

    if args.validate:
        rows = []
        reports = {}
        for name in sorted(ALL_WORKLOADS):
            spec, _compiled, run, name_rows = profiled(name)
            rows.extend(name_rows)
            reports[name] = run.obs.critpath.report
            print(
                f"{name:12s} {run.cycles:>10d} cycles on {spec.config.name} "
                "(output verified)"
            )
        print()
        print(format_validation_table(rows, args.threshold))
        if args.json:
            payload = {
                "threshold": args.threshold,
                "rows": [
                    {
                        "workload": r.workload,
                        "classes": r.classes,
                        "predicted": r.predicted,
                        "actual": r.actual,
                        "true_positive": r.true_positive,
                        "precision": r.precision,
                        "recall": r.recall,
                    }
                    for r in rows
                ],
                "reports": reports,
            }
            _write_json(args.json, payload, "validation JSON")
        return 0
    if args.workload is None:
        raise SystemExit("pass a workload, or --validate for all of them")
    spec, compiled, run, rows = profiled(args.workload)
    recorder = run.obs.critpath
    print(compiled.summary())
    _print_run(spec, run)
    print()
    print(recorder.render(top=args.top))
    print()
    print(format_validation_table(rows, args.threshold))
    if args.json:
        _write_json(args.json, recorder.report, "attribution JSON")
    return 0


def cmd_profile(args) -> int:
    spec = _spec_from_args(args, trace=True)
    compiled, run = _compile_and_run(spec)
    print(compiled.summary())
    _print_run(spec, run)
    obs = run.obs
    print()
    print(obs.attribution.render(top=args.top))
    if args.by_class:
        print()
        print(obs.attribution.render_by_class())
    agg = obs.attribution.aggregate()
    attributed = sum(agg.values())
    n_nodes = max(1, len(obs.attribution.per_node))
    print(
        f"attributed {attributed // n_nodes} cycles/node over "
        f"{n_nodes} nodes vs {run.cycles} system cycles"
    )
    print()
    print(obs.noc_heatmap.render(compiled.fabric.rows, compiled.fabric.cols))
    print()
    print(obs.fmnoc_heatmap.render())
    if args.stats_json:
        _write_json(args.stats_json, _stats_payload(run.stats), "stats JSON")
    return 0


def cmd_trace(args) -> int:
    spec = _spec_from_args(args, trace=True, trace_path=args.out)
    _compiled, run = _compile_and_run(spec)
    _print_run(spec, run, stats=False)
    n_events = len(run.obs.chrome.events)
    print(
        f"{n_events} timeline events (+ metadata) written to {args.out} "
        "(load in Perfetto or chrome://tracing)"
    )
    return 0


def cmd_fdo(args) -> int:
    from repro.exp.fdo import run_fdo

    result = run_fdo(
        _spec_from_args(args), rounds=args.rounds, manifest_path=args.manifest
    )
    print(result.summary())
    if args.manifest:
        print(f"round journal appended to {args.manifest}")
    if args.json:
        _write_json(args.json, result.to_dict(), "fdo JSON")
    return 0


def cmd_figure(args) -> int:
    grid = Grid(
        scale=args.scale,
        workloads=tuple(args.workloads) if args.workloads else None,
        jobs=args.jobs,
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    names = list(FIGURES) if args.name == "all" else [args.name]
    results = run_figures({name: FIGURES[name] for name in names}, grid)
    fidelity, failed = {}, []
    for name, result in results.items():
        text = format_figure(result)
        print(text)
        if args.out:
            path = os.path.join(args.out, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                print(text, file=fh)
        fidelity[name] = fidelity_record(result)
        failed += [
            f"{name}: {format_claim(claim)}"
            for claim in result.claims
            if claim.holds is False
        ]
    if args.out:
        _write_json(
            os.path.join(args.out, "fidelity.json"), fidelity, "claims"
        )
    for line in failed:
        print(f"FAILED {line}")
    return 1 if failed else 0


def _fault_params(args):
    """``FaultParams`` from the sweep's fault flags, or None when all off."""
    from repro.arch.params import FaultParams

    params = FaultParams(
        seed=args.fault_seed,
        mem_delay_prob=args.fault_mem_delay_prob,
        mem_delay_cycles=args.fault_mem_delay_cycles,
        mem_drop_prob=args.fault_mem_drop_prob,
        pe_stall_prob=args.fault_pe_stall_prob,
        grant_skip_prob=args.fault_grant_skip_prob,
    )
    return params if params.active() else None


def cmd_sweep(args) -> int:
    from dataclasses import replace

    from repro.exp.cache import default_cache_dir
    from repro.exp.resilient import SweepPolicy, run_resilient

    configs = [_config_for(name) for name in args.configs]
    cache_dir = args.cache_dir or default_cache_dir()
    arch = ArchParams()
    faults = _fault_params(args)
    if faults is not None:
        arch = replace(arch, sim=replace(arch.sim, faults=faults))
        print(f"fault injection on: {faults.signature()}")
    snapshot_dir = args.snapshot_dir
    if snapshot_dir is None and args.checkpoint_every:
        snapshot_dir = "snapshots"
    sweep_policy = SweepPolicy(
        job_timeout_s=args.timeout,
        max_retries=args.retries,
        backoff_s=args.backoff,
        on_failure=args.on_failure,
        checkpoint_every=args.checkpoint_every,
        grace_s=args.grace,
    )
    outcome = run_resilient(
        sweep_specs(
            args.workloads,
            configs,
            args.seeds,
            scale=args.scale,
            arch=arch,
            profile_guided=args.profile_guided,
        ),
        max_workers=args.jobs,
        cache_dir=cache_dir,
        manifest_path=args.manifest,
        sweep_policy=sweep_policy,
        resume=args.resume,
        snapshot_dir=snapshot_dir,
    )
    results = {spec.key: run for spec, run in outcome.results.items()}
    width = max(len(w) for w in args.workloads)
    for (workload, config, seed), run in sorted(results.items()):
        resumed = (
            f" [resumed from cycle {run.resume_info['from_cycle']}]"
            if run.resume_info
            else ""
        )
        print(
            f"{workload:{width}s} {config:12s} seed={seed} "
            f"{run.cycles:>10d} cycles (output verified){resumed}"
        )
    if outcome.skipped:
        print(
            f"{len(outcome.skipped)} point(s) already journaled; skipped "
            "(--resume)"
        )
    for failure in outcome.failures:
        print(f"FAILED {failure.describe()}")
    if outcome.failures:
        print(
            f"{len(outcome.failures)} point(s) failed; "
            f"{len(results)} healthy result(s) above"
        )
    if args.manifest:
        print(f"manifest appended to {args.manifest}")
    if args.stats_json:
        payload = {
            f"{workload}/{config}/seed{seed}": _stats_payload(run.stats)
            for (workload, config, seed), run in sorted(results.items())
        }
        _write_json(args.stats_json, payload, "stats JSON")
    return 1 if outcome.failures else 0


def _parse_size(text: str) -> int:
    """``"256M"`` -> bytes; bare non-negative numbers and K/M/G suffixes
    accepted."""
    number = text.strip().upper()
    factor = 1
    for suffix, mult in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if number.endswith(suffix):
            number = number[: -len(suffix)]
            factor = mult
            break
    try:
        size = int(float(number) * factor)
    except (ValueError, OverflowError):
        size = -1
    if size < 0:
        raise SystemExit(
            f"bad size {text!r}; use a non-negative size like 512K, 64M, 2G"
        )
    return size


def cmd_cache(args) -> int:
    from repro.exp.cache import GLOBAL_CACHE, default_cache_dir

    GLOBAL_CACHE.enable_disk(args.cache_dir or default_cache_dir())
    swept = GLOBAL_CACHE.sweep_stale_tmp()
    if swept:
        print(f"swept {swept} stale .tmp file(s)")
    if args.action == "info":
        info = GLOBAL_CACHE.info()
        print(f"disk dir:     {info['disk_dir']}")
        print(f"disk entries: {info['disk_entries']}")
        print(f"disk bytes:   {info['disk_bytes']}")
        print(f"schema:       v{info['schema']}")
    elif args.action == "clear":
        removed = GLOBAL_CACHE.clear_disk()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
    elif args.action == "prune":
        max_bytes = _parse_size(args.max_size)
        evicted = GLOBAL_CACHE.prune(max_bytes)
        info = GLOBAL_CACHE.info()
        print(
            f"evicted {evicted} entr{'y' if evicted == 1 else 'ies'}; "
            f"{info['disk_entries']} remain ({info['disk_bytes']} bytes "
            f"<= {max_bytes})"
        )
    return 0


def cmd_regions(args) -> int:
    from repro.arch.fabric import monaco as monaco_fabric
    from repro.pnr.regions import compile_region_program
    from repro.sim.regions import simulate_regions

    instance = make_workload(args.workload, scale=args.scale, seed=args.seed)
    arch = ArchParams()
    fabric = monaco_fabric(args.rows, args.cols)
    compiled = compile_region_program(
        instance.kernel, fabric, arch, seed=args.seed
    )
    print(
        f"{args.workload} split into {len(compiled)} region(s) on "
        f"{fabric.name}:"
    )
    for region, ck in zip(compiled.program.regions, compiled.compiled):
        print(
            f"  {ck.dfg.name:16s} {len(ck.dfg):4d} nodes, "
            f"par={ck.parallelism}, live-in={region.live_in}, "
            f"spills={sorted(region.spills)}"
        )
    result = simulate_regions(compiled, instance.params, instance.arrays, arch)
    instance.check(result.memory)
    print(
        f"total {result.total_cycles} system cycles "
        f"({result.regions} launches, per-region {result.region_cycles}); "
        "output verified"
    )
    return 0


def cmd_check(args) -> int:
    from repro.check.fuzz import fuzz as run_fuzz
    from repro.check.oracle import run_conformance

    status = 0
    names = list(args.workloads)
    for name in names:
        if name not in ALL_WORKLOADS:
            raise SystemExit(
                f"unknown workload {name!r}; choose from "
                f"{', '.join(sorted(ALL_WORKLOADS))}"
            )
    if args.all or names:
        reports = run_conformance(
            names or None, scale=args.scale, seed=args.seed
        )
        if args.json:
            print(json.dumps([r.to_dict() for r in reports], indent=2))
        else:
            for report in reports:
                print(report.describe())
        bad = [r for r in reports if not r.ok]
        print(
            f"conformance: {len(reports) - len(bad)}/{len(reports)} "
            f"workload(s) ok"
        )
        if bad:
            status = 1
    if args.fuzz is not None:
        corpus = args.corpus or "checks/corpus"

        def progress(index, state, detail):
            if state != "ok":
                print(f"  kernel {index:4d}: {state} {detail}")

        result = run_fuzz(
            args.fuzz,
            seed=args.seed,
            corpus_dir=corpus,
            shrink=not args.no_shrink,
            progress=progress,
        )
        skips = ", ".join(
            f"{kind} {count}" for kind, count in sorted(result.skips.items())
        )
        print(
            f"fuzz: ran {result.ran} skipped {result.skipped}"
            f"{f' ({skips})' if skips else ''} "
            f"failure(s) {len(result.failures)} in {result.wall_time:.1f}s"
        )
        for failure in result.failures:
            where = failure.path or "<unwritten>"
            print(f"  seed {failure.seed} kernel {failure.index}: {where}")
        if not result.ok:
            status = 1
    if not (args.all or names or args.fuzz is not None):
        raise SystemExit("nothing to do: pass workload names, --all, or --fuzz N")
    return status


COMMANDS = {
    "workloads": cmd_workloads,
    "fabric": cmd_fabric,
    "run": cmd_run,
    "profile": cmd_profile,
    "critpath": cmd_critpath,
    "trace": cmd_trace,
    "fdo": cmd_fdo,
    "figure": cmd_figure,
    "sweep": cmd_sweep,
    "cache": cmd_cache,
    "regions": cmd_regions,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
