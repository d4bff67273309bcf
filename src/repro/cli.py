"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``workloads`` — list the Table 1 applications;
* ``fabric`` — draw a fabric topology with its NUPEA domains;
* ``run`` — compile and simulate one workload on one configuration;
  its probe switches print the stall tables and traffic heatmaps
  (``--trace``), a Chrome ``trace_event`` JSON (``--trace-path``) and the
  cycle-exact critical-path blame with slack per load (``--critpath``);
* ``fdo`` — feedback-directed placement: iterate compile -> profiled
  run -> per-node blame -> reweighted PnR until the weight map or the
  makespan converges (see :mod:`repro.exp.fdo`);
* ``figure`` — regenerate one reproduced table (every entry of
  :data:`repro.exp.figures.FIGURES`: the paper's figures, Table 1, the
  LS-PE placement DSE, the criticality check, the ablations, energy, the
  hybrid extension) and print the paper's claims about it; ``figure all
  --out DIR`` writes ``NAME.txt`` per entry plus ``fidelity.json`` and
  exits non-zero when a claim fails on the full default grid;
* ``sweep`` — run a (workload x config x seed) sweep, optionally across
  worker processes sharing a persistent compile cache; supervised by
  the resilient sweep layer (``--timeout/--retries/--on-failure``),
  checkpointed to the manifest journal (``--resume``), and able to
  inject deterministic faults (``--fault-*``);
* ``cache`` — inspect, clear, or LRU-prune the persistent compile cache;
* ``regions`` — split a workload too large for the fabric into
  bitstream regions, then run them in sequence;
* ``check`` — cross-layer conformance: the three-way differential
  oracle (IR interpreter vs. DFG token interpreter vs. cycle-level
  simulator, lint pass and invariant checkers armed) over Table 1
  workloads, and/or ``--fuzz N --seed S`` random kernels, each
  divergence shrunk to a minimal JSON reproducer in the corpus directory.

An unknown name or an out-of-range value exits 2 with a usage line
before anything compiles.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

from repro.arch.fabric import TOPOLOGIES, build_fabric
from repro.arch.params import ArchParams, FaultParams, SimParams
from repro.core.criticality import format_report
from repro.core.policy import POLICIES
from repro.errors import ReproError, SimulationPreempted
from repro.exp.configs import MONACO, ideal, numa, upea
from repro.exp.figures import FIGURES, Grid, run_figures
from repro.exp.report import fidelity_record, format_claim, format_figure
from repro.exp.runner import compile_point, run_point
from repro.exp.spec import RunSpec, sweep_specs
from repro.exp.tables import table1
from repro.pnr.viz import fabric_map, placement_map
from repro.sim.energy import estimate_energy
from repro.workloads.registry import ALL_WORKLOADS, SCALES, make_workload


def _config_for(name: str):
    """``--config`` / ``--configs``: a machine config by name."""
    if name == "monaco":
        return MONACO
    if name == "ideal":
        return ideal()
    make, delay = {
        "upea": (upea, name[4:]),
        "numa": (numa, name.rsplit("a", 1)[-1]),
    }.get(name[:4], (None, "-"))
    if make is not None and (delay == "" or delay.isdecimal()):
        return make(int(delay or 2))
    raise argparse.ArgumentTypeError(
        f"unknown config {name!r}: monaco | ideal | upeaN | numaN (N >= 0)"
    )


def _at_least(floor: int):
    """An argparse ``type=``: an int no smaller than ``floor``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"{text} is below {floor}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value"
    return parse


def _setting(make, **fields):
    """``make(**fields)``: a value its own validation refuses exits 2
    with a usage line (see :func:`main`)."""
    try:
        return make(**fields)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: The options of the shared sim-argument block, in declaration order.
_SIM_OPTIONS = (
    "scale", "config", "policy", "rows", "cols", "topology", "tracks", "seed"
)


def _add_sim_args(p) -> None:
    """The argument block every compile-and-simulate command shares
    (read back by :func:`_spec_from_args`; its options are
    :data:`_SIM_OPTIONS`)."""
    p.add_argument("workload", choices=sorted(ALL_WORKLOADS))
    p.add_argument("--scale", choices=SCALES, default="small")
    p.add_argument(
        "--config", type=_config_for, default="monaco",
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

    probes = p_run.add_argument_group(
        "probes", "a probe only listens: the simulated numbers do not move"
    )
    probes.add_argument(
        "--trace", action="store_true",
        help="print the cycle-attribution table and the traffic heatmaps",
    )
    probes.add_argument(
        "--by-class", action="store_true",
        help="--trace, with the stall buckets also folded per criticality "
        "class (A / B / C / non-mem)",
    )
    probes.add_argument(
        "--trace-path", metavar="PATH",
        help="write a Chrome trace_event JSON (Perfetto) there",
    )
    probes.add_argument(
        "--critpath", action="store_true",
        help="print the critical-path blame and the critical memory nodes",
    )
    probes.add_argument(
        "--critpath-json", metavar="PATH",
        help="write the full critical-path report as JSON",
    )
    probes.add_argument(
        "--top", type=_at_least(1), metavar="N",
        help="table rows (default: 20 attribution, 10 critical nodes)",
    )

    p_fdo = sub.add_parser(
        "fdo",
        help="feedback-directed placement: compile -> profiled run -> "
        "per-node blame -> reweighted PnR, iterated to convergence",
    )
    _add_sim_args(p_fdo)
    p_fdo.add_argument(
        "--rounds", type=_at_least(0), default=3, metavar="N",
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
    p_fig.add_argument("--scale", choices=SCALES, default="small")
    p_fig.add_argument(
        "--workloads", nargs="+", choices=sorted(ALL_WORKLOADS),
        default=None, metavar="WORKLOAD",
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
        "--configs", nargs="+", type=_config_for,
        default=[ideal(), upea(2), numa(2), MONACO], metavar="CONFIG",
        help="configs: monaco | ideal | upeaN | numaN",
    )
    p_sweep.add_argument("--scale", choices=SCALES, default="small")
    p_sweep.add_argument(
        "--seeds", nargs="+", type=int, default=[0],
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
    p_regions.add_argument("--scale", choices=SCALES, default="tiny")
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
    p_check.add_argument("--scale", choices=SCALES, default="tiny")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--fuzz", type=_at_least(1), default=None, metavar="N",
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


def _spec_from_args(args, profile_guided: bool = False, **sim) -> RunSpec:
    """The point the shared sim-argument block names, at the divider its
    routed design achieves; ``sim`` are the command's own
    :class:`~repro.arch.params.SimParams` settings."""
    return RunSpec(
        workload=args.workload,
        config=args.config,
        scale=args.scale,
        seed=args.seed,
        arch=ArchParams(noc_tracks=args.tracks, sim=SimParams(**sim)),
        divider=None,
        policy=args.policy,
        fabric=(args.topology, args.rows, args.cols),
        profile_guided=profile_guided,
    )


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


#: ``repro run``'s probe switches (argparse dests).
_PROBES = (
    "trace", "by_class", "trace_path", "critpath", "critpath_json", "top"
)


def _resume_command(args, checkpoint) -> str:
    """The ``repro run`` command that continues a run preempted into
    ``checkpoint.path``: every sim argument it was given, so the resume
    compiles the same placement, its probe switches, which the
    snapshot's config check covers, and its checkpointing."""
    words = ["repro", "run", args.workload]
    for option in _SIM_OPTIONS:
        value = getattr(args, option)
        words += [f"--{option}", str(getattr(value, "name", value))]
    for dest in ("profile_guided", *_PROBES):
        value, flag = getattr(args, dest), "--" + dest.replace("_", "-")
        if value is True:
            words.append(flag)
        elif value not in (None, False):
            words += [flag, str(value)]
    words += [
        "--checkpoint", checkpoint.path,
        "--checkpoint-every", str(checkpoint.every_cycles),
        "--resume-from", checkpoint.path,
    ]
    return shlex.join(words)


def _print_probes(args, compiled, run) -> None:
    """What ``run``'s probe switches ask to see of ``run``."""
    obs = run.obs
    if args.trace or args.by_class:
        print()
        print(obs.attribution.render(top=args.top or 20))
        if args.by_class:
            print()
            print(obs.attribution.render_by_class())
        attributed = sum(obs.attribution.aggregate().values())
        n_nodes = max(1, len(obs.attribution.per_node))
        print(
            f"attributed {attributed // n_nodes} cycles/node over "
            f"{n_nodes} nodes vs {run.cycles} system cycles"
        )
        print()
        print(
            obs.noc_heatmap.render(compiled.fabric.rows, compiled.fabric.cols)
        )
        print()
        print(obs.fmnoc_heatmap.render())
    if args.trace_path:
        print(
            f"{len(obs.chrome.events)} timeline events (+ metadata) written "
            f"to {args.trace_path} (load in Perfetto or chrome://tracing)"
        )
    if args.critpath:
        print()
        print(obs.critpath.render(top=args.top or 10))
    if args.critpath_json:
        _write_json(
            args.critpath_json, obs.critpath.report, "attribution JSON"
        )


def cmd_run(args) -> int:
    from repro.sim.snapshot import CheckpointConfig

    spec = _spec_from_args(
        args,
        profile_guided=args.profile_guided,
        trace=bool(args.trace or args.by_class or args.trace_path),
        trace_path=args.trace_path,
        critpath=bool(args.critpath or args.critpath_json),
    )
    checkpoint = None
    if args.checkpoint is not None or args.checkpoint_every:
        checkpoint = _setting(
            CheckpointConfig,
            path=args.checkpoint or f"{args.workload}.snap",
            every_cycles=args.checkpoint_every,
            install_signals=True,
        )
    instance, compiled = compile_point(spec)
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
        run = run_point(
            spec, instance, compiled,
            checkpoint=checkpoint, resume_from=args.resume_from,
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
    print(
        f"{spec.workload} on {spec.config.name}: {run.cycles} system cycles "
        f"(output verified)"
    )
    print("stats:", run.stats.summary())
    _print_probes(args, compiled, run)
    if args.energy:
        print("energy:", estimate_energy(run.stats).summary())
    if args.stats_json:
        _write_json(args.stats_json, _stats_payload(run.stats), "stats JSON")
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


def cmd_sweep(args) -> int:
    from dataclasses import replace

    from repro.exp.cache import default_cache_dir
    from repro.exp.resilient import SweepPolicy, run_resilient

    sweep_policy = _setting(
        SweepPolicy,
        job_timeout_s=args.timeout,
        max_retries=args.retries,
        backoff_s=args.backoff,
        on_failure=args.on_failure,
        checkpoint_every=args.checkpoint_every,
        grace_s=args.grace,
    )
    faults = _setting(
        FaultParams,
        seed=args.fault_seed,
        mem_delay_prob=args.fault_mem_delay_prob,
        mem_delay_cycles=args.fault_mem_delay_cycles,
        mem_drop_prob=args.fault_mem_drop_prob,
        pe_stall_prob=args.fault_pe_stall_prob,
        grant_skip_prob=args.fault_grant_skip_prob,
    )
    arch = ArchParams()
    if faults.active():
        arch = replace(arch, sim=replace(arch.sim, faults=faults))
        print(f"fault injection on: {faults.signature()}")
    snapshot_dir = args.snapshot_dir
    if snapshot_dir is None and args.checkpoint_every:
        snapshot_dir = "snapshots"
    outcome = run_resilient(
        sweep_specs(
            args.workloads, args.configs, args.seeds, scale=args.scale,
            arch=arch, profile_guided=args.profile_guided,
        ),
        max_workers=args.jobs,
        cache_dir=args.cache_dir or default_cache_dir(),
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
    "fdo": cmd_fdo,
    "figure": cmd_figure,
    "sweep": cmd_sweep,
    "cache": cmd_cache,
    "regions": cmd_regions,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except argparse.ArgumentTypeError as exc:  # a refused _setting
        parser.error(f"{args.command}: {exc}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
