"""What the benchmark measures: workloads, metrics, bounds.

The single source of truth for names, units, directions and regression
bounds. ``/BENCHMARK.json`` repeats the same tables for the driver and
``test_harness.py`` asserts the two agree. Nothing here imports
``repro``, so the parent process (``run.py``) stays light.
"""

from __future__ import annotations

#: Paper Sec. 6: Monaco's geomean speedup over the realistic UPEA
#: baseline. Printed beside every ``nupea_speedup`` with the error.
PAPER_NUPEA_SPEEDUP = 1.28

#: The 13 Table 1 kernels, in Table 1 order.
KERNELS = (
    "dmv", "jacobi2d", "heat3d", "spmv", "spmspm", "spmspv", "spadd",
    "tc", "mergesort", "fft", "ad", "ic", "vww",
)
#: Kernels that fire on nearly every fabric tick (cycle skipping cannot
#: help); the other eight are the irregular group.
DENSE_KERNELS = ("dmv", "fft", "ad", "ic", "vww")
#: ``sim_probed`` points: two irregular, two dense kernels.
PROBED_KERNELS = ("spmspv", "mergesort", "fft", "dmv")
#: CLI spellings of the three machine configs (``repro sweep --configs``)
#: and the names the simulator reports for them, in the same order.
CLI_CONFIGS = ("upea2", "numa2", "monaco")
CONFIG_NAMES = ("upea2", "numa-upea2", "monaco")
PROBES = ("trace", "critpath", "check")

SCALES = ("tiny", "small")
#: Fewest timed reps a reportable run may take.
MIN_REPS = 3
#: Fresh child processes whose set-up is timed (median reported).
SETUPS = 3

WORKLOADS = (
    (
        "compile_cold",
        "13 Table 1 kernels through compile_kernel at placement seeds S, "
        "S+1, S+2 (one per rep), serial, no compile cache: PnR (anneal, "
        "route) does all the timed work, the simulator none",
    ),
    (
        "sim_plain",
        "13 kernels x {monaco, upea2, numa-upea2} through simulate with "
        "probes off: the engine's executed tick does all the timed work, "
        "PnR and the cache none",
    ),
    (
        "sim_probed",
        "4 kernels x {monaco, upea2} under trace, critpath and invariant "
        "checking: same engine with every probe hook live, so a plain-"
        "path gain paid for by dearer probes shows here",
    ),
    (
        "sweep_cold_warm",
        "the user command `repro sweep` as a subprocess, cold cache then "
        "warm: only workload where cli, exp.* process pool, disk cache "
        "and manifests do measurable work",
    ),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected;
#: see README.md for how each was sized from measured spreads.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("model_cycles", "cycles", "lower", 0.15),
    ("nupea_speedup", "ratio", "higher", 0.10),
    ("verified_share", "fraction", "higher", 0.01),
)

#: Absolute slack ``--compare`` adds to a relative bound: a sub-second
#: set-up is mostly process-start jitter, so ``setup_s`` regresses only
#: when it is worse by more than 25 % *and* by more than 0.25 s. (The
#: driver knows relative bounds only; it exempts ``setup_s`` from the
#: spread rule instead.)
ABSOLUTE_SLACK = {"setup_s": 0.25}

_S = ("s", "lower")
_COUNT = ("count", "lower")
_RATE = ("1/s", "higher")
_SHARE = ("fraction", "lower")

#: (name, unit, better). Layer = module name under ``repro``.
PER_LAYER = (
    # set-up
    ("workloads.build_s", *_S),
    ("cli.import_s", *_S),
    # compile front half: together < 1 % of compile_cold.wall_s
    ("ir.parallelize_s", *_S),
    ("dfg.lower_s", *_S),
    ("dfg.nodes", *_COUNT),
    ("core.criticality_s", *_S),
    ("core.class_a", *_COUNT),
    ("core.class_b", *_COUNT),
    ("core.class_c", *_COUNT),
    ("pnr.netlist_s", *_S),
    ("arch.noc.channel_graph_s", *_S),
    ("pnr.timing.timing_s", *_S),
    # placement
    ("pnr.place.initial_s", *_S),
    ("pnr.place.anneal_s", *_S),
    ("pnr.place.moves", *_COUNT),
    ("pnr.place.proposals", *_COUNT),
    ("pnr.place.accepted", *_COUNT),
    ("pnr.place.accept_ratio", "fraction", "higher"),
    ("pnr.place.moves_per_s", *_RATE),
    # routing
    ("pnr.route.route_s", *_S),
    ("pnr.route.iterations", *_COUNT),
    ("pnr.route.nets_rerouted", *_COUNT),
    ("pnr.route.nets_per_s", *_RATE),
    # flow: search cost and quality of result
    ("pnr.flow.compile_s", *_S),
    ("pnr.flow.candidates", *_COUNT),
    ("pnr.flow.degrees_tried", *_COUNT),
    ("pnr.flow.search_overhead_s", *_S),
    ("pnr.flow.useful_share", "fraction", "higher"),
    ("pnr.timing.divider_mean", "ratio", "lower"),
    ("pnr.timing.max_hops_mean", "hops", "lower"),
    ("pnr.flow.seed_spread", "ratio", "lower"),
    # engine
    ("sim.engine.firings", *_COUNT),
    ("sim.engine.firings_per_s", *_RATE),
    ("sim.engine.ns_per_firing", "ns", "lower"),
    ("sim.engine.cycles_per_s", *_RATE),
    ("sim.engine.executed_cycles", "cycles", "lower"),
    ("sim.engine.skipped_share", "fraction", "higher"),
    ("sim.engine.firings_per_s.monaco", *_RATE),
    ("sim.engine.firings_per_s.upea2", *_RATE),
    ("sim.engine.firings_per_s.numa-upea2", *_RATE),
    ("sim.engine.firings_per_s.dense", *_RATE),
    ("sim.engine.firings_per_s.irregular", *_RATE),
    # cProfile self time by source module (traced pass only)
    ("sim.engine.self_share", *_SHARE),
    ("dfg.ops.self_share", *_SHARE),
    ("sim.fmnoc_sim.self_share", *_SHARE),
    ("sim.upea.self_share", *_SHARE),
    ("sim.memsys.self_share", *_SHARE),
    ("sim.stats.self_share", *_SHARE),
    ("obs.self_share", *_SHARE),
    ("check.invariants.self_share", *_SHARE),
    # modelled machine: exact counts a host-speed change must not move
    ("sim.memsys.requests", *_COUNT),
    ("sim.memsys.hit_ratio", "fraction", "higher"),
    ("sim.memsys.bank_wait_cycles", "cycles", "lower"),
    ("sim.memsys.avg_latency", "cycles", "lower"),
    ("sim.fmnoc_sim.hops", *_COUNT),
    ("arch.noc.hops", *_COUNT),
    ("sim.upea.numa_local_share", "fraction", "higher"),
    # probes: probed wall / plain wall on the same points
    ("obs.trace.overhead_x", "x", "lower"),
    ("obs.critpath.overhead_x", "x", "lower"),
    ("check.invariants.overhead_x", "x", "lower"),
    # sweep harness
    ("exp.sweep.cold_s", *_S),
    ("exp.sweep.warm_s", *_S),
    ("exp.cache.misses", *_COUNT),
    ("exp.cache.disk_hits", "count", "higher"),
    ("exp.cache.hits", "count", "higher"),
    ("exp.cache.store_s", *_S),
    ("exp.cache.load_s", *_S),
    ("exp.cache.bytes", "bytes", "lower"),
    ("exp.cache.compile_cpu_ratio", "ratio", "lower"),
    ("exp.runner.overhead_s", *_S),
    ("obs.manifest.record_s", *_S),
    ("sim.stats.to_dict_s", *_S),
    ("sim.energy.estimate_s", *_S),
    # diagnostics
    ("host.cpu_s", *_S),
    ("host.calib_s", *_S),
    ("host.wall_norm", "ratio", "lower"),
    ("model.digest_drift", *_COUNT),
    ("trace.span_cover", "fraction", "higher"),
    ("trace.overhead_x", "x", "lower"),
)


def benchmark_json(run_seconds: int) -> dict:
    """The ``/BENCHMARK.json`` document these tables imply."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
