"""Per-layer measurement, from outside the program.

Everything here times calls into ``repro``'s public functions from the
benchmark's own process; no span recorder is threaded through the
program yet (ROADMAP item 1 leaves that to a later change). Three
instruments:

* :class:`Spans` — in-memory spans (name, start, end, parent, shared id)
  opened around each compile stage and around the sweep's calls;
* :func:`traced_compile_once` — a replica of ``pnr.flow.compile_once``
  at the degree the real ``compile_kernel`` chose, one span per stage;
  the caller asserts the replica's PnR digest equals the real
  artifact's, so the spans describe the same work;
* :func:`profile_shares` — simulator layers cross on every tick, so
  their self time comes from ``cProfile`` ``tottime`` folded by source
  module.

The ``*_metrics`` functions turn those observations (plus the public
``PnRStats`` / ``SimStats`` counters) into the per-layer metrics named
in ``spec.PER_LAYER``.
"""

from __future__ import annotations

import cProfile
import pstats
import random
import time
from contextlib import contextmanager

from repro.arch.noc import build_channel_graph
from repro.core.criticality import analyze_criticality
from repro.dfg.lower import lower_kernel
from repro.errors import PnRError
from repro.ir.transform import parallelize
from repro.pnr.flow import MEM_SCALE_SCHEDULE
from repro.pnr.netlist import build_netlist
from repro.pnr.place import anneal, initial_placement
from repro.pnr.result import CompiledKernel
from repro.pnr.route import route_design
from repro.pnr.timing import analyze_timing

from spec import DENSE_KERNELS


class Spans:
    """Spans kept in memory; ``records`` is written out at exit."""

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        """Open a span; nested spans inherit ``trace_id`` from the parent."""
        parent = self._stack[-1] if self._stack else None
        if trace_id is None and parent is not None:
            trace_id = self.records[parent]["id"]
        record = {
            "name": name,
            "id": trace_id,
            "parent": parent,
            "start": time.perf_counter() - self._origin,
            "end": None,
        }
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and r["end"] is not None
        )

    def self_total(self, name: str) -> float:
        """Duration of ``name`` spans minus what their children cover."""
        covered = 0.0
        for r in self.records:
            parent = r["parent"]
            if parent is not None and self.records[parent]["name"] == name:
                covered += r["end"] - r["start"]
        return self.total(name) - covered


@contextmanager
def patched_spans(spans: Spans, targets):
    """Wrap ``(owner, attribute, span name)`` callables in spans.

    The in-process sweep calls the cache, the simulator and the manifest
    writer from inside ``run_parallel``; until the program records its
    own spans, the only outside seam is the name each caller looks up.
    Originals are restored on exit.
    """
    undo = []
    for owner, attr, name in targets:
        original = getattr(owner, attr)
        had_own = attr in vars(owner)

        def wrapper(*args, _fn=original, _name=name, **kwargs):
            with spans.span(_name):
                return _fn(*args, **kwargs)

        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original, had_own))
    try:
        yield
    finally:
        for owner, attr, original, had_own in undo:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


#: Stage spans of one compile, in flow order; the per-candidate four
#: repeat once per ``MEM_SCALE_SCHEDULE`` entry evaluated.
COMPILE_STAGES = (
    "ir.parallelize", "dfg.lower", "core.criticality", "pnr.netlist",
    "arch.noc.channel_graph", "pnr.place.initial", "pnr.place.anneal",
    "pnr.route", "pnr.timing",
)


def traced_compile_once(
    spans: Spans, trace_id, kernel, fabric, arch, policy, parallelism, seed
):
    """``compile_once`` stage by stage, each stage in its own span.

    Mirrors the serial path of ``repro.pnr.flow.compile_once`` (same
    calls, same rng, same ``(divider, cost)`` selection with the early
    exit at divider <= 2). Returns ``(compiled, anneal_stats)`` where
    ``anneal_stats`` has one dict per candidate evaluated.
    """
    anneal_stats: list[dict] = []
    with spans.span("pnr.flow.compile_once", trace_id):
        with spans.span("ir.parallelize"):
            program = (
                parallelize(kernel, parallelism) if parallelism > 1 else kernel
            )
        with spans.span("dfg.lower"):
            dfg = lower_kernel(program, mem_mode="raw")
        with spans.span("core.criticality"):
            report = analyze_criticality(dfg)
        with spans.span("pnr.netlist"):
            netlist = build_netlist(dfg)
        with spans.span("arch.noc.channel_graph"):
            channels = build_channel_graph(
                fabric, arch.noc_tracks, arch.noc_model
            )
        best = None
        for mem_scale in MEM_SCALE_SCHEDULE:
            rng = random.Random(seed)
            with spans.span("pnr.place.initial"):
                placement = initial_placement(
                    netlist, fabric, policy, rng, mem_scale=mem_scale
                )
            stats: dict = {}
            with spans.span("pnr.place.anneal"):
                cost = anneal(placement, rng, stats=stats)
            anneal_stats.append(stats)
            try:
                with spans.span("pnr.route"):
                    routing = route_design(netlist, placement, channels)
            except PnRError:
                continue
            with spans.span("pnr.timing"):
                timing = analyze_timing(routing, arch.timing)
            candidate = (
                timing.clock_divider, cost, dict(placement.loc),
                routing, timing,
            )
            if best is None or candidate[:2] < best[:2]:
                best = candidate
            if candidate[0] <= 2:
                break
    if best is None:
        raise PnRError("replica compile found no routable candidate")
    _, cost, loc, routing, timing = best
    compiled = CompiledKernel(
        dfg=dfg, fabric=fabric, policy=policy, criticality=report,
        placement=loc, routing=routing, timing=timing,
        parallelism=parallelism, place_cost=cost,
    )
    return compiled, anneal_stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compile_metrics(
    spans: Spans, compiled: list, anneal_stats: list, direct_compile_s: float
) -> dict:
    """Compile-side per-layer metrics.

    ``compiled`` are the real ``compile_kernel`` artifacts (their public
    ``PnRStats`` give search cost and routing counts); ``spans`` and
    ``anneal_stats`` come from the replicas of the winning degree, and
    ``direct_compile_s`` is the summed wall of ``compile_once`` at that
    degree, measured back to back with the replicas.
    """
    pnr = [c.pnr for c in compiled]
    compile_s = sum(p.total_wall_s for p in pnr)
    search_s = sum(p.search_wall_s for p in pnr)
    moves = sum(s["moves"] for s in anneal_stats)
    proposals = sum(s["proposals"] for s in anneal_stats)
    accepted = sum(s["accepted"] for s in anneal_stats)
    anneal_s = spans.total("pnr.place.anneal")
    route_s = spans.total("pnr.route")
    nets = sum(p.nets_rerouted for p in pnr)
    n = len(compiled)
    return {
        "ir.parallelize_s": spans.total("ir.parallelize"),
        "dfg.lower_s": spans.total("dfg.lower"),
        "dfg.nodes": sum(len(c.dfg) for c in compiled),
        "core.criticality_s": spans.total("core.criticality"),
        "core.class_a": sum(len(c.criticality.class_a) for c in compiled),
        "core.class_b": sum(len(c.criticality.class_b) for c in compiled),
        "core.class_c": sum(len(c.criticality.class_c) for c in compiled),
        "pnr.netlist_s": spans.total("pnr.netlist"),
        "arch.noc.channel_graph_s": spans.total("arch.noc.channel_graph"),
        "pnr.timing.timing_s": spans.total("pnr.timing"),
        "pnr.place.initial_s": spans.total("pnr.place.initial"),
        "pnr.place.anneal_s": anneal_s,
        "pnr.place.moves": moves,
        "pnr.place.proposals": proposals,
        "pnr.place.accepted": accepted,
        "pnr.place.accept_ratio": _ratio(accepted, proposals),
        "pnr.place.moves_per_s": _ratio(moves, anneal_s),
        "pnr.route.route_s": route_s,
        "pnr.route.iterations": sum(p.route_iterations for p in pnr),
        "pnr.route.nets_rerouted": nets,
        "pnr.route.nets_per_s": _ratio(nets, sum(p.route_wall_s for p in pnr)),
        "pnr.flow.compile_s": compile_s,
        "pnr.flow.candidates": sum(p.candidates for p in pnr),
        "pnr.flow.degrees_tried": sum(p.degrees_tried for p in pnr),
        "pnr.flow.search_overhead_s": search_s - compile_s,
        "pnr.flow.useful_share": _ratio(compile_s, search_s),
        "pnr.timing.divider_mean": _ratio(
            sum(c.timing.clock_divider for c in compiled), n
        ),
        "pnr.timing.max_hops_mean": _ratio(
            sum(float(c.timing.max_hops) for c in compiled), n
        ),
        "trace.span_cover": _ratio(
            sum(spans.total(stage) for stage in COMPILE_STAGES),
            direct_compile_s,
        ),
    }


def seed_spread(by_seed: list[list]) -> float:
    """Mean over kernels of max/min ``parallelism / clock_divider``
    across placement seeds — QoR spread, from the artifacts alone."""
    ratios = []
    for per_kernel in zip(*by_seed):
        scores = [c.parallelism / c.timing.clock_divider for c in per_kernel]
        ratios.append(max(scores) / min(scores))
    return _ratio(sum(ratios), len(ratios))


def sim_metrics(records: list) -> dict:
    """Engine throughput and modelled-machine counts.

    ``records`` are ``(kernel, config, wall_s, SimStats)`` of untraced
    runs — host rates from a profiled run would be meaningless.
    """

    def rate(keep) -> float:
        chosen = [r for r in records if keep(r)]
        return _ratio(
            sum(r[3].total_firings for r in chosen), sum(r[2] for r in chosen)
        )

    wall = sum(r[2] for r in records)
    stats = [r[3] for r in records]
    firings = sum(s.total_firings for s in stats)
    cycles = sum(s.system_cycles for s in stats)
    loads = sum(s.mem.loads for s in stats)
    stores = sum(s.mem.stores for s in stats)
    hits = sum(s.mem.hits for s in stats)
    misses = sum(s.mem.misses for s in stats)
    local = sum(s.numa.get("local_accesses", 0) for s in stats)
    remote = sum(s.numa.get("remote_accesses", 0) for s in stats)
    return {
        "sim.engine.firings": firings,
        "sim.engine.firings_per_s": _ratio(firings, wall),
        "sim.engine.ns_per_firing": _ratio(wall * 1e9, firings),
        "sim.engine.cycles_per_s": _ratio(cycles, wall),
        "sim.engine.executed_cycles": sum(s.executed_cycles for s in stats),
        "sim.engine.skipped_share": _ratio(
            sum(s.skipped_cycles for s in stats), cycles
        ),
        "sim.engine.firings_per_s.monaco": rate(lambda r: r[1] == "monaco"),
        "sim.engine.firings_per_s.upea2": rate(lambda r: r[1] == "upea2"),
        "sim.engine.firings_per_s.numa-upea2": rate(
            lambda r: r[1] == "numa-upea2"
        ),
        "sim.engine.firings_per_s.dense": rate(
            lambda r: r[0] in DENSE_KERNELS
        ),
        "sim.engine.firings_per_s.irregular": rate(
            lambda r: r[0] not in DENSE_KERNELS
        ),
        "sim.memsys.requests": loads + stores,
        "sim.memsys.hit_ratio": _ratio(hits, hits + misses),
        "sim.memsys.bank_wait_cycles": sum(
            s.mem.bank_wait_cycles for s in stats
        ),
        "sim.memsys.avg_latency": _ratio(
            sum(s.mem.latency_total for s in stats),
            sum(s.mem.responses for s in stats),
        ),
        "sim.fmnoc_sim.hops": sum(s.fmnoc_hops for s in stats),
        "arch.noc.hops": sum(s.noc_hops for s in stats),
        "sim.upea.numa_local_share": _ratio(local, local + remote),
    }


#: Source-file suffix -> the layer its self time is charged to. ``obs/``
#: is a package of sinks; every file under it counts as one layer.
PROFILE_LAYERS = (
    ("repro/sim/engine.py", "sim.engine"),
    ("repro/dfg/ops.py", "dfg.ops"),
    ("repro/sim/fmnoc_sim.py", "sim.fmnoc_sim"),
    ("repro/sim/upea.py", "sim.upea"),
    ("repro/sim/memsys.py", "sim.memsys"),
    ("repro/sim/stats.py", "sim.stats"),
    ("repro/obs/", "obs"),
    ("repro/check/invariants.py", "check.invariants"),
)


def profile_shares(fn, calls) -> tuple[dict, float]:
    """Run ``fn(*args)`` for each ``args`` of ``calls`` under ``cProfile``.

    Returns ``({"<layer>.self_share": share of all profiled tottime},
    profiled wall)``. cProfile charges every Python call but not time
    inside C code, so the shares size what a layer can save; they are
    not a substitute for an untraced measurement.
    """
    profiler = cProfile.Profile()
    start = time.perf_counter()
    for args in calls:
        profiler.runcall(fn, *args)
    wall = time.perf_counter() - start
    folded = {layer: 0.0 for _, layer in PROFILE_LAYERS}
    total = 0.0
    for (filename, _, _), entry in pstats.Stats(profiler).stats.items():
        tottime = entry[2]
        total += tottime
        path = filename.replace("\\", "/")
        for marker, layer in PROFILE_LAYERS:
            if marker in path:
                folded[layer] += tottime
                break
    shares = {
        f"{layer}.self_share": _ratio(t, total) for layer, t in folded.items()
    }
    return shares, wall
