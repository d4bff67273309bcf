"""The full compilation flow, including the parallelism search.

Mirrors effcc end to end: parallelize -> lower -> criticality analysis ->
NUPEA-aware placement -> routing -> static timing. The parallelism degree
is "iteratively increased until PnR fails" (Sec. 5): the flow walks
``SEARCH_DEGREES`` until the design stops fitting or routing, keeping
the best-throughput success.

At each degree the flow walks ``MEM_SCALE_SCHEDULE`` serially: every
entry anneals the one seed placement under its own near-memory pull, and
the ``(clock_divider, place_cost)`` lexicographic best routable
candidate wins, with an early exit at ``clock_divider <= 2``. Compiles
run in parallel one level up, one per compile key, in the sweep
dispatcher (:mod:`repro.exp.resilient`).
"""

from __future__ import annotations

import random
import time

from repro.arch.fabric import Fabric
from repro.arch.noc import build_channel_graph
from repro.arch.params import ArchParams
from repro.core.criticality import analyze_criticality
from repro.core.policy import EFFCC, PlacementPolicy
from repro.dfg.lower import lower_kernel
from repro.errors import PnRError
from repro.ir.ast import Kernel
from repro.ir.transform import parallelize
from repro.pnr.netlist import build_netlist
from repro.pnr.place import Placement, anneal, initial_placement
from repro.pnr.result import CompiledKernel, PnRStats
from repro.pnr.route import route_design
from repro.pnr.timing import analyze_timing


#: Memory-preference scales tried when routing/timing feedback shows the
#: near-memory pull is congesting the data NoC. The first scale whose
#: routed divider is already minimal wins; otherwise the best candidate.
MEM_SCALE_SCHEDULE = (1.0, 0.4, 0.1)

#: The degrees the automatic search tries, in increasing order. Finer
#: than doubling (3, 6, 12, ... included) so the search packs the fabric
#: as tightly as effcc's iterative parallelization does.
SEARCH_DEGREES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)


def compile_once(
    kernel: Kernel,
    fabric: Fabric,
    arch: ArchParams,
    policy: PlacementPolicy = EFFCC,
    parallelism: int = 1,
    mem_mode: str = "raw",
    seed: int = 0,
    anneal_moves: int | None = None,
    profile: tuple[dict | None, dict | None] | None = None,
    node_weights: dict[int, float] | None = None,
) -> CompiledKernel:
    """Compile at a fixed parallelism degree; raises PnRError on failure.

    Placement and routing negotiate: if the routed design's clock divider
    is poor (long paths from memory-preference congestion), placement is
    retried with a weaker near-memory pull and the best-timed routable
    candidate wins. When no candidate routes, the last one's error is
    raised.

    ``profile`` — a ``(params, arrays)`` pair of profiling inputs —
    enables profile-guided criticality: the lowered DFG is executed once
    through the untimed interpreter and class-B/C memory nodes are
    reclassified by measured firing frequency
    (:func:`repro.core.profile.analyze_with_profile`) before placement.
    The refinement outcome is recorded in ``CompiledKernel.meta
    ["profile"]``.

    ``node_weights`` (nid -> weight) overrides the per-node placement
    weight outright — the feedback-directed path
    (:mod:`repro.exp.fdo`). An empty/None map is bit-identical to the
    class-weight path. The map used is recorded in ``CompiledKernel.meta
    ["node_weights"]``.
    """
    t0 = time.perf_counter()
    program = parallelize(kernel, parallelism) if parallelism > 1 else kernel
    dfg = lower_kernel(program, mem_mode=mem_mode)
    meta: dict = {}
    if profile is not None:
        from repro.core.profile import analyze_with_profile

        profile_params, profile_arrays = profile
        # The flow owns this freshly lowered DFG, so refining it in
        # place is safe — no cache entry was ever keyed on it.
        profiled = analyze_with_profile(
            dfg, profile_params, profile_arrays, in_place=True
        )
        report = profiled.report
        meta["profile"] = profiled.to_dict()
    else:
        report = analyze_criticality(dfg)
    node_weights = dict(node_weights) if node_weights else None
    if node_weights is not None:
        meta["node_weights"] = {
            int(nid): float(w) for nid, w in sorted(node_weights.items())
        }
    netlist = build_netlist(dfg)
    channels = build_channel_graph(fabric, arch.noc_tracks, arch.noc_model)
    check = arch.sim.check

    # One seeding serves every candidate (initial_placement reads
    # mem_scale only to store it); each candidate anneals its own copy of
    # ``loc`` from the rng state seeding left, since DOMAIN_AWARE seeding
    # draws from it.
    rng = random.Random(seed)
    seeded = initial_placement(
        netlist, fabric, policy, rng, node_weights=node_weights
    )
    rng_state = rng.getstate()
    best = None
    failure: PnRError | None = None
    for considered, mem_scale in enumerate(MEM_SCALE_SCHEDULE, 1):
        placement = Placement(
            netlist, fabric, policy, mem_scale=mem_scale,
            node_weights=node_weights,
        )
        for nid, coord in seeded.loc.items():
            placement.assign(nid, coord)
        rng.setstate(rng_state)
        stats: dict = {}
        cost = anneal(
            placement, rng, moves=anneal_moves, check=check, stats=stats
        )
        try:
            routing = route_design(netlist, placement, channels, check=check)
        except PnRError as error:
            failure = error
            continue
        timing = analyze_timing(routing, arch.timing)
        candidate = (
            timing.clock_divider, cost, placement, routing, timing, stats
        )
        if best is None or candidate[:2] < best[:2]:
            best = candidate
        if timing.clock_divider <= 2:
            break
    if best is None:
        raise failure
    _, cost, placement, routing, timing, stats = best
    pnr = PnRStats(
        place_wall_s=stats["wall_s"],
        route_wall_s=routing.wall_s,
        total_wall_s=time.perf_counter() - t0,
        anneal_moves=stats["moves"],
        anneal_proposals=stats["proposals"],
        anneal_accepted=stats["accepted"],
        moves_per_s=stats["moves_per_s"],
        route_iterations=routing.iterations,
        nets_rerouted=routing.nets_rerouted,
        candidates=considered,
    )
    compiled = CompiledKernel(
        dfg=dfg,
        fabric=fabric,
        policy=policy,
        criticality=report,
        placement=dict(placement.loc),
        routing=routing,
        timing=timing,
        parallelism=parallelism,
        place_cost=cost,
        meta=meta,
        pnr=pnr,
    )
    if check:
        # Not a PnRError: the degree search must not read a wrong
        # artifact as one that merely does not fit.
        from repro.check.pnr import verify_routing

        verify_routing(compiled, arch)
    return compiled


def compile_kernel(
    kernel: Kernel,
    fabric: Fabric,
    arch: ArchParams,
    policy: PlacementPolicy = EFFCC,
    parallelism: int | None = None,
    mem_mode: str = "raw",
    seed: int = 0,
    anneal_moves: int | None = None,
    profile: tuple[dict | None, dict | None] | None = None,
    node_weights: dict[int, float] | None = None,
) -> CompiledKernel:
    """Compile ``kernel``, searching the parallelism degree if unspecified.

    With ``parallelism=None`` the flow raises the degree through
    :data:`SEARCH_DEGREES` until PnR fails (effcc's automatic
    parallelization) and keeps the degree with the best *estimated
    throughput* — parallelism divided by the PnR-chosen clock divider —
    matching the paper's "chose the one that achieved optimal
    performance". A congested high-degree design that forces a slow fabric
    clock loses to a leaner one that keeps the clock fast.
    """
    if parallelism is not None:
        return compile_once(
            kernel, fabric, arch, policy, parallelism, mem_mode, seed,
            anneal_moves, profile, node_weights,
        )
    t0 = time.perf_counter()
    best: CompiledKernel | None = None
    best_score = 0.0
    tried = 0
    for degree in SEARCH_DEGREES:
        try:
            candidate = compile_once(
                kernel, fabric, arch, policy, degree, mem_mode, seed,
                anneal_moves, profile, node_weights,
            )
        except PnRError:
            break
        finally:
            tried += 1
        score = degree / candidate.timing.clock_divider
        if score > best_score:
            best, best_score = candidate, score
    if best is None:
        raise PnRError(
            f"kernel {kernel.name!r} does not fit on {fabric.name} even "
            "at parallelism 1"
        )
    if best.pnr is not None:
        best.pnr.search_wall_s = time.perf_counter() - t0
        best.pnr.degrees_tried = tried
    return best

