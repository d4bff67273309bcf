"""The full compilation flow, including the parallelism search.

Mirrors effcc end to end: parallelize -> lower -> criticality analysis ->
NUPEA-aware placement -> routing -> static timing. The parallelism degree
is "iteratively increased until PnR fails" (Sec. 5): the flow doubles the
degree until the design stops fitting or routing, keeping the last
success.

The mem-scale negotiation is a *portfolio*: each ``MEM_SCALE_SCHEDULE``
entry (optionally times several placement-restart seeds) is an
independent PnR candidate. ``portfolio_jobs > 1`` evaluates the
candidates concurrently in a process pool; the selection loop then walks
the outcomes in schedule order applying the exact serial tie-break
(``(clock_divider, place_cost)`` lexicographic, early exit at
``clock_divider <= 2``), so the chosen candidate — and thus the compiled
artifact — is identical to the serial path's.
"""

from __future__ import annotations

import functools
import random
import time
from concurrent.futures import ProcessPoolExecutor

from repro.arch.fabric import Fabric
from repro.arch.noc import build_channel_graph
from repro.arch.params import ArchParams
from repro.core.criticality import analyze_criticality
from repro.core.policy import EFFCC, PlacementPolicy
from repro.dfg.lower import lower_kernel
from repro.errors import PlacementError, PnRError, RoutingError
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

#: Seed stride between portfolio placement restarts (prime, far from the
#: sweep harness's PNR_SEED_STRIDE so restart seeds never collide with
#: per-point seeds).
PORTFOLIO_SEED_STRIDE = 104729

#: Exception types a portfolio worker may ship back by name.
_EXC_TYPES = {
    "PnRError": PnRError,
    "PlacementError": PlacementError,
    "RoutingError": RoutingError,
}

_POOL: ProcessPoolExecutor | None = None
_POOL_SIZE = 0


def _portfolio_pool(jobs: int) -> ProcessPoolExecutor:
    """Shared process pool for portfolio evaluation (lazily created)."""
    global _POOL, _POOL_SIZE
    if _POOL is not None and _POOL_SIZE < jobs:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=jobs)
        _POOL_SIZE = jobs
    return _POOL


def shutdown_portfolio_pool() -> None:
    """Tear down the shared portfolio pool (tests, process exit)."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_SIZE = 0


def _evaluate_mem_scale(
    netlist,
    fabric: Fabric,
    policy: PlacementPolicy,
    channels,
    timing_params,
    mem_scale: float,
    seeded,
    anneal_moves: int | None,
    check: bool,
    node_weights: dict[int, float] | None = None,
):
    """Evaluate one (mem_scale, seed) portfolio candidate.

    ``seeded`` is the candidate seed's seed placement as ``(loc, rng
    state after seeding)``; the candidate anneals its own copy (same
    ``loc`` key order) with its own rng. Picklable module-level worker so
    it runs under ProcessPoolExecutor. Returns one of::

        ("ok", (divider, cost, loc, routing, timing), stats)
        ("error", (exc_type_name, message), {})   # routing failed

    Routing failures participate in the schedule's continue-on-failure
    negotiation.
    """
    stats: dict = {}
    loc, rng_state = seeded
    placement = Placement(
        netlist, fabric, policy, mem_scale=mem_scale,
        node_weights=node_weights,
    )
    for nid, coord in loc.items():
        placement.assign(nid, coord)
    rng = random.Random()
    rng.setstate(rng_state)
    cost = anneal(
        placement, rng, moves=anneal_moves, check=check, stats=stats
    )
    try:
        routing = route_design(netlist, placement, channels, check=check)
    except PnRError as error:
        return ("error", (type(error).__name__, str(error)), {})
    timing = analyze_timing(routing, timing_params)
    stats["route_wall_s"] = routing.wall_s
    stats["route_iterations"] = routing.iterations
    stats["nets_rerouted"] = routing.nets_rerouted
    payload = (
        timing.clock_divider,
        cost,
        dict(placement.loc),
        routing,
        timing,
    )
    return ("ok", payload, stats)


def _rebuild_error(name: str, message: str) -> PnRError:
    return _EXC_TYPES.get(name, PnRError)(message)


def compile_once(
    kernel: Kernel,
    fabric: Fabric,
    arch: ArchParams,
    policy: PlacementPolicy = EFFCC,
    parallelism: int = 1,
    mem_mode: str = "raw",
    seed: int = 0,
    anneal_moves: int | None = None,
    portfolio_jobs: int = 1,
    portfolio_restarts: int = 1,
    profile: tuple[dict | None, dict | None] | None = None,
    node_weights: dict[int, float] | None = None,
) -> CompiledKernel:
    """Compile at a fixed parallelism degree; raises PnRError on failure.

    Placement and routing negotiate: if the routed design's clock divider
    is poor (long paths from memory-preference congestion), placement is
    retried with a weaker near-memory pull and the best-timed routable
    candidate wins. ``portfolio_jobs > 1`` evaluates the candidates
    concurrently (same result, see module docstring);
    ``portfolio_restarts > 1`` adds extra placement seeds per mem scale.

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

    restarts = max(1, portfolio_restarts)
    plan = [
        (mem_scale, seed + r * PORTFOLIO_SEED_STRIDE)
        for mem_scale in MEM_SCALE_SCHEDULE
        for r in range(restarts)
    ]

    # One seeding per distinct candidate seed (initial_placement reads
    # mem_scale only to store it), on first use: the serial path's early
    # exit never seeds a restart it does not reach, and a placement that
    # cannot be seeded raises through, as it always has. The rng state
    # rides along because DOMAIN_AWARE seeding draws from it.
    @functools.cache
    def seeded(cand_seed: int):
        rng = random.Random(cand_seed)
        placement = initial_placement(
            netlist, fabric, policy, rng, node_weights=node_weights
        )
        return placement.loc, rng.getstate()

    def candidate_args(mem_scale: float, cand_seed: int) -> tuple:
        return (
            netlist,
            fabric,
            policy,
            channels,
            arch.timing,
            mem_scale,
            seeded(cand_seed),
            anneal_moves,
            check,
            node_weights,
        )

    jobs = max(1, min(portfolio_jobs, len(plan)))
    if jobs > 1:
        pool = _portfolio_pool(jobs)
        futures = [
            pool.submit(_evaluate_mem_scale, *candidate_args(*candidate))
            for candidate in plan
        ]
        outcomes = (future.result() for future in futures)
    else:
        outcomes = (
            _evaluate_mem_scale(*candidate_args(*candidate))
            for candidate in plan
        )

    # Selection: identical for serial and parallel — walk outcomes in
    # schedule order, keep the lexicographic (divider, cost) best, stop
    # once a candidate's divider is already minimal. The serial generator
    # is lazy, so the historical early exit still skips later anneals.
    best = None
    best_stats: dict = {}
    failure: PnRError | None = None
    considered = 0
    for outcome in outcomes:
        kind, payload, stats = outcome
        considered += 1
        if kind == "error":
            failure = _rebuild_error(*payload)
            continue
        if best is None or payload[:2] < best[:2]:
            best = payload
            best_stats = stats
        if payload[0] <= 2:
            break
    if best is None:
        raise failure if failure is not None else PnRError("unroutable")
    _, cost, loc, routing, timing = best
    pnr = PnRStats(
        place_wall_s=best_stats.get("wall_s", 0.0),
        route_wall_s=best_stats.get("route_wall_s", 0.0),
        total_wall_s=time.perf_counter() - t0,
        anneal_moves=best_stats.get("moves", 0),
        anneal_proposals=best_stats.get("proposals", 0),
        anneal_accepted=best_stats.get("accepted", 0),
        moves_per_s=best_stats.get("moves_per_s", 0.0),
        route_iterations=best_stats.get("route_iterations", 0),
        nets_rerouted=best_stats.get("nets_rerouted", 0),
        candidates=considered,
        portfolio_jobs=jobs,
    )
    compiled = CompiledKernel(
        dfg=dfg,
        fabric=fabric,
        policy=policy,
        criticality=report,
        placement=loc,
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
    max_parallelism: int = 32,
    mem_mode: str = "raw",
    seed: int = 0,
    anneal_moves: int | None = None,
    portfolio_jobs: int = 1,
    portfolio_restarts: int = 1,
    profile: tuple[dict | None, dict | None] | None = None,
    node_weights: dict[int, float] | None = None,
) -> CompiledKernel:
    """Compile ``kernel``, searching the parallelism degree if unspecified.

    With ``parallelism=None`` the flow raises the degree until PnR fails
    (effcc's automatic parallelization) and keeps the degree with the best
    *estimated throughput* — parallelism divided by the PnR-chosen clock
    divider — matching the paper's "chose the one that achieved optimal
    performance". A congested high-degree design that forces a slow fabric
    clock loses to a leaner one that keeps the clock fast.
    """
    if parallelism is not None:
        return compile_once(
            kernel, fabric, arch, policy, parallelism, mem_mode, seed,
            anneal_moves, portfolio_jobs, portfolio_restarts, profile,
            node_weights,
        )
    t0 = time.perf_counter()
    best: CompiledKernel | None = None
    best_score = 0.0
    tried = 0
    for degree in _search_degrees(max_parallelism):
        try:
            candidate = compile_once(
                kernel, fabric, arch, policy, degree, mem_mode, seed,
                anneal_moves, portfolio_jobs, portfolio_restarts, profile,
                node_weights,
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


def _search_degrees(max_parallelism: int) -> list[int]:
    """The degrees the automatic search tries, in increasing order.

    Finer than doubling (3, 6, 12, ... included) so the search packs the
    fabric as tightly as effcc's iterative parallelization does.
    """
    degrees = sorted(
        {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} | {max_parallelism}
    )
    return [d for d in degrees if d <= max_parallelism]
