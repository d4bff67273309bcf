"""Equivalence suite for the incremental PnR hot path.

The incremental structures (the compiled-problem anneal, the bounded
route search, the optimized greedy seeding) are *optimizations, not
approximations*: every test here asserts exact — mostly bit-exact —
agreement with a reference. For the anneal and the seeding that is the
naive full-recompute loop of ``tests/pnr_reference.py``, which no code
in ``src/`` can reach. The router is a full reroute per pass; its
reference is ``route_design(check=True)``, which repeats every bounded
search with no bound.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import random
import tracemalloc

import pytest

from benchmarks.e2e.digests import pnr_digest
from repro.arch.fabric import monaco
from repro.check.pnr import verify_placement, verify_routing
from repro.arch.noc import build_channel_graph
from repro.arch.params import ArchParams
from repro.arch.pe import PE
from repro.core.policy import DOMAIN_AWARE, EFFCC, PlacementPolicy
from repro.dfg.graph import DFG, Node, PortRef
from repro.dfg.lower import lower_kernel
from repro.errors import PnRVerifyError, RoutingError
from repro.pnr.flow import compile_once
from repro.pnr.netlist import build_netlist
from repro.pnr.place import (
    NetlistTables,
    Placement,
    _estimate_margin,
    _fabric_tables,
    _window_segments,
    anneal,
    initial_placement,
    manhattan,
)
from repro.pnr.route import RoutingResult, _check_usage, route_design
from repro.pnr.timing import analyze_timing
from repro.workloads.registry import ALL_WORKLOADS, make_workload

import pnr_reference

#: PnR digests pinned from the pre-incremental implementation (seed 0,
#: tiny scale, monaco 12x12, parallelism 1, default ArchParams). Any
#: change to these means the optimized path no longer reproduces the
#: naive accept/reject trajectory / routing order bit-for-bit.
PINNED_DIGESTS = {
    "dmv": "9ef0ef33e3b65e49",
    "jacobi2d": "8e5724d4f09753e2",
    "heat3d": "c02ce1dd55822afc",
    "spmv": "94c27adc350955c0",
    "spmspm": "a9a976a13af68dad",
    "spmspv": "7af71cb91c4107e1",
    "spadd": "b160e817c7a7c7ed",
    "tc": "4e6b918487c9acf2",
    "mergesort": "a56b1ab3631d4dee",
    "fft": "c5119fe63137bb68",
    "ad": "efc16099c8b95142",
    "ic": "ac777320e2da168f",
    "vww": "e3f94551a613550e",
}


def _netlist(workload: str):
    kernel = make_workload(workload, scale="tiny", seed=0).kernel
    return build_netlist(lower_kernel(kernel))


# -- satellite regressions ----------------------------------------------


def test_route_design_rejects_zero_iterations():
    """max_iters < 1 must raise RoutingError, not UnboundLocalError."""
    netlist = _netlist("dmv")
    fabric = monaco(12, 12)
    placement = initial_placement(
        netlist, fabric, EFFCC, random.Random(0)
    )
    channels = build_channel_graph(fabric, 3, "simple")
    for bad in (0, -1):
        with pytest.raises(RoutingError, match="max_iters"):
            route_design(netlist, placement, channels, max_iters=bad)


def test_max_hops_is_float_end_to_end():
    """RoutingResult and TimingReport agree on float max_hops."""
    assert isinstance(RoutingResult().max_hops, float)
    netlist = _netlist("spmv")
    fabric = monaco(12, 12)
    placement = initial_placement(
        netlist, fabric, EFFCC, random.Random(0)
    )
    channels = build_channel_graph(fabric, 3, "monaco-tracks")
    routing = route_design(netlist, placement, channels)
    assert isinstance(routing.max_hops, float)
    timing = analyze_timing(routing, ArchParams().timing)
    assert isinstance(timing.max_hops, float)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_greedy_seeding_matches_naive(workload, monkeypatch):
    """Deque/dict greedy seeding == the O(n^2) original, per workload."""
    import repro.pnr.place as place_mod

    netlist = _netlist(workload)
    fabric = monaco(12, 12)
    fast = initial_placement(netlist, fabric, EFFCC, random.Random(7))
    monkeypatch.setattr(
        place_mod, "_greedy_rest", pnr_reference._greedy_rest_naive
    )
    slow = initial_placement(netlist, fabric, EFFCC, random.Random(7))
    assert fast.loc == slow.loc


# -- anneal equivalence -------------------------------------------------


def _anneal_both_ways(
    netlist, fabric, policy, seed, moves=4000, node_weights=None, **schedule
):
    """One anneal per loop from the same seed; asserts they agree.

    The fast loop runs twice: as shipped, where its estimate refuses most
    proposals unpriced, and under ``check``, where each of those is also
    priced the full way and a disagreement raises. The third run is the
    tests' reference loop. ``schedule`` is ``t_start`` / ``t_end``.
    Returns the as-shipped fast placement and the naive one.
    """
    placements = []
    outcomes = []
    for loop, check in (
        (anneal, False), (anneal, True), (pnr_reference.anneal, True)
    ):
        rng = random.Random(seed)
        placement = initial_placement(
            netlist, fabric, policy, rng, node_weights=node_weights
        )
        stats: dict = {}
        cost = loop(
            placement,
            rng,
            moves=moves,
            check=check,
            stats=stats,
            **schedule,
        )
        # All loops must leave the rng at the same point of its stream.
        outcomes.append(
            (cost, stats["moves"], stats["proposals"], stats["accepted"],
             rng.random())
        )
        placements.append(placement)
    fast, checked, naive = placements
    assert fast.loc == naive.loc == checked.loc
    assert outcomes[0] == outcomes[2] == outcomes[1]
    return fast, naive


@pytest.mark.parametrize("workload", ["spmspm", "mergesort"])
@pytest.mark.parametrize("policy", [EFFCC, DOMAIN_AWARE])
@pytest.mark.parametrize("seed", [0, 3])
def test_anneal_incremental_matches_naive(
    workload: str, policy: PlacementPolicy, seed: int
):
    """Same seed -> identical final placement and cost, both paths."""
    fast, _ = _anneal_both_ways(
        _netlist(workload), monaco(12, 12), policy, seed
    )
    assert fast.netlist.place_tables is not None


def _sparse_ids(dfg: DFG) -> DFG:
    """The same graph under node ids ``3 * nid + 7`` (not dense from 0)."""
    out = DFG(dfg.name)
    for nid, node in dfg.nodes.items():
        out.nodes[3 * nid + 7] = dataclasses.replace(
            node,
            nid=3 * nid + 7,
            inputs=[
                PortRef(3 * inp.src + 7) if isinstance(inp, PortRef) else inp
                for inp in node.inputs
            ],
        )
    return out


def _memory_weights(netlist) -> dict[int, float]:
    """A non-trivial override map: distinct weights, one of them zero."""
    mems = [n for n in netlist.cells if netlist.dfg.nodes[n].is_memory()]
    return {nid: (i % 4) * 0.75 for i, nid in enumerate(mems)}


#: Axes the 12x12 / 4000-move / class-weight grid above cannot see. On a
#: square fabric ``y*cols + x`` and ``x*rows + y`` index the same range,
#: so the flat layout is only pinned down by rectangular ones.
WIDER_CASES = {
    "wide-8x16": dict(fabric=(8, 16)),
    "tall-16x8": dict(fabric=(16, 8)),
    "tall-16x8-domain-aware": dict(fabric=(16, 8), policy=DOMAIN_AWARE),
    "node-weights": dict(weights=True),
    "node-weights-wide": dict(weights=True, fabric=(8, 16)),
    "moves-0": dict(moves=0),
    "moves-1": dict(moves=1),
    "moves-default": dict(moves=None),
    "sparse-node-ids": dict(sparse=True),
    "sparse-node-ids-weights-tall": dict(
        sparse=True, weights=True, fabric=(16, 8)
    ),
}


@pytest.mark.parametrize("case", sorted(WIDER_CASES))
def test_anneal_incremental_matches_naive_wider(case: str):
    """The equivalence over fabric shape, overrides, length and node ids."""
    spec = WIDER_CASES[case]
    dfg = lower_kernel(make_workload("spmspm", scale="tiny", seed=0).kernel)
    netlist = build_netlist(_sparse_ids(dfg) if spec.get("sparse") else dfg)
    weights = _memory_weights(netlist) if spec.get("weights") else None
    fast, naive = _anneal_both_ways(
        netlist,
        monaco(*spec.get("fabric", (12, 12))),
        spec.get("policy", EFFCC),
        seed=5,
        moves=spec.get("moves", 4000),
        node_weights=weights,
    )
    assert fast.occupant == naive.occupant
    if spec.get("sparse"):
        assert min(fast.loc) == 7 and max(fast.loc) > len(fast.loc)


@pytest.mark.parametrize("max_window", [12, 16])
@pytest.mark.parametrize("moves", [1, 7, 4000, 25800, 60000])
def test_window_segments_expand_to_the_per_step_schedule(moves, max_window):
    """Run-length segments == the naive loop's window at every step."""
    segments = _window_segments(moves, max_window)
    assert len(segments) <= max_window
    expanded = [w for steps, w in segments for _ in range(steps)]
    assert expanded == [
        max(2, round(max_window * (1.0 - step / moves)))
        for step in range(moves)
    ]


def test_window_segments_of_an_empty_anneal():
    assert _window_segments(0, 12) == []


def test_anneal_leaves_placement_dicts_as_naive_does():
    """``loc`` keeps its key order and pickles to the naive run's bytes.

    ``loc`` is keyed in greedy-placement order, not ``cells`` order; the
    naive loop only ever assigns existing keys, so a write-back that
    re-keys it (``loc.clear()`` + refill) would reorder every artifact
    pickled from it.
    """
    fast, naive = _anneal_both_ways(
        _netlist("mergesort"), monaco(12, 12), EFFCC, seed=1
    )
    assert list(fast.loc) == list(naive.loc)
    assert list(fast.loc) != sorted(fast.loc)
    assert pickle.dumps(dict(fast.loc)) == pickle.dumps(dict(naive.loc))
    assert fast.occupant == naive.occupant
    assert {c: n for n, c in fast.loc.items()} == fast.occupant


def test_anneal_legality_is_pe_supports(monkeypatch):
    """The fast loop's legality mask is ``PE.supports``, as the naive's.

    With ``supports`` patched to also keep ``steer`` off LS PEs, a loop
    that hard-coded "only load/store are restricted" would still move
    steers onto LS PEs and diverge from the naive trajectory.
    """
    original = PE.supports

    def picky(self, op):
        if op == "steer":
            return not self.is_ls
        return original(self, op)

    netlist = _netlist("mergesort")
    assert any(netlist.dfg.nodes[n].op == "steer" for n in netlist.cells)
    # Unpatched fast run on its own fabric: the reference the patched
    # run must differ from, or the patch would be vacuous.
    rng = random.Random(2)
    free = initial_placement(netlist, monaco(12, 12), EFFCC, rng)
    anneal(free, rng, moves=4000)

    monkeypatch.setattr(PE, "supports", picky)
    fabric = monaco(12, 12)
    # The greedy seeding asks the same question: no steer starts on a PE
    # that refuses it (a seeding that hard-coded load/store put 15 there).
    seeded = initial_placement(netlist, fabric, EFFCC, random.Random(2))
    for nid, coord in seeded.loc.items():
        assert fabric.pes[coord].supports(netlist.dfg.nodes[nid].op), nid
    fast, _ = _anneal_both_ways(netlist, fabric, EFFCC, seed=2)
    assert fast.loc != free.loc


# -- the estimate may only reject ---------------------------------------


@pytest.mark.parametrize("quad", [0.0, 1 / 3, 0.5])
@pytest.mark.parametrize("workload", ["spmspm", "fft"])
def test_anneal_matches_naive_on_other_cost_landscapes(
    workload, quad, monkeypatch
):
    """Tie-rich (0, 0.5: every sum exact) and non-dyadic (1/3) weights.

    With exact sums a zero delta is common and must be accepted, as the
    naive loop accepts it; with 1/3 no table entry is a short binary
    fraction, so the estimate and the delta round differently.
    """
    import repro.pnr.place as place_mod

    monkeypatch.setattr(place_mod, "QUAD_WEIGHT", quad)
    # A fresh fabric: FabricTables bakes QUAD_WEIGHT into dist_cost.
    _anneal_both_ways(_netlist(workload), monaco(12, 12), EFFCC, seed=4)


def _weights_by_decade(netlist) -> dict[int, float]:
    mems = [n for n in netlist.cells if netlist.dfg.nodes[n].is_memory()]
    return {nid: 10.0 ** (3 * (i % 7) - 9) for i, nid in enumerate(mems)}


@pytest.mark.parametrize(
    "weights",
    [
        lambda netlist: dict.fromkeys(_weights_by_decade(netlist), 1e9),
        lambda netlist: dict.fromkeys(_weights_by_decade(netlist), 1e-9),
        _weights_by_decade,
    ],
    ids=["1e9", "1e-9", "mixed-decades"],
)
def test_anneal_matches_naive_under_extreme_node_weights(weights):
    """The margin scales with the memory terms; it does not break."""
    netlist = _netlist("mergesort")
    fabric = monaco(12, 12)
    node_weights = weights(netlist)
    _anneal_both_ways(netlist, fabric, EFFCC, seed=6, node_weights=node_weights)
    rng = random.Random(6)
    placement = initial_placement(
        netlist, fabric, EFFCC, rng, node_weights=node_weights
    )
    stats: dict = {}
    anneal(placement, rng, moves=4000, stats=stats)
    # A margin that grew past the deltas would send everything back to
    # the full pricing; it grows with the weights, not faster.
    assert stats["repriced"] < stats["proposals"] // 2


@pytest.mark.parametrize(
    "schedule", [dict(t_end=1e-4), dict(t_start=1e3)], ids=["cold", "hot"]
)
def test_anneal_matches_naive_on_other_schedules(schedule):
    """Cold: the acceptance bound underflows to 0. Hot: it is near 1."""
    _anneal_both_ways(
        _netlist("spmspm"), monaco(12, 12), EFFCC, seed=8, **schedule
    )


def _knot() -> DFG:
    """Seven nodes holding every way two moved cells can share a net.

    1 and 2 each source a net the other sinks, and both sink 0's; 5 sinks
    its own net (a pin no cost counts); 4 and 6 have no consumers.
    """
    dfg = DFG("knot")
    for nid, op, srcs in [
        (0, "source", []),
        (1, "binop", [2, 0]),
        (2, "binop", [1, 0]),
        (3, "load", [1]),
        (4, "store", [3, 2]),
        (5, "carry", [0, 5, 1]),
        (6, "binop", [3, 5]),
    ]:
        dfg.nodes[nid] = Node(
            nid, op, [PortRef(src) for src in srcs], criticality="A"
        )
    return dfg


def test_anneal_matches_naive_where_moved_cells_share_nets(monkeypatch):
    """The hand-built knot on a fabric small enough to swap constantly."""
    netlist = build_netlist(_knot())
    tables = NetlistTables(netlist)
    assert tables.sink_srcs[1] == (0, 2) and tables.sink_srcs[2] == (0, 1)
    assert tables.own_sinks[4] is None and tables.own_sinks[6] is None
    assert tables.own_sinks[5] == (netlist.nets_of[5][-1], (6,))

    # The naive loop swaps or moves on every proposal it prices.
    swapped, moved = set(), set()
    swap, move = Placement.swap, Placement.move
    monkeypatch.setattr(
        Placement, "swap",
        lambda self, a, b: (swapped.add(frozenset((a, b))), swap(self, a, b)),
    )
    monkeypatch.setattr(
        Placement, "move",
        lambda self, nid, coord: (moved.add(nid), move(self, nid, coord)),
    )
    for seed in range(3):
        _anneal_both_ways(netlist, monaco(4, 4), EFFCC, seed, moves=3000)
    assert {frozenset((1, 2)), frozenset((0, 1)), frozenset((3, 4))} <= swapped
    assert {4, 5, 6} <= moved


def test_estimate_margin_is_derived_from_the_tables(monkeypatch):
    """>= 1000x the worst-case rounding error, and that bound holds.

    The worst case is recomputed here from the tables' extremes. Then the
    headroom is taken away: a checked anneal raises when an estimate and
    its delta differ by more than the margin, so passing on the bare
    bound — with non-dyadic costs, so sums do round — shows the rounding
    error stays under it, and the shipped margin 1000x above that.
    """
    import repro.pnr.place as place_mod

    netlist = _netlist("mergesort")
    fabric = monaco(12, 12)
    rng = random.Random(0)
    weights = _weights_by_decade(netlist)
    placement = initial_placement(
        netlist, fabric, EFFCC, rng, node_weights=weights
    )
    nt, ft = NetlistTables(netlist), _fabric_tables(fabric)
    mem_base = [placement.mem_base(nid) for nid in netlist.cells]
    rank = [placement.pe_rank(pe) if pe.is_ls else None for pe in ft.pes]
    margin = _estimate_margin(nt, ft, mem_base, rank)

    # Recounted off the netlist: a cell's incident nets hold at most
    # ``pins`` pins over ``incident`` nets; no term is farther than the
    # fabric's diagonal or heavier than the largest weight at the worst
    # rank.
    pins = max(
        sum(len(set(netlist.nets[i].sinks) - {netlist.nets[i].src}) for i in nets)
        for nets in netlist.nets_of.values()
    )
    incident = max(len(nets) for nets in netlist.nets_of.values())
    diagonal = manhattan((0, 0), (fabric.cols - 1, fabric.rows - 1))
    farthest = diagonal + place_mod.QUAD_WEIGHT * diagonal * diagonal
    heaviest = max(b for b in mem_base if b is not None) * max(
        r for r in rank if r is not None
    )
    largest = 2 * (2 * heaviest + 2 * pins * farthest)
    additions = 2 * (2 * (2 * pins + 2 * incident + 1) + 1)
    assert margin >= 1000 * additions * largest * 2.0**-53 > 0.0
    assert _estimate_margin(nt, ft, [None] * len(mem_base), rank) < margin

    monkeypatch.setattr(place_mod, "ESTIMATE_HEADROOM", 1.0)
    monkeypatch.setattr(place_mod, "QUAD_WEIGHT", 1 / 3)
    _anneal_both_ways(
        netlist, monaco(12, 12), EFFCC, seed=0, node_weights=weights
    )


def _corrupt_sink_srcs(netlist, fabric, placement):
    tables = netlist.place_tables = NetlistTables(netlist)
    cell = max(range(len(netlist.cells)), key=lambda c: len(tables.sink_srcs[c]))
    tables.sink_srcs[cell] = ()


def _corrupt_dist_cost(netlist, fabric, placement):
    # The entry the estimate reads to price moving the first net's first
    # sink away: the sink's row, at the source's position.
    net = netlist.nets[0]
    (sx, sy), (tx, ty) = placement.loc[net.src], placement.loc[net.sinks[0]]
    row = _fabric_tables(fabric).dist_cost[ty * fabric.cols + tx]
    row[sy * fabric.cols + sx] = -1000.0


@pytest.mark.parametrize("corrupt", [_corrupt_sink_srcs, _corrupt_dist_cost])
def test_check_names_an_estimate_that_disagrees_with_the_spec(corrupt):
    """A table corrupted after build is caught by name, not by drift."""
    netlist = _netlist("spmspm")
    fabric = monaco(12, 12)
    rng = random.Random(0)
    placement = initial_placement(netlist, fabric, EFFCC, rng)
    corrupt(netlist, fabric, placement)
    with pytest.raises(PnRVerifyError) as caught:
        anneal(placement, rng, moves=4000, check=True)
    assert caught.value.field == "estimate"
    message = str(caught.value)
    for word in ("estimate", "step", "cells", "est ", "delta", "margin"):
        assert word in message, message


def test_the_estimate_decides_all_but_the_accepted_proposals():
    """What reaches the full pricing, over the 13 kernels at full length.

    A loop that silently always fell back would still be bit-identical,
    and merely run at the old speed; this is where it fails instead.
    """
    proposals = accepted = repriced = 0
    fabric = monaco(12, 12)
    for workload in ALL_WORKLOADS:
        rng = random.Random(0)
        placement = initial_placement(_netlist(workload), fabric, EFFCC, rng)
        stats: dict = {}
        anneal(placement, rng, stats=stats)
        assert stats["accepted"] <= stats["repriced"] <= stats["proposals"]
        proposals += stats["proposals"]
        accepted += stats["accepted"]
        repriced += stats["repriced"]
    assert repriced - accepted <= 0.01 * proposals
    assert repriced <= 0.05 * proposals

    # The naive loop and a checked one price every proposal the full way.
    for loop, kwargs in ((pnr_reference.anneal, {}), (anneal, dict(check=True))):
        rng = random.Random(0)
        placement = initial_placement(_netlist("dmv"), fabric, EFFCC, rng)
        stats = {}
        loop(placement, rng, stats=stats, **kwargs)
        assert stats["repriced"] == stats["proposals"] > stats["accepted"]


#: Peak traced bytes of the anneal below at the parent of the compiled
#: problem (CPython 3.11), whose per-step ``(window, span, bits)`` table
#: alone held ~26 000 tuples for ``ic``.
PARENT_ANNEAL_PEAK_BYTES = 1_986_688


def test_anneal_peak_memory_is_no_higher_than_the_per_step_table_was():
    """Tables included, one default-length anneal stays below."""
    netlist = _netlist("ic")
    fabric = monaco(12, 12)
    rng = random.Random(0)
    placement = initial_placement(netlist, fabric, EFFCC, rng)
    gc.collect()
    tracemalloc.start()
    try:
        anneal(placement, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PARENT_ANNEAL_PEAK_BYTES


def test_anneal_tables_die_with_their_netlist_and_fabric():
    """Nothing the anneal builds outlives the objects it hangs off.

    A per-``moves`` schedule cache or a module-level swap memo (both
    tried, both cost tens of MiB over a sweep) would survive the drop.
    """
    import repro.pnr.place as place_mod

    gc.collect()
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        for workload in ("dmv", "spmspm", "ic"):
            netlist = _netlist(workload)
            fabric = monaco(12, 12)
            rng = random.Random(0)
            placement = initial_placement(netlist, fabric, EFFCC, rng)
            anneal(placement, rng)
            assert netlist.place_tables is not None
            assert fabric.place_tables is not None
        del netlist, fabric, placement
        gc.collect()
        residue = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    # One 12x12 distance table alone is ~170 KiB.
    assert residue < 64 * 1024
    for name, value in vars(place_mod).items():
        if name.startswith("__"):
            continue
        assert not isinstance(value, (list, dict, set, tuple)), name
        assert not hasattr(value, "cache_info"), name


def test_anneal_drift_check_is_clean():
    """check=True accepts a full default-length anneal (no drift)."""
    netlist = _netlist("fft")
    fabric = monaco(12, 12)
    rng = random.Random(0)
    placement = initial_placement(netlist, fabric, EFFCC, rng)
    anneal(placement, rng, check=True)


# -- routing equivalence ------------------------------------------------


def _placed(workload, tracks=3, model="simple"):
    """``route_design``'s three arguments for a briefly annealed kernel."""
    netlist = _netlist(workload)
    fabric = monaco(12, 12)
    rng = random.Random(0)
    placement = initial_placement(netlist, fabric, EFFCC, rng)
    anneal(placement, rng, moves=2000)
    return netlist, placement, build_channel_graph(fabric, tracks, model)


def _routed(workload, tracks, model, check):
    return route_design(*_placed(workload, tracks, model), check=check)


@pytest.mark.parametrize(
    "workload,tracks,model",
    [
        ("spmv", 3, "simple"),  # converges in one pass
        ("mergesort", 3, "monaco-tracks"),
        # Scarce tracks force deep negotiation (3-8 passes).
        ("tc", 2, "simple"),
        ("ic", 3, "simple"),
        ("vww", 3, "simple"),
        ("fft", 2, "simple"),
        ("tc", 2, "monaco-tracks"),
    ],
)
def test_route_incremental_matches_full(workload, tracks, model):
    """Every pass reroutes every net; checking changes nothing.

    No net is ever clean enough to skip (pass 2 follows one in which every
    held channel changed occupancy, each later pass one that ends by
    ripping an overused channel), so the one pass is a full reroute. The
    checked call repeats each search unbounded and must return the
    unchecked call's result, ``nets_rerouted`` included.
    """
    checked = _routed(workload, tracks, model, check=True)
    assert checked == _routed(workload, tracks, model, check=False)
    routable = sum(
        1 for net in _netlist(workload).nets if set(net.sinks) - {net.src}
    )
    assert len(checked.sink_hops) == routable
    assert checked.nets_rerouted == routable * checked.iterations


def test_route_unroutable_raises_in_both_modes():
    """Scarce-track overflow raises RoutingError, checked or not."""
    for check in (True, False):
        with pytest.raises(RoutingError, match="unroutable"):
            _routed("vww", 2, "simple", check=check)


def test_check_reads_a_bounded_search_without_a_path_as_wrong(monkeypatch):
    """No path inside the bound is a broken bound, not a full fabric.

    The bound is the price of a path the search then explores, so a
    bounded search that comes back empty while the unbounded one routes
    is a wrong answer: checked, it is refused by name as such, where an
    unchecked call can only report the RoutingError the degree search
    backs off on.
    """
    import repro.pnr.route as route_mod

    real = route_mod._route_net

    def pathless(channels, index, *rest, bounded=True):
        if index == 5 and bounded:
            raise RoutingError(f"net {index}: no path")
        return real(channels, index, *rest, bounded=bounded)

    monkeypatch.setattr(route_mod, "_route_net", pathless)
    args = _placed("tc", 2, "simple")
    with pytest.raises(RoutingError, match="net 5: no path"):
        route_design(*args)
    with pytest.raises(PnRVerifyError, match="^net 5: the bounded") as caught:
        route_design(*args, check=True)
    assert caught.value.net == 5


def test_check_usage_detects_drift():
    """The check=True usage recount raises on inconsistent accounting."""
    routes = {0: {0, 1}, 1: {1}}
    _check_usage([1, 2, 0], routes)  # consistent: no raise
    with pytest.raises(PnRVerifyError, match="usage accounting drift"):
        _check_usage([1, 1, 0], routes)


# -- the bounded search ---------------------------------------------------


@pytest.mark.parametrize(
    "workload,parent_pops_per_net", [("spmspv", 25.68), ("ic", 42.96)]
)
def test_route_search_stays_inside_the_bound(
    workload, parent_pops_per_net, monkeypatch
):
    """Heap pops per routed net: deterministic, and a third of the flood's.

    The tuple/dict Dijkstra this search replaced (commit 57a7eb2) flooded
    outward from the whole tree for every sink: 1,053 pops over spmspv's
    41 routed nets (25.68 a net) and 22,338 over ic's 520 (42.96) on this
    placement. The bounded search pops 258 (6.29) and 6,372 (12.25). A
    wall clock cannot hold that on a shared host; this count can, and it
    fails at the parent.
    """
    import heapq

    pops = []

    def counting_pop(heap, _pop=heapq.heappop):
        pops[-1] += 1
        return _pop(heap)

    monkeypatch.setattr(heapq, "heappop", counting_pop)
    per_net = []
    for _ in range(2):
        pops.append(0)
        routing = route_design(*_placed(workload))
        per_net.append(pops[-1] / routing.nets_rerouted)
    assert per_net[0] == per_net[1]
    assert 1.0 <= per_net[0] <= parent_pops_per_net / 3


@pytest.mark.parametrize("model", ["simple", "monaco-tracks"])
def test_check_refuses_a_bound_that_is_not_a_lower_bound(model):
    """``check`` repeats each search unbounded and compares.

    Tables built with ``unit`` doubled overshoot, so the search drops
    cells the cheapest path needs: it finds a dearer tree or none, and
    either way the refusal names the net.
    """
    netlist, placement, channels = _placed("ic", 3, model)
    route_design(netlist, placement, channels, check=True)
    channels.lower_x = [[2 * b for b in row] for row in channels.lower_x]
    channels.lower_y = [[2 * b for b in row] for row in channels.lower_y]
    with pytest.raises(PnRVerifyError, match=r"^net \d+: ") as caught:
        route_design(netlist, placement, channels, check=True)
    assert caught.value.net is not None


def test_check_compares_each_bounded_tree_with_the_unbounded_one():
    """A bound that prunes the cheapest path but leaves a dearer one.

    One track. Net 0 runs (0,0) -> (7,0) along row 0; net 1, (1,0) ->
    (6,0), then prices its walk over five full channels at 7.5 and finds
    the detour through row 1 at 7. A lower bound one too high off row 0
    drops the detour (1 + 6 + 1 > 7.5) and keeps the walk, so the bounded
    search succeeds, with the wrong tree; only the comparison sees it.
    """
    from types import SimpleNamespace

    from repro.arch.noc import ChannelGraph
    from repro.pnr.netlist import Net

    netlist = SimpleNamespace(nets=[Net(0, (1,)), Net(2, (3,))])
    placement = SimpleNamespace(
        loc={0: (0, 0), 1: (7, 0), 2: (1, 0), 3: (6, 0)}
    )
    channels = ChannelGraph(monaco(8, 8), 1)
    routing = route_design(netlist, placement, channels, max_iters=1, check=True)
    assert routing.sink_hops == {0: {1: 7.0}, 1: {3: 7.0}}
    assert ((1, 0), (1, 1), "cardinal") in routing.net_channels[1]

    channels.lower_y = [
        [bound + (cell % 8 != 0) for cell, bound in enumerate(row)]
        for row in channels.lower_y
    ]
    with pytest.raises(PnRVerifyError, match="net 1: the bounded search"):
        route_design(netlist, placement, channels, max_iters=1, check=True)


# -- the pinned end-to-end digests --------------------------------------


@pytest.mark.parametrize("workload", sorted(PINNED_DIGESTS))
def test_pinned_compile_digest(workload):
    """compile_once reproduces the pre-incremental artifact exactly, and
    the independent verifiers accept it."""
    kernel = make_workload(workload, scale="tiny", seed=0).kernel
    compiled = compile_once(
        kernel, monaco(12, 12), ArchParams(), parallelism=1, seed=0
    )
    assert pnr_digest(compiled) == PINNED_DIGESTS[workload]
    verify_placement(compiled, ArchParams())
    verify_routing(compiled, ArchParams())
    assert compiled.pnr is not None
