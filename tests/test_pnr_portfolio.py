"""The mem-scale schedule: one serial candidate loop per compile.

``compile_once`` seeds one placement, anneals a copy of it under each
``MEM_SCALE_SCHEDULE`` entry, and keeps the ``(clock_divider,
place_cost)`` best routable candidate. These tests pin that loop against
a per-candidate reference, its failure handling, the PnRStats telemetry
that rides on every compile, and its plumbing into run manifests.
"""

from __future__ import annotations

import io
import pickle
import random

import pytest

from repro.arch.fabric import Fabric, monaco
from repro.arch.noc import build_channel_graph
from repro.arch.params import ArchParams
from repro.core.criticality import analyze_criticality
from repro.core.policy import DOMAIN_AWARE, EFFCC
from repro.dfg.lower import lower_kernel
from repro.errors import PnRError, RoutingError
from repro.exp.configs import MONACO
from repro.exp.runner import compile_cached, run_config
from repro.exp.spec import RunSpec
from repro.ir.transform import parallelize
from repro.obs.manifest import build_manifest, stable_view
from repro.pnr.flow import MEM_SCALE_SCHEDULE, compile_once
from repro.pnr.netlist import build_netlist
from repro.pnr.place import anneal, initial_placement
from repro.pnr.route import route_design
from repro.pnr.timing import analyze_timing
from repro.workloads.registry import make_workload

import pnr_reference


def _compile(workload: str, **kwargs):
    kernel = make_workload(workload, scale="tiny", seed=0).kernel
    return compile_once(
        kernel, monaco(12, 12), ArchParams(), parallelism=1, seed=0,
        **kwargs,
    )


def _compile_seeding_every_candidate(
    kernel, fabric, arch, policy, seed, parallelism=1, loop=anneal,
    check=False,
):
    """The serial flow as it was: each mem-scale candidate seeds itself.

    ``loop`` anneals each candidate (``pnr_reference.anneal`` is the
    tests' full-recompute loop) and ``check`` goes to the router, whose
    check mode repeats every bounded search with no bound.
    """
    program = parallelize(kernel, parallelism) if parallelism > 1 else kernel
    dfg = lower_kernel(program)
    analyze_criticality(dfg)
    netlist = build_netlist(dfg)
    channels = build_channel_graph(fabric, arch.noc_tracks, arch.noc_model)
    best = None
    for considered, mem_scale in enumerate(MEM_SCALE_SCHEDULE, 1):
        rng = random.Random(seed)
        placement = initial_placement(
            netlist, fabric, policy, rng, mem_scale=mem_scale
        )
        cost = loop(placement, rng)
        try:
            routing = route_design(netlist, placement, channels, check=check)
        except PnRError:
            continue
        divider = analyze_timing(routing, arch.timing).clock_divider
        candidate = (divider, cost, placement.loc, routing)
        if best is None or candidate[:2] < best[:2]:
            best = candidate
        if divider <= 2:
            break
    return best, considered


@pytest.mark.parametrize("policy", [EFFCC, DOMAIN_AWARE], ids=lambda p: p.name)
@pytest.mark.parametrize("parallelism", [1, 3])
def test_one_seeding_serves_every_mem_scale_candidate(
    policy, parallelism, monkeypatch
):
    """``initial_placement`` runs once per compile, at any degree.

    ``DOMAIN_AWARE`` seeding shuffles with the candidate's rng, so every
    candidate must anneal from the rng state seeding left; and ``loc``
    must keep its key order, which the artifact pickles. fft on 16x16
    walks the whole schedule at both degrees.
    """
    import repro.pnr.flow as flow

    kernel = make_workload("fft", scale="tiny", seed=0).kernel
    arch = ArchParams()
    (divider, cost, loc, routing), considered = (
        _compile_seeding_every_candidate(
            kernel, monaco(16, 16), arch, policy, 0, parallelism
        )
    )
    assert considered == len(MEM_SCALE_SCHEDULE)

    seedings = []

    def counted(*args, **kwargs):
        seedings.append(kwargs)
        return initial_placement(*args, **kwargs)

    monkeypatch.setattr(flow, "initial_placement", counted)
    compiled = compile_once(
        kernel, monaco(16, 16), arch, policy, parallelism, seed=0
    )
    assert len(seedings) == 1
    assert compiled.pnr.candidates == considered
    assert compiled.timing.clock_divider == divider
    assert compiled.place_cost == cost
    assert list(compiled.placement.items()) == list(loc.items())
    assert compiled.routing.net_channels == routing.net_channels


def test_a_failed_candidate_lets_a_later_one_win(monkeypatch):
    """A candidate that does not route is skipped, not fatal: the loop
    goes on, counts it, and a later candidate's routing is the one the
    artifact carries."""
    import repro.pnr.flow as flow

    routed = []

    def first_fails(netlist, placement, channels, **kwargs):
        if not routed:
            routed.append(None)
            raise RoutingError(f"mem_scale {placement.mem_scale} unroutable")
        routed.append(route_design(netlist, placement, channels, **kwargs))
        return routed[-1]

    monkeypatch.setattr(flow, "route_design", first_fails)
    compiled = _compile("fft")
    assert len(routed) == len(MEM_SCALE_SCHEDULE)
    assert compiled.pnr.candidates == len(MEM_SCALE_SCHEDULE)
    assert any(compiled.routing is routing for routing in routed[1:])


def test_no_routable_candidate_raises_the_last_ones_error(monkeypatch):
    import repro.pnr.flow as flow

    raised = []

    def unroutable(netlist, placement, channels, **kwargs):
        raised.append(RoutingError(f"mem_scale {placement.mem_scale}"))
        raise raised[-1]

    monkeypatch.setattr(flow, "route_design", unroutable)
    with pytest.raises(RoutingError) as info:
        _compile("dmv")
    assert len(raised) == len(MEM_SCALE_SCHEDULE)
    assert info.value is raised[-1]


def test_a_compiled_artifact_pickles_no_netlist_and_no_anneal_tables():
    """The compile cache pickles the artifact: it reaches no ``Netlist``
    (so a netlist needs no pickle hook), and its fabric drops the anneal
    tables the compile hung on it."""
    from repro.pnr.netlist import Netlist
    from repro.pnr.place import FabricTables, NetlistTables

    compiled = _compile("mergesort")
    assert compiled.fabric.place_tables is not None
    pickled = set()

    class Spy(pickle.Pickler):
        def persistent_id(self, obj):
            pickled.add(type(obj))
            return None

    Spy(io.BytesIO(), pickle.HIGHEST_PROTOCOL).dump(compiled)
    assert Fabric in pickled
    assert not pickled & {Netlist, NetlistTables, FabricTables}
    assert pickle.loads(pickle.dumps(compiled)).fabric.place_tables is None


def test_pnr_stats_populated():
    """Every compile carries its compile-time telemetry."""
    compiled = _compile("dmv")
    stats = compiled.pnr
    assert stats is not None
    assert stats.anneal_moves > 0
    assert stats.anneal_proposals >= stats.anneal_accepted > 0
    assert stats.route_iterations >= 1
    assert stats.candidates >= 1
    assert stats.total_wall_s > 0.0
    d = stats.to_dict()
    assert d["anneal_moves"] == stats.anneal_moves


def test_flow_on_the_reference_leaves_matches_the_compiled_artifact():
    """Reference anneal + checked router, candidate by candidate, land
    on the artifact ``compile_once`` produces."""
    kernel = make_workload("dmv", scale="tiny", seed=0).kernel
    (divider, cost, loc, routing), considered = (
        _compile_seeding_every_candidate(
            kernel, monaco(12, 12), ArchParams(), EFFCC, 0,
            loop=pnr_reference.anneal, check=True,
        )
    )
    compiled = _compile("dmv")
    assert compiled.pnr.candidates == considered
    assert compiled.timing.clock_divider == divider
    assert compiled.place_cost == cost
    assert list(compiled.placement.items()) == list(loc.items())
    assert compiled.routing.net_channels == routing.net_channels
    assert compiled.routing.sink_hops == routing.sink_hops
    assert compiled.routing.max_hops == routing.max_hops
    assert compiled.routing.iterations == routing.iterations


def test_manifest_carries_pnr_and_stable_view_drops_it():
    """PnRStats lands in the manifest record as volatile telemetry."""
    instance = make_workload("dmv", scale="tiny", seed=0)
    arch = ArchParams()
    compiled = compile_cached(
        instance, monaco(12, 12), arch, parallelism=1, seed=0
    )
    run = run_config(instance, compiled, MONACO, arch)
    record = build_manifest(
        run, RunSpec("dmv", MONACO, scale="tiny", divider=4)
    )
    assert record["pnr"]["anneal_moves"] > 0
    assert record["pnr"]["candidates"] >= 1
    assert "pnr" not in stable_view(record)
