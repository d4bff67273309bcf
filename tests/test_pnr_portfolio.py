"""Portfolio (process-pool) compile path: equivalence and telemetry.

``compile_once(portfolio_jobs > 1)`` farms the mem-scale candidates out
to a process pool; the selection loop replays the exact serial
tie-break, so the compiled artifact must be *bit-identical* to the
serial path's. These tests pin that contract, the PnRStats telemetry
that rides on every compile, and its plumbing into run manifests.
"""

from __future__ import annotations

import pickle
import random

import pytest

from benchmarks.e2e.digests import pnr_digest
from repro.arch.fabric import monaco
from repro.arch.noc import build_channel_graph
from repro.arch.params import ArchParams
from repro.core.criticality import analyze_criticality
from repro.core.policy import DOMAIN_AWARE, EFFCC
from repro.dfg.lower import lower_kernel
from repro.errors import PnRError
from repro.exp.configs import MONACO
from repro.exp.runner import compile_cached, run_config
from repro.exp.spec import RunSpec
from repro.obs.manifest import build_manifest, stable_view
from repro.pnr.flow import (
    MEM_SCALE_SCHEDULE,
    compile_once,
    shutdown_portfolio_pool,
)
from repro.pnr.netlist import build_netlist
from repro.pnr.place import anneal, initial_placement
from repro.pnr.route import route_design
from repro.pnr.timing import analyze_timing
from repro.workloads.registry import make_workload


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    """Workers die with the module; shutdown twice proves idempotence."""
    yield
    shutdown_portfolio_pool()
    shutdown_portfolio_pool()


def _compile(workload: str, **kwargs):
    kernel = make_workload(workload, scale="tiny", seed=0).kernel
    return compile_once(
        kernel, monaco(12, 12), ArchParams(), parallelism=1, seed=0,
        **kwargs,
    )


@pytest.mark.parametrize("workload", ["spmv", "vww"])
def test_portfolio_matches_serial(workload):
    """Pooled candidate evaluation picks the exact serial winner."""
    serial = _compile(workload, portfolio_jobs=1)
    pooled = _compile(workload, portfolio_jobs=2)
    assert pooled.placement == serial.placement
    assert pooled.timing.clock_divider == serial.timing.clock_divider
    assert pooled.place_cost == serial.place_cost
    assert pnr_digest(pooled) == pnr_digest(serial)


def test_portfolio_restarts_match_serial():
    """Extra placement restarts: same winner either way, more candidates."""
    serial = _compile("spmspv", portfolio_jobs=1, portfolio_restarts=2)
    pooled = _compile("spmspv", portfolio_jobs=3, portfolio_restarts=2)
    assert pnr_digest(pooled) == pnr_digest(serial)
    assert serial.pnr.candidates == pooled.pnr.candidates >= 1


def test_three_jobs_match_serial_and_workers_build_their_own_tables():
    """One worker per mem scale, each annealing an unpickled netlist.

    The anneal tables hang off the netlist and the fabric but never
    travel with them: a clone arrives bare, builds its own, and anneals
    to the same placement.
    """
    serial = _compile("mergesort", portfolio_jobs=1)
    pooled = _compile("mergesort", portfolio_jobs=3)
    assert pooled.pnr.portfolio_jobs == 3
    assert pnr_digest(pooled) == pnr_digest(serial)

    netlist = build_netlist(serial.dfg)
    fabric = monaco(12, 12)
    outcomes = []
    for _ in range(2):
        rng = random.Random(0)
        placement = initial_placement(netlist, fabric, EFFCC, rng)
        cost = anneal(placement, rng, moves=4000)
        outcomes.append((cost, dict(placement.loc)))
        assert netlist.place_tables is not None
        assert fabric.place_tables is not None
        assert pickle.dumps(fabric) == pickle.dumps(monaco(12, 12))
        netlist, fabric = pickle.loads(pickle.dumps((netlist, fabric)))
        assert netlist.place_tables is None
        assert fabric.place_tables is None
    assert outcomes[0] == outcomes[1]


def _compile_seeding_every_candidate(
    kernel, fabric, arch, policy, seed, **leaf
):
    """The serial flow as it was: each mem-scale candidate seeds itself.

    ``leaf`` goes to both leaf functions: ``incremental=False`` runs the
    whole flow on the reference anneal and the full-reroute router.
    """
    dfg = lower_kernel(kernel)
    analyze_criticality(dfg)
    netlist = build_netlist(dfg)
    channels = build_channel_graph(fabric, arch.noc_tracks, arch.noc_model)
    best = None
    for considered, mem_scale in enumerate(MEM_SCALE_SCHEDULE, 1):
        rng = random.Random(seed)
        placement = initial_placement(
            netlist, fabric, policy, rng, mem_scale=mem_scale
        )
        cost = anneal(placement, rng, **leaf)
        try:
            routing = route_design(netlist, placement, channels, **leaf)
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
@pytest.mark.parametrize("jobs", [1, 3])
def test_one_seeding_serves_every_mem_scale_candidate(
    policy, jobs, monkeypatch
):
    """``initial_placement`` runs once per compile, in this process.

    ``DOMAIN_AWARE`` seeding shuffles with the candidate's rng, so the
    rng state after seeding has to travel with the seed placement; and
    ``loc`` must keep its key order, which the artifact pickles.
    """
    import repro.pnr.flow as flow

    kernel = make_workload("fft", scale="tiny", seed=0).kernel
    arch = ArchParams()
    (divider, cost, loc, routing), considered = (
        _compile_seeding_every_candidate(kernel, monaco(12, 12), arch, policy, 0)
    )
    assert considered == len(MEM_SCALE_SCHEDULE)

    seedings = []

    def counted(*args, **kwargs):
        seedings.append(kwargs)
        return initial_placement(*args, **kwargs)

    monkeypatch.setattr(flow, "initial_placement", counted)
    compiled = compile_once(
        kernel, monaco(12, 12), arch, policy, parallelism=1, seed=0,
        portfolio_jobs=jobs,
    )
    assert len(seedings) == 1
    assert compiled.pnr.candidates == considered
    assert compiled.timing.clock_divider == divider
    assert compiled.place_cost == cost
    assert list(compiled.placement.items()) == list(loc.items())
    assert compiled.routing.net_channels == routing.net_channels


def test_pnr_stats_populated():
    """Every compile carries its compile-time telemetry."""
    compiled = _compile("dmv", portfolio_jobs=2)
    stats = compiled.pnr
    assert stats is not None
    assert stats.portfolio_jobs == 2
    assert stats.anneal_moves > 0
    assert stats.anneal_proposals >= stats.anneal_accepted > 0
    assert stats.route_iterations >= 1
    assert stats.candidates >= 1
    assert stats.total_wall_s > 0.0
    d = stats.to_dict()
    assert d["anneal_moves"] == stats.anneal_moves


def test_flow_on_the_reference_leaves_matches_the_compiled_artifact():
    """Reference anneal + full-reroute router, candidate by candidate,
    land on the artifact ``compile_once`` produces."""
    kernel = make_workload("dmv", scale="tiny", seed=0).kernel
    (divider, cost, loc, routing), considered = (
        _compile_seeding_every_candidate(
            kernel, monaco(12, 12), ArchParams(), EFFCC, 0, incremental=False
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
