"""Per-node placement-weight overrides and the feedback-directed loop.

Two contracts are load-bearing:

* **Bit-identity of the no-override path.** ``PlacementPolicy.node_weight``
  with no override map (or an empty one) must return the exact float the
  class-weight path returns, so every pinned pre-override compile digest
  — the whole :data:`test_pnr_incremental.PINNED_DIGESTS` set — survives
  the refactor unchanged.
* **Determinism of the loop.** Two FDO runs of the same point, cold or
  warm cache, must produce byte-identical round journals.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from benchmarks.e2e.digests import pnr_digest
from repro.arch.fabric import monaco
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC, PlacementPolicy
from repro.exp.cache import GLOBAL_CACHE
from repro.exp.configs import MONACO
from repro.exp.fdo import FdoRound, blame_to_weights, run_fdo
from repro.exp.runner import compile_point
from repro.exp.spec import RunSpec, weight_map_digest
from repro.obs.critpath import blame_shares
from repro.pnr.flow import compile_once
from repro.pnr.netlist import build_netlist
from repro.dfg.lower import lower_kernel
from repro.pnr.place import anneal, initial_placement
from repro.workloads.registry import make_workload

import pnr_reference
from test_pnr_incremental import PINNED_DIGESTS


def _netlist(workload: str):
    kernel = make_workload(workload, scale="tiny", seed=0).kernel
    return build_netlist(lower_kernel(kernel))


# -- node_weight override semantics --------------------------------------


def test_node_weight_no_overrides_is_class_weight():
    """The fallback returns the *identical* float, not a recomputation."""
    for klass in ("A", "B", "C"):
        assert EFFCC.node_weight(klass, 7) == EFFCC.weight(klass)
        assert EFFCC.node_weight(klass, 7, None) == EFFCC.weight(klass)
        assert EFFCC.node_weight(klass, 7, {}) == EFFCC.weight(klass)


def test_node_weight_override_hits_and_misses():
    overrides = {3: 5.5}
    assert EFFCC.node_weight("C", 3, overrides) == 5.5
    # A node absent from the map falls back to its class weight.
    assert EFFCC.node_weight("A", 4, overrides) == EFFCC.weight("A")


def test_placement_normalizes_empty_override_map():
    """{} must be exactly the class-weight path (None), not a third mode."""
    netlist = _netlist("dmv")
    placement = initial_placement(
        netlist, monaco(12, 12), EFFCC, random.Random(0), node_weights={}
    )
    assert placement.node_weights is None


# -- bit-identity of the no-override compile path ------------------------


@pytest.mark.parametrize("workload", sorted(PINNED_DIGESTS))
def test_empty_override_map_preserves_pinned_digest(workload):
    """compile_once(node_weights={}) == the pre-override pinned artifact."""
    kernel = make_workload(workload, scale="tiny", seed=0).kernel
    compiled = compile_once(
        kernel,
        monaco(12, 12),
        ArchParams(),
        parallelism=1,
        seed=0,
        node_weights={},
    )
    assert pnr_digest(compiled) == PINNED_DIGESTS[workload]
    assert "node_weights" not in compiled.meta


def test_nonempty_override_map_changes_the_artifact():
    """Inverting the class weights (demote A, promote C) must steer the
    anneal somewhere else."""
    kernel = make_workload("spmv", scale="tiny", seed=0).kernel
    base = compile_once(
        kernel, monaco(12, 12), ArchParams(), parallelism=1, seed=0
    )
    weights = {
        n.nid: (0.5 if n.criticality == "A" else 9.0)
        for n in base.dfg.memory_nodes()
    }
    overridden = compile_once(
        kernel,
        monaco(12, 12),
        ArchParams(),
        parallelism=1,
        seed=0,
        node_weights=weights,
    )
    assert overridden.meta["node_weights"] == weights
    assert pnr_digest(overridden) != pnr_digest(base)


# -- incremental anneal with overrides -----------------------------------


@pytest.mark.parametrize("workload", ["spmspm", "mergesort"])
@pytest.mark.parametrize("seed", [0, 3])
def test_anneal_with_overrides_incremental_matches_naive(workload, seed):
    """Per-node weights through the cached costs == naive recompute path."""
    netlist = _netlist(workload)
    fabric = monaco(12, 12)
    mems = [n.nid for n in netlist.dfg.memory_nodes()]
    weights = {
        nid: 1.0 + (i % 5) * 1.75 for i, nid in enumerate(sorted(mems))
    }

    outcomes = []
    for loop in (anneal, pnr_reference.anneal):
        rng = random.Random(seed)
        placement = initial_placement(
            netlist, fabric, EFFCC, rng, node_weights=weights
        )
        cost = loop(placement, rng, moves=4000, check=True)
        outcomes.append((dict(placement.loc), cost))
    (fast_loc, fast_cost), (naive_loc, naive_cost) = outcomes
    assert fast_loc == naive_loc
    assert fast_cost == naive_cost


# -- blame -> weights mapping --------------------------------------------


def test_blame_to_weights_interpolates_c_to_a():
    blame = {
        1: {"share": 0.5},
        2: {"share": 0.25},
        3: {"share": 0.0},
    }
    weights = blame_to_weights(blame, EFFCC)
    assert weights[1] == EFFCC.weight("A")
    assert weights[3] == EFFCC.weight("C")
    w_a, w_c = EFFCC.weight("A"), EFFCC.weight("C")
    assert weights[2] == round(w_c + (w_a - w_c) * 0.5, 6)


def test_blame_to_weights_degenerate_is_empty():
    assert blame_to_weights({}, EFFCC) == {}
    assert blame_to_weights({1: {"share": 0.0}}, EFFCC) == {}


def test_blame_shares_round_trips_through_json():
    report = {
        "system_cycles": 200,
        "memory_nodes": {
            "7": {
                "cycles": 50,
                "class": "C",
                "op": "load",
                "label": "x",
            }
        },
    }
    shares = blame_shares(json.loads(json.dumps(report)))
    assert shares == {
        7: {
            "cycles": 50,
            "share": 0.25,
            "class": "C",
            "op": "load",
            "label": "x",
        }
    }


def test_weight_map_digest_is_order_insensitive():
    a = {3: 1.5, 11: 8.0}
    b = {11: 8.0, 3: 1.5}
    assert weight_map_digest(a) == weight_map_digest(b)
    assert weight_map_digest(a) != weight_map_digest({3: 1.5, 11: 7.0})


# -- the feedback loop ---------------------------------------------------


def _spec(workload: str) -> RunSpec:
    """``workload``'s tiny Monaco point, the loop's round 0."""
    return RunSpec(workload, MONACO, scale="tiny")


def test_fdo_round_journal_is_deterministic_cold_vs_warm():
    """Byte-identical journals from a cold and a warm compile cache."""
    GLOBAL_CACHE.clear()
    journals, misses = [], []
    for _ in range(2):
        res = run_fdo(_spec("spmspv"), rounds=2)
        journals.append(
            json.dumps(res.to_dict(), sort_keys=True).encode()
        )
        misses.append(GLOBAL_CACHE.misses)
    assert journals[0] == journals[1]
    # The second run was served from the cache: it compiled nothing.
    assert misses[1] == misses[0] and GLOBAL_CACHE.hits > 0


def test_fdo_improves_spmv_with_class_c_recall_miss():
    """spmv@tiny is a static recall miss — class-C nodes carry ~4% of
    the measured makespan each — and the loop beats static EFFCC."""
    GLOBAL_CACHE.clear()
    res = run_fdo(_spec("spmv"), rounds=2)
    round0 = res.rounds[0]
    assert round0.next_weights, "round 0 must propose weights"
    # Recall-miss evidence, from the journal itself: some node the
    # static analysis put in class C was proposed a weight well above
    # the class-C weight by measured blame.
    compiled = compile_point(
        replace(_spec("spmv"), parallelism=round0.parallelism)
    )[1]
    classes = {
        n.nid: n.criticality for n in compiled.dfg.memory_nodes()
    }
    w_c = EFFCC.weight("C")
    missed = [
        nid
        for nid, weight in round0.next_weights.items()
        if classes.get(nid) == "C" and weight >= w_c + 0.5
    ]
    assert missed, "expected a class-C node with significant blame"
    # The loop journals the static round then improves on it.
    assert res.best.round > 0
    assert res.best_cycles < res.baseline_cycles
    assert res.baseline_cycles == round0.cycles


def test_fdo_pins_parallelism_across_rounds():
    GLOBAL_CACHE.clear()
    res = run_fdo(_spec("dmv"), rounds=2)
    degrees = {r.parallelism for r in res.rounds}
    assert len(degrees) == 1


def test_fdo_round_record_has_no_volatile_fields():
    rnd = FdoRound(
        round=1,
        weights={5: 2.0},
        parallelism=2,
        divider=2,
        cycles=100,
        next_weights={5: 2.5},
    )
    record = rnd.to_record(workload="w", config="c")
    assert "timestamp" not in record
    assert "wall_time_s" not in record
    assert record["weights"] == {"5": 2.0}
    assert record["weights_digest"] == weight_map_digest({5: 2.0})


def test_fdo_manifest_journal_matches_result(tmp_path):
    GLOBAL_CACHE.clear()
    path = tmp_path / "fdo.jsonl"
    res = run_fdo(_spec("spmspv"), rounds=1, manifest_path=path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(res.rounds)
    for line, rnd in zip(lines, res.rounds):
        record = json.loads(line)
        assert record["round"] == rnd.round
        assert record["cycles"] == rnd.cycles
        assert record["kind"] == "fdo-round"


# -- cache-key separation ------------------------------------------------


def test_compile_point_keys_profile_and_weights_separately():
    """Static, profile-guided and weight-overridden compiles of the same
    instance never alias each other in the cache."""
    GLOBAL_CACHE.clear()
    point = replace(_spec("spmspv"), parallelism=1)
    static = compile_point(point)[1]
    guided = compile_point(replace(point, profile_guided=True))[1]
    mems = [n.nid for n in static.dfg.memory_nodes()]
    weighted = compile_point(replace(point, node_weights=((mems[0], 8.0),)))[1]
    assert static is not guided
    assert static is not weighted
    assert guided is not weighted
    assert "profile" in guided.meta and "profile" not in static.meta
    assert weighted.meta["node_weights"] == {mems[0]: 8.0}
    # And a repeat static compile is still a cache hit on the old key.
    assert compile_point(point)[1] is static
