"""Unit tests for netlist extraction and placement."""

import random

import pytest

from repro.arch.fabric import monaco
from repro.core.policy import DOMAIN_AWARE, DOMAIN_UNAWARE, EFFCC
from repro.core.criticality import analyze_criticality
from repro.dfg.lower import lower_kernel
from repro.errors import PlacementError
from repro.ir.builder import KernelBuilder
from repro.pnr.netlist import build_netlist
from repro.pnr.place import (
    Placement,
    _clusters,
    anneal,
    initial_placement,
)

from kernels import zoo_instance


def compiled_netlist(name="join"):
    kernel, _, _ = zoo_instance(name)
    dfg = lower_kernel(kernel)
    analyze_criticality(dfg)
    return build_netlist(dfg)


class TestNetlist:
    def test_cells_cover_all_nodes(self):
        netlist = compiled_netlist()
        assert sorted(netlist.cells) == sorted(netlist.dfg.nodes)

    def test_nets_group_fanout(self):
        netlist = compiled_netlist()
        for net in netlist.nets:
            assert net.sinks == tuple(sorted(set(net.sinks)))
        producers = {net.src for net in netlist.nets}
        assert len(producers) == len(netlist.nets)

    def test_nets_of_indexing(self):
        netlist = compiled_netlist()
        for nid, indices in netlist.nets_of.items():
            for index in indices:
                net = netlist.nets[index]
                assert net.src == nid or nid in net.sinks


class TestInitialPlacement:
    def test_legality(self):
        netlist = compiled_netlist()
        fab = monaco(12, 12)
        placement = initial_placement(
            netlist, fab, EFFCC, random.Random(0)
        )
        for nid, coord in placement.loc.items():
            node = netlist.dfg.nodes[nid]
            assert fab.pes[coord].supports(node.op)
        assert len(set(placement.loc.values())) == len(placement.loc)

    def test_effcc_places_critical_loads_in_d0(self):
        netlist = compiled_netlist("join")
        fab = monaco(12, 12)
        placement = initial_placement(
            netlist, fab, EFFCC, random.Random(0)
        )
        for node in netlist.dfg.memory_nodes():
            if node.criticality == "A":
                assert fab.pes[placement.loc[node.nid]].domain == 0

    def test_too_many_nodes_rejected(self):
        netlist = compiled_netlist("join")
        with pytest.raises(PlacementError):
            initial_placement(netlist, monaco(2, 2), EFFCC, random.Random(0))

    def test_too_many_memory_nodes_rejected(self):
        # Hand-built DFG: more loads than LS PEs, but fewer nodes than PEs.
        from repro.dfg.graph import DFG, PortRef

        dfg = DFG("memheavy")
        dfg.declare_array("a", 4)
        src = dfg.add("source", [])
        for _ in range(10):
            dfg.add("load", [PortRef(src)], array="a", has_ord=False)
        netlist = build_netlist(dfg)
        fab = monaco(4, 4)  # 16 PEs, only 8 LS
        with pytest.raises(PlacementError, match="memory nodes"):
            initial_placement(netlist, fab, EFFCC, random.Random(0))

    def test_deterministic(self):
        netlist = compiled_netlist()
        fab = monaco(12, 12)
        a = initial_placement(netlist, fab, EFFCC, random.Random(7))
        b = initial_placement(netlist, fab, EFFCC, random.Random(7))
        assert a.loc == b.loc


class TestClusters:
    def test_parallel_workers_are_separate_clusters(self):
        from repro.ir.transform import parallelize

        kernel, _, _ = zoo_instance("parphases")
        dfg = lower_kernel(parallelize(kernel, 3))
        analyze_criticality(dfg)
        netlist = build_netlist(dfg)
        clusters = _clusters(netlist)
        # 3 workers x 2 phases, plus broadcast singletons.
        big = [c for c in clusters if len(c) > 3]
        assert len(big) >= 6


class TestAnneal:
    def test_anneal_does_not_increase_cost(self):
        netlist = compiled_netlist()
        fab = monaco(12, 12)
        rng = random.Random(3)
        placement = initial_placement(netlist, fab, EFFCC, rng)
        before = placement.total_cost()
        anneal(placement, rng, moves=4000)
        after = placement.total_cost()
        assert after <= before * 1.05

    def test_anneal_keeps_legality(self):
        netlist = compiled_netlist()
        fab = monaco(12, 12)
        rng = random.Random(3)
        placement = initial_placement(netlist, fab, EFFCC, rng)
        anneal(placement, rng, moves=4000)
        for nid, coord in placement.loc.items():
            assert fab.pes[coord].supports(netlist.dfg.nodes[nid].op)
        occupants = list(placement.occupant.items())
        assert all(placement.loc[n] == c for c, n in occupants)

    def test_incremental_cost_consistency(self):
        netlist = compiled_netlist()
        fab = monaco(12, 12)
        rng = random.Random(5)
        placement = initial_placement(netlist, fab, EFFCC, rng)
        tracked = anneal(placement, rng, moves=2000)
        assert tracked == pytest.approx(placement.total_cost())

    def test_mem_scale_zeroes_pull(self):
        netlist = compiled_netlist()
        fab = monaco(12, 12)
        placement = Placement(netlist, fab, EFFCC, mem_scale=0.0)
        rng = random.Random(0)
        placement2 = initial_placement(
            netlist, fab, EFFCC, rng, mem_scale=0.0
        )
        assert placement2.mem_cost(netlist.cells[0]) == 0.0
        del placement

    def test_domain_unaware_ignores_domains_in_cost(self):
        netlist = compiled_netlist()
        fab = monaco(12, 12)
        placement = initial_placement(
            netlist, fab, DOMAIN_UNAWARE, random.Random(0)
        )
        for nid in netlist.cells:
            assert placement.mem_cost(nid) == 0.0

    def test_domain_aware_cost_positive_for_far_memory(self):
        netlist = compiled_netlist()
        fab = monaco(12, 12)
        placement = initial_placement(
            netlist, fab, DOMAIN_AWARE, random.Random(0)
        )
        mem = netlist.dfg.memory_nodes()[0]
        free_far = [
            pe
            for pe in fab.ls_pes()
            if pe.domain == 3 and pe.coord not in placement.occupant
        ]
        placement.move(mem.nid, free_far[0].coord)
        assert placement.mem_cost(mem.nid) > 0


class TestPolicyIsACompileInput:
    """Regression: the column-preference ablation used to patch
    ``repro.core.policy.COLUMN_STEP`` between two compiles on one
    ``Fabric`` whose cached rank table (``fabric.place_tables``) kept the
    first policy's floats — seeding and ``total_cost()`` saw one step,
    the anneal loop the other."""

    @staticmethod
    def _artifact(policy, fabric):
        from repro.arch.params import ArchParams
        from repro.pnr.flow import compile_kernel
        from repro.workloads.registry import make_workload

        kernel = make_workload("spmspm", scale="small").kernel
        compiled = compile_kernel(kernel, fabric, ArchParams(), policy, seed=0)
        return (
            compiled.placement,
            compiled.place_cost,
            compiled.timing.clock_divider,
        )

    def test_shared_fabric_compiles_match_fresh_fabrics_in_both_orders(self):
        from repro.core.policy import EFFCC_FLAT

        fresh = {
            policy.name: self._artifact(policy, monaco(12, 12))
            for policy in (EFFCC, EFFCC_FLAT)
        }
        assert fresh[EFFCC.name] != fresh[EFFCC_FLAT.name]
        for order in ((EFFCC, EFFCC_FLAT), (EFFCC_FLAT, EFFCC)):
            shared = monaco(12, 12)
            for policy in order:
                assert self._artifact(policy, shared) == fresh[policy.name]

    def test_second_policy_on_a_shared_fabric_anneals_without_drift(self):
        from repro.core.policy import EFFCC_FLAT

        netlist = compiled_netlist()
        fabric = monaco(12, 12)
        for policy in (EFFCC, EFFCC_FLAT, EFFCC):
            rng = random.Random(0)
            placement = initial_placement(netlist, fabric, policy, rng)
            # check=True raises PlacementError on accumulated-cost drift.
            cost = anneal(placement, rng, moves=4000, check=True)
            assert cost == pytest.approx(placement.total_cost())
