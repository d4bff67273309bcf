"""Unit tests for routing and static timing."""

import random

import pytest

from repro.arch.fabric import monaco
from repro.arch.noc import ChannelGraph
from repro.arch.params import TimingParams
from repro.core.criticality import analyze_criticality
from repro.core.policy import EFFCC
from repro.dfg.graph import PortRef
from repro.dfg.lower import lower_kernel
from repro.errors import RoutingError
from repro.pnr.netlist import build_netlist
from repro.pnr.place import anneal, initial_placement
from repro.pnr.route import route_design, routed_edges
from repro.pnr.timing import analyze_timing

from kernels import zoo_instance


def place(name="join", fabric=None, seed=0):
    kernel, _, _ = zoo_instance(name)
    dfg = lower_kernel(kernel)
    analyze_criticality(dfg)
    netlist = build_netlist(dfg)
    fabric = fabric or monaco(12, 12)
    rng = random.Random(seed)
    placement = initial_placement(netlist, fabric, EFFCC, rng)
    anneal(placement, rng, moves=3000)
    return netlist, placement, fabric


class TestRouting:
    def test_route_succeeds_with_ample_tracks(self):
        netlist, placement, fab = place()
        routing = route_design(netlist, placement, ChannelGraph(fab, 7))
        assert routing.max_hops >= 1
        assert routing.iterations >= 1

    def test_capacity_respected(self):
        netlist, placement, fab = place()
        tracks = 2
        routing = route_design(
            netlist, placement, ChannelGraph(fab, tracks)
        )
        usage = {}
        for channels in routing.net_channels.values():
            for channel in channels:
                usage[channel] = usage.get(channel, 0) + 1
        assert all(u <= tracks for u in usage.values())

    def test_every_net_routed(self):
        netlist, placement, fab = place()
        routing = route_design(netlist, placement, ChannelGraph(fab, 7))
        for index, net in enumerate(netlist.nets):
            real_sinks = [s for s in net.sinks if s != net.src]
            if real_sinks:
                assert set(routing.sink_hops[index]) == set(real_sinks)

    def test_routed_edges_are_the_nets_seen_per_dfg_edge(self):
        netlist, placement, fab = place()
        routing = route_design(netlist, placement, ChannelGraph(fab, 7))
        edges = routed_edges(netlist.dfg, routing)
        assert set(edges) == {
            (inp.src, node.nid)
            for node in netlist.dfg.nodes.values()
            for inp in node.inputs
            if isinstance(inp, PortRef)
        }
        for index, net in enumerate(netlist.nets):
            channels = tuple(sorted(routing.net_channels.get(index, ())))
            for sink in net.sinks:
                hops = routing.sink_hops.get(index, {}).get(sink)
                assert edges[(net.src, sink)] == (hops, channels)

    def test_sink_hops_at_least_manhattan(self):
        netlist, placement, fab = place()
        routing = route_design(netlist, placement, ChannelGraph(fab, 7))
        for index, hops in routing.sink_hops.items():
            src = placement.loc[netlist.nets[index].src]
            for sink, h in hops.items():
                dst = placement.loc[sink]
                manhattan = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
                assert h >= manhattan

    def test_fanout_shares_tree_segments(self):
        netlist, placement, fab = place()
        routing = route_design(netlist, placement, ChannelGraph(fab, 7))
        total_wl = routing.wirelength()
        # A per-sink point-to-point lower bound exceeds a shared tree's
        # wirelength for high-fanout nets; just check the tree is no worse
        # than routing each sink independently at Manhattan distance + slack.
        p2p = 0
        for index, hops in routing.sink_hops.items():
            p2p += sum(hops.values())
        assert total_wl <= p2p

    def test_unroutable_raises(self):
        # Tiny fabric, one track: the join kernel's fan-out cannot fit.
        fab = monaco(6, 6)
        netlist, placement, fab = place(fabric=fab)
        with pytest.raises(RoutingError):
            route_design(
                netlist, placement, ChannelGraph(fab, 1), max_iters=3
            )

    def test_deterministic(self):
        netlist, placement, fab = place()
        a = route_design(netlist, placement, ChannelGraph(fab, 3))
        b = route_design(netlist, placement, ChannelGraph(fab, 3))
        assert a.sink_hops == b.sink_hops


class TestTiming:
    def test_divider_from_routing(self):
        netlist, placement, fab = place()
        routing = route_design(netlist, placement, ChannelGraph(fab, 7))
        report = analyze_timing(routing, TimingParams())
        assert report.max_hops == routing.max_hops
        assert report.clock_divider >= 1
        assert report.max_path_delay_units > report.max_hops
