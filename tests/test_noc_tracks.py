"""Tests for the heterogeneous cardinal/diagonal/skip track model."""

import random

import pytest

from repro.arch.fabric import monaco
from repro.arch.noc import MonacoTrackGraph, build_channel_graph
from repro.arch.params import ArchParams
from repro.core.criticality import analyze_criticality
from repro.core.policy import EFFCC
from repro.dfg.lower import lower_kernel
from repro.errors import ArchError
from repro.pnr.flow import compile_once
from repro.pnr.netlist import build_netlist
from repro.pnr.place import anneal, initial_placement
from repro.pnr.route import route_design
from repro.sim.engine import simulate

from kernels import zoo_instance


def _edges_from(graph, coord):
    """``(dst coord, channel key, wire)`` per channel leaving ``coord``,
    read off the flat tables the router searches."""
    rows = graph.fabric.rows
    x, y = coord
    return [
        (divmod(cell, rows), graph.keys[channel], wire)
        for cell, channel, wire in graph.cells[x * rows + y]
    ]


class TestGraphStructure:
    def test_edge_kinds_present(self):
        graph = MonacoTrackGraph(monaco(8, 8))
        kinds = {key[2] for _, key, _ in _edges_from(graph, (3, 3))}
        assert kinds == {"cardinal", "diagonal", "skip"}

    def test_segment_geometry(self):
        graph = MonacoTrackGraph(monaco(8, 8))
        for dst, key, wire in _edges_from(graph, (3, 3)):
            assert key[:2] == ((3, 3), dst)
            dx = abs(dst[0] - 3)
            dy = abs(dst[1] - 3)
            if key[2] == "cardinal":
                assert dx + dy == 1 and wire == 1.0
            elif key[2] == "diagonal":
                assert dx == 2 and dy == 2 and wire == 2.0
            else:
                assert dx + dy == 2 and (dx == 0 or dy == 0)
                assert wire == 2.0

    def test_border_clipping(self):
        graph = MonacoTrackGraph(monaco(8, 8))
        for dst, _, _ in _edges_from(graph, (0, 0)):
            assert 0 <= dst[0] < 8 and 0 <= dst[1] < 8

    def test_per_kind_capacity(self):
        graph = MonacoTrackGraph(monaco(8, 8), cardinal=3, diagonal=1, skip=2)
        per_kind = {"cardinal": 3, "diagonal": 1, "skip": 2}
        for key, cap in zip(graph.keys, graph.cap):
            assert cap == per_kind[key[2]], key

    def test_zero_capacity_kind_omitted(self):
        graph = MonacoTrackGraph(monaco(8, 8), diagonal=0)
        kinds = {key[2] for _, key, _ in _edges_from(graph, (3, 3))}
        assert "diagonal" not in kinds

    def test_requires_cardinal(self):
        with pytest.raises(ArchError):
            MonacoTrackGraph(monaco(8, 8), cardinal=0)

    def test_builder_dispatch(self):
        fab = monaco(8, 8)
        assert build_channel_graph(fab, 3, "simple").name == "simple"
        tracked = build_channel_graph(fab, 3, "monaco-tracks")
        assert tracked.name == "monaco-tracks"
        assert {key[2] for key in tracked.keys} == {
            "cardinal", "diagonal", "skip"
        }
        assert set(tracked.cap) == {1}
        with pytest.raises(ArchError):
            build_channel_graph(fab, 3, "hyperspace")


class TestRoutingOnTracks:
    def route(self, graph):
        kernel, _, _ = zoo_instance("join")
        dfg = lower_kernel(kernel)
        analyze_criticality(dfg)
        netlist = build_netlist(dfg)
        fab = monaco(12, 12)
        rng = random.Random(0)
        placement = initial_placement(netlist, fab, EFFCC, rng)
        anneal(placement, rng, moves=3000)
        return netlist, placement, route_design(netlist, placement, graph)

    def test_diagonal_tracks_shorten_long_paths(self):
        from repro.arch.noc import ChannelGraph

        fab = monaco(12, 12)
        # Equal cardinal capacity: the tracked graph strictly adds
        # diagonal/skip segments, so routed delay should not get worse
        # (small slack for the negotiation heuristic).
        _, _, simple = self.route(ChannelGraph(fab, 1))
        _, _, tracked = self.route(MonacoTrackGraph(fab))
        assert tracked.max_hops <= simple.max_hops + 1

    def test_capacity_respected_per_kind(self):
        graph = MonacoTrackGraph(monaco(12, 12))
        _, _, routing = self.route(graph)
        usage: dict = {}
        for keys in routing.net_channels.values():
            for key in keys:
                usage[key] = usage.get(key, 0) + 1
        cap = dict(zip(graph.keys, graph.cap))
        for key, use in usage.items():
            assert use <= cap[key], key


class TestEndToEnd:
    def test_compile_and_simulate_with_track_model(self):
        kernel, params, arrays = zoo_instance("join")
        arch = ArchParams(noc_model="monaco-tracks")
        compiled = compile_once(
            kernel, monaco(12, 12), arch, EFFCC, parallelism=1
        )
        result = simulate(compiled, params, arrays, arch)
        assert result.memory["O"] == [3]

    def test_bad_model_rejected_in_params(self):
        with pytest.raises(ArchError):
            ArchParams(noc_model="wormhole")
