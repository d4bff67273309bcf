"""Unit tests for the data-NoC channel graph and fabric-memory NoC."""

import pytest

from repro.arch.fabric import clustered_single, monaco
from repro.arch.fmnoc import ArbiterId, FMNoC
from repro.arch.noc import ChannelGraph
from repro.errors import ArchError


def _neighbors(graph, coord):
    """The cells one channel away from ``coord``, as coordinates."""
    rows = graph.fabric.rows
    x, y = coord
    return [divmod(cell, rows) for cell, _, _ in graph.cells[x * rows + y]]


class TestChannelGraph:
    def test_neighbor_structure(self):
        graph = ChannelGraph(monaco(4, 4), tracks=3)
        assert sorted(_neighbors(graph, (0, 0))) == [(0, 1), (1, 0)]
        assert len(_neighbors(graph, (1, 1))) == 4
        # The cardinal map holds the same channels, keyed by cell.
        for cell, row in enumerate(graph.cells):
            assert sorted(graph.cardinal[cell].values()) == sorted(row)

    def test_channel_count(self):
        graph = ChannelGraph(monaco(4, 4), tracks=2)
        # 4x4 grid: 2 * (3*4 + 4*3) = 48 directed channels.
        assert len(graph.keys) == len(graph.cap) == 48
        assert sum(len(row) for row in graph.cells) == 48

    def test_capacity(self):
        graph = ChannelGraph(monaco(4, 4), tracks=7)
        assert set(graph.cap) == {7}
        assert ((0, 0), (1, 0), "cardinal") in graph.keys
        assert ((0, 0), (2, 0), "cardinal") not in graph.keys

    def test_zero_tracks_rejected(self):
        with pytest.raises(ArchError):
            ChannelGraph(monaco(4, 4), tracks=0)


class TestFMNoC:
    def test_monaco_arbiter_count(self):
        noc = FMNoC(monaco(12, 12))
        # 6 LS rows x 3 arbitrated domains (D1, D2, D3).
        assert len(noc.arbiters()) == 18

    def test_d0_bypasses_arbitration(self):
        fab = monaco(12, 12)
        noc = FMNoC(fab)
        for pe in fab.ls_pes():
            if pe.domain == 0:
                chain, port = noc.path(pe)
                assert chain == [] and port == pe.direct_port
                assert noc.request_hops(pe) == 0

    def test_far_domain_chain_descends_to_shared_port(self):
        fab = monaco(12, 12)
        noc = FMNoC(fab)
        far = [pe for pe in fab.ls_pes() if pe.domain == 3][0]
        chain, port = noc.path(far)
        assert [a.domain for a in chain] == [3, 2, 1]
        assert all(a.row == far.y for a in chain)
        assert port == fab.row_shared_port[far.y]
        assert noc.request_hops(far) == 3

    def test_fanout_at_most_four(self):
        # "arbiters are arranged hierarchically as an imbalanced tree with
        # a fanout of 4" (Sec. 4.2).
        for fab in (monaco(12, 12), clustered_single(12, 12), monaco(24, 24)):
            noc = FMNoC(fab)
            for arb in noc.arbiters():
                assert len(noc.arbiter_inputs(arb)) <= 4

    def test_downstream_chain(self):
        noc = FMNoC(monaco(12, 12))
        arb3 = ArbiterId(1, 3)
        assert noc.downstream(arb3) == ArbiterId(1, 2)
        arb1 = ArbiterId(1, 1)
        assert isinstance(noc.downstream(arb1), int)

    def test_port_contenders(self):
        fab = monaco(12, 12)
        noc = FMNoC(fab)
        shared = set(fab.row_shared_port.values())
        for port in range(fab.n_ports):
            expected = 2 if port in shared else 1
            assert noc.port_contenders(port) == expected

    def test_entry_rejects_arith_pe(self):
        fab = monaco(12, 12)
        noc = FMNoC(fab)
        with pytest.raises(ArchError):
            noc.entry(fab.arith_pes()[0])

    def test_upstream_arbiter_feeds_next_domain(self):
        noc = FMNoC(monaco(12, 12))
        inputs = noc.arbiter_inputs(ArbiterId(1, 2))
        assert ArbiterId(1, 3) in inputs
        # The farthest domain's arbiter has no upstream arbiter.
        far_inputs = noc.arbiter_inputs(ArbiterId(1, 3))
        assert all(not isinstance(i, ArbiterId) for i in far_inputs)
