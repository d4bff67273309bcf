"""Unit tests for the fabric-memory interconnect frontends.

A fixed delay — UPEA/NUMA's, the hybrid's NUMA crossing — is booked on
the engine's calendar; here a list stands in for it (:func:`booking`).
"""

import random

import pytest

from repro.arch.fabric import monaco
from repro.arch.memory import AddressMap
from repro.arch.params import FaultParams, MemoryParams
from repro.dfg.ops import MemRequest
from repro.sim.faults import FaultInjector
from repro.sim.fmnoc_sim import MonacoFrontend
from repro.sim.hybrid import HybridFrontend
from repro.sim.memsys import DELIVER, RequestRecord
from repro.sim.upea import NumaFrontend, UniformFrontend


def record_at(coord, address=0, seq=0):
    return RequestRecord(
        nid=seq,
        seq=seq,
        request=MemRequest("load", "a", address),
        address=address,
        pe_coord=coord,
        issue_cycle=0,
    )


def booking(frontend):
    """Hand ``frontend`` a list-backed calendar: its bookings, as
    ``(cycle, kind, record)`` in booking order."""
    booked = []
    frontend.schedule = lambda *entry: booked.append(entry)
    return booked


def drain(frontend, cycles, start=0):
    delivered = []
    for t in range(start, start + cycles):
        frontend.tick(t, delivered.append)
    return delivered


class TestUniformFrontend:
    def test_exact_delay(self):
        fe = UniformFrontend(5)
        booked = booking(fe)
        rec = record_at((0, 0))
        fe.inject(rec, now=3)
        assert booked == [(8, DELIVER, rec)]
        assert fe.in_network == 0 and fe.audit() == 0  # never ticked

    def test_zero_delay_delivers_same_cycle(self):
        fe = UniformFrontend(0)
        booked = booking(fe)
        rec = record_at((0, 0))
        fe.inject(rec, now=4)
        assert booked == [(4, DELIVER, rec)]  # due the cycle it issued

    def test_fifo_order_preserved(self):
        fe = UniformFrontend(2)
        booked = booking(fe)
        a, b = record_at((0, 0), seq=1), record_at((0, 0), seq=2)
        fe.inject(a, now=0)
        fe.inject(b, now=0)
        # One cycle, booked a then b: the calendar drains them so.
        assert booked == [(2, DELIVER, a), (2, DELIVER, b)]


class TestNumaFrontend:
    def make(self, delay=4):
        fab = monaco(12, 12)
        amap = AddressMap({"a": 4096}, MemoryParams())
        return NumaFrontend(delay, fab, amap, n_domains=4, seed=1), fab, amap

    def test_assignment_covers_all_ls_pes(self):
        fe, fab, _ = self.make()
        assert set(fe.pe_domain) == {pe.coord for pe in fab.ls_pes()}
        assert set(fe.pe_domain.values()) <= {0, 1, 2, 3}

    def test_local_skips_delay_remote_pays(self):
        fe, fab, amap = self.make(delay=6)
        pe = fab.ls_pes()[0].coord
        home = fe.pe_domain[pe]
        line_words = amap.memory.line_words
        local_addr = next(
            a
            for a in range(0, 4096, line_words)
            if fe.domain_of_address(a) == home
        )
        remote_addr = next(
            a
            for a in range(0, 4096, line_words)
            if fe.domain_of_address(a) != home
        )
        local = record_at(pe, local_addr, seq=1)
        remote = record_at(pe, remote_addr, seq=2)
        booked = booking(fe)
        fe.inject(remote, now=0)
        fe.inject(local, now=0)
        # The local request is due first: it overtakes the older remote.
        assert booked == [(6, DELIVER, remote), (0, DELIVER, local)]
        assert fe.local_accesses == 1 and fe.remote_accesses == 1
        assert fe.in_network == 0

    def test_interleave_is_line_granular(self):
        fe, _, amap = self.make()
        lw = amap.memory.line_words
        assert fe.domain_of_address(0) == 0
        assert fe.domain_of_address(lw) == 1
        assert fe.domain_of_address(4 * lw) == 0

    def test_deterministic_assignment(self):
        fe1, _, _ = self.make()
        fe2, _, _ = self.make()
        assert fe1.pe_domain == fe2.pe_domain


class TestMonacoFrontend:
    def make(self):
        fab = monaco(12, 12)
        return MonacoFrontend(fab), fab

    def d0_pe(self, fab, rank=0):
        return next(
            pe
            for pe in fab.ls_pes()
            if pe.domain == 0 and pe.column_rank == rank
        )

    def far_pe(self, fab):
        return next(pe for pe in fab.ls_pes() if pe.domain == 3)

    def test_d0_bypasses_arbitration(self):
        fe, fab = self.make()
        pe = self.d0_pe(fab)
        rec = record_at(pe.coord)
        fe.inject(rec, now=0)
        assert rec.response_hops == 0
        out = []
        fe.tick(1, out.append)
        assert out == [rec]  # one cycle later, straight through the port

    def test_far_domain_takes_one_cycle_per_hop(self):
        fe, fab = self.make()
        pe = self.far_pe(fab)
        rec = record_at(pe.coord)
        fe.inject(rec, now=0)
        assert rec.response_hops == 3
        out = []
        t = 1
        while not out and t < 20:
            fe.tick(t, out.append)
            t += 1
        # D3 -> D2 -> D1 -> port: one cycle per arbitration stage.
        assert t - 1 == 4

    def test_port_bandwidth_one_per_cycle(self):
        fe, fab = self.make()
        pe = self.d0_pe(fab)
        records = [record_at(pe.coord, seq=i) for i in range(3)]
        for rec in records:
            fe.inject(rec, now=0)
        for expected_total, t in ((1, 1), (2, 2), (3, 3)):
            out = []
            fe.tick(t, out.append)
            assert len(out) == 1
        assert fe.in_network == 0

    def test_round_robin_on_shared_port(self):
        fe, fab = self.make()
        row = fab.ls_rows()[0]
        shared_rank_pe = next(
            pe
            for pe in fab.ls_pes()
            if pe.y == row
            and pe.domain == 0
            and pe.direct_port == fab.row_shared_port[row]
        )
        d1_pe = next(
            pe
            for pe in fab.ls_pes()
            if pe.y == row and pe.domain == 1 and pe.column_rank == 0
        )
        # Saturate both sources; the shared port must alternate.
        for i in range(4):
            fe.inject(record_at(shared_rank_pe.coord, seq=100 + i), now=0)
            fe.inject(record_at(d1_pe.coord, seq=200 + i), now=0)
        delivered = drain(fe, 16, start=1)
        d0_seqs = [r.seq for r in delivered if r.seq < 200]
        d1_seqs = [r.seq for r in delivered if r.seq >= 200]
        assert len(d0_seqs) == 4 and len(d1_seqs) == 4
        # Neither source starves: interleaving, not back-to-back bursts.
        order = [r.seq >= 200 for r in delivered]
        assert order.count(True) == 4
        assert any(order[i] != order[i + 1] for i in range(len(order) - 1))

    def test_in_network_counts_inflight(self):
        fe, fab = self.make()
        assert fe.in_network == 0
        fe.inject(record_at(self.far_pe(fab).coord), now=0)
        fe.inject(record_at(self.d0_pe(fab).coord), now=0)
        assert fe.in_network == 2
        drain(fe, 10, start=1)
        assert fe.in_network == 0 == fe.audit()


class TestHybridFrontend:
    def test_remote_crossing_is_booked_when_granted(self):
        """A request leaving its region is booked ``remote_cycles``
        after its port grants it, with the crossing added to its
        response hops; a local one goes straight to memory."""
        fab = monaco(12, 12)
        fe = HybridFrontend(
            fab, AddressMap({"a": 4096}, MemoryParams()), remote_cycles=3
        )
        booked = booking(fe)
        pe = next(p for p in fab.ls_pes() if p.domain == 0)
        home = fe.row_region[pe.y]
        lw = fe.address_map.memory.line_words
        local = record_at(pe.coord, home * lw, seq=1)
        remote = record_at(pe.coord, (home + 1) % 4 * lw, seq=2)
        fe.inject(local, now=0)
        fe.inject(remote, now=0)
        assert drain(fe, 1, start=1) == [local] and booked == []
        assert drain(fe, 1, start=2) == []
        assert booked == [(5, DELIVER, remote)]
        assert remote.response_hops == 3 and local.response_hops == 0
        assert fe.in_network == 0
        assert (fe.local_accesses, fe.remote_accesses) == (1, 1)


@pytest.mark.parametrize("skip", [0.0, 0.3], ids=["clean", "grant-skip"])
@pytest.mark.parametrize("kind", ["monaco", "hybrid"])
def test_held_counts_equal_a_recount_every_tick(kind, skip):
    """The per-stage counts a tick skips idle stages by are exact after
    every tick — through bursts that fill every latch of a chain and
    drains that empty it, with grants withheld at random — and the
    request ledger agrees with the structural recount."""
    fab = monaco(12, 12)
    if kind == "monaco":
        fe = MonacoFrontend(fab)
    else:
        amap = AddressMap({"a": 4096}, MemoryParams())
        fe = HybridFrontend(fab, amap, remote_cycles=2)
    if skip:
        fe.faults = FaultInjector(FaultParams(seed=5, grant_skip_prob=skip))
    rng = random.Random(f"{kind}:{skip}")
    pes = [pe.coord for pe in fab.ls_pes()]
    crossing = booking(fe)  # the hybrid's remote requests leave here
    delivered, injected, latched = [], 0, 0
    for now in range(400):
        # Bursts early on, then a drain with nothing injected.
        for _ in range(rng.choice((0, 0, 1, 3)) if now < 300 else 0):
            injected += 1
            fe.inject(record_at(rng.choice(pes), 64 * injected, injected), now)
        fe.tick(now, delivered.append)
        assert fe.held == fe.recount(), f"cycle {now}"
        assert fe.in_network == fe.audit(), f"cycle {now}"
        latched += sum(a.latch is not None for a in fe.arbiters.values())
    assert latched and injected > 200
    assert len(delivered) + len(crossing) == injected
    assert bool(crossing) == (kind == "hybrid") and fe.in_network == 0
    assert not any(fe.held)
