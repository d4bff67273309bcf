"""Unit tests for the banked memory system and shared cache.

Memory books each served access's completion on the engine's calendar;
here a list stands in for the calendar and records each booking.
"""

from repro.arch.memory import AddressMap
from repro.arch.params import MemoryParams
from repro.dfg.ops import MemRequest
from repro.sim.memsys import COMPLETE, MemorySystem, RequestRecord, SharedCache


def make_memsys(**overrides):
    """Memory over one 256-word array, its bookings kept in
    ``memsys.booked`` as ``(cycle, kind, record)`` in booking order."""
    params = MemoryParams(**overrides) if overrides else MemoryParams()
    amap = AddressMap({"a": 256}, params)
    memsys = MemorySystem(params, amap, {"a": list(range(256))})
    memsys.booked = []
    memsys.schedule = lambda *entry: memsys.booked.append(entry)
    return memsys, amap


def record_for(amap, index, kind="load", value=None, seq=0):
    request = MemRequest(kind, "a", index, value)
    return RequestRecord(
        nid=1,
        seq=seq,
        request=request,
        address=amap.address("a", index),
        pe_coord=(0, 0),
        issue_cycle=0,
    )


class TestSharedCache:
    def test_miss_then_hit(self):
        cache = SharedCache(2)
        assert not cache.access(10)
        assert cache.access(10)

    def test_lru_eviction(self):
        cache = SharedCache(2)
        cache.access(1)
        cache.access(2)
        cache.access(1)  # refresh 1
        cache.access(3)  # evicts 2
        assert cache.access(1)
        assert not cache.access(2)

    def test_zero_capacity_never_hits(self):
        cache = SharedCache(0)
        assert not cache.access(1)
        assert not cache.access(1)


class TestMemorySystem:
    def test_load_latency_hit_vs_miss(self):
        memsys, amap = make_memsys()
        first = record_for(amap, 0)
        memsys.enqueue(first, now=0)
        memsys.tick(1)
        assert first.hit is False
        assert first.complete_cycle == 1 + memsys.params.miss_latency()
        # Same line again: hit.
        second = record_for(amap, 1)
        memsys.enqueue(second, now=2)
        memsys.tick(3)
        assert second.hit is True
        assert second.complete_cycle == 3 + memsys.params.hit_cycles

    def test_store_writes_at_service(self):
        memsys, amap = make_memsys()
        store = record_for(amap, 5, kind="store", value=999)
        memsys.enqueue(store, now=0)
        memsys.tick(1)
        assert memsys.data["a"][5] == 999
        assert store.value == 0  # ordering-token payload

    def test_load_reads_current_data(self):
        memsys, amap = make_memsys()
        memsys.data["a"][7] = 1234
        load = record_for(amap, 7)
        memsys.enqueue(load, now=0)
        memsys.tick(1)
        assert load.value == 1234

    def test_bank_conflict_queues(self):
        memsys, amap = make_memsys()
        # Two requests to the same line -> same bank -> serialized.
        a = record_for(amap, 0, seq=1)
        b = record_for(amap, 1, seq=2)
        memsys.enqueue(a, now=0)
        memsys.enqueue(b, now=0)
        memsys.tick(1)
        memsys.tick(2)
        assert a.serve_cycle == 1
        assert b.serve_cycle == 2
        assert memsys.stats.bank_wait_cycles >= 2

    def test_different_banks_parallel(self):
        memsys, amap = make_memsys(n_banks=4, line_words=8)
        a = record_for(amap, 0)
        b = record_for(amap, 8)  # next line, next bank
        memsys.enqueue(a, now=0)
        memsys.enqueue(b, now=0)
        memsys.tick(1)
        assert a.serve_cycle == 1 and b.serve_cycle == 1

    def test_completions_in_time_order(self):
        memsys, amap = make_memsys()
        a = record_for(amap, 0)
        memsys.enqueue(a, now=0)
        assert memsys.booked == [] and memsys._busy_banks
        memsys.tick(1)
        assert memsys.booked == [(a.complete_cycle, COMPLETE, a)]
        assert a.complete_cycle == 1 + memsys.params.miss_latency()
        assert not memsys._busy_banks  # idle: the engine stops ticking it

    def test_completions_booked_in_service_order(self):
        """One tick serves its busy banks in ascending index order, and
        books their completions in that order — a hit served after a
        miss completes first, which the calendar's cycle key sorts."""
        memsys, amap = make_memsys(n_banks=4, line_words=8)
        warm = record_for(amap, 16)
        memsys.enqueue(warm, now=0)
        memsys.tick(0)  # line 2 now cached
        del memsys.booked[:]
        miss = record_for(amap, 0, seq=1)  # bank 0
        queued = record_for(amap, 1, seq=2)  # bank 0 again: waits a cycle
        hit = record_for(amap, 17, seq=3)  # bank 2, cached
        for record in (hit, miss, queued):
            memsys.enqueue(record, now=1)
        memsys.tick(1)
        memsys.tick(2)
        hit_cycles = memsys.params.hit_cycles
        assert memsys.booked == [
            (1 + memsys.params.miss_latency(), COMPLETE, miss),
            (1 + hit_cycles, COMPLETE, hit),
            (2 + hit_cycles, COMPLETE, queued),  # its line came in at 1
        ]

    def test_stats_accumulate(self):
        memsys, amap = make_memsys()
        for i, kind in enumerate(["load", "store", "load"]):
            rec = record_for(
                amap, i * 64, kind=kind, value=0 if kind == "store" else None
            )
            memsys.enqueue(rec, now=i)
            memsys.tick(i + 1)
        assert memsys.stats.loads == 2
        assert memsys.stats.stores == 1
        assert memsys.stats.misses == 3
