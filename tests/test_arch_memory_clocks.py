"""Unit tests for address mapping, memory params, and clock rules."""

import pytest

from repro.arch.clocks import divider_for_max_hops, path_delay_units
from repro.arch.memory import AddressMap
from repro.arch.params import (
    ArchParams,
    MemoryParams,
    SimParams,
    TimingParams,
)
from repro.errors import ArchError


class TestAddressMap:
    def test_line_aligned_bases(self):
        mem = MemoryParams()
        amap = AddressMap({"a": 5, "b": 40}, mem)
        assert amap.bases["a"] == 0
        assert amap.bases["b"] % mem.line_words == 0
        assert amap.bases["b"] >= 5

    def test_address_and_bounds(self):
        amap = AddressMap({"a": 8}, MemoryParams())
        assert amap.address("a", 3) == 3
        with pytest.raises(ArchError):
            amap.address("a", 8)
        with pytest.raises(ArchError):
            amap.address("zzz", 0)

    def test_bank_interleaves_lines(self):
        mem = MemoryParams(n_banks=4, line_words=8)
        amap = AddressMap({"a": 64}, mem)
        assert amap.bank(0) == 0
        assert amap.bank(8) == 1
        assert amap.bank(31) == 3
        assert amap.bank(32) == 0

    def test_capacity_overflow(self):
        mem = MemoryParams(total_words=64)
        with pytest.raises(ArchError):
            AddressMap({"a": 128}, mem)


class TestParams:
    def test_defaults_match_paper(self):
        mem = MemoryParams()
        assert mem.n_banks == 32
        assert mem.hit_cycles == 2
        assert mem.memory_cycles == 4
        assert mem.miss_latency() == 6
        assert mem.cache_lines * mem.line_words * 4 == 256 * 1024  # 256KB
        assert mem.total_words * 4 == 8 * 1024 * 1024  # 8MB

    def test_invalid_params_rejected(self):
        with pytest.raises(ArchError):
            MemoryParams(n_banks=0)
        with pytest.raises(ArchError):
            SimParams(fifo_capacity=1)
        with pytest.raises(ArchError):
            ArchParams(noc_tracks=0)


class TestClocks:
    def test_path_delay_units(self):
        t = TimingParams()
        assert path_delay_units(0, t) == t.pe_logic_units
        assert path_delay_units(4, t) == t.pe_logic_units + 4

    def test_divider_monotone_in_hops(self):
        t = TimingParams()
        dividers = [divider_for_max_hops(h, t) for h in range(0, 30)]
        assert dividers == sorted(dividers)
        assert dividers[0] == 1

    def test_divider_two_for_typical_paths(self):
        # A typical 12x12 placement routes its longest net in ~4-6 hops;
        # the paper runs Monaco at divider 2.
        t = TimingParams()
        assert divider_for_max_hops(5, t) == 2
