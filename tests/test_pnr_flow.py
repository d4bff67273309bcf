"""Unit tests for the full compile flow and parallelism search."""

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams
from repro.core.policy import DOMAIN_UNAWARE, EFFCC
from repro.errors import PnRError
from repro.pnr.flow import SEARCH_DEGREES, compile_kernel, compile_once

from kernels import zoo_instance


ARCH = ArchParams()


class TestCompileOnce:
    def test_join_compiles_and_places_critically(self):
        kernel, _, _ = zoo_instance("join")
        fab = monaco(12, 12)
        compiled = compile_once(kernel, fab, ARCH, EFFCC, parallelism=1)
        hist = compiled.domain_histogram()
        assert hist["A"] == {0: 2}
        assert compiled.timing.clock_divider >= 1
        assert compiled.parallelism == 1

    def test_domain_unaware_scatters_memory(self):
        kernel, _, _ = zoo_instance("join")
        fab = monaco(12, 12)
        compiled = compile_once(
            kernel, fab, ARCH, DOMAIN_UNAWARE, parallelism=1
        )
        domains = [
            compiled.domain_of(n.nid) for n in compiled.dfg.memory_nodes()
        ]
        assert any(d != 0 for d in domains)

    def test_does_not_fit_raises(self):
        kernel, _, _ = zoo_instance("join")
        with pytest.raises(PnRError):
            compile_once(kernel, monaco(2, 2), ARCH, EFFCC, parallelism=1)

    def test_deterministic(self):
        kernel, _, _ = zoo_instance("join")
        fab = monaco(12, 12)
        a = compile_once(kernel, fab, ARCH, EFFCC, parallelism=1, seed=4)
        b = compile_once(kernel, fab, ARCH, EFFCC, parallelism=1, seed=4)
        assert a.placement == b.placement
        assert a.timing == b.timing

    def test_summary_mentions_key_facts(self):
        kernel, _, _ = zoo_instance("join")
        compiled = compile_once(
            kernel, monaco(12, 12), ARCH, EFFCC, parallelism=1
        )
        text = compiled.summary()
        assert "effcc" in text and "divider" in text


class TestParallelismSearch:
    def test_search_degrees_monotone(self):
        degrees = list(SEARCH_DEGREES)
        assert degrees == sorted(set(degrees))
        assert degrees[0] == 1 and degrees[-1] == 32

    def test_search_finds_multi_worker_fit(self):
        kernel, _, _ = zoo_instance("parphases")
        compiled = compile_kernel(kernel, monaco(12, 12), ARCH, EFFCC)
        assert compiled.parallelism >= 2

    def test_search_prefers_throughput_score(self):
        kernel, _, _ = zoo_instance("parphases")
        compiled = compile_kernel(kernel, monaco(12, 12), ARCH, EFFCC)
        score = compiled.parallelism / compiled.timing.clock_divider
        one = compile_once(kernel, monaco(12, 12), ARCH, EFFCC, 1)
        assert score >= 1.0 / one.timing.clock_divider

    def test_impossible_kernel_raises(self):
        kernel, _, _ = zoo_instance("join")
        with pytest.raises(PnRError, match="does not fit"):
            compile_kernel(kernel, monaco(2, 2), ARCH, EFFCC)
