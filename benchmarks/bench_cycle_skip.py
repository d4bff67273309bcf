"""The persistent compile cache: a warm PnR is a disk read.

(The wall-clock floor for the cycle-skipping scheduler that used to live
here is a deterministic executed-cycles guard in
``tests/test_cycle_skip.py`` now; measured walls are in EXPERIMENTS.md,
"Simulator performance".)
"""

import time

from conftest import BENCH_SCALE, save_result
from repro.arch.fabric import monaco
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC
from repro.workloads.registry import make_workload


def test_compile_cache_warm_vs_cold(benchmark, tmp_path):
    """The persistent cache turns PnR into a disk read on re-invocation."""
    from repro.exp.cache import CompileCache
    from repro.pnr.flow import compile_kernel

    instance = make_workload("spmspv", scale=BENCH_SCALE)
    fabric = monaco(12, 12)
    arch = ArchParams()

    def compile_with(cache):
        key = ("bench-cache", instance.name, fabric.name, arch.noc_tracks)
        start = time.perf_counter()
        cache.get_or_compile(
            key,
            lambda: compile_kernel(
                instance.kernel, fabric, arch, policy=EFFCC, seed=0
            ),
        )
        return time.perf_counter() - start

    cold_s = compile_with(CompileCache(tmp_path))
    warm_cache = CompileCache(tmp_path)  # fresh instance = fresh process
    warm_s = benchmark.pedantic(
        lambda: compile_with(warm_cache), rounds=1, iterations=1
    )
    assert warm_cache.disk_hits == 1
    save_result(
        "compile_cache",
        "persistent compile cache (spmspv PnR, scale=small)\n"
        f"  cold (place-and-route) {cold_s:>8.2f}s\n"
        f"  warm (disk pickle)     {warm_s:>8.2f}s\n"
        f"  speedup                {cold_s / warm_s:>7.0f}x",
    )
    assert warm_s < cold_s
