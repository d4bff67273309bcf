"""Parallel experiment harness + persistent compile cache.

The sweep contract: ``run_parallel`` over (workload x config x seed) is
bit-identical to running each point serially — the simulator and PnR are
deterministic, and jobs share compiled kernels only through the
content-keyed on-disk cache (``repro.exp.cache``), never through live
process state.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC
from repro.exp.cache import (
    CACHE_SCHEMA_VERSION,
    CompileCache,
    default_cache_dir,
)
from repro.exp.configs import MONACO, upea
from repro.exp.resilient import SweepEnv
from repro.exp.runner import (
    PAPER_DIVIDER,
    _compile_sweep_job,
    _run_sweep_job,
    compile_point,
    run_parallel,
    run_point,
)
from repro.exp.spec import RunSpec, sweep_specs
from repro.pnr.flow import compile_once
from repro.sim.engine import simulate
from repro.workloads.registry import make_workload

WORKLOADS = ["spmspv", "dmv"]
CONFIGS = [MONACO, upea(2)]
SEEDS = (0, 1)


def serial_reference():
    """The ground truth: each point compiled and run in-process."""
    return {
        spec.key: run_point(spec, *compile_point(spec))
        for spec in sweep_specs(WORKLOADS, CONFIGS, SEEDS, scale="tiny")
    }


@pytest.fixture(scope="module")
def reference():
    return serial_reference()


def assert_matches(results, reference):
    assert set(results) == set(reference)
    for key, run in results.items():
        ref = reference[key]
        assert run.cycles == ref.cycles, key
        assert run.stats == ref.stats, key
        assert run.parallelism == ref.parallelism


def test_in_process_sweep_matches_serial(reference):
    """max_workers<=1 exercises the job function without a pool."""
    results = run_parallel(
        WORKLOADS, CONFIGS, scale="tiny", seeds=SEEDS, max_workers=1
    )
    assert_matches(results, reference)


def test_process_pool_sweep_matches_serial(tmp_path, reference):
    """Two real worker processes, sharing a fresh on-disk cache."""
    from repro.exp.cache import GLOBAL_CACHE

    # Workers are forked from this process; drop the in-memory layer so
    # they really compile (or disk-load) rather than inheriting kernels.
    GLOBAL_CACHE.clear()
    results = run_parallel(
        WORKLOADS,
        CONFIGS,
        scale="tiny",
        seeds=SEEDS,
        max_workers=2,
        cache_dir=tmp_path / "cache",
    )
    assert_matches(results, reference)
    # The workers populated the shared cache: one entry per distinct
    # (workload, seed) PnR key.
    entries = list((tmp_path / "cache").glob("*.pkl"))
    assert len(entries) == len(WORKLOADS) * len(SEEDS)


# -- compile-once dispatch --------------------------------------------------
# Doubles around the real point job and the real compile task that note
# every cache miss (= one PnR) in WORKER_LOG. Workers are forked, so they
# see the path the test set; one short append per line never interleaves.

WORKER_LOG = None


def _noting_misses(real, spec, env):
    from repro.exp.cache import GLOBAL_CACHE

    before = GLOBAL_CACHE.misses
    result = real(spec, env)
    if GLOBAL_CACHE.misses > before:
        with open(WORKER_LOG, "a") as handle:
            handle.write(f"{spec.workload}\n")
    return result


def _miss_noting_job(spec, env):
    return _noting_misses(_run_sweep_job, spec, env)


def _miss_noting_compile(spec, env):
    return _noting_misses(_compile_sweep_job, spec, env)


@pytest.fixture
def miss_log(tmp_path, monkeypatch):
    """Arms both doubles; returns a reader of the kernels PnR'd so far."""
    import sys

    from repro.exp import runner
    from repro.exp.cache import GLOBAL_CACHE

    log = tmp_path / "misses.log"
    monkeypatch.setattr(sys.modules[__name__], "WORKER_LOG", log)
    monkeypatch.setattr(runner, "_run_sweep_job", _miss_noting_job)
    monkeypatch.setattr(runner, "_compile_sweep_job", _miss_noting_compile)
    monkeypatch.setattr(GLOBAL_CACHE, "_store", {})  # workers fork empty

    def misses():
        return sorted(log.read_text().split()) if log.exists() else []

    return misses


def test_pool_sweep_compiles_each_key_once(tmp_path, miss_log):
    workloads = ["spmspv", "dmv", "spmv"]
    configs = [MONACO, upea(2), upea(3)]
    kwargs = dict(
        scale="tiny", max_workers=2, cache_dir=tmp_path / "cache",
    )
    cold = run_parallel(workloads, configs, **kwargs)
    assert len(cold) == 9
    assert miss_log() == sorted(workloads)
    warm = run_parallel(workloads, configs, **kwargs)
    assert warm == cold
    assert miss_log() == sorted(workloads)  # nothing compiled again


def _slow_first_point_job(spec, env):
    import time

    run = _run_sweep_job(spec, env)
    if spec.key[:2] == ("spmspv", "monaco"):
        time.sleep(1.0)
    with open(WORKER_LOG, "a") as handle:
        handle.write(f"{spec.workload}/{spec.config.name}\n")
    return run


def test_pool_manifest_stays_in_job_order(tmp_path, monkeypatch):
    """Points finishing out of order are still journaled in job order."""
    import sys

    from repro.exp.resilient import run_resilient
    from repro.obs.manifest import read_manifest, stable_view

    finished = tmp_path / "finished.log"
    monkeypatch.setattr(sys.modules[__name__], "WORKER_LOG", finished)
    for label, workers in (("serial", 1), ("pooled", 2)):
        finished.write_text("")
        run_resilient(
            sweep_specs(WORKLOADS, CONFIGS, scale="tiny"),
            max_workers=workers,
            cache_dir=tmp_path / "cache",
            manifest_path=tmp_path / f"{label}.jsonl",
            job_fn=_slow_first_point_job,
        )
    # The pooled run really overtook its first point...
    assert finished.read_text().split()[0] != "spmspv/monaco"
    # ...and its journal does not show it.
    serial, pooled = (
        [stable_view(r) for r in read_manifest(tmp_path / f"{label}.jsonl")]
        for label in ("serial", "pooled")
    )
    assert pooled == serial
    assert [(r["workload"], r["config"]) for r in pooled] == [
        (w, c.name) for w in WORKLOADS for c in CONFIGS
    ]


class TestDiskCache:
    KEY = ("spmspv", None, "monaco-12x12", 3, "effcc", None, 0)

    def compile_thunk(self):
        instance = make_workload("spmspv", scale="tiny")
        return lambda: compile_once(
            instance.kernel, monaco(12, 12), ArchParams(), EFFCC,
            parallelism=1,
        )

    def test_cold_then_warm(self, tmp_path):
        """A second cache instance (fresh process stand-in) hits disk."""
        thunk = self.compile_thunk()
        cold = CompileCache(tmp_path)
        first = cold.get_or_compile(self.KEY, thunk)
        assert (cold.hits, cold.misses, cold.disk_hits) == (0, 1, 0)

        warm = CompileCache(tmp_path)
        second = warm.get_or_compile(
            self.KEY, lambda: pytest.fail("warm cache must not recompile")
        )
        assert (warm.hits, warm.misses, warm.disk_hits) == (0, 0, 1)
        # Third lookup in the same instance is a pure memory hit.
        warm.get_or_compile(
            self.KEY, lambda: pytest.fail("memory layer must hit")
        )
        assert warm.hits == 1

        # The disk copy simulates bit-identically to the original.
        instance = make_workload("spmspv", scale="tiny")
        spec = RunSpec("spmspv", MONACO, scale="tiny")
        a = run_point(spec, instance, first)
        b = run_point(spec, instance, second)
        assert a.cycles == b.cycles and a.stats == b.stats

    def test_torn_entry_recompiles(self, tmp_path):
        cache = CompileCache(tmp_path)
        compiled = cache.get_or_compile(self.KEY, self.compile_thunk())
        path = cache._path_for(self.KEY)
        path.write_bytes(b"\x80truncated garbage")
        fresh = CompileCache(tmp_path)
        again = fresh.get_or_compile(self.KEY, self.compile_thunk())
        assert fresh.misses == 1 and fresh.disk_hits == 0
        assert again.parallelism == compiled.parallelism
        # The repaired entry is valid for the next reader.
        reader = CompileCache(tmp_path)
        reader.get_or_compile(
            self.KEY, lambda: pytest.fail("repaired entry must load")
        )
        assert reader.disk_hits == 1

    def test_schema_version_partitions_keys(self, tmp_path, monkeypatch):
        cache = CompileCache(tmp_path)
        path = cache._path_for(self.KEY)
        other = CompileCache(tmp_path)
        assert other._path_for(self.KEY) == path  # deterministic digest
        assert cache._path_for(self.KEY + ("x",)) != path
        # Bumping the schema version makes every old entry unreachable.
        from repro.exp import cache as cache_mod

        monkeypatch.setattr(
            cache_mod, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        assert cache._path_for(self.KEY) != path

    def test_disable_disk(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.disable_disk()
        cache.get_or_compile(self.KEY, self.compile_thunk())
        assert not list(tmp_path.glob("*.pkl"))


class TestCacheMaintenance:
    """``repro cache``'s backing operations: info, clear, prune, sweep."""

    def _seed_entries(self, cache, n):
        """Store n distinct picklable payloads (stand-ins for kernels)."""
        for i in range(n):
            cache.get_or_compile(("k", i), lambda i=i: {"payload": i})

    def test_info_counts_both_layers(self, tmp_path):
        cache = CompileCache(tmp_path)
        self._seed_entries(cache, 3)
        info = cache.info()
        assert info["memory_entries"] == 3
        assert info["disk_entries"] == 3
        assert info["disk_bytes"] > 0
        assert info["disk_dir"] == str(tmp_path)
        off = CompileCache()
        assert off.info()["disk_entries"] == 0

    def test_clear_disk_removes_everything(self, tmp_path):
        cache = CompileCache(tmp_path)
        self._seed_entries(cache, 3)
        (tmp_path / "leftover.tmp").write_text("x")
        assert cache.clear_disk() == 3
        assert not list(tmp_path.glob("*.pkl"))
        assert not list(tmp_path.glob("*.tmp"))
        # The memory layer went too: a lookup recompiles and restores.
        cache.get_or_compile(("k", 0), lambda: {"payload": 0})
        assert cache.misses == 1

    def test_prune_evicts_lru_first(self, tmp_path):
        import os as _os

        cache = CompileCache(tmp_path)
        self._seed_entries(cache, 4)
        # Age entries deterministically: k0 oldest ... k3 newest.
        for i in range(4):
            path = cache._path_for(("k", i))
            _os.utime(path, (1_000_000 + i, 1_000_000 + i))
        # A disk hit refreshes k0's timestamp, protecting it from prune.
        fresh = CompileCache(tmp_path)
        fresh.get_or_compile(("k", 0), lambda: pytest.fail("must disk-hit"))
        sizes = sum(p.stat().st_size for p in tmp_path.glob("*.pkl"))
        one = sizes // 4 + 1
        evicted = cache.prune(max_bytes=2 * one)
        assert evicted == 2
        survivors = {p.name for p in tmp_path.glob("*.pkl")}
        assert cache._path_for(("k", 0)).name in survivors  # refreshed
        assert cache._path_for(("k", 3)).name in survivors  # newest
        assert cache.prune(max_bytes=0) == 2  # drains the rest
        assert not list(tmp_path.glob("*.pkl"))

    def test_sweep_stale_tmp(self, tmp_path):
        import os as _os
        import time as _time

        cache = CompileCache(tmp_path)
        stale = tmp_path / "dead-worker.tmp"
        stale.write_text("partial pickle from a killed worker")
        old = _time.time() - 7200
        _os.utime(stale, (old, old))
        live = tmp_path / "inflight.tmp"
        live.write_text("currently being written")
        assert cache.sweep_stale_tmp(max_age_s=3600) == 1
        assert not stale.exists() and live.exists()

    def test_torn_entry_is_unlinked(self, tmp_path):
        """Corruption recovery physically removes the bad file."""
        cache = CompileCache(tmp_path)
        cache.get_or_compile(("k", 0), lambda: {"payload": 0})
        path = cache._path_for(("k", 0))
        path.write_bytes(b"\x80garbage that is not a pickle")
        fresh = CompileCache(tmp_path)
        assert fresh._disk_load(("k", 0)) is None
        assert not path.exists()


def test_empty_xdg_cache_home_means_unset(monkeypatch):
    """XDG_CACHE_HOME="" must not root the cache in the working dir."""
    monkeypatch.delenv("REPRO_COMPILE_CACHE", raising=False)
    monkeypatch.setenv("HOME", "/home/someone")
    monkeypatch.setenv("XDG_CACHE_HOME", "")
    expected = Path("/home/someone/.cache/repro-nupea/compiled")
    assert default_cache_dir() == expected
    monkeypatch.setenv("XDG_CACHE_HOME", "/xdg")
    assert default_cache_dir() == Path("/xdg/repro-nupea/compiled")


def test_sweep_job_attaches_requested_cache_dir(tmp_path, monkeypatch):
    """A warm in-process worker must switch to the sweep's cache dir.

    Regression: ``_run_sweep_job`` used to keep whatever disk dir the
    GLOBAL_CACHE already had, silently writing one sweep's kernels into
    another sweep's directory.
    """
    from repro.exp.cache import GLOBAL_CACHE
    from repro.exp.runner import _run_sweep_job

    monkeypatch.setattr(GLOBAL_CACHE, "disk_dir", None)
    monkeypatch.setattr(GLOBAL_CACHE, "_store", {})
    stale = tmp_path / "stale"
    wanted = tmp_path / "wanted"
    GLOBAL_CACHE.enable_disk(stale)
    run = _run_sweep_job(
        RunSpec("spmspv", MONACO, scale="tiny"),
        SweepEnv(cache_dir=str(wanted)),
    )
    assert run.cycles > 0
    assert str(GLOBAL_CACHE.disk_dir) == str(wanted)
    assert list(wanted.glob("*.pkl")) and not list(stale.glob("*.pkl"))


def test_compiled_kernel_pickle_roundtrip():
    """Worker processes receive kernels via pickle; results must match."""
    instance = make_workload("dmv", scale="tiny")
    compiled = compile_once(
        instance.kernel, monaco(12, 12), ArchParams(), EFFCC, parallelism=1
    )
    clone = pickle.loads(pickle.dumps(compiled))
    arch = ArchParams()
    a = simulate(
        compiled, instance.params,
        {k: list(v) for k, v in instance.arrays.items()}, arch,
        divider=PAPER_DIVIDER,
    )
    b = simulate(
        clone, instance.params,
        {k: list(v) for k, v in instance.arrays.items()}, arch,
        divider=PAPER_DIVIDER,
    )
    assert a.stats == b.stats
    assert a.memory == b.memory


def test_fig11_jobs_matches_serial(miss_log, monkeypatch):
    """fig11 fanned over 4 workers matches the in-process sweep
    bit-for-bit, and — with no cache directory configured, as from the
    CLI — still places-and-routes each kernel once (the workers share a
    sweep-scoped temporary cache)."""
    from repro.exp.cache import GLOBAL_CACHE
    from repro.exp.figures import Grid, run_figure

    monkeypatch.setattr(GLOBAL_CACHE, "disk_dir", None)
    workloads = ("spmspv", "dmv")
    serial = run_figure("fig11", Grid(scale="tiny", workloads=workloads))
    assert miss_log() == sorted(workloads)
    GLOBAL_CACHE.clear()  # forked workers must not inherit the kernels
    fanned = run_figure(
        "fig11", Grid(scale="tiny", workloads=workloads, jobs=4)
    )
    assert fanned.rows == serial.rows
    assert fanned.raw == serial.raw
    # Both sweeps ran through the supervisor; each compiled each kernel once.
    assert miss_log() == sorted(workloads * 2)
    # The graph's temporary cache is gone with it.
    assert GLOBAL_CACHE.disk_dir is None
