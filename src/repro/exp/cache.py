"""Compile cache: PnR is deterministic, so share results across figures.

Two layers:

* an in-process dict (always on) — one compile per key per process;
* an optional on-disk pickle store — compiled kernels survive across
  benchmark invocations and are how the parallel harness's worker
  processes share one artifact per :func:`repro.exp.spec.compile_key`
  instead of each placing-and-routing it.

Disk entries are keyed by a digest of ``(CACHE_SCHEMA_VERSION, key)``;
bump :data:`CACHE_SCHEMA_VERSION` whenever the pickled layout of
:class:`~repro.pnr.result.CompiledKernel` (or anything it references)
changes, and stale entries are simply never looked up again. Writes are
atomic (temp file + ``os.replace``) so concurrent *invocations* racing
on the same key at worst compile twice — never read a torn pickle. The
cache itself takes no lock; within one pooled sweep the supervisor
(:mod:`repro.exp.resilient`) keeps a key's readers behind its one
compile task, so there each key is compiled once.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path

from repro.pnr.result import CompiledKernel

#: Bump when the pickled CompiledKernel layout changes; old on-disk
#: entries become unreachable (different digest) instead of unpicklable.
#: v2: CompiledKernel.pnr (PnRStats), RoutingResult.nets_rerouted/wall_s.
#: v3: keys are :func:`repro.exp.spec.compile_key` tuples (fixed arity,
#: covering ``noc_model`` and ``timing``); v2 keys lacked both, so a v2
#: entry may hold an artifact compiled under another timing model.
#: v4: the pickled ``PlacementPolicy`` carries ``column_step``.
#: v5: keys end in ``mem_mode`` (a memory-ordering ablation compile
#: used to bypass the cache).
CACHE_SCHEMA_VERSION = 5


def default_cache_dir() -> Path:
    """Where the on-disk layer lives unless told otherwise.

    ``REPRO_COMPILE_CACHE`` overrides; the fallback is a per-user cache
    directory so repeated CLI/benchmark invocations share PnR work.
    """
    env = os.environ.get("REPRO_COMPILE_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return Path(xdg) / "repro-nupea" / "compiled"


class CompileCache:
    """Memoizes compiled kernels by an explicit configuration key."""

    def __init__(self, disk_dir: str | os.PathLike | None = None):
        self._store: dict[tuple, CompiledKernel] = {}
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_dir: Path | None = Path(disk_dir) if disk_dir else None

    # -- disk layer --------------------------------------------------------

    def enable_disk(self, path: str | os.PathLike | None = None) -> Path:
        """Turn on the persistent layer (idempotent); returns its dir."""
        self.disk_dir = Path(path) if path else default_cache_dir()
        return self.disk_dir

    def disable_disk(self) -> None:
        self.disk_dir = None

    def _path_for(self, key: tuple) -> Path:
        payload = repr((CACHE_SCHEMA_VERSION, key)).encode()
        digest = hashlib.sha256(payload).hexdigest()
        return self.disk_dir / f"{digest}.pkl"

    def _disk_load(self, key: tuple) -> CompiledKernel | None:
        path = self._path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            compiled = pickle.loads(blob)
        except Exception:
            # Torn/stale entry: drop it and recompile.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # refresh LRU timestamp for prune()
        except OSError:
            pass
        return compiled

    def _disk_store(self, key: tuple, compiled: CompiledKernel) -> None:
        self.disk_dir.mkdir(parents=True, exist_ok=True)
        path = self._path_for(key)
        fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(compiled, handle, pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- lookup ------------------------------------------------------------

    def get_or_compile(self, key: tuple, thunk) -> CompiledKernel:
        if key in self._store:
            self.hits += 1
            return self._store[key]
        if self.disk_dir is not None:
            compiled = self._disk_load(key)
            if compiled is not None:
                self.disk_hits += 1
                self._store[key] = compiled
                return compiled
        self.misses += 1
        compiled = thunk()
        self._store[key] = compiled
        if self.disk_dir is not None:
            self._disk_store(key, compiled)
        return compiled

    def clear(self) -> None:
        """Drop the in-memory layer and counters (disk entries remain)."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    # -- maintenance (``repro cache`` CLI) ---------------------------------

    def _disk_entries(self) -> list[Path]:
        """The ``.pkl`` entries currently on disk (empty when disk off)."""
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        return sorted(self.disk_dir.glob("*.pkl"))

    def info(self) -> dict:
        """Inventory of both layers, JSON-friendly."""
        entries = self._disk_entries()
        sizes = []
        for path in entries:
            try:
                sizes.append(path.stat().st_size)
            except OSError:
                continue
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "memory_entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "disk_dir": str(self.disk_dir) if self.disk_dir else None,
            "disk_entries": len(sizes),
            "disk_bytes": sum(sizes),
        }

    def clear_disk(self) -> int:
        """Delete every on-disk entry (and stray temp files); returns count
        of entries removed. The in-memory layer is cleared too, so a
        cleared cache cannot resurrect entries by writing them back."""
        removed = 0
        for path in self._disk_entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.sweep_stale_tmp(max_age_s=0.0)
        self.clear()
        return removed

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used disk entries until the store fits in
        ``max_bytes``. LRU order comes from ``st_mtime`` — ``os.replace``
        sets it on write, and :meth:`_disk_load` refreshes it on hit via
        ``os.utime``, so untouched entries age out first. Returns the
        number of entries evicted."""
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        stamped = []
        total = 0
        for path in self._disk_entries():
            try:
                st = path.stat()
            except OSError:
                continue
            stamped.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        stamped.sort()  # oldest first
        evicted = 0
        for _, size, path in stamped:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        return evicted

    def sweep_stale_tmp(self, max_age_s: float = 3600.0) -> int:
        """Remove ``.tmp`` droppings older than ``max_age_s``.

        A worker killed mid-:meth:`_disk_store` (OOM, SIGKILL, power
        loss) leaks its ``mkstemp`` file: the ``os.replace`` never runs
        and the exception handler never fires. Entries are written in one
        go, so any ``.tmp`` older than the grace period is garbage — a
        *live* write's temp file is at most seconds old. Returns the
        number of files removed."""
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return 0
        cutoff = time.time() - max_age_s
        removed = 0
        for path in self.disk_dir.glob("*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        return removed


#: Process-wide cache used by the experiment harness and benchmarks.
GLOBAL_CACHE = CompileCache()
