"""The dense-dispatch engine hot path must be bit-identical to pre-PR.

The executed-tick rebuild (dense nid-indexed dispatch arrays, the flag
scheduler, interned firing counters, the memory system's busy-bank
calendar, the resolved-reference FM-NoC tick) is an *optimization, not
an approximation*: every observable — ``SimStats``, final memory, fault
schedules — must be exactly what the pre-PR per-tick loop produced.

Three layers of evidence (plus a mid-run checkpoint round trip):

1. **Pinned digests** (``tests/data/engine_hot_digests.json``): the
   stable stats+memory digest of every Table 1 workload at tiny scale,
   captured on the pre-PR engine, for a clean run and a fault-injected
   run. Every (trace, check, critpath, faults) variant the engine
   supports, and the per-cycle reference loop, must still land on those
   exact digests. Regenerate — only
   after an *intentional* semantic change — with::

       PYTHONPATH=src:tests:. python tests/test_engine_hot.py --regen

2. **Order property**: a fabric tick must visit exactly the nodes
   ``sorted(set)`` would, under adversarial wake/sleep interleavings
   (the pre-PR loop's snapshot semantics).

3. **Calls per firing**: the plain path's only Python call per visited
   node is its compiled rule; a count of Python-level calls, which does
   not depend on the host, holds that.
"""

from __future__ import annotations

import gc
import json
import pathlib
import random
import sys
from itertools import compress

import pytest

from benchmarks.e2e.digests import run_digest
from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, FaultParams, SimParams
from repro.core.policy import EFFCC
from repro.dfg.ops import NO_EMIT
from repro.pnr.flow import compile_once
from repro.sim.engine import _Engine, simulate
from repro.workloads.registry import ALL_WORKLOADS, make_workload

DATA_DIR = pathlib.Path(__file__).parent / "data"
DIGEST_PATH = DATA_DIR / "engine_hot_digests.json"
#: The workload the mid-run checkpoint round trip runs.
SNAP_WORKLOAD = "spmspv"

FABRIC = monaco(12, 12)

#: Deterministic fault mix used for the pinned "faults" digests. Delay,
#: stall and grant-skip only — drops would (correctly) deadlock.
FAULTS = FaultParams(
    seed=3,
    mem_delay_prob=0.2,
    mem_delay_cycles=5,
    pe_stall_prob=0.1,
    grant_skip_prob=0.1,
)

#: (variant name, SimParams kwargs, pinned-digest key). A ``noskip``
#: variant runs under the ``per_cycle_loop`` fixture.
VARIANTS = [
    ("skip", {}, "clean"),
    ("noskip", {}, "clean"),
    ("trace", dict(trace=True), "clean"),
    ("check", dict(check=True), "clean"),
    ("critpath", dict(critpath=True), "clean"),
    ("faults", dict(faults=FAULTS), "faults"),
    ("faults-noskip", dict(faults=FAULTS), "faults"),
]

_COMPILED: dict[str, object] = {}


def compiled_for(name: str):
    """One compile per workload per session (PnR is deterministic)."""
    if name not in _COMPILED:
        instance = make_workload(name, scale="tiny")
        _COMPILED[name] = (
            instance,
            compile_once(
                instance.kernel, FABRIC, ArchParams(), EFFCC, parallelism=1
            ),
        )
    return _COMPILED[name]


def run_variant(name: str, sim_kwargs: dict):
    instance, compiled = compiled_for(name)
    arch = ArchParams(sim=SimParams(**sim_kwargs))
    arrays = {k: list(v) for k, v in instance.arrays.items()}
    return simulate(compiled, instance.params, arrays, arch)


def digest_of(result) -> str:
    """The repo's stable stats + final-memory digest of one run."""
    return run_digest(result.stats.to_dict(), result.memory)


def pinned() -> dict:
    return json.loads(DIGEST_PATH.read_text())


# -- 1. pinned pre-PR digests ------------------------------------------------


@pytest.mark.parametrize("variant,sim_kwargs,key", VARIANTS)
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_digest_matches_pre_pr(name, variant, sim_kwargs, key, request):
    if variant.endswith("noskip"):
        request.getfixturevalue("per_cycle_loop")
    result = run_variant(name, sim_kwargs)
    assert digest_of(result) == pinned()[name][key], (
        f"{name} [{variant}] diverged from the pinned pre-PR digest — "
        "the hot-path rebuild is no longer bit-identical"
    )


# -- 2. flag scheduler == sorted(set) -----------------------------------------

#: A firing that pops nothing, emits nothing and keeps the node awake.
STAY_AWAKE = ((), NO_EMIT, None, None)


def flagged(flags) -> set[int]:
    return set(compress(range(len(flags)), flags))


class _DrivenScheduler:
    """The real ``_Engine`` of ``ic`` with its firing rules swapped for
    scripted ones, so a test decides per visit whether the node sleeps
    and whom it wakes, and drives ``_fabric_tick`` itself.

    ``live`` / ``emit_live`` are the reference sets. Every visit of
    either loop first asserts that the flags equal the reference — so
    nothing but the node just visited was cleared since the last visit
    (INTERNALS Sec. 11, case 3: the loops need no membership guard).
    """

    def __init__(self, monkeypatch):
        captured = []
        with monkeypatch.context() as patch:
            patch.setattr(
                _Engine,
                "run",
                lambda engine: captured.append(engine) or engine.stats,
            )
            run_variant("ic", {})
        self.engine = engine = captured[0]
        self.nids = sorted(engine.dfg.nodes)
        self.live = set(self.nids)  # every node starts awake
        self.emit_live: set[int] = set()
        self.visits: list[int] = []
        self.emit_visits: list[int] = []
        self.sleepers: set[int] = set()
        self.wakes: dict[int, list[int]] = {}
        for nid in self.nids:
            engine._rules[nid] = self._rule(nid)
        scheduler = self

        class SpiedQueues(list):
            # ``resp[nid]`` is the first thing an emit-loop visit does.
            def __getitem__(self, nid):
                assert flagged(engine.emit_candidates) == scheduler.emit_live
                scheduler.emit_visits.append(nid)
                scheduler.emit_live.discard(nid)  # empty queue: sleeps
                return list.__getitem__(self, nid)

        engine.resp_queue = SpiedQueues(engine.resp_queue)

    def _rule(self, nid):
        def rule(_state):
            assert flagged(self.engine.active) == self.live
            self.visits.append(nid)
            for woken in self.wakes.get(nid, ()):
                self.engine.active[woken] = 1
                self.live.add(woken)
            if nid in self.sleepers:
                self.live.discard(nid)
                return None
            return STAY_AWAKE

        return rule

    def tick(self, now: int) -> None:
        self.visits.clear()
        self.emit_visits.clear()
        self.engine._fabric_tick(now)
        assert flagged(self.engine.active) == self.live
        assert flagged(self.engine.emit_candidates) == self.emit_live


def test_active_list_order_property(monkeypatch):
    """Each tick visits exactly sorted(reference set).

    400 ticks of adversarial wake / sleep / sleep-then-rewake between
    ticks (as ``run`` and ``commit_pushes`` store flags) and during them
    (scripted rules), against a reference Python set.
    """
    rng = random.Random(20250808)
    driven = _DrivenScheduler(monkeypatch)
    engine, nids, live = driven.engine, driven.nids, driven.live
    memory_nids = [n for n in nids if engine.resp_queue[n] is not None]
    for now in range(400):
        for _ in range(rng.randrange(8)):
            op = rng.randrange(3)
            nid = rng.choice(nids)
            if op == 0:
                engine.active[nid] = 1
                live.add(nid)
            elif op == 1:
                engine.active[nid] = 0
                live.discard(nid)
            else:
                engine.active[nid] = 0
                engine.active[nid] = 1
                live.add(nid)
        for nid in rng.sample(memory_nids, rng.randrange(4)):
            engine.emit_candidates[nid] = 1
            driven.emit_live.add(nid)
        assert (1 in engine.active) == bool(live)
        assert (1 in engine.emit_candidates) == bool(driven.emit_live)
        expected = sorted(live)
        expected_emit = sorted(driven.emit_live)
        driven.sleepers = {n for n in expected if rng.random() < 0.4}
        # Mid-iteration wakes: of nodes already visited (asleep again or
        # not), still to come, and outside this tick's snapshot.
        driven.wakes = {
            nid: rng.sample(nids, 2)
            for nid in rng.sample(expected, len(expected) // 8)
        }
        driven.tick(now)
        assert driven.visits == expected
        assert driven.emit_visits == expected_emit


def test_active_list_additions_during_iteration_not_visited(monkeypatch):
    """A wake made mid-iteration — of a lower or a higher id than the
    node being visited — is first visited at the *next* tick: the
    ``sorted(self.active)`` snapshot semantics of the original loop."""
    driven = _DrivenScheduler(monkeypatch)
    nids = driven.nids
    lower, first, visiting, last, higher = (
        nids[2], nids[5], nids[40], nids[90], nids[100]
    )
    awake = [first, visiting, last]
    driven.sleepers = set(nids) - set(awake)
    driven.tick(0)  # everyone else goes to sleep
    assert driven.visits == nids
    driven.sleepers = {first}
    driven.wakes = {visiting: [lower, higher, first]}
    driven.tick(1)
    assert driven.visits == awake
    driven.wakes = {}
    driven.tick(2)
    assert driven.visits == [lower, first, visiting, last, higher]


# -- 3. the compiled rule is the only per-node Python call --------------------


def python_calls_per_firing(name: str, monkeypatch) -> tuple[int, int]:
    """``(Python-level calls inside _Engine.run, firings)`` of one plain
    run — set-up (frontend and table construction) is not the tick."""
    real_run = _Engine.run
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    def profiled_run(engine):
        # A garbage collection inside the window would count the Python
        # finalizers of earlier tests' garbage (a suspended generator's
        # frame, a ``__del__``) as calls of this run.
        gc.collect()
        gc.disable()
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            return real_run(engine)
        finally:
            sys.setprofile(previous)
            gc.enable()

    with monkeypatch.context() as patch:
        patch.setattr(_Engine, "run", profiled_run)
        result = run_variant(name, {})
    return calls, sum(result.stats.firings.values())


@pytest.mark.parametrize("name", ["ic", "spmspv"])
def test_python_calls_per_firing(name, monkeypatch):
    """A per-node method call put back into the fire, emit or commit
    loop costs >= 1 call per visit, and a node is visited ~2.6 times per
    firing: the scheduler as an object measured 14.2 (ic) and 15.3
    (spmspv) calls per firing, the inlined flag loops 8.3 and 9.0."""
    calls, firings = python_calls_per_firing(name, monkeypatch)
    assert calls / firings <= 10.0
    assert python_calls_per_firing(name, monkeypatch) == (calls, firings)


# -- 4. a mid-run snapshot restores into a fresh engine ----------------------


def test_state_dict_roundtrip_mid_run_new_layout():
    """state_dict/load_state_dict keep the portable schema: a snapshot
    taken by the new engine mid-run restores into a *fresh* new engine
    and finishes on the pinned digest (checkpoint cadence exercises the
    dense layout's fold/refill paths)."""
    import os
    import tempfile

    from repro.sim.snapshot import CheckpointConfig

    instance, compiled = compiled_for(SNAP_WORKLOAD)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mid.snap")
        arch = ArchParams()
        arrays = {k: list(v) for k, v in instance.arrays.items()}
        from repro.errors import SimulationPreempted

        checkpoint = CheckpointConfig(path=path, cycle_budget=300)
        with pytest.raises(SimulationPreempted):
            simulate(
                compiled, instance.params, arrays, arch,
                checkpoint=checkpoint,
            )
        arrays = {k: list(v) for k, v in instance.arrays.items()}
        result = simulate(
            compiled, instance.params, arrays, arch, resume_from=path
        )
        assert result.resume_info is not None
        assert digest_of(result) == pinned()[SNAP_WORKLOAD]["clean"]


# -- regeneration entry point ------------------------------------------------


def _regen() -> None:
    """Capture the pinned digests.

    Run this ONLY on a revision whose engine behavior is the intended
    reference (originally: the pre-PR per-tick loop).
    """
    DATA_DIR.mkdir(exist_ok=True)
    digests: dict[str, dict[str, str]] = {}
    for name in ALL_WORKLOADS:
        clean = digest_of(run_variant(name, {}))
        faulty = digest_of(run_variant(name, dict(faults=FAULTS)))
        digests[name] = {"clean": clean, "faults": faulty}
        print(f"{name:12s} clean={clean} faults={faulty}")
    DIGEST_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        raise SystemExit("usage: python tests/test_engine_hot.py --regen")
