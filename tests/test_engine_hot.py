"""The dense-dispatch engine hot path must be bit-identical to pre-PR.

The executed-tick rebuild (dense nid-indexed dispatch arrays, the
incrementally-maintained ordered active list, interned firing counters,
the memory system's busy-bank calendar, the resolved-reference FM-NoC
tick) is an *optimization, not an approximation*: every observable —
``SimStats``, final memory, fault schedules — must be exactly what the
pre-PR per-tick loop produced.

Two layers of evidence (plus a mid-run checkpoint round trip):

1. **Pinned digests** (``tests/data/engine_hot_digests.json``): the
   stable stats+memory digest of every Table 1 workload at tiny scale,
   captured on the pre-PR engine, for a clean run and a fault-injected
   run. Every (skip, trace, check, critpath, faults) variant the engine
   supports must still land on those exact digests. Regenerate — only
   after an *intentional* semantic change — with::

       PYTHONPATH=src:tests:. python tests/test_engine_hot.py --regen

2. **Order property**: the ordered active list must visit exactly the
   nodes ``sorted(set)`` would, under adversarial add/discard
   interleavings (the pre-PR loop's snapshot semantics).
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from benchmarks.e2e.digests import run_digest
from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, FaultParams, SimParams
from repro.core.policy import EFFCC
from repro.pnr.flow import compile_once
from repro.sim.engine import simulate
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

#: (variant name, SimParams kwargs, pinned-digest key).
VARIANTS = [
    ("skip", dict(cycle_skip=True), "clean"),
    ("noskip", dict(cycle_skip=False), "clean"),
    ("trace", dict(cycle_skip=True, trace=True), "clean"),
    ("check", dict(cycle_skip=True, check=True), "clean"),
    ("critpath", dict(cycle_skip=True, critpath=True), "clean"),
    ("faults", dict(cycle_skip=True, faults=FAULTS), "faults"),
    ("faults-noskip", dict(cycle_skip=False, faults=FAULTS), "faults"),
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
def test_digest_matches_pre_pr(name, variant, sim_kwargs, key):
    result = run_variant(name, sim_kwargs)
    assert digest_of(result) == pinned()[name][key], (
        f"{name} [{variant}] diverged from the pinned pre-PR digest — "
        "the hot-path rebuild is no longer bit-identical"
    )


# -- 2. ordered active list == sorted(set) -----------------------------------


def test_active_list_order_property():
    """The ordered active list visits exactly sorted(reference set).

    Mirrors the engine's usage pattern: batched adds between ticks,
    lazy discards (including discard-then-readd within one tick), and
    per-tick iteration snapshots that must equal ``sorted()`` of a
    reference Python set at the same point.
    """
    from repro.sim.engine import _OrderedIntSet

    rng = random.Random(20250808)
    n = 97
    active = _OrderedIntSet(n)
    reference: set[int] = set()
    for _tick in range(400):
        for _ in range(rng.randrange(8)):
            op = rng.randrange(3)
            nid = rng.randrange(n)
            if op == 0:
                active.add(nid)
                reference.add(nid)
            elif op == 1:
                active.discard(nid)
                reference.discard(nid)
            else:
                # discard-then-readd: the stale-copy + pending-dup case.
                active.discard(nid)
                active.add(nid)
                reference.add(nid)
        assert bool(active) == bool(reference)
        snapshot = [nid for nid in active.iter_ordered() if active.has(nid)]
        assert snapshot == sorted(reference)
        assert sorted(active) == sorted(reference)
        assert set(active.members()) == reference
        for nid in rng.sample(range(n), 10):
            assert active.has(nid) == (nid in reference)


def test_active_list_additions_during_iteration_not_visited():
    """Adds made mid-iteration land in the *next* tick's snapshot —
    exactly the pre-PR ``sorted(self.active)`` snapshot semantics."""
    from repro.sim.engine import _OrderedIntSet

    active = _OrderedIntSet(10)
    for nid in (1, 5, 7):
        active.add(nid)
    seen = []
    for nid in active.iter_ordered():
        if not active.has(nid):
            continue
        seen.append(nid)
        if nid == 1:
            active.add(3)  # too late for this tick
            active.discard(5)  # lazy delete: skipped below
    assert seen == [1, 7]
    assert list(active.iter_ordered()) == [1, 3, 7]


# -- 3. a mid-run snapshot restores into a fresh engine ----------------------


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
        arch = ArchParams(sim=SimParams(cycle_skip=True))
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
        clean = digest_of(run_variant(name, dict(cycle_skip=True)))
        faulty = digest_of(
            run_variant(name, dict(cycle_skip=True, faults=FAULTS))
        )
        digests[name] = {"clean": clean, "faults": faulty}
        print(f"{name:12s} clean={clean} faults={faulty}")
    DIGEST_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        raise SystemExit("usage: python tests/test_engine_hot.py --regen")
