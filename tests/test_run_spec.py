"""The sweep-point identity: one ``RunSpec``, two declared subsets.

The contract under test (see ``repro.exp.spec``): a point is one frozen,
picklable object; its journal digest changes exactly with the point
subset and its compile key exactly with the compile subset; every job —
serial or pooled, whatever features are armed — receives ``(spec, env)``;
and the compile cache and the resume journal trust nothing keyed any
other way.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import replace

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import (
    PROBE_SWITCHES,
    ArchParams,
    FaultParams,
    MemoryParams,
    SimParams,
    TimingParams,
)
from repro.exp.cache import GLOBAL_CACHE
from repro.exp.configs import MONACO, upea
from repro.exp.resilient import SweepEnv, SweepPolicy, run_resilient
from repro.exp.runner import compile_cached
from repro.exp.spec import RunSpec, sweep_specs
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    POINT_FIELDS,
    completed_points,
    read_manifest,
)
from repro.pnr.flow import compile_kernel
from repro.workloads.registry import make_workload

BASE = RunSpec("dmv", MONACO, scale="tiny")


def _arch(**fields) -> ArchParams:
    return replace(BASE.arch, **fields)


def _sim(**fields) -> ArchParams:
    return _arch(sim=replace(BASE.arch.sim, **fields))


# Every RunSpec field (ArchParams by the part that matters), flipped.
FLIPS = {
    "workload": replace(BASE, workload="spmspv"),
    "config": replace(BASE, config=upea(2)),
    "scale": replace(BASE, scale="small"),
    "seed": replace(BASE, seed=1),
    "divider": replace(BASE, divider=4),
    "divider.routed": replace(BASE, divider=None),
    "policy": replace(BASE, policy="domain-unaware"),
    "fabric": replace(BASE, fabric=("monaco", 10, 10)),
    "fabric.variant": replace(BASE, fabric=("monaco", 12, 12, 2, 3)),
    "profile_guided": replace(BASE, profile_guided=True),
    "parallelism": replace(BASE, parallelism=2),
    "mem_mode": replace(BASE, mem_mode="serialize"),
    "node_weights": replace(BASE, node_weights=((3, 2.5),)),
    "arch.noc_tracks": replace(BASE, arch=_arch(noc_tracks=5)),
    "arch.noc_model": replace(BASE, arch=_arch(noc_model="monaco-tracks")),
    "arch.timing": replace(
        BASE, arch=_arch(timing=TimingParams(hop_units=3.0))
    ),
    "arch.memory": replace(
        BASE, arch=_arch(memory=MemoryParams(hit_cycles=3))
    ),
    "arch.sim.trace": replace(BASE, arch=_sim(trace=True)),
    "arch.sim.critpath": replace(BASE, arch=_sim(critpath=True)),
    "arch.sim.check": replace(BASE, arch=_sim(check=True)),
    "arch.sim.faults": replace(
        BASE, arch=_sim(faults=FaultParams(mem_delay_prob=0.5))
    ),
    "arch.sim.fifo_capacity": replace(BASE, arch=_sim(fifo_capacity=4)),
    "arch.sim.max_outstanding": replace(BASE, arch=_sim(max_outstanding=4)),
}

#: Flips that change what a point measures before it runs.
POINT_SUBSET = {
    "workload", "config", "scale", "seed", "divider", "divider.routed",
    "policy", "fabric", "fabric.variant", "profile_guided", "parallelism",
    "mem_mode", "node_weights", "arch.sim.faults",
    # What PnR reads off ArchParams changes the artifact a point runs.
    "arch.noc_tracks", "arch.noc_model", "arch.timing",
    # Simulator knobs that move the cycles. Regression: a default, a
    # hit_cycles=3 and a fifo/outstanding=4 dmv point measured 208, 224
    # and 176 cycles under one digest (and one snapshot file name).
    "arch.memory", "arch.sim.fifo_capacity", "arch.sim.max_outstanding",
}
#: Flips that must NOT move the journal digest: the probes, whose
#: results are bit-identical.
POINT_INVARIANT = {f"arch.sim.{name}" for name in PROBE_SWITCHES}
#: Flips of anything ``compile_once`` reads.
COMPILE_SUBSET = {
    "workload", "scale", "seed", "policy", "fabric",
    "fabric.variant", "profile_guided", "parallelism", "mem_mode",
    "node_weights", "arch.noc_tracks", "arch.noc_model", "arch.timing",
}


def test_every_flip_is_a_different_spec():
    assert all(flipped != BASE for flipped in FLIPS.values())
    assert POINT_SUBSET | POINT_INVARIANT | COMPILE_SUBSET == set(FLIPS)


@pytest.mark.parametrize("name", sorted(FLIPS))
def test_pickle_round_trip_keeps_identity(name):
    spec = FLIPS[name]
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.point_digest() == spec.point_digest()
    assert clone.compile_key == spec.compile_key


def test_point_fields_are_the_declared_columns():
    assert tuple(BASE.point_fields()) == POINT_FIELDS
    json.dumps(BASE.point_fields())  # JSON-ready as is


@pytest.mark.parametrize("name", sorted(POINT_SUBSET))
def test_point_subset_flip_changes_point_digest(name):
    assert FLIPS[name].point_digest() != BASE.point_digest()


@pytest.mark.parametrize("name", sorted(POINT_INVARIANT))
def test_point_digest_ignores_fields_outside_its_subset(name):
    assert FLIPS[name].point_digest() == BASE.point_digest()


@pytest.mark.parametrize("name", sorted(FLIPS))
def test_compile_key_changes_with_exactly_the_compile_subset(name):
    changed = FLIPS[name].compile_key != BASE.compile_key
    assert changed == (name in COMPILE_SUBSET)


# -- the compile cache trusts only the compile subset -----------------------


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(GLOBAL_CACHE, "_store", {})
    monkeypatch.setattr(GLOBAL_CACHE, "disk_dir", None)


def test_compile_cached_never_serves_another_timing_or_noc_model(empty_cache):
    """Regression: the key carried ``noc_tracks`` but neither ``timing``
    nor ``noc_model``, so a compile under another timing model got the
    default artifact back."""
    instance = make_workload("dmv", scale="tiny")
    fabric = monaco(12, 12)
    default = compile_cached(instance, fabric, ArchParams())
    for arch in (
        ArchParams(timing=TimingParams(hop_units=3.0)),
        ArchParams(noc_model="monaco-tracks"),
    ):
        cached = compile_cached(instance, fabric, arch)
        fresh = compile_kernel(instance.kernel, fabric, arch)
        assert cached is not default
        assert cached.timing.clock_divider == fresh.timing.clock_divider
    # What only the simulator reads shares the default's entry.
    sim_only = ArchParams(
        memory=MemoryParams(hit_cycles=3), sim=SimParams(trace=True)
    )
    assert compile_cached(instance, fabric, sim_only) is default


# -- every job gets (spec, env) ---------------------------------------------


def _echo_job(spec, env):
    return (spec, env)


def _noop_compile(spec, env):
    return None


@pytest.mark.parametrize("snapshotting", [False, True])
@pytest.mark.parametrize("profile_guided", [False, True])
def test_serial_and_pooled_jobs_get_equal_spec_and_env(
    tmp_path, monkeypatch, snapshotting, profile_guided
):
    from repro.exp import runner

    monkeypatch.setattr(runner, "_compile_sweep_job", _noop_compile)
    snapshot_dir = tmp_path / "snaps" if snapshotting else None
    kwargs = dict(
        cache_dir=tmp_path / "cache",
        sweep_policy=SweepPolicy(job_timeout_s=30.0, checkpoint_every=500),
        snapshot_dir=snapshot_dir,
        job_fn=_echo_job,
    )
    specs = sweep_specs(
        ["spmspv", "dmv"], [MONACO, upea(2)], (0, 1), scale="tiny",
        profile_guided=profile_guided,
    )
    serial = run_resilient(specs, max_workers=1, **kwargs)
    pooled = run_resilient(specs, max_workers=2, **kwargs)
    assert len(serial.results) == 8
    assert serial.results == pooled.results
    for point, (spec, env) in serial.results.items():
        assert isinstance(spec, RunSpec) and isinstance(env, SweepEnv)
        assert spec == point
        assert spec.profile_guided == profile_guided
        assert env == SweepEnv(
            cache_dir=str(tmp_path / "cache"),
            snapshot_dir=str(snapshot_dir) if snapshotting else None,
            policy=SweepPolicy(job_timeout_s=30.0, checkpoint_every=500),
        )


# -- the journal trusts only the current identity ---------------------------


def test_resume_reruns_every_point_across_a_noc_tracks_flip(tmp_path):
    """A journal written under other ``noc_tracks`` proves nothing.

    ``point_fields`` used to omit the ``ArchParams`` fields PnR reads,
    so this resume skipped both points and reported the 3-track
    artifacts' cycles as the 7-track sweep's.
    """
    manifest = tmp_path / "journal.jsonl"
    kwargs = dict(max_workers=1, manifest_path=manifest)
    points = (["dmv", "spmspv"], [MONACO])
    run_resilient(sweep_specs(*points, scale="tiny"), **kwargs)
    same = run_resilient(
        sweep_specs(*points, scale="tiny"), resume=True, **kwargs
    )
    assert len(same.skipped) == 2 and not same.results

    flipped = run_resilient(
        sweep_specs(*points, scale="tiny", arch=ArchParams(noc_tracks=7)),
        resume=True, **kwargs,
    )
    assert not flipped.skipped
    assert {spec.key for spec in flipped.results} == {
        ("dmv", "monaco", 0), ("spmspv", "monaco", 0),
    }
    tracks = [record["noc_tracks"] for record in read_manifest(manifest)]
    assert tracks == [3, 3, 7, 7]


def test_resume_reruns_the_points_of_a_schema_2_journal(tmp_path):
    """A journal written before the identity was one object is ignored
    whole, however self-consistent its records are."""
    manifest = tmp_path / "journal.jsonl"
    specs = sweep_specs(["spmspv"], [MONACO], scale="tiny")
    kwargs = dict(max_workers=1, manifest_path=manifest)
    run_resilient(specs, **kwargs)
    (record,) = read_manifest(manifest)
    assert completed_points(manifest) == {record["point_digest"]}

    # The same record as schema 2 wrote it: no ``profile`` column on a
    # static point, digests taken over ``{"schema": 2, ...}``.
    old = {k: v for k, v in record.items() if k != "profile"}
    old["schema"] = 2
    identity = {k: old[k] for k in POINT_FIELDS if k != "profile"}
    old["point_digest"] = hashlib.sha256(
        json.dumps({"schema": 2, **identity}, sort_keys=True).encode()
    ).hexdigest()[:16]
    manifest.write_text(json.dumps(old, sort_keys=True) + "\n")
    assert completed_points(manifest) == set()

    outcome = run_resilient(specs, resume=True, **kwargs)
    assert not outcome.skipped
    assert list(outcome.results) == specs
    # The rerun is journaled under the current schema, after the old line.
    assert [r["schema"] for r in read_manifest(manifest)] == [
        2,
        MANIFEST_SCHEMA,
    ]
