"""Resilient sweep supervisor: classify, retry, timeout, resume.

The contract under test (see ``repro.exp.resilient``): a supervised
sweep returns every healthy point plus typed failure records instead of
crashing; retries are deterministic (PnR retries perturb only the
*placement* seed, journaled for reproducibility); and ``resume`` skips
exactly the points a validated journal proves complete.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from concurrent.futures.process import BrokenProcessPool

from repro.errors import (
    DeadlockError,
    ExperimentError,
    JobTimeout,
    PlacementError,
    PnRError,
    PnRVerifyError,
    ReproError,
    RoutingError,
    SimulationError,
    ValidationError,
)
from repro.exp.configs import MONACO, upea
from repro.exp.resilient import (
    PNR_SEED_STRIDE,
    FailureRecord,
    SweepPolicy,
    call_with_timeout,
    classify_failure,
    run_resilient,
)
from repro.exp.runner import _run_sweep_job, run_workload_on_configs
from repro.exp.spec import sweep_specs
from repro.obs.manifest import completed_points, read_manifest

CONFIGS = [MONACO, upea(2)]


def _specs(workloads, configs=CONFIGS, **fields):
    """The tiny (workload x config) sweep over ``workloads``."""
    return sweep_specs(workloads, configs, scale="tiny", **fields)


def _keys(points) -> set:
    return {spec.key for spec in points}


# -- taxonomy ---------------------------------------------------------------


def test_classify_failure_taxonomy():
    cases = [
        (JobTimeout("t"), "timeout"),
        (ValidationError("v"), "validation"),
        (DeadlockError("d"), "deadlock"),
        (RoutingError("r"), "routing"),
        (PlacementError("p"), "placement"),
        (PnRError("p"), "pnr"),
        # A PnR self-check failure is a wrong answer, never retried.
        (PnRVerifyError("c"), "repro"),
        (SimulationError("s"), "simulation"),
        (BrokenProcessPool("w"), "worker-death"),
        (ReproError("g"), "repro"),
        (RuntimeError("x"), "infrastructure"),
    ]
    for exc, kind in cases:
        assert classify_failure(exc) == kind, kind


def test_validation_error_carries_context():
    """The typed wrong-answer error names what diverged and where."""
    from repro.workloads.registry import make_workload

    instance = make_workload("dmv", scale="tiny", seed=0)
    good = {name: list(instance.reference[name]) for name in instance.outputs}
    instance.check(good)  # the reference itself validates

    bad = {name: list(vals) for name, vals in good.items()}
    first = instance.outputs[0]
    bad[first][0] += 1
    with pytest.raises(ValidationError) as err:
        instance.check(bad)
    assert err.value.workload == "dmv"
    assert err.value.array == first
    assert err.value.index == 0
    assert err.value.got != err.value.want

    short = {name: list(vals) for name, vals in good.items()}
    short[first] = short[first][:-1]
    with pytest.raises(ValidationError) as err:
        instance.check(short)
    assert err.value.array == first
    assert err.value.index is None  # length mismatch, no single index


# -- policy -----------------------------------------------------------------


def test_sweep_policy_validates_inputs():
    with pytest.raises(ExperimentError):
        SweepPolicy(on_failure="explode")
    with pytest.raises(ExperimentError):
        SweepPolicy(max_retries=-1)
    with pytest.raises(ExperimentError):
        SweepPolicy(job_timeout_s=0)


def test_wants_retry_matrix():
    retry = SweepPolicy(on_failure="retry", max_retries=2)
    assert retry.wants_retry("routing", 1)
    assert retry.wants_retry("timeout", 2)
    assert not retry.wants_retry("routing", 3)  # budget exhausted
    assert not retry.wants_retry("validation", 1)  # deterministic kind
    skip = SweepPolicy(on_failure="skip")
    assert not skip.wants_retry("routing", 1)


def test_call_with_timeout_interrupts_and_restores():
    def sleepy():
        time.sleep(10)

    before = time.perf_counter()
    with pytest.raises(JobTimeout):
        call_with_timeout(0.1, sleepy, label="sleepy")
    assert time.perf_counter() - before < 5.0
    # The previous handler and timer are restored: a fast job afterwards
    # must not be shot by a stale alarm.
    assert call_with_timeout(5.0, lambda: "ok") == "ok"
    time.sleep(0.15)  # an un-cancelled 0.1s timer would fire here


def test_call_with_timeout_passthrough_when_unlimited():
    assert call_with_timeout(None, lambda: 41 + 1) == 42
    assert call_with_timeout(0, lambda: "zero-means-off") == "zero-means-off"


# -- supervised sweeps over fake jobs ---------------------------------------
# job_fn doubles must be module-level (pickled into pool workers) and
# take _run_sweep_job's ``(spec, env)``.


def _point(spec):
    return (spec.workload, spec.config.name, spec.seed, spec.pnr_seed)


def _ok_job(spec, env):
    return _point(spec)


def _fail_one_job(spec, env):
    if spec.key[:2] == ("dmv", "upea2"):
        raise SimulationError("injected mid-sweep failure")
    return _point(spec)


def _routing_until_perturbed_job(spec, env):
    if spec.pnr_seed is None:
        raise RoutingError("congested under the original placement seed")
    return _point(spec)


def _sleepy_job(spec, env):
    def body():
        time.sleep(10)

    return call_with_timeout(env.timeout_s, body, label=spec.label)


def _die_once_job(spec, env):
    if spec.key[:2] == ("spmv", "monaco"):
        marker = Path(env.cache_dir) / "died-once"
        if not marker.exists():
            marker.write_text("x")
            os._exit(1)  # worker death -> BrokenProcessPool in the parent
    return _point(spec)


def test_skip_policy_returns_healthy_results_serial_and_pool():
    policy = SweepPolicy(on_failure="skip")
    kwargs = dict(sweep_policy=policy, job_fn=_fail_one_job)
    specs = _specs(["spmspv", "dmv"])
    serial = run_resilient(specs, max_workers=1, **kwargs)
    pooled = run_resilient(specs, max_workers=2, **kwargs)
    for outcome in (serial, pooled):
        assert _keys(outcome.results) == {
            ("spmspv", "monaco", 0),
            ("spmspv", "upea2", 0),
            ("dmv", "monaco", 0),
        }
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert (failure.workload, failure.config) == ("dmv", "upea2")
        assert failure.kind == "simulation"
        assert not outcome.ok
    assert serial.results == pooled.results
    assert serial.failures == pooled.failures


def test_retry_perturbs_placement_seed_deterministically():
    (spec,) = _specs(["spmspv"], [MONACO])
    outcome = run_resilient(
        [spec],
        max_workers=1,
        sweep_policy=SweepPolicy(on_failure="retry", max_retries=2),
        job_fn=_routing_until_perturbed_job,
    )
    assert outcome.ok
    # Keyed by the point as requested, not by the perturbed retry.
    name, config, seed, pnr_seed = outcome.results[spec]
    assert pnr_seed == 0 + PNR_SEED_STRIDE * 1  # first retry's seed


def test_retry_budget_exhaustion_records_failure():
    def always_routing(spec, env):
        raise RoutingError("never routes")

    outcome = run_resilient(
        _specs(["spmspv"], [MONACO]),
        max_workers=1,
        sweep_policy=SweepPolicy(on_failure="retry", max_retries=2),
        job_fn=always_routing,
    )
    assert not outcome.results
    (failure,) = outcome.failures
    assert failure.kind == "routing"
    assert failure.attempts == 3  # first try + 2 retries
    assert failure.pnr_seeds == (
        PNR_SEED_STRIDE * 1,
        PNR_SEED_STRIDE * 2,
    )


def test_abort_policy_reraises_first_failure():
    with pytest.raises(SimulationError):
        run_resilient(
            _specs(["spmspv", "dmv"]),
            max_workers=1,
            job_fn=_fail_one_job,  # default ABORT policy
        )


def test_job_timeout_is_classified_and_bounded():
    before = time.perf_counter()
    outcome = run_resilient(
        _specs(["spmspv"], [MONACO]),
        max_workers=1,
        sweep_policy=SweepPolicy(job_timeout_s=0.2, on_failure="skip"),
        job_fn=_sleepy_job,
    )
    assert time.perf_counter() - before < 8.0
    (failure,) = outcome.failures
    assert failure.kind == "timeout"


def test_worker_death_is_retried_with_a_fresh_pool(tmp_path):
    outcome = run_resilient(
        _specs(["spmv", "spmspv"], [MONACO]),
        max_workers=2,
        cache_dir=tmp_path,  # doubles as the death-marker scratch dir
        sweep_policy=SweepPolicy(on_failure="retry", max_retries=3),
        job_fn=_die_once_job,
    )
    assert outcome.ok, [f.describe() for f in outcome.failures]
    assert _keys(outcome.results) == {
        ("spmv", "monaco", 0),
        ("spmspv", "monaco", 0),
    }
    assert (tmp_path / "died-once").exists()


# -- pooled dispatcher ------------------------------------------------------
# Doubles log to files in ``env.cache_dir`` (the one path every worker
# receives); one short append per line, so lines never interleave. The
# compile-task double goes in by patching ``runner._compile_sweep_job``,
# which ``run_resilient`` resolves at call time.


def _log(cache_dir, name, line):
    with open(Path(cache_dir) / name, "a") as handle:
        handle.write(line + "\n")


def _read_log(cache_dir, name):
    path = Path(cache_dir) / name
    return path.read_text().splitlines() if path.exists() else []


def _noop_compile(spec, env):
    return None


def _patch_compile(monkeypatch, double):
    from repro.exp import runner

    monkeypatch.setattr(runner, "_compile_sweep_job", double)


def _routing_compile(spec, env):
    _log(
        env.cache_dir,
        "compiles.log",
        f"{spec.workload} {spec.seed} {spec.pnr_seed}",
    )
    if spec.pnr_seed is None:
        raise RoutingError("congested under the original placement seed")


def _timed_compile(spec, env):
    start = time.monotonic()
    time.sleep(0.2)
    _log(env.cache_dir, "spans.log", f"compile {start} {time.monotonic()}")


def _timed_job(spec, env):
    start = time.monotonic()
    time.sleep(0.5)
    _log(env.cache_dir, "spans.log", f"sim {start} {time.monotonic()}")
    return spec.key[:2]


def _first_fails_rest_sleep_job(spec, env):
    if spec.config.name == "monaco":
        raise SimulationError("first job fails at once")
    _log(env.cache_dir, "started.log", spec.config.name)
    time.sleep(1.0)
    return spec.key[:2]


def _first_fails_once_job(spec, env):
    _log(
        env.cache_dir, "starts.log", f"{spec.config.name} {time.monotonic()}"
    )
    marker = Path(env.cache_dir) / "failed-once"
    if spec.config.name == "monaco" and not marker.exists():
        marker.write_text("x")
        raise JobTimeout("transient")
    time.sleep(0.2)
    return spec.key[:2]


def _die_once_others_sleep_job(spec, env):
    if spec.config.name == "monaco":
        marker = Path(env.cache_dir) / "died-once"
        if not marker.exists():
            marker.write_text("x")
            os._exit(1)
    time.sleep(0.2)
    return spec.key[:2]


def test_failed_compile_task_leaves_the_verdict_to_each_point(
    tmp_path, monkeypatch
):
    """A compile task that cannot route releases its points anyway: under
    ``skip`` each point records its own failure; under ``retry`` the
    three points' common perturbed seed is one new key, compiled once."""
    _patch_compile(monkeypatch, _routing_compile)
    configs = [MONACO, upea(2), upea(3)]
    kwargs = dict(max_workers=2, job_fn=_routing_until_perturbed_job)

    skipped = run_resilient(
        _specs(["spmspv"], configs), cache_dir=tmp_path,
        sweep_policy=SweepPolicy(on_failure="skip"), **kwargs,
    )
    assert not skipped.results
    assert [(f.config, f.kind, f.attempts) for f in skipped.failures] == [
        (c.name, "routing", 1) for c in configs
    ]
    assert _read_log(tmp_path, "compiles.log") == ["spmspv 0 None"]

    (tmp_path / "compiles.log").unlink()
    retried = run_resilient(
        _specs(["spmspv"], configs), cache_dir=tmp_path,
        sweep_policy=SweepPolicy(on_failure="retry", max_retries=2), **kwargs,
    )
    assert retried.ok
    assert {r[3] for r in retried.results.values()} == {PNR_SEED_STRIDE}
    assert _read_log(tmp_path, "compiles.log") == [
        "spmspv 0 None",
        f"spmspv 0 {PNR_SEED_STRIDE}",
    ]


def test_one_key_runs_one_compile_then_every_sim_at_once(
    tmp_path, monkeypatch
):
    """Fewer keys than workers: the sims start together behind the one
    compile task — none queues behind a sibling."""
    _patch_compile(monkeypatch, _timed_compile)
    outcome = run_resilient(
        _specs(["spmspv"], [MONACO, upea(2), upea(3)]), max_workers=3,
        cache_dir=tmp_path, job_fn=_timed_job,
    )
    assert len(outcome.results) == 3
    spans = [line.split() for line in _read_log(tmp_path, "spans.log")]
    compiles = [(float(a), float(b)) for k, a, b in spans if k == "compile"]
    sims = [(float(a), float(b)) for k, a, b in spans if k == "sim"]
    assert len(compiles) == 1 and len(sims) == 3
    assert min(start for start, _ in sims) >= compiles[0][1]
    assert max(start for start, _ in sims) < min(end for _, end in sims)


def test_abort_cancels_queued_jobs(tmp_path, monkeypatch):
    """Fail-fast means fast: the first failure drops what is queued
    rather than running the sweep out (10 x 1 s on 2 workers = 5 s)."""
    _patch_compile(monkeypatch, _noop_compile)
    configs = [MONACO] + [upea(n) for n in range(2, 12)]
    before = time.perf_counter()
    with pytest.raises(SimulationError):
        run_resilient(
            _specs(["spmspv"], configs), max_workers=2,
            cache_dir=tmp_path, job_fn=_first_fails_rest_sleep_job,
        )
    assert time.perf_counter() - before < 3.0
    assert len(_read_log(tmp_path, "started.log")) <= 3  # the window


def test_backoff_delays_the_retry_not_the_supervisor(tmp_path, monkeypatch):
    """A point's backoff is a not-before time on that point: the other
    points keep being dispatched while it waits."""
    _patch_compile(monkeypatch, _noop_compile)
    configs = [MONACO] + [upea(n) for n in range(2, 9)]
    backoff = 1.0
    outcome = run_resilient(
        _specs(["spmspv"], configs), max_workers=2, cache_dir=tmp_path,
        sweep_policy=SweepPolicy(
            on_failure="retry", max_retries=1, backoff_s=backoff
        ),
        job_fn=_first_fails_once_job,
    )
    assert outcome.ok and len(outcome.results) == len(configs)
    starts = [line.split() for line in _read_log(tmp_path, "starts.log")]
    first, retry = [float(t) for name, t in starts if name == "monaco"]
    assert retry - first >= backoff
    # upea8 sat beyond the in-flight window when monaco failed; a
    # supervisor asleep for the backoff could not have dispatched it.
    (last,) = [float(t) for name, t in starts if name == configs[-1].name]
    assert last < first + backoff


def test_backoff_applies_in_process_too(tmp_path):
    outcome = run_resilient(
        _specs(["spmspv"]), max_workers=1, cache_dir=tmp_path,
        sweep_policy=SweepPolicy(
            on_failure="retry", max_retries=1, backoff_s=0.5
        ),
        job_fn=_first_fails_once_job,
    )
    assert outcome.ok
    starts = [line.split() for line in _read_log(tmp_path, "starts.log")]
    first, retry = [float(t) for name, t in starts if name == "monaco"]
    assert retry - first >= 0.5


def test_worker_death_poisons_only_the_window(tmp_path, monkeypatch):
    """Only points in flight when the worker died are charged the death;
    the undispatched rest of the round runs on a fresh pool, once."""
    _patch_compile(monkeypatch, _noop_compile)
    configs = [MONACO] + [upea(n) for n in range(2, 10)]
    workers = 2
    outcome = run_resilient(
        _specs(["spmspv"], configs), max_workers=workers,
        cache_dir=tmp_path, sweep_policy=SweepPolicy(on_failure="skip"),
        job_fn=_die_once_others_sleep_job,
    )
    dead = {f.config for f in outcome.failures}
    assert "monaco" in dead and len(dead) <= workers + 1
    assert {f.kind for f in outcome.failures} == {"worker-death"}
    assert {spec.config.name for spec in outcome.results} == {
        c.name for c in configs
    } - dead


# -- real-simulator equivalence with a mid-sweep failure --------------------


def _real_but_one_fails_job(spec, env):
    if spec.key[:2] == ("dmv", "upea2"):
        raise DeadlockError("injected mid-sweep failure")
    return _run_sweep_job(spec, env)


def test_serial_vs_parallel_identical_around_a_failure(tmp_path):
    """One failing point must not disturb any healthy point's result."""
    policy = SweepPolicy(on_failure="skip")
    kwargs = dict(
        cache_dir=tmp_path / "cache",
        sweep_policy=policy,
        job_fn=_real_but_one_fails_job,
    )
    serial = run_resilient(
        _specs(["spmspv", "dmv"]), max_workers=1,
        manifest_path=tmp_path / "serial.jsonl", **kwargs,
    )
    pooled = run_resilient(
        _specs(["spmspv", "dmv"]), max_workers=2,
        manifest_path=tmp_path / "pooled.jsonl", **kwargs,
    )
    assert serial.results == pooled.results
    assert len(serial.results) == 3
    assert serial.failures == pooled.failures

    def stable(path):
        out = []
        for record in read_manifest(path):
            out.append(
                {
                    k: v
                    for k, v in record.items()
                    if k not in ("wall_time_s", "timestamp", "git_rev")
                }
            )
        return out

    assert stable(tmp_path / "serial.jsonl") == stable(tmp_path / "pooled.jsonl")
    statuses = [r["status"] for r in read_manifest(tmp_path / "serial.jsonl")]
    assert statuses.count("ok") == 3 and statuses.count("failed") == 1


# -- resume -----------------------------------------------------------------


def test_resume_requires_manifest():
    with pytest.raises(ExperimentError):
        run_resilient(
            _specs(["spmspv"], [MONACO]), max_workers=1, resume=True,
            job_fn=_ok_job,
        )


def test_resume_skips_completed_and_reruns_failed(tmp_path):
    manifest = tmp_path / "journal.jsonl"
    first = run_resilient(
        _specs(["spmspv", "dmv"]),
        max_workers=1,
        cache_dir=tmp_path / "cache",
        manifest_path=manifest,
        sweep_policy=SweepPolicy(on_failure="skip"),
        job_fn=_real_but_one_fails_job,
    )
    assert len(first.results) == 3 and len(first.failures) == 1

    # Resume with the failure "fixed": only the failed point reruns.
    second = run_resilient(
        _specs(["spmspv", "dmv"]),
        max_workers=1,
        cache_dir=tmp_path / "cache",
        manifest_path=manifest,
        sweep_policy=SweepPolicy(on_failure="skip"),
        resume=True,
    )
    assert second.skipped == list(first.results)
    assert _keys(second.results) == {("dmv", "upea2", 0)}
    assert second.ok

    # A third resume finds everything journaled and runs nothing.
    third = run_resilient(
        _specs(["spmspv", "dmv"]),
        max_workers=1,
        cache_dir=tmp_path / "cache",
        manifest_path=manifest,
        resume=True,
    )
    assert not third.results and len(third.skipped) == 4


def test_resume_ignores_stale_journal_configuration(tmp_path):
    """A journal from a different sweep configuration skips nothing."""
    manifest = tmp_path / "journal.jsonl"
    run_resilient(
        _specs(["spmspv"], [MONACO]), max_workers=1,
        cache_dir=tmp_path / "cache", manifest_path=manifest, job_fn=None,
    )
    assert len(completed_points(manifest)) == 1
    # Same points, different divider: digests differ, so nothing skips.
    outcome = run_resilient(
        _specs(["spmspv"], [MONACO], divider=4), max_workers=1,
        cache_dir=tmp_path / "cache", manifest_path=manifest, resume=True,
    )
    assert not outcome.skipped
    assert _keys(outcome.results) == {("spmspv", "monaco", 0)}


def test_resume_ignores_tampered_journal_records(tmp_path):
    manifest = tmp_path / "journal.jsonl"
    run_resilient(
        _specs(["spmspv"], [MONACO]), max_workers=1,
        cache_dir=tmp_path / "cache", manifest_path=manifest,
    )
    (record,) = read_manifest(manifest)
    record["seed"] = 99  # hand-edit without recomputing the digest
    manifest.write_text(json.dumps(record, sort_keys=True) + "\n")
    assert completed_points(manifest) == set()


def test_resume_survives_a_torn_final_line(tmp_path):
    manifest = tmp_path / "journal.jsonl"
    run_resilient(
        _specs(["spmspv"], [MONACO]), max_workers=1,
        cache_dir=tmp_path / "cache", manifest_path=manifest,
    )
    with open(manifest, "a") as handle:
        handle.write('{"schema": 4, "status": "ok", "trunca')  # killed mid-append
    assert len(completed_points(manifest)) == 1
    with pytest.raises(json.JSONDecodeError):
        read_manifest(manifest, strict=True)


# -- run_workload_on_configs supervision ------------------------------------


def test_run_workload_on_configs_supervised(tmp_path):
    """The serial helper honors the same policy surface as the sweep."""
    from dataclasses import replace

    from repro.arch.params import ArchParams, FaultParams

    arch = ArchParams()
    arch = replace(
        arch, sim=replace(arch.sim, faults=FaultParams(mem_drop_prob=1.0))
    )
    failures: list[FailureRecord] = []
    manifest = tmp_path / "man.jsonl"
    results = run_workload_on_configs(
        "spmspv",
        CONFIGS,
        scale="tiny",
        arch=arch,
        manifest_path=manifest,
        sweep_policy=SweepPolicy(on_failure="skip"),
        failures=failures,
    )
    assert results == {}
    assert [f.kind for f in failures] == ["deadlock", "deadlock"]
    records = read_manifest(manifest)
    assert all(r["status"] == "failed" for r in records)
    assert all(r["faults"] == "seed=0,mem-drop=1.0" for r in records)


# -- profile-guided sweeps ---------------------------------------------------


def test_profile_guided_sweep_journals_profile(tmp_path):
    """A real profile-guided sweep marks its manifest identity and
    carries the refinement report; resume honors the new digest."""
    manifest = tmp_path / "man.jsonl"
    specs = _specs(["spmspv"], [MONACO], profile_guided=True)
    outcome = run_resilient(specs, max_workers=1, manifest_path=manifest)
    assert outcome.ok
    (run,) = outcome.results.values()
    assert run.profile is not None
    assert set(run.profile) >= {"promoted", "demoted", "degenerate"}
    (record,) = read_manifest(manifest)
    assert record["profile"] == "guided"
    assert record["profile_report"] == dict(run.profile)
    # The journal proves the point complete under the *guided* digest...
    resumed = run_resilient(
        specs, max_workers=1, manifest_path=manifest, resume=True
    )
    assert resumed.skipped == specs
    # (A static sweep's refusal to alias this journal is covered by
    # test_static_resume_does_not_alias_guided_journal below.)


def test_static_resume_does_not_alias_guided_journal(tmp_path):
    """A guided record must not prove the *static* point complete: the
    two identities digest differently, so resume never aliases them."""
    from repro.obs.manifest import point_digest

    manifest = tmp_path / "man.jsonl"
    run_resilient(
        _specs(["spmspv"], [MONACO], profile_guided=True),
        max_workers=1,
        manifest_path=manifest,
    )
    (record,) = read_manifest(manifest)
    done = completed_points(manifest)
    assert record["point_digest"] in done  # the guided identity is proven
    # The static identity of the same point: everything but the marker.
    static_digest = point_digest({**record, "profile": None})
    assert static_digest not in done
