"""CI guard: the observability layer must cost nothing when off.

Five checks, all deterministic except the timing ratios:

1. **Gating** — an untraced run must carry no observation object at all
   (``result.obs is None``): every publish site in the engine, memory
   system, and frontends is gated on that attribute, so this is the
   single failure point through which off-path tracing work could leak.
2. **Bit-identity** — tracing on must not change a single stat or output
   byte (it observes the machine, it never steers it).
3. **Timing sanity** — the untraced median must not exceed the traced
   median (with slack for CI noise): if the off path ever does the on
   path's work, the two medians collapse together from the wrong side.
4. **Detached critical-path profiler** — with ``sim.critpath`` false
   (the default), the engine's tick-record appends and its one
   ``obs.tick`` dispatch, which are all the recorder listens to, must
   vanish behind the same None gate: stats and memory bit-identical
   to the plain off run, wall time within the same noise bound, and
   ``stats.critpath`` empty. A critpath-on run must carry the recorder
   and a report whose category costs sum to ``system_cycles`` exactly.
5. **Detached snapshot layer** — with the checkpoint knobs off (the
   default) the engine carries no checkpointer and the run is
   bit-identical to pre-snapshot builds; a checkpoint-armed run writes
   periodic snapshots yet still produces identical stats and memory,
   retires its file on clean completion, and the detached median stays
   within the noise bound of the armed one. One preempt/resume
   round-trip is timed for restore-latency telemetry.

The absolute pre/post-PR regression gate is ``bench_cycle_skip``'s >=3x
speedup floor, which runs in the same CI job; this script pins the
*mechanism* (None-gating) that keeps the off path free.

Run: ``PYTHONPATH=src python benchmarks/check_trace_overhead.py``
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import tempfile
import time

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, SimParams
from repro.errors import SimulationPreempted
from repro.exp.configs import MONACO
from repro.exp.runner import PAPER_DIVIDER, compile_cached
from repro.sim.engine import simulate
from repro.sim.snapshot import CheckpointConfig
from repro.workloads.registry import make_workload

WORKLOAD = "spmspv"
SCALE = "small"
ROUNDS = 3
#: Allowed off/on ratio: off must not be slower than on beyond CI noise.
NOISE_SLACK = 1.10


def timed_run(compiled, instance, arch):
    arrays = {name: list(data) for name, data in instance.arrays.items()}
    start = time.perf_counter()
    result = simulate(
        compiled,
        instance.params,
        arrays,
        arch,
        frontend_factory=MONACO.frontend_factory(PAPER_DIVIDER),
        divider=PAPER_DIVIDER,
    )
    elapsed = time.perf_counter() - start
    instance.check(result.memory)
    return result, elapsed


def main() -> int:
    instance = make_workload(WORKLOAD, scale=SCALE)
    arch_off = ArchParams(sim=SimParams(trace=False))
    arch_on = ArchParams(sim=SimParams(trace=True))
    arch_crit = ArchParams(sim=SimParams(critpath=True))
    snap_dir = tempfile.mkdtemp(prefix="bench-snap-")
    snap_path = os.path.join(snap_dir, "bench.snap")
    arch_snap = ArchParams(
        sim=SimParams(checkpoint_path=snap_path, checkpoint_every=2000)
    )
    compiled = compile_cached(instance, monaco(12, 12), arch_off)

    runs = {}
    for label, arch in (
        ("off", arch_off),
        ("on", arch_on),
        ("crit", arch_crit),
        ("snap", arch_snap),
    ):
        results, times = [], []
        for _ in range(ROUNDS):
            result, elapsed = timed_run(compiled, instance, arch)
            results.append(result)
            times.append(elapsed)
        runs[label] = (results, statistics.median(times))

    off_results, off_s = runs["off"]
    on_results, on_s = runs["on"]
    crit_results, crit_s = runs["crit"]
    snap_results, snap_s = runs["snap"]

    # 1. Gating: no observation object may exist on the off path.
    assert all(r.obs is None for r in off_results), (
        "untraced run carried an observation object -- the "
        "zero-overhead-when-off gating is broken"
    )
    assert all(r.obs is not None for r in on_results)

    # 2. Bit-identity: tracing observes, never steers.
    assert on_results[0].stats == off_results[0].stats, (
        "tracing changed simulation stats"
    )
    assert on_results[0].memory == off_results[0].memory, (
        "tracing changed simulated memory"
    )

    overhead = (on_s - off_s) / off_s
    print(
        f"{WORKLOAD}/{SCALE}: trace-off median {off_s:.3f}s, "
        f"trace-on median {on_s:.3f}s "
        f"(tracing-on overhead {overhead:+.1%}, {ROUNDS} rounds)"
    )

    # 3. Timing sanity.
    if off_s > on_s * NOISE_SLACK:
        print(
            f"FAIL: untraced run slower than traced run "
            f"({off_s:.3f}s vs {on_s:.3f}s) -- off path is doing "
            "tracing work",
            file=sys.stderr,
        )
        return 1

    # 4. Critical-path profiler: attached it must balance its books;
    #    detached (the plain off run) it must not exist at all.
    assert all(r.obs is not None for r in crit_results)
    assert crit_results[0].stats == off_results[0].stats, (
        "critical-path profiling changed simulation stats"
    )
    assert crit_results[0].memory == off_results[0].memory, (
        "critical-path profiling changed simulated memory"
    )
    report = crit_results[0].obs.critpath.report
    total = sum(report["categories"].values())
    assert total == report["system_cycles"], (
        f"critpath attribution sums to {total}, "
        f"system_cycles is {report['system_cycles']}"
    )
    assert not off_results[0].stats.critpath, (
        "detached run carries a critpath report"
    )
    crit_overhead = (crit_s - off_s) / off_s
    print(
        f"{WORKLOAD}/{SCALE}: critpath-on median {crit_s:.3f}s "
        f"(overhead {crit_overhead:+.1%}); attribution sums to "
        f"{total:,d} == system_cycles"
    )
    if off_s > crit_s * NOISE_SLACK:
        print(
            f"FAIL: profiler-detached run slower than profiler-attached "
            f"run ({off_s:.3f}s vs {crit_s:.3f}s) -- the detached path "
            "is doing critpath work",
            file=sys.stderr,
        )
        return 1

    # 5. Snapshot layer: armed it must observe, never steer — and retire
    #    its file on clean completion; detached it must not exist at all.
    assert all(r.snapshot_stats is None for r in off_results), (
        "checkpoint-detached run carries a checkpointer -- the "
        "zero-overhead-when-off gating is broken"
    )
    snap_writes = snap_results[0].snapshot_stats["writes"]
    assert snap_writes >= 1, "checkpoint-armed run wrote no snapshots"
    assert snap_results[0].stats == off_results[0].stats, (
        "periodic checkpointing changed simulation stats"
    )
    assert snap_results[0].memory == off_results[0].memory, (
        "periodic checkpointing changed simulated memory"
    )
    assert not os.path.exists(snap_path), (
        "clean completion left its snapshot behind"
    )
    snap_overhead = (snap_s - off_s) / off_s
    write_wall_s = snap_results[0].snapshot_stats["write_wall_s"]
    print(
        f"{WORKLOAD}/{SCALE}: checkpoint-armed median {snap_s:.3f}s "
        f"({snap_writes} writes, {write_wall_s:.3f}s in writes, "
        f"overhead {snap_overhead:+.1%})"
    )
    if off_s > snap_s * NOISE_SLACK:
        print(
            f"FAIL: checkpoint-detached run slower than checkpoint-armed "
            f"run ({off_s:.3f}s vs {snap_s:.3f}s) -- the detached path "
            "is doing snapshot work",
            file=sys.stderr,
        )
        return 1

    # One preempt/resume round-trip for restore-latency telemetry; the
    # resumed half must land on the uninterrupted run's stats exactly.
    restore_path = os.path.join(snap_dir, "restore.snap")
    arrays = {name: list(data) for name, data in instance.arrays.items()}
    try:
        simulate(
            compiled,
            instance.params,
            arrays,
            arch_off,
            frontend_factory=MONACO.frontend_factory(PAPER_DIVIDER),
            divider=PAPER_DIVIDER,
            checkpoint=CheckpointConfig(path=restore_path, cycle_budget=4000),
        )
    except SimulationPreempted:
        pass
    else:
        raise AssertionError("cycle-budgeted run was not preempted")
    arrays = {name: list(data) for name, data in instance.arrays.items()}
    resumed = simulate(
        compiled,
        instance.params,
        arrays,
        arch_off,
        frontend_factory=MONACO.frontend_factory(PAPER_DIVIDER),
        divider=PAPER_DIVIDER,
        checkpoint=CheckpointConfig(path=restore_path),
        resume_from=restore_path,
    )
    instance.check(resumed.memory)
    assert resumed.stats == off_results[0].stats, (
        "preempt/resume round-trip changed simulation stats"
    )
    restore_s = resumed.resume_info["restore_wall_s"]
    print(
        f"{WORKLOAD}/{SCALE}: restored from cycle "
        f"{resumed.resume_info['from_cycle']:,d} in {restore_s:.3f}s"
    )
    shutil.rmtree(snap_dir, ignore_errors=True)

    try:
        from conftest import record_bench
    except ImportError:
        record_bench = None
    if record_bench is not None:
        record_bench(
            "trace_overhead",
            workload=WORKLOAD,
            cycles=off_results[0].stats.system_cycles,
            wall_s=off_s,
            config={"scale": SCALE, "rounds": ROUNDS},
            extra={
                "wall_s_traced": round(on_s, 6),
                "wall_s_critpath": round(crit_s, 6),
                "wall_s_checkpointed": round(snap_s, 6),
                "trace_overhead": round(overhead, 4),
                "critpath_overhead": round(crit_overhead, 4),
                "snapshot_overhead": round(snap_overhead, 4),
                "snapshot_writes": snap_writes,
                "snapshot_write_wall_s": round(write_wall_s, 6),
                "snapshot_restore_wall_s": round(restore_s, 6),
            },
        )

    print("OK: off path carries no observation and matches traced stats")
    return 0


if __name__ == "__main__":
    sys.exit(main())
