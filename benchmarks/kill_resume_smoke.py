"""CI guard: a SIGKILLed sweep or probed run resumes bit-identically.

Two end-to-end preemption drills, driven through the real CLI in real
subprocesses (no cooperation from the victim). The sweep drill runs once
per machine configuration in ``CONFIGS`` — on Monaco a killed point's
requests sit in arbiter latches, on UPEA they wait out a fixed delay on
the engine's calendar:

1. run a clean reference sweep and key its manifest by point digest;
2. launch the same sweep with ``--snapshot-dir``/``--checkpoint-every``,
   poll until the first snapshot file is published, then SIGKILL the
   whole process — no signal handler runs, exactly like an OOM kill or
   a node reclaim — and append half a record with no trailing newline
   to its journal, the torn tail a kill during a journal write leaves;
3. ``repro sweep --resume`` against the same journal: completed points
   are skipped, the interrupted point continues from its last valid
   snapshot, and any stale ``.tmp`` is ignored. The torn line is dropped
   on read; the record appended after it starts on a line of its own,
   so the fragment costs nothing but itself;
4. assert the final journal's ok-records equal the clean sweep's —
   keyed by ``point_digest`` and compared on
   :func:`repro.obs.manifest.stable_view`, since a resume may reorder
   records but must never change results — and that any resumed record
   carries ``resume.from_cycle > 0`` with its final attempt executing
   fewer cycles than the whole run.

The probed-run drill kills ``repro run ic --scale small --critpath
--critpath-json J --trace-path T --stats-json S --snapshot-dir D
--checkpoint-every 500`` once its first snapshot publishes, reruns the
same argv — which continues from the snapshot and the recording's
sidecar — and asserts ``J``, ``T`` and ``S`` equal an uninterrupted
run's byte for byte.

Each kill races its victim by construction; if the victim finishes
before the signal lands, the drill degrades to the plain path (still
asserted) and says so. CI treats that as success — the race is rare at
small scale and the bit-identity contract is covered either way.

Run: ``python benchmarks/kill_resume_smoke.py [--workdir DIR] [--keep]``
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.manifest import read_manifest, stable_view  # noqa: E402

WORKLOADS = ["spmspv", "dmv"]
#: One sweep drill each (module docstring).
CONFIGS = ["monaco", "upea2"]
SCALE = "small"
CHECKPOINT_EVERY = "500"
#: How long to wait for the victim's first snapshot file.
SNAPSHOT_WAIT_S = 120.0
#: The probed run of the second drill, and the files it writes.
PROBED_RUN = ["run", "ic", "--scale", SCALE, "--critpath"]
PROBED_OUTPUTS = {
    "--critpath-json": "critpath.json",
    "--trace-path": "trace.json",
    "--stats-json": "stats.json",
}


def sweep_cmd(
    manifest: Path,
    cache: Path,
    config: str,
    stats_json: Path | None = None,
    snapshot_dir: Path | None = None,
    resume: bool = False,
) -> list[str]:
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        "--workloads",
        *WORKLOADS,
        "--configs",
        config,
        "--scale",
        SCALE,
        "--jobs",
        "1",
        "--cache-dir",
        str(cache),
        "--manifest",
        str(manifest),
    ]
    if stats_json is not None:
        cmd += ["--stats-json", str(stats_json)]
    if snapshot_dir is not None:
        cmd += [
            "--snapshot-dir",
            str(snapshot_dir),
            "--checkpoint-every",
            CHECKPOINT_EVERY,
        ]
    if resume:
        cmd += ["--resume"]
    return cmd


def probed_run_cmd(out: Path, snapshot_dir: Path | None = None) -> list[str]:
    cmd = [sys.executable, "-m", "repro", *PROBED_RUN]
    for flag, name in PROBED_OUTPUTS.items():
        cmd += [flag, str(out / name)]
    if snapshot_dir is not None:
        cmd += [
            "--snapshot-dir",
            str(snapshot_dir),
            "--checkpoint-every",
            CHECKPOINT_EVERY,
        ]
    return cmd


def run(cmd: list[str], log: Path) -> None:
    env = {**os.environ, "PYTHONPATH": "src"}
    with open(log, "ab") as handle:
        subprocess.run(
            cmd, cwd=REPO, env=env, stdout=handle, stderr=handle, check=True
        )


def kill_after_first_snapshot(
    cmd: list[str], snaps: Path, log: Path
) -> tuple[bool, int]:
    """Run ``cmd``; SIGKILL it as soon as a snapshot appears in
    ``snaps``. Returns whether the kill landed, and the exit code."""
    env = {**os.environ, "PYTHONPATH": "src"}
    with open(log, "ab") as handle:
        victim = subprocess.Popen(
            cmd, cwd=REPO, env=env, stdout=handle, stderr=handle
        )
        killed = False
        deadline = time.monotonic() + SNAPSHOT_WAIT_S
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            if list(snaps.glob("*.snap")):
                victim.send_signal(signal.SIGKILL)
                killed = True
                break
            time.sleep(0.02)
        returncode = victim.wait(timeout=60)
    if killed:
        assert returncode != 0, "SIGKILLed victim exited 0"
        print(
            f"      killed mid-flight (rc={returncode}); snapshots on "
            f"disk: {[p.name for p in sorted(snaps.glob('*.snap'))]}"
        )
    else:
        assert returncode == 0, f"victim failed on its own: {log}"
        print("      victim finished before the kill landed; the drill "
              "degrades to its plain path")
    return killed, returncode


def keyed_ok(manifest: Path) -> dict:
    return {
        record["point_digest"]: stable_view(record)
        for record in read_manifest(manifest, strict=False)
        if record.get("status") == "ok"
    }


def sweep_drill(workdir: Path, config: str) -> None:
    cache = workdir / "cache"  # shared by every configuration's drill
    workdir = workdir / config
    workdir.mkdir(parents=True, exist_ok=True)
    snaps = workdir / "snaps"
    clean_manifest = workdir / "clean.jsonl"
    victim_manifest = workdir / "victim.jsonl"
    log = workdir / "log.txt"

    # 1. Reference sweep — also warms the shared compile cache, so the
    #    victim spends its wall time simulating, not compiling.
    print(f"[1/4] clean reference sweep -> {clean_manifest}")
    run(sweep_cmd(clean_manifest, cache, config), log)
    clean = keyed_ok(clean_manifest)
    expected_points = len(WORKLOADS)
    assert len(clean) == expected_points, (
        f"clean sweep journaled {len(clean)} ok points, "
        f"expected {expected_points}"
    )

    # 2. Victim sweep: SIGKILL as soon as the first snapshot publishes.
    print("[2/4] victim sweep, SIGKILL after first snapshot")
    killed, _returncode = kill_after_first_snapshot(
        sweep_cmd(victim_manifest, cache, config, snapshot_dir=snaps),
        snaps,
        log,
    )
    first = clean_manifest.read_text().splitlines()[0]
    torn = first[: len(first) // 2]
    with open(victim_manifest, "a") as handle:
        handle.write(torn)
    print("      journal torn: half a record appended, no newline")

    # 3. Resume the journal. Completed points skip; the interrupted one
    #    continues from its snapshot.
    print("[3/4] repro sweep --resume")
    run(
        sweep_cmd(
            victim_manifest,
            cache,
            config,
            stats_json=workdir / "resumed-stats.json",
            snapshot_dir=snaps,
            resume=True,
        ),
        log,
    )

    # 4. The recovered journal must equal the clean one — keyed, since
    #    recovery may reorder records but never change their content.
    print("[4/4] comparing journals")
    recovered = keyed_ok(victim_manifest)
    assert set(recovered) == set(clean), (
        f"recovered sweep covers {sorted(recovered)}, "
        f"clean covers {sorted(clean)}"
    )
    mismatched = [d for d in clean if recovered[d] != clean[d]]
    assert not mismatched, (
        f"resumed points diverged from the uninterrupted sweep: {mismatched}"
    )
    # The fragment costs only itself: it is the one line that does not
    # parse, with nothing the resume appended glued onto it.
    unparsable = []
    for line in victim_manifest.read_text().splitlines():
        try:
            json.loads(line)
        except json.JSONDecodeError:
            unparsable.append(line)
    assert unparsable == [torn], (
        f"the torn tail swallowed a record: {unparsable}"
    )

    # ``resume`` is volatile (stripped by stable_view) — read it raw.
    raw_resumed = [
        record
        for record in read_manifest(victim_manifest, strict=False)
        if record.get("status") == "ok" and record.get("resume")
    ]
    for record in raw_resumed:
        info = record["resume"]
        assert info["from_cycle"] > 0, record
        assert info["executed_before"] > 0, record
        final_attempt = record["stats"]["executed_cycles"] - info["executed_before"]
        assert 0 < final_attempt < record["stats"]["executed_cycles"], (
            "resumed attempt did not execute fewer cycles than the full run"
        )
        print(
            f"      {record['workload']}/{record['config']}: resumed from "
            f"cycle {info['from_cycle']} "
            f"({final_attempt}/{record['stats']['executed_cycles']} cycles "
            "in the final attempt)"
        )
    if killed and not raw_resumed:
        # Kill landed after the in-flight point's last journal append but
        # before its snapshot could matter — point simply reran clean.
        print("      kill landed between points; all reran/skipped clean")

    snapshots = [
        record
        for record in read_manifest(victim_manifest, strict=False)
        if record.get("status") == "snapshot"
    ]
    if killed:
        assert snapshots, "victim died after a snapshot but journaled none"
    leftover = list(snaps.glob("*.snap"))
    assert not leftover, f"recovered sweep left snapshots behind: {leftover}"

    print(
        f"OK: {len(recovered)} points bit-identical to the clean sweep "
        f"({len(raw_resumed)} resumed mid-flight, "
        f"{len(snapshots)} snapshot journal records)"
    )


def probed_run_drill(workdir: Path) -> None:
    """SIGKILL a probed ``repro run`` mid-simulation, rerun the same
    argv, and compare its probe files with an uninterrupted run's."""
    clean, victim = workdir / "probed-clean", workdir / "probed-victim"
    snaps = workdir / "probed-snaps"
    log = workdir / "probed-log.txt"
    for out in (clean, victim):
        out.mkdir(parents=True, exist_ok=True)
    print(f"[1/3] uninterrupted probed run -> {clean}")
    run(probed_run_cmd(clean), log)
    print("[2/3] probed run, SIGKILL after first snapshot, same argv again")
    argv = probed_run_cmd(victim, snapshot_dir=snaps)
    killed, _returncode = kill_after_first_snapshot(argv, snaps, log)
    rerun_log = workdir / "probed-rerun.txt"
    run(argv, rerun_log)
    if killed:
        assert "resumed from" in rerun_log.read_text(), (
            f"the rerun started over instead of resuming: {rerun_log}"
        )
    print("[3/3] comparing probe files byte for byte")
    for name in PROBED_OUTPUTS.values():
        assert (victim / name).read_bytes() == (clean / name).read_bytes(), (
            f"resumed {name} differs from the uninterrupted run's"
        )
    leftover = list(snaps.iterdir())
    assert not leftover, f"resumed run left files behind: {leftover}"
    print(f"OK: {', '.join(PROBED_OUTPUTS.values())} bit-identical")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="where manifests/snapshots/logs land (default: a temp dir)",
    )
    parser.add_argument(
        "--keep",
        action="store_true",
        help="keep the workdir for triage instead of deleting it",
    )
    args = parser.parse_args()

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="kill-resume-"))
    workdir.mkdir(parents=True, exist_ok=True)
    for config in CONFIGS:
        print(f"sweep drill on {config}")
        sweep_drill(workdir, config)
    print("probed-run drill")
    probed_run_drill(workdir)
    if not args.keep and args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
