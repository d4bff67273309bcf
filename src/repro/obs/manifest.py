"""Structured JSONL run manifests — and the sweep's resume journal.

Every harness run can append one JSON object per (workload, config, seed)
point to a manifest file: what ran (config digest), where (git revision,
fabric), how long (wall time) and what it measured (the full
``SimStats.to_dict()``). Scripts consume the JSONL instead of scraping
``summary()`` text, and two manifests of the same sweep — serial or
parallel, any ``--jobs`` — differ only in ``wall_time_s`` and
``timestamp``.

The manifest doubles as the resilient sweep's checkpoint journal
(see :mod:`repro.exp.resilient`): every record carries a ``status``
(``"ok"`` / ``"failed"``) and a ``point_digest`` — a stable digest of the
*pre-run* point identity (:data:`POINT_FIELDS`, built by
:meth:`repro.exp.spec.RunSpec.point_fields`; everything except run
outputs). On ``sweep --resume`` a point is skipped only when the journal holds an
``ok`` record whose stored digest both matches the digest recomputed
from the record's own fields (integrity: a hand-edited or truncated
journal entry is ignored) and equals the digest of the point about to
run (staleness: a journal written under any other sweep configuration —
different scale, policy, fabric, fault model — can never poison a run).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import time

#: Manifest schema version; bump on incompatible layout changes.
#: v2: ``status``, ``point_digest`` and ``faults`` fields (resume journal).
#: v3: the identity is the fixed column set :data:`POINT_FIELDS`
#: (``profile`` always present, ``None`` when off).
#: v4: ``requested_parallelism``, ``mem_mode``, ``memory``,
#: ``fifo_capacity`` and ``max_outstanding`` columns; ``divider`` may be
#: ``None`` (the routed design's own).
#: v5: ``node_weights`` column (a feedback-directed placement round).
MANIFEST_SCHEMA = 5

#: The ``ArchParams`` fields ``pnr/flow.py::compile_once`` reads: the one
#: list behind both the compile-cache key
#: (:func:`repro.exp.spec.compile_key`) and the point identity below.
#: ``memory`` and ``sim`` belong to the simulator (``sim.check`` arms
#: PnR's self-checks, which verify an artifact without changing it).
ARCH_COMPILE_FIELDS = ("noc_tracks", "noc_model", "timing")

#: The point subset: the record columns that are a point's pre-run
#: identity. ``point_digest`` covers exactly these. A journal record
#: written before a column existed lacks it and is rerun, not trusted.
POINT_FIELDS = (
    "workload",
    "config",
    "scale",
    "seed",
    "divider",
    "fabric",
    "policy",
    "faults",
    "profile",
    "requested_parallelism",
    "mem_mode",
    "node_weights",
    *ARCH_COMPILE_FIELDS,
    "memory",
    "fifo_capacity",
    "max_outstanding",
)

#: Keys that legitimately differ between two runs of the same point.
#: ``pnr`` is compile-time telemetry (moves/s, per-phase wall times) —
#: informative in the record, but never part of the stable view.
#: ``resume`` records how a preempted point was continued from its
#: snapshot (see :mod:`repro.sim.snapshot`); the resumed run's results
#: are bit-identical to an uninterrupted one, so the stable views of a
#: clean and a resumed manifest must compare equal.
VOLATILE_KEYS = ("wall_time_s", "timestamp", "git_rev", "pnr", "resume")


@functools.lru_cache(maxsize=1)
def git_rev() -> str:
    """Current git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def config_digest(fields: dict) -> str:
    """Stable short digest of the run configuration."""
    payload = json.dumps(
        {"schema": MANIFEST_SCHEMA, **fields}, sort_keys=True
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def point_digest(fields: dict) -> str:
    """Digest of the :data:`POINT_FIELDS` columns of ``fields``.

    ``fields`` is a :meth:`~repro.exp.spec.RunSpec.point_fields` dict or
    a journal record; a missing column raises ``KeyError``.
    """
    return config_digest({name: fields[name] for name in POINT_FIELDS})


def _energy_block(stats) -> dict:
    """Deterministic energy breakdown for one record.

    Priced purely from stable counters (firings, hops, accesses), so the
    block belongs in the *stable* view: serial and parallel sweeps of
    the same point must produce byte-identical energy blocks.
    """
    from repro.sim.energy import estimate_energy

    return estimate_energy(stats).to_dict()


def build_manifest(run, spec) -> dict:
    """One manifest record for a :class:`~repro.exp.runner.RunResult`
    of the point ``spec`` (a :class:`~repro.exp.spec.RunSpec`)."""
    identity = spec.point_fields()
    config_fields = {**identity, "parallelism": run.parallelism}
    record = {
        "schema": MANIFEST_SCHEMA,
        "status": "ok",
        "digest": config_digest(config_fields),
        "point_digest": point_digest(identity),
        **config_fields,
        "git_rev": git_rev(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_time_s": round(getattr(run, "wall_time", 0.0), 6),
        "cycles": run.cycles,
        "stats": run.stats.to_dict(),
        "energy": _energy_block(run.stats),
    }
    pnr = getattr(run, "pnr", None)
    if pnr is not None:
        record["pnr"] = pnr.to_dict()
    profile_report = getattr(run, "profile", None)
    if profile_report is not None:
        # Outcome of the profile-guided refinement pass — deterministic
        # (promoted/demoted node ids, degeneracy note), so it lives in
        # the *stable* view; the pre-run identity above carries only the
        # ``profile`` marker.
        record["profile_report"] = dict(profile_report)
    resume_info = getattr(run, "resume_info", None)
    if resume_info is not None:
        # The point was continued from a mid-simulation snapshot; the
        # stats above are still bit-identical to an uninterrupted run
        # (``resume`` is volatile, see VOLATILE_KEYS).
        record["resume"] = dict(resume_info)
    return record


def completed_points(path) -> set[str]:
    """Point digests the journal proves completed successfully.

    Only ``status == "ok"`` records of the current schema count, and
    only when the stored ``point_digest`` matches the digest recomputed
    from the record's own fields — a tampered, truncated or
    stale-schema entry is silently ignored rather than trusted.
    """
    try:
        records = read_manifest(path, strict=False)
    except OSError:
        return set()
    done: set[str] = set()
    for record in records:
        if record.get("schema") != MANIFEST_SCHEMA:
            continue
        if record.get("status", "ok") != "ok":
            continue
        try:
            recomputed = point_digest(record)
        except KeyError:
            continue
        if record.get("point_digest") == recomputed:
            done.add(recomputed)
    return done


def append_manifest(path, record: dict) -> None:
    """Append one record as a single JSONL line (creates the file).

    A writer killed mid-append leaves a torn tail with no newline; that
    tail is ended first, so it alone is lost and not the record after it.
    """
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    with open(path, "ab+") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                line = b"\n" + line
        handle.write(line)


def read_manifest(path, strict: bool = True) -> list[dict]:
    """Parse a JSONL manifest back into records.

    ``strict=False`` skips unparsable lines instead of raising — a sweep
    killed mid-append leaves a torn final line, and the resume journal
    must survive that (losing at most the record being written).
    """
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if strict:
                    raise
    return records


def stable_view(record: dict) -> dict:
    """The record minus volatile keys — equal across repeat runs."""
    return {k: v for k, v in record.items() if k not in VOLATILE_KEYS}
