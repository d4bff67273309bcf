"""Every probe output, pinned on the full-scan / per-event probe path.

The probes carry the paper's argument (the stall taxonomy says *where* a
critical load's cycles go, the critical-path recorder feeds
feedback-directed placement), so a cheaper probe path is only admissible
if what the probes *report* does not move by a bit. The digests in
``tests/data/obs_digests.json`` were generated by the engine that
re-classified every node on every executed fabric tick and published one
bus event per firing, emission and consumer edge; the probes built
from a run's recording (incremental stall buckets, integer rows per
emission, firing and bucket change) must land on exactly the same ones.

Pinned, per point: the ``per_node`` attribution table, ``render()`` and
``render_by_class()`` text, the data-NoC ``edge_tokens`` /
``channel_tokens`` and FM-NoC ``stage_traffic`` heatmaps, the Chrome
``to_json()`` payload (event order and key order included; the
scheduler lane, which is telemetry of the simulator, left out) and the
critical-path ``report`` and ``slack``. Points: all 13 workloads x
{monaco, upea2, numa-upea2} at tiny scale, seed 0, plus a fault-injected
variant per workload whose ``pe_stall_prob`` pins the taxonomy's booking
of a suppressed firing (``ready`` -> ``operand-wait``) — 52 pins. What a
probe reports does not depend on which cycles the scheduler executed:
``tests/test_cycle_skip.py`` holds the per-cycle reference loop to the
skipping run and that run to the ``skip`` pins. Regenerate — only after
an *intentional* change to what a probe reports — with::

    PYTHONPATH=src:tests:. python tests/test_obs_pins.py --regen
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile

import pytest

# Same tiny seed-0 artifacts (one compile per workload per session) and
# fault mix as the engine's pinned run digests. Of the mix, delay and
# grant-skip perturb timing; ``pe_stall_prob`` suppresses legal firings,
# which the taxonomy books as ``operand-wait``.
from test_engine_hot import FAULTS, compiled_for

from repro.arch.params import ArchParams, SimParams
from repro.exp.configs import MONACO, numa, upea
from repro.exp.runner import run_point
from repro.exp.spec import RunSpec
from repro.workloads.registry import ALL_WORKLOADS

DIGEST_PATH = pathlib.Path(__file__).parent / "data" / "obs_digests.json"

CONFIGS = {config.name: config for config in (MONACO, upea(2), numa(2))}

#: variant name -> SimParams kwargs (on top of trace + chrome + critpath);
#: ``noskip`` runs under the ``per_cycle_loop`` fixture.
VARIANTS = {
    "skip": {},
    "noskip": {},
    "faults": dict(faults=FAULTS),
}

#: Every (workload, config, variant) point; faults on monaco only.
POINTS = [
    (name, config, variant)
    for name in sorted(ALL_WORKLOADS)
    for config in CONFIGS
    for variant in VARIANTS
    if variant != "faults" or config == "monaco"
]
#: The pinned points: ``noskip`` has no pin of its own.
PINNED = [point for point in POINTS if point[2] != "noskip"]


def probed_run(name: str, config: str, trace_path=None, **sim_kwargs):
    instance, compiled = compiled_for(name)
    sim = SimParams(trace_path=trace_path, **sim_kwargs)
    arch = ArchParams(sim=sim)
    spec = RunSpec(name, CONFIGS[config], scale="tiny", arch=arch)
    return run_point(spec, instance, compiled)


def _sha(payload) -> str:
    if not isinstance(payload, str):
        payload = json.dumps(payload)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _counter_rows(counter) -> list:
    """A Counter as sorted [repr(key), count] rows (zero rows dropped,
    so the digest is of the counts, not of how they were accumulated)."""
    return sorted([repr(key), n] for key, n in counter.items() if n)


def critpath_digests(recorder) -> dict[str, str]:
    return {
        "critpath_report": _sha(json.dumps(recorder.report, sort_keys=True)),
        "critpath_slack": _sha(
            [[nid, _counter_rows(recorder.slack[nid])]
             for nid in sorted(recorder.slack)]
        ),
    }


def without_scheduler_lane(chrome) -> dict:
    """The Chrome payload minus pid 2's cycle-skip spans — the one part
    of any probe output that says which cycles the simulator executed."""
    payload = chrome.to_json()
    payload["traceEvents"] = [
        event for event in payload["traceEvents"]
        if event["pid"] != 2 or event["ph"] == "M"
    ]
    return payload


def obs_digests(obs) -> dict[str, str]:
    """sha256 of each probe output of one trace + chrome + critpath run."""
    att = obs.attribution
    return {
        "per_node": _sha(
            [[nid, _counter_rows(att.per_node[nid])]
             for nid in sorted(att.per_node)]
        ),
        "render": _sha(att.render(top=len(att.per_node))),
        "render_by_class": _sha(att.render_by_class()),
        "edge_tokens": _sha(_counter_rows(obs.noc_heatmap.edge_tokens)),
        "channel_tokens": _sha(_counter_rows(obs.noc_heatmap.channel_tokens)),
        "stage_traffic": _sha(_counter_rows(obs.fmnoc_heatmap.stage_traffic)),
        # No sort_keys: event order and per-event key order are pinned.
        "chrome": _sha(json.dumps(without_scheduler_lane(obs.chrome))),
        **critpath_digests(obs.critpath),
    }


def point_digests(name: str, config: str, variant: str, tmp_dir) -> dict:
    trace_path = str(pathlib.Path(tmp_dir) / "trace.json")
    run = probed_run(
        name, config, trace_path=trace_path,
        trace=True, critpath=True, **VARIANTS[variant],
    )
    return obs_digests(run.obs)


def pinned() -> dict:
    return json.loads(DIGEST_PATH.read_text())


@pytest.mark.parametrize("name,config,variant", PINNED)
def test_probe_outputs_match_pins(name, config, variant, tmp_path):
    got = point_digests(name, config, variant, tmp_path)
    want = pinned()[f"{name}/{config}/{variant}"]
    moved = sorted(key for key in want if got.get(key) != want[key])
    assert not moved and set(got) == set(want), (
        f"{name}/{config}/{variant}: probe outputs {moved} moved off "
        "their pinned digests"
    )


#: The probe outputs the scheduler used to show through: sha256 of the
#: ``[point, key, digest]`` rows of these seven keys over the 39
#: per-cycle (``noskip``) pins of revision 6a6af97, where skipping was
#: still an option and ``per_node`` / ``render_by_class`` differed
#: between its two settings on 33 of the 39 points.
SCHEDULER_FREE_KEYS = (
    "per_node", "render_by_class", "edge_tokens", "channel_tokens",
    "stage_traffic", "critpath_report", "critpath_slack",
)
PER_CYCLE_PINS_AT_6A6AF97 = "8ece7efaff14ec70"


def test_repin_landed_on_the_per_cycle_tables():
    """The one deliberate re-pin (only ``chrome`` and ``render`` took new
    values: a deduplicated counter track, a ``global:`` line without
    ``skipped=``) moved every table onto what the per-cycle loop always
    reported."""
    rows = [
        [point.rsplit("/", 1)[0], key, digests[key]]
        for point, digests in sorted(pinned().items())
        if point.endswith("/skip")
        for key in SCHEDULER_FREE_KEYS
    ]
    assert len(rows) == 39 * len(SCHEDULER_FREE_KEYS)
    assert _sha(rows) == PER_CYCLE_PINS_AT_6A6AF97


# -- the incremental bucket cache equals a full recount, every tick ----------


@pytest.mark.parametrize("name,config,variant", POINTS)
def test_bucket_cache_equals_a_recount_every_tick(
    name, config, variant, monkeypatch, request
):
    """After every executed fabric tick, the engine's cached bucket of
    *every* node equals what the replaced full scan derived (fired /
    emission-blocked / ``_stall_reason``) — so a node the tick did not
    re-derive provably kept its bucket. And the one thing the scheduler
    owes the attribution: no jump skips the fabric tick after a tick
    with a firing or an emission, whose FIRE buckets must end there."""
    from repro.obs.events import FIRE
    from repro.sim.engine import _Engine

    if variant == "noskip":
        request.getfixturevalue("per_cycle_loop")
    real = _Engine._bucket_changes
    changes_per_tick: list[int] = []
    #: executed tick cycle -> whether anything fired or emitted in it.
    eventful: dict[int, bool] = {}

    def recounted(engine, e0, f0):
        rec = engine.recording
        c0 = len(rec.changes)
        real(engine, e0, f0)
        fired = set(rec.fired[f0::3]) | set(rec.emitted[e0::10])
        for nid in engine.dfg.nodes:
            if nid in fired:
                want = FIRE
            elif nid in engine._tick_blocked:
                want = "fifo-full"
            else:
                want = engine._stall_reason(nid)
                want = "operand-wait" if want == "ready" else want
            assert engine._buckets[nid] == want, (
                f"tick {len(changes_per_tick)} node {nid}: cached "
                f"{engine._buckets[nid]!r}, recount says {want!r}"
            )
        changes_per_tick.append(len(rec.changes) - c0)
        eventful[engine.now] = bool(fired)

    monkeypatch.setattr(_Engine, "_bucket_changes", recounted)
    run = probed_run(name, config, trace=True, **VARIANTS[variant])
    att = run.obs.attribution
    nodes = len(att.per_node)
    assert changes_per_tick[0] == nodes  # the first tick classifies all
    # Every fabric tick of cycles 0..system_cycles is attributed.
    assert att.ticks == run.stats.system_cycles // att.divider + 1
    skipped_after_event = [
        now for now, busy in eventful.items()
        if busy
        and now + att.divider <= run.stats.system_cycles
        and now + att.divider not in eventful
    ]
    assert not skipped_after_event, (
        f"the scheduler jumped over the tick after {skipped_after_event}"
    )
    # Recorded work is per change, not per node per tick.
    assert sum(changes_per_tick) < nodes * len(changes_per_tick)


# -- a switch builds the probes it names ------------------------------------


def test_critpath_only_attaches_the_recorder_alone(recordings):
    """``critpath=True`` alone pays for the recorder, not the taxonomy:
    no attribution, heatmap or timeline is built, no bucket change is
    recorded (so the engine never classifies), and the report is the
    pinned one."""
    run = probed_run("spmspv", "monaco", critpath=True)
    obs = run.obs
    assert obs.attribution is None
    assert obs.noc_heatmap is None and obs.fmnoc_heatmap is None
    assert obs.chrome is None and obs.check is None
    (rec,) = recordings
    assert rec.changes is None and rec.services is None
    want = pinned()["spmspv/monaco/skip"]
    for key, digest in critpath_digests(obs.critpath).items():
        assert digest == want[key]


def test_trace_only_and_trace_plus_critpath(recordings):
    run = probed_run("spmspv", "monaco", trace=True)
    assert run.obs.critpath is None
    assert run.obs.attribution is not None
    assert recordings[-1].changes is not None
    both = probed_run("spmspv", "monaco", trace=True, critpath=True)
    assert both.obs.attribution is not None
    assert both.obs.noc_heatmap is not None
    assert both.obs.fmnoc_heatmap is not None
    assert both.obs.critpath is not None
    assert both.obs.attribution.per_node == run.obs.attribution.per_node


# -- regeneration entry point ------------------------------------------------


def _regen() -> None:
    """Capture the pins. Run this ONLY on a revision whose probe outputs
    are the intended reference (originally: the full-scan classifier and
    per-event publishers this file was written to replace)."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config, variant in PINNED:
            key = f"{name}/{config}/{variant}"
            digests[key] = point_digests(name, config, variant, tmp)
            print(key, digests[key]["per_node"], digests[key]["chrome"])
    text = json.dumps(digests, indent=1, sort_keys=True)
    DIGEST_PATH.write_text(text + "\n")
    print(f"wrote {DIGEST_PATH} ({len(digests)} points)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        raise SystemExit("usage: python tests/test_obs_pins.py --regen")
