"""The standard probes, each built from a run's recording.

:func:`make_observation` builds the probes a run asked for from its
:class:`~repro.obs.events.Recording` and final stats once the run ends;
all of them are plain-data reports that render to text, so they
survive pickling across the parallel harness's worker processes, two
identical runs produce identical probes, and none keeps the recording.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass
from itertools import compress

from repro.arch.noc import Coord
from repro.dfg.graph import node_label
from repro.isa import MEMORY_OPS
from repro.obs.events import (
    FIRE,
    ISSUE,
    PUSH,
    STALL_KINDS,
    TICK_KINDS,
    Recording,
)


class CycleAttribution:
    """Per-node cycle accounting over the stall taxonomy.

    Every fabric tick attributes exactly one system cycle per node to
    one of :data:`~repro.obs.events.TICK_KINDS`; system cycles between
    fabric ticks land in the global ``divider_gap`` bucket. For every
    node::

        sum(per_node[nid].values()) + divider_gap == system_cycles + 1

    (the +1 is the final quiescence-check cycle, which is executed but
    does not advance the clock). The account is a function of the
    recorded bucket changes and the final stats: a node's bucket is an
    open run keyed by the tick number ``now // divider``, booked into
    ``per_node`` when it changes (cost per change, not per node per
    tick); the runs close at ``system_cycles // divider + 1`` ticks and
    the gap follows from the identity above. A tick the scheduler jumps
    over changes no bucket, so it needs no row.
    """

    def __init__(
        self,
        node_info: dict[int, tuple],
        divider: int,
        recording: Recording,
        stats,
    ):
        #: nid -> (label, criticality, pe coord, op).
        self.node_info = node_info
        #: Fabric clock divider: cycle ``now`` is tick ``now // divider``.
        self.divider = divider
        self.per_node: dict[int, Counter] = {
            nid: Counter() for nid in node_info
        }
        #: nid -> (bucket, tick number it was entered at): the open runs.
        runs: dict[int, tuple[str, int]] = {}
        for now, _emitted, _fired, changes in recording.each_tick():
            tick = now // divider
            for nid, bucket in changes:
                run = runs.get(nid)
                if run is not None:
                    self.per_node[nid][run[0]] += tick - run[1]
                runs[nid] = (TICK_KINDS[bucket], tick)
        self.ticks = stats.system_cycles // divider + 1
        self.divider_gap = stats.system_cycles + 1 - self.ticks
        for nid, (kind, since) in runs.items():
            self.per_node[nid][kind] += self.ticks - since
        #: NUMA access locality (``numa-local`` / ``numa-remote``), read
        #: off ``SimStats.numa``.
        self.counters: Counter = Counter()
        for side in ("local", "remote"):
            if stats.numa.get(f"{side}_accesses"):
                self.counters[f"numa-{side}"] = stats.numa[f"{side}_accesses"]

    # -- queries ----------------------------------------------------------

    def node_total(self, nid: int) -> int:
        """Cycles attributed to ``nid`` (identical for every node)."""
        return sum(self.per_node[nid].values()) + self.divider_gap

    def aggregate(self) -> Counter:
        """Machine-wide node-cycles per bucket (the gap once per node)."""
        total: Counter = Counter()
        for counts in self.per_node.values():
            total.update(counts)
        n = len(self.per_node)
        total["divider-gap"] = self.divider_gap * n
        return total

    def fractions(self) -> dict[str, float]:
        """Aggregate bucket shares in [0, 1] (empty run -> all zeros)."""
        agg = self.aggregate()
        denom = sum(agg.values())
        kinds = (FIRE,) + STALL_KINDS
        if not denom:
            return {kind: 0.0 for kind in kinds}
        return {kind: agg.get(kind, 0) / denom for kind in kinds}

    def per_class(self) -> dict[str, tuple[int, Counter]]:
        """Per-node buckets rolled up to criticality classes.

        Memory nodes land in their :mod:`repro.core.criticality` class
        (``A``/``B``/``C``); everything else is one ``non-mem`` row.
        Returns ``{row: (node count, bucket Counter)}``.
        """
        out: dict[str, tuple[int, Counter]] = {}
        for nid, counts in self.per_node.items():
            _label, klass, _coord, op = self.node_info[nid]
            key = klass if op in MEMORY_OPS else "non-mem"
            nodes, total = out.setdefault(key, (0, Counter()))
            total.update(counts)
            out[key] = (nodes + 1, total)
        return out

    def render_by_class(self) -> str:
        """The stall taxonomy folded to class A/B/C (+ non-mem) totals."""
        lines = ["cycle attribution by criticality class (node-cycles):"]
        rolled = self.per_class()
        if not rolled:
            lines.append("  (no events recorded)")
            return "\n".join(lines)
        width = 11
        lines.append(
            "  "
            + "class".ljust(16)
            + "nodes".rjust(6)
            + "".join(self.SHORT[kind].rjust(width) for kind in TICK_KINDS)
        )
        order = [k for k in ("A", "B", "C", "non-mem") if k in rolled]
        order += sorted(set(rolled) - set(order))
        for key in order:
            nodes, counts = rolled[key]
            cells = "".join(
                str(counts[kind]).rjust(width) for kind in TICK_KINDS
            )
            lines.append("  " + key.ljust(16) + str(nodes).rjust(6) + cells)
        return "\n".join(lines)

    # -- rendering --------------------------------------------------------

    #: Short column headers for :meth:`render`.
    SHORT = {
        FIRE: "fire",
        "operand-wait": "op-wait",
        "output-backpressure": "out-bp",
        "fifo-full": "fifo-full",
        "memory-outstanding": "mem-outst",
    }

    def render(self, top: int = 20) -> str:
        """The per-node stall-taxonomy table (worst stallers first).

        Ranking favors *actionable* stalls — backpressure, full response
        FIFOs, memory waits — over generic operand starvation (every
        idle node racks that up symmetrically).
        """
        width = 11
        lines = ["per-node cycle attribution (system cycles):"]
        if not self.per_node:
            lines.append("  (no events recorded)")
            return "\n".join(lines)
        lines.append(
            "  "
            + "node".ljust(30)
            + "".join(self.SHORT[kind].rjust(width) for kind in TICK_KINDS)
        )

        def rank_key(nid: int):
            counts = self.per_node[nid]
            hard = sum(
                counts[k]
                for k in TICK_KINDS
                if k not in (FIRE, "operand-wait")
            )
            return (-hard, -counts["operand-wait"], nid)

        ranked = sorted(self.per_node, key=rank_key)
        for nid in ranked[:top]:
            label, crit = self.node_info[nid][0], self.node_info[nid][1]
            name = f"{nid:4d} [{crit}] {label}"[:30]
            cells = "".join(
                str(self.per_node[nid][kind]).rjust(width)
                for kind in TICK_KINDS
            )
            lines.append("  " + name.ljust(30) + cells)
        if len(ranked) > top:
            lines.append(f"  ... {len(ranked) - top} more node(s)")
        lines.append(
            f"  global: divider-gap={self.divider_gap} "
            f"fabric-ticks={self.ticks}"
        )
        lines.append(
            f"  attributed per node: {self.node_total(ranked[0])} cycles "
            "(= system_cycles + 1)"
        )
        for name in sorted(self.counters):
            lines.append(f"  counter {name} = {self.counters[name]}")
        return "\n".join(lines)


class NocHeatmap:
    """Token traffic per routed data-NoC channel, keyed by placement.

    A token from producer to consumer is charged to every channel of the
    producing net's routed tree (the tree is shared across sinks, so this
    is a per-net upper bound — exact per-sink splits would need flit-level
    routing the engine does not model). Only pushes per producer are
    counted from the recording (every emission, every pushing firing);
    the per-edge and per-channel tables follow from the static fan-out
    and routed trees when read.
    """

    def __init__(
        self, edges: dict[tuple[int, int], tuple], fanout, recording
    ):
        #: :func:`repro.pnr.route.routed_edges` of the kernel.
        self.edges = edges
        #: producer nid -> consumer nid of each consumer *port* it feeds
        #: (a consumer wired to it twice takes two tokens per push).
        self.fanout: dict[int, tuple] = dict(fanout)
        self.pushes = Counter(recording.emitted[::10])
        self.pushes.update(_firing_nids(recording, PUSH))

    @property
    def edge_tokens(self) -> Counter:
        out: Counter = Counter()
        for src, count in self.pushes.items():
            for dst in self.fanout.get(src, ()):
                out[(src, dst)] += count
        return out

    @property
    def channel_tokens(self) -> Counter:
        out: Counter = Counter()
        for edge, count in self.edge_tokens.items():
            for key in self.edges[edge][1]:
                out[key] += count
        return out

    def cell_load(self) -> dict[Coord, int]:
        """Traffic per fabric cell: channels charged to their source."""
        cells: Counter = Counter()
        for (src, _dst, _kind), count in self.channel_tokens.items():
            cells[src] += count
        return dict(cells)

    def render(self, rows: int, cols: int) -> str:
        """ASCII heatmap, log-bucketed ``.123456789`` per cell."""
        cells = self.cell_load()
        peak = max(cells.values(), default=0)
        lines = [
            f"data-NoC channel traffic heatmap (peak cell = {peak} "
            "channel-tokens; scale . then 1-9 log-bucketed)"
        ]
        if not peak:
            lines.append("  (no token traffic recorded)")
            return "\n".join(lines)
        for y in range(rows):
            row = []
            for x in range(cols):
                load = cells.get((x, y), 0)
                if load == 0:
                    row.append(".")
                else:
                    # 1..9 by log scale relative to the peak.
                    frac = load / peak
                    bucket = max(1, min(9, int(frac * 9 + 0.999)))
                    row.append(str(bucket))
            lines.append(f"  {y:2d} " + "".join(row) + " |mem")
        return "\n".join(lines)


class FmnocHeatmap:
    """Requests per fabric-memory NoC stage (arbiter or port): issues
    per memory node are counted, and every request of a node crosses the
    stages :meth:`repro.arch.fmnoc.FMNoC.path` gives for its placed PE."""

    def __init__(self, compiled, noc, recording):
        #: memory nid -> ``("arb", row, domain)``... ``("port", port)``;
        #: empty when the frontend has no FM-NoC (``noc`` None).
        self.stages: dict[int, tuple] = {}
        if noc is not None:
            for node in compiled.dfg.memory_nodes():
                pe = compiled.fabric.pes[compiled.placement[node.nid]]
                chain, port = noc.path(pe)
                self.stages[node.nid] = tuple(
                    ("arb", arb.row, arb.domain) for arb in chain
                ) + (("port", port),)
        self.issues = Counter(_firing_nids(recording, ISSUE))

    @property
    def stage_traffic(self) -> Counter:
        out: Counter = Counter()
        for nid, count in self.issues.items():
            for stage in self.stages.get(nid, ()):
                out[stage] += count
        return out

    def render(self, top: int = 16) -> str:
        lines = ["FM-NoC stage traffic (requests per stage):"]
        if not self.stage_traffic:
            lines.append("  (no arbitrated traffic — UPEA/NUMA frontend?)")
            return "\n".join(lines)
        ranked = sorted(
            self.stage_traffic.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for stage, count in ranked[:top]:
            if stage[0] == "arb":
                label = f"arbiter row={stage[1]} D{stage[2]}"
            else:
                label = f"memory port {stage[1]}"
            lines.append(f"  {label:24s} {count:8d}")
        if len(ranked) > top:
            lines.append(f"  ... {len(ranked) - top} more stage(s)")
        return "\n".join(lines)


class ChromeTraceSink:
    """Chrome ``trace_event`` JSON (load it in Perfetto).

    Tracks: pid 0 = fabric (one thread per DFG node, firings as complete
    events + a stall counter sampled when it moves), pid 1 = memory
    (per-node request lifecycles, per-bank service slices), pid 2 =
    scheduler (cycle-skip spans: the one lane that depends on which
    cycles the simulator executed). Timestamps are system cycles.
    ``events`` follow the run: at each cycle, its bank services, then
    its fabric tick (emissions, firings, the counter sample), then the
    jump the scheduler takes from it.
    """

    def __init__(
        self,
        divider: int,
        node_info: dict[int, tuple[str, str, Coord, str]],
        bank_of,
        recording: Recording,
        compiled,
    ):
        self.divider = divider
        self.node_info = node_info
        self.events: list[dict] = []
        # One merge keyed ``(cycle, phase)`` restores the run's order: a
        # cycle's bank services (0), its fabric tick (1), and a jump the
        # scheduler takes after it (2; a skip row's ``now`` is the cycle
        # after the one it follows).
        def service(now, complete, address, hit):
            return (_slice(
                "hit" if hit else "miss", "bank", now,
                max(1, complete - now), 1, 10_000 + bank_of(address),
                {"address": address},
            ),)

        def skip(now, target):
            return (_slice(
                "cycle-skip", "scheduler", now, target - now, 2, 0, {}
            ),)

        tick = self._tick_events(compiled)
        streams = (
            ((row[0], 1, tick, row) for row in recording.each_tick()),
            ((row[0], 0, service, row) for row in recording.rows("services")),
            ((row[0] - 1, 2, skip, row) for row in recording.rows("skips")),
        )
        for _cycle, _phase, make, row in heapq.merge(*streams):
            self.events.extend(make(*row))

    def _tick_events(self, compiled):
        node_info, divider = self.node_info, self.divider
        memory = {
            node.nid: (
                node.op, node.attrs["array"], compiled.domain_of(node.nid)
            )
            for node in compiled.dfg.memory_nodes()
        }
        #: Each node's current bucket, the running nodes-per-bucket
        #: histogram, and its last sample on the ``stalls`` counter track.
        bucket: dict[int, str] = {}
        stalls: dict[str, int] = dict.fromkeys(TICK_KINDS, 0)
        sampled: dict | None = None

        def events(now, emitted, fired, changes):
            nonlocal sampled
            out = []
            moved = False
            for (nid, _seq, issue, enqueue, serve, _complete, _arrived,
                 hops, hit, index) in emitted:
                kind, array, domain = memory[nid]
                out.append(_slice(
                    f"{kind} {array}[{index}]", "mem", issue,
                    max(1, now - issue), 1, nid,
                    {
                        "hit": bool(hit),
                        "criticality": node_info[nid][1],
                        "domain": domain,
                        "response_hops": hops,
                        "bank_wait": max(0, serve - enqueue),
                    },
                ))
            for nid, _pops, _effect in fired:
                label, _klass, pe, op = node_info[nid]
                out.append(_slice(
                    label, op, now, divider, 0, nid,
                    {"pe": f"{pe[0]},{pe[1]}"},
                ))
            for nid, code in changes:
                moved = True
                kind = TICK_KINDS[code]
                was = bucket.get(nid)
                if was is not None:
                    stalls[was] -= 1
                stalls[kind] += 1
                bucket[nid] = kind
            if moved and stalls != sampled:
                # A counter track holds its value until the next sample,
                # so a tick that moves no node between buckets adds none
                # — and the timeline does not depend on which ticks were
                # executed.
                sampled = dict(stalls)
                out.append(
                    {
                        "name": "stalls",
                        "ph": "C",
                        "ts": now,
                        "pid": 0,
                        "tid": 0,
                        "args": sampled,
                    }
                )
            return out

        return events

    # -- output -----------------------------------------------------------

    def _metadata(self) -> list[dict]:
        meta = [
            _meta("process_name", 0, 0, {"name": "fabric"}),
            _meta("process_name", 1, 0, {"name": "memory"}),
            _meta("process_name", 2, 0, {"name": "scheduler"}),
        ]
        for nid, info in sorted(self.node_info.items()):
            label, crit, coord = info[0], info[1], info[2]
            name = f"n{nid} [{crit}] {label} @{coord[0]},{coord[1]}"
            meta.append(_meta("thread_name", 0, nid, {"name": name}))
            meta.append(
                _meta("thread_name", 1, nid, {"name": f"mem {name}"})
            )
        return meta

    def to_json(self) -> dict:
        return {
            "traceEvents": self._metadata() + self.events,
            "displayTimeUnit": "ns",
            "otherData": {
                "clock": "system cycles",
                "clock_divider": self.divider,
            },
        }

    def write(self, path) -> int:
        """Serialize to ``path``; returns the number of trace events."""
        payload = self.to_json()
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=None, separators=(",", ":"))
        return len(payload["traceEvents"])


def _meta(name: str, pid: int, tid: int, args: dict) -> dict:
    return {"name": name, "ph": "M", "pid": pid, "tid": tid, "args": args}


def _slice(name, cat, ts, dur, pid: int, tid: int, args: dict) -> dict:
    """One complete (``"X"``) event."""
    return {
        "name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
        "pid": pid, "tid": tid, "args": args,
    }


@dataclass
class Observation:
    """The probes a run asked for (None when not asked for), built by
    :func:`make_observation` once ``simulate`` returns; callers read
    them off ``SimResult.obs``. ``critpath`` is the
    :mod:`repro.obs.critpath` recorder, ``check`` the
    :mod:`repro.check.invariants` checker."""

    attribution: CycleAttribution | None = None
    noc_heatmap: NocHeatmap | None = None
    fmnoc_heatmap: FmnocHeatmap | None = None
    chrome: ChromeTraceSink | None = None
    critpath: object = None
    check: object = None


def node_info_of(compiled) -> dict[int, tuple[str, str, Coord, str]]:
    """nid -> (label, criticality, placed PE coord, op) for sinks."""
    return {
        nid: (
            node_label(node),
            node.criticality,
            compiled.placement[nid],
            node.op,
        )
        for nid, node in compiled.dfg.nodes.items()
    }


def _firing_nids(recording: Recording, effect: int):
    """The nid of every recorded firing with ``effect``, in run order."""
    fired = recording.fired
    return compress(fired[::3], [got == effect for got in fired[2::3]])


def make_observation(
    recording: Recording,
    stats,
    compiled,
    divider: int,
    edges: dict[tuple[int, int], tuple],
    address_map,
    noc,
    sim,
) -> Observation:
    """Build the probes the run's ``sim`` (its ``SimParams``) asked for
    from its ``recording`` and final ``stats``: ``trace`` the
    attribution and both heatmaps, a ``trace_path`` the timeline,
    ``critpath`` the critical path (whose compact report lands in
    ``stats.critpath``). ``edges`` is
    :func:`repro.pnr.route.routed_edges` of the kernel, ``noc`` the
    frontend's FM-NoC (None: it has none). The invariant checker is
    ``simulate``'s to build: it must also run when the engine fails."""
    obs = Observation()
    info = node_info_of(compiled) if sim.trace else None
    if sim.trace:
        obs.attribution = CycleAttribution(info, divider, recording, stats)
        fanout = {
            src: tuple(dst for dst, _port in sinks)
            for src, sinks in compiled.dfg.consumers().items()
        }
        obs.noc_heatmap = NocHeatmap(edges, fanout, recording)
        obs.fmnoc_heatmap = FmnocHeatmap(compiled, noc, recording)
    if sim.trace and sim.trace_path is not None:
        obs.chrome = ChromeTraceSink(
            divider, info, address_map.bank, recording, compiled
        )
    if sim.critpath:
        from repro.obs.critpath import CriticalPathRecorder

        obs.critpath = CriticalPathRecorder(
            recording, compiled, divider, stats.system_cycles,
            sim.fifo_capacity, sim.max_outstanding,
        )
        stats.critpath = obs.critpath.compact()
    return obs
