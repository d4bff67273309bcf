"""Standard sinks for the observability bus.

Each sink subscribes to the subset of events it needs (see
:mod:`repro.obs.events`); all of them are plain-data accumulators that
render to text, so they survive pickling across the parallel harness's
worker processes and two identical runs produce identical sinks. Each
declares what it accumulates in ``SNAPSHOT_STATE``
(:mod:`repro.sim.snapshot`); what it was built from (node info, routed
edges, fan-out) is rebuilt by :func:`make_observation` on resume.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.arch.noc import Coord
from repro.dfg.graph import node_label
from repro.isa import MEMORY_OPS
from repro.obs.events import FIRE, STALL_KINDS, TICK_KINDS, EventBus


class CycleAttribution:
    """Per-node cycle accounting over the stall taxonomy.

    Every fabric tick attributes exactly one system cycle per node to
    one of :data:`~repro.obs.events.TICK_KINDS`; system cycles between
    fabric ticks land in the global ``divider_gap`` bucket. For every
    node::

        sum(per_node[nid].values()) + divider_gap == system_cycles + 1

    (the +1 is the final quiescence-check cycle, which is executed but
    does not advance the clock). The account is a function of the tick
    records and the final stats: a node's bucket is an open run keyed by
    the tick number ``now // divider``, booked into ``per_node`` when it
    changes (cost per change, not per node per tick); ``on_finish``
    closes the runs at ``system_cycles // divider + 1`` ticks and derives
    the gap from the identity above. A tick the scheduler jumps over
    changes no bucket, so it needs no event.
    """

    TAKES_BUCKETS = True
    SNAPSHOT_STATE = ("per_node", "_open", "divider_gap", "ticks", "counters")

    def __init__(self, node_info: dict[int, tuple], divider: int):
        #: nid -> (label, criticality, pe coord, op).
        self.node_info = node_info
        #: Fabric clock divider: cycle ``now`` is tick ``now // divider``.
        self.divider = divider
        self.per_node: dict[int, Counter] = {
            nid: Counter() for nid in node_info
        }
        #: nid -> (bucket, tick number it was entered at): the open runs.
        self._open: dict[int, tuple[str, int]] = {}
        #: Totals, set by :meth:`on_finish`.
        self.divider_gap = 0
        self.ticks = 0
        #: NUMA access locality (``numa-local`` / ``numa-remote``), read
        #: off ``SimStats.numa`` at finish.
        self.counters: Counter = Counter()

    # -- hooks ------------------------------------------------------------

    def on_tick(self, now: int, emitted, fired, changes, pushes) -> None:
        tick = now // self.divider
        runs = self._open
        for nid, kind in changes:
            run = runs.get(nid)
            if run is not None:
                self.per_node[nid][run[0]] += tick - run[1]
            runs[nid] = (kind, tick)

    def on_finish(self, stats) -> None:
        self.ticks = stats.system_cycles // self.divider + 1
        self.divider_gap = stats.system_cycles + 1 - self.ticks
        for nid, (kind, since) in self._open.items():
            self.per_node[nid][kind] += self.ticks - since
        self._open.clear()
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
        if not rolled or not self.ticks:
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
        if not self.ticks and not self.divider_gap:
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
        if self.per_node:
            nid = next(iter(self.per_node))
            lines.append(
                f"  attributed per node: {self.node_total(nid)} cycles "
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
    counted during the run; the per-edge and per-channel tables follow
    from the static fan-out and routed trees when read.
    """

    SNAPSHOT_STATE = ("pushes",)

    def __init__(self, edges: dict[tuple[int, int], tuple], fanout=()):
        #: :func:`repro.pnr.route.routed_edges` of the kernel.
        self.edges = edges
        #: producer nid -> consumer nid of each consumer *port* it feeds
        #: (a consumer wired to it twice takes two tokens per push).
        self.fanout: dict[int, tuple] = dict(fanout)
        self.pushes: Counter = Counter()

    def on_tick(self, now: int, emitted, fired, changes, pushes) -> None:
        counts = self.pushes
        for src, _value in pushes:
            counts[src] += 1

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

    SNAPSHOT_STATE = ("issues",)

    def __init__(self, compiled, noc):
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
        self.issues: Counter = Counter()

    def on_tick(self, now: int, emitted, fired, changes, pushes) -> None:
        issues = self.issues
        for nid, _pops, mem, _emits in fired:
            if mem:
                issues[nid] += 1

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
    """

    TAKES_BUCKETS = True
    SNAPSHOT_STATE = ("events", "_bucket", "_stalls", "_sampled")

    def __init__(
        self,
        divider: int,
        node_info: dict[int, tuple[str, str, Coord, str]],
        bank_of=None,
    ):
        self.divider = divider
        self.node_info = node_info
        self.bank_of = bank_of  # address -> bank index, or None
        self.events: list[dict] = []
        #: Each node's current bucket, the running nodes-per-bucket
        #: histogram, and its last sample on the ``stalls`` counter track.
        self._bucket: dict[int, str] = {}
        self._stalls: dict[str, int] = dict.fromkeys(TICK_KINDS, 0)
        self._sampled: dict[str, int] | None = None

    # -- hooks ------------------------------------------------------------

    def on_tick(self, now: int, emitted, fired, changes, pushes) -> None:
        append = self.events.append
        for record, node, domain in emitted:
            request = record.request
            append(
                {
                    "name": f"{request.kind} {request.array}[{request.index}]",
                    "cat": "mem",
                    "ph": "X",
                    "ts": record.issue_cycle,
                    "dur": max(1, now - record.issue_cycle),
                    "pid": 1,
                    "tid": record.nid,
                    "args": {
                        "hit": bool(record.hit),
                        "criticality": node.criticality,
                        "domain": domain,
                        "response_hops": record.response_hops,
                        "bank_wait": max(
                            0, record.serve_cycle - record.enqueue_cycle
                        ),
                    },
                }
            )
        for nid, _pops, _mem, _emits in fired:
            label, _klass, pe, op = self.node_info[nid]
            append(
                {
                    "name": label,
                    "cat": op,
                    "ph": "X",
                    "ts": now,
                    "dur": self.divider,
                    "pid": 0,
                    "tid": nid,
                    "args": {"pe": f"{pe[0]},{pe[1]}"},
                }
            )
        stalls = self._stalls
        for nid, kind in changes:
            was = self._bucket.get(nid)
            if was is not None:
                stalls[was] -= 1
            stalls[kind] += 1
            self._bucket[nid] = kind
        if changes and stalls != self._sampled:
            # A counter track holds its value until the next sample, so
            # a tick that moves no node between buckets adds none — and
            # the timeline does not depend on which ticks were executed.
            self._sampled = dict(stalls)
            append(
                {
                    "name": "stalls",
                    "ph": "C",
                    "ts": now,
                    "pid": 0,
                    "tid": 0,
                    "args": self._sampled,
                }
            )

    def on_mem_service(self, now: int, record) -> None:
        if self.bank_of is None:
            return
        self.events.append(
            {
                "name": "hit" if record.hit else "miss",
                "cat": "bank",
                "ph": "X",
                "ts": record.serve_cycle,
                "dur": max(1, record.complete_cycle - record.serve_cycle),
                "pid": 1,
                "tid": 10_000 + self.bank_of(record.address),
                "args": {"address": record.address},
            }
        )

    def on_skip(self, now: int, target: int) -> None:
        self.events.append(
            {
                "name": "cycle-skip",
                "cat": "scheduler",
                "ph": "X",
                "ts": now,
                "dur": target - now,
                "pid": 2,
                "tid": 0,
                "args": {},
            }
        )

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


class Observation(EventBus):
    """The bus plus the sinks a run asked for (None when not attached).

    Built by :func:`make_observation` inside ``simulate``; callers read
    the sinks back off ``SimResult.obs``. Its state is its sinks'
    (the handler table is bound to them, and a restore refills them in
    place).
    """

    SNAPSHOT_STATE = ("sinks",)

    def __init__(self) -> None:
        super().__init__()
        self.attribution: CycleAttribution | None = None
        self.noc_heatmap: NocHeatmap | None = None
        self.fmnoc_heatmap: FmnocHeatmap | None = None
        self.chrome: ChromeTraceSink | None = None
        #: The critical-path recorder (:mod:`repro.obs.critpath`) and the
        #: invariant checker (:mod:`repro.check.invariants`), when on.
        self.critpath = None
        self.check = None


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


def make_observation(
    compiled,
    divider: int,
    edges: dict[tuple[int, int], tuple],
    address_map=None,
    noc=None,
    trace: bool = True,
    chrome: bool = False,
    critpath: bool = False,
    check: bool = False,
    fifo_capacity: int = 2,
    max_outstanding: int = 2,
) -> Observation:
    """Assemble the sinks one run of ``compiled`` asked for: ``trace``
    attaches attribution and both heatmaps, ``chrome`` the exporter,
    ``critpath`` the recorder, ``check`` the invariant checker — each
    switch pays only for what it names.
    ``edges`` is :func:`repro.pnr.route.routed_edges` of the kernel,
    ``noc`` the frontend's FM-NoC (None: it has none)."""
    obs = Observation()
    info = node_info_of(compiled) if trace or chrome else None
    if trace:
        obs.attribution = CycleAttribution(info, divider)
        obs.attach(obs.attribution)
        fanout = {
            src: tuple(dst for dst, _port in sinks)
            for src, sinks in compiled.dfg.consumers().items()
        }
        obs.noc_heatmap = NocHeatmap(edges, fanout)
        obs.attach(obs.noc_heatmap)
        obs.fmnoc_heatmap = FmnocHeatmap(compiled, noc)
        obs.attach(obs.fmnoc_heatmap)
    if chrome:
        bank_of = address_map.bank if address_map is not None else None
        obs.chrome = ChromeTraceSink(divider, info, bank_of=bank_of)
        obs.attach(obs.chrome)
    if critpath:
        from repro.obs.critpath import CriticalPathRecorder

        obs.critpath = CriticalPathRecorder(
            compiled,
            divider,
            fifo_capacity=fifo_capacity,
            max_outstanding=max_outstanding,
        )
        obs.attach(obs.critpath)
    if check:
        from repro.check.invariants import InvariantChecker

        obs.check = InvariantChecker(
            compiled.dfg, fifo_capacity, max_outstanding
        )
        obs.attach(obs.check)
    return obs
