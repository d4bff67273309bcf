"""Dynamic critical-path profiler: cycle-exact blame for the makespan.

The stall taxonomy (:mod:`repro.obs.sinks`) says *where* cycles went;
this module says *why the makespan is what it is*. A
:class:`CriticalPathRecorder` subscribes to the engine's event bus and,
for every committed node firing and every memory-response emission,
records the **last-arrival predecessor** — the one event whose completion
released this one:

* the final operand token's push (data dependence),
* the pop that freed a previously-full consumer FIFO (backpressure
  release),
* the emission that freed a slot in the node's ``max_outstanding``
  issue queue, or the previous in-order response emission (memory
  ordering),
* the issuing firing of a memory round-trip, carrying the request's
  full milestone ledger (FM-NoC traversal, bank queue, service,
  response network),
* the node's own previous firing (the one-firing-per-fabric-tick
  initiation-interval constraint),
* nothing — a root event (e.g. a source's first firing at tick 0).

After the run, walking backwards from the terminal event reconstructs
the exact critical path. Each edge's span decomposes into categories
(:data:`CATEGORIES`) whose costs **sum exactly to** ``system_cycles`` —
a structural identity, not an approximation: predecessor cycles
telescope along the walk, every edge decomposition is exhaustive, and
the root/drain residues are charged to ``other``. The recorder asserts
the identity at finish and the report carries it.

On top of the path the recorder derives

* **dynamic criticality** per memory node — the fraction of the
  critical path spent inside that node's round-trips (the measured
  ground truth behind the paper's Sec. 5 class-A/B heuristics),
* **slack histograms** per load — how much later each response could
  have arrived without delaying its consumer,
* a **zero-latency what-if** bound per load — the makespan could drop
  by at most the cycles the path spends in that load's round-trips.

Design constraints, matching the rest of :mod:`repro.obs`: the recorder
is plain data (picklable across the parallel harness's workers), costs
nothing when not attached (the engine's publish sites are gated on
``obs is None``), and is insensitive to event-driven cycle skipping
(skipped spans contain no events by construction).
"""

from __future__ import annotations

from collections import Counter, deque

from repro.dfg.graph import PortRef, node_label
from repro.errors import SimulationError

#: Fine-grained attribution categories, in reporting order. Costs over
#: the critical path sum exactly to ``system_cycles``.
CATEGORIES = (
    "compute",
    "divider-stretch",
    "fifo-backpressure",
    "fmnoc-request",
    "mem-bank",
    "mem-service",
    "noc-response",
    "mem-order",
    "other",
)

#: Category -> coarse bucket for the ``critblame`` figure (the issue's
#: six-way split; ``memory`` folds bank queueing, service and ordering).
ROLLUP = {
    "compute": "compute",
    "divider-stretch": "clock-divider",
    "fifo-backpressure": "fifo-backpressure",
    "fmnoc-request": "fmnoc-arbitration",
    "mem-bank": "memory",
    "mem-service": "memory",
    "mem-order": "memory",
    "noc-response": "noc-response",
    "other": "other",
}

#: Coarse buckets in reporting order.
ROLLUP_ORDER = (
    "compute",
    "clock-divider",
    "fifo-backpressure",
    "fmnoc-arbitration",
    "memory",
    "noc-response",
    "other",
)

# Release-edge kinds. Numeric order breaks (cycle, eid) ties in favor of
# the more informative edge (data dependence over space release, the
# milestone-bearing chain over everything).
ROOT = 0  # no recorded constraint (e.g. a source's first firing)
ORDER = 1  # memory ordering: outstanding-slot free / previous emission
SPACE = 2  # a pop freed a previously-full consumer FIFO
SELF = 3  # the node's own previous firing (initiation interval)
OPERAND = 4  # final operand token's push
CHAIN = 5  # the memory round-trip back to the issuing firing

_EDGE_NAMES = {
    ROOT: "root",
    ORDER: "order",
    SPACE: "space",
    SELF: "self",
    OPERAND: "operand",
    CHAIN: "chain",
}

_KIND_FIRE = 0
_KIND_EMIT = 1


def blame_shares(report: dict) -> dict[int, dict]:
    """Per-memory-node blame from an attribution report — the stable
    export API the feedback-directed loop (:mod:`repro.exp.fdo`) and any
    offline consumer of a ``--json`` report build on.

    Takes either a live :attr:`CriticalPathRecorder.report` or the same
    dict round-tripped through JSON, and returns

    ``{nid: {"cycles", "share", "class", "op", "label"}}``

    for **every** memory node of the compiled DFG (zero-blame nodes
    included, so consumers see the full universe, not just the path).
    ``share`` is the node's fraction of the makespan spent inside its
    memory round-trips — the measured ground truth behind the static
    class-A/B heuristics. Keys are ints even after a JSON round-trip.
    """
    system_cycles = report.get("system_cycles", 0)
    denom = max(1, system_cycles)
    out: dict[int, dict] = {}
    for nid, entry in report.get("memory_nodes", {}).items():
        cycles = entry["cycles"]
        out[int(nid)] = {
            "cycles": cycles,
            "share": cycles / denom,
            "class": entry["class"],
            "op": entry["op"],
            "label": entry["label"],
        }
    return out


class CriticalPathRecorder:
    """Last-arrival edge recorder + backward-walk blame attribution.

    Subscribes to ``tick`` — of each record the emitted responses (with
    the full :class:`~repro.sim.memsys.RequestRecord` milestone ledger),
    the committed firings (with their popped ports) and the pushes (to
    mirror the engine's FIFOs) — and to ``finish`` (runs the walk and
    publishes the report into ``stats.critpath``).
    """

    #: The shadow FIFOs, release bookkeeping, event log and slack
    #: histograms (:mod:`repro.sim.snapshot`); node metadata and fan-out
    #: are rebuilt from the compiled kernel.
    SNAPSHOT_STATE = (
        "_fifo", "_unblock", "_out_count", "_out_unblock", "_issue",
        "_last_emit", "_last_fire", "ev_cycle", "ev_kind", "ev_nid",
        "ev_pred", "ev_edge", "ev_ms", "slack", "report",
    )

    def __init__(
        self,
        compiled,
        divider: int,
        fifo_capacity: int = 2,
        max_outstanding: int = 2,
    ):
        dfg = compiled.dfg
        self.divider = divider
        self.capacity = fifo_capacity
        self.max_outstanding = max_outstanding

        #: nid -> (label, criticality class, op).
        self.node_meta: dict[int, tuple[str, str, str]] = {}
        for nid, node in dfg.nodes.items():
            self.node_meta[nid] = (node_label(node), node.criticality, node.op)

        # Shadow token FIFOs holding *event ids* of the pushes, mirrored
        # from each tick record (pushes commit at end-of-tick while pops
        # see only earlier ticks, so mirror order is exact).
        self._fifo: dict[tuple[int, int], deque] = {}
        for node in dfg.nodes.values():
            for index, inp in enumerate(node.inputs):
                if isinstance(inp, PortRef):
                    self._fifo[(node.nid, index)] = deque()
        #: producer nid -> its consumer FIFO keys (for release edges).
        self._consumer_keys: dict[int, tuple] = {
            nid: tuple(sinks) for nid, sinks in dfg.consumers().items()
        }

        # Release bookkeeping.
        self._unblock: dict[tuple[int, int], tuple[int, int]] = {}
        self._out_count: dict[int, int] = {}
        self._out_unblock: dict[int, tuple[int, int]] = {}
        self._issue: dict[int, deque] = {
            n.nid: deque() for n in dfg.memory_nodes()
        }
        self._last_emit: dict[int, int] = {}
        self._last_fire: dict[int, int] = {}

        # The event log: parallel lists (compact, pickle-fast).
        self.ev_cycle: list[int] = []
        self.ev_kind: list[int] = []
        self.ev_nid: list[int] = []
        self.ev_pred: list[int] = []
        self.ev_edge: list[int] = []
        #: eid -> (issue, enqueue, serve, complete, arrived) milestones
        #: of emission events.
        self.ev_ms: dict[int, tuple[int, int, int, int, int]] = {}

        #: load nid -> Counter of observed operand slacks (cycles the
        #: response could have been later without delaying the consumer).
        self.slack: dict[int, Counter] = {}
        self._loads = {
            n.nid for n in dfg.memory_nodes() if n.op == "load"
        }
        self._memory = {n.nid for n in dfg.memory_nodes()}

        #: Full report dict, built at finish (see :meth:`on_finish`).
        self.report: dict = {}

    # -- event construction ----------------------------------------------

    def _append(
        self, now: int, kind: int, nid: int, pred: int, edge: int
    ) -> int:
        eid = len(self.ev_cycle)
        self.ev_cycle.append(now)
        self.ev_kind.append(kind)
        self.ev_nid.append(nid)
        self.ev_pred.append(pred)
        self.ev_edge.append(edge)
        return eid

    # -- hooks -------------------------------------------------------------

    def on_tick(self, now: int, emitted, fired, changes, pushes) -> None:
        """One fabric tick: emissions, then firings, then the pushes —
        each mirrored into the consumers' shadow FIFOs tagged with the
        event that produced it (a node's emission before its firing)."""
        tick_src: dict[int, list[int]] = {}
        for record, _node, _domain in emitted:
            tick_src.setdefault(record.nid, []).append(self._emit(now, record))
        for nid, pops, mem, emits in fired:
            eid = self._fire(now, nid, pops, mem, emits)
            if emits:
                tick_src.setdefault(nid, []).append(eid)
        fifo = self._fifo
        for src, _value in pushes:
            eid = tick_src[src].pop(0)
            for key in self._consumer_keys.get(src, ()):
                fifo[key].append(eid)

    def _fire(self, now: int, nid: int, pops, mem: bool, emits: bool) -> int:
        """A committed firing: ``pops`` port indices were consumed;
        ``mem`` issued a memory request; ``emits`` pushes a token."""
        cands: list[tuple[int, int, int]] = []
        freed: list[tuple[int, int]] = []
        for index in pops:
            queue = self._fifo[(nid, index)]
            if len(queue) >= self.capacity:
                freed.append((nid, index))
            src_ev = queue.popleft()
            cands.append((self.ev_cycle[src_ev], src_ev, OPERAND))
        prev = self._last_fire.get(nid)
        if prev is not None:
            cands.append((self.ev_cycle[prev], prev, SELF))
        if emits:
            for key in self._consumer_keys.get(nid, ()):
                unblock = self._unblock.get(key)
                if unblock is not None:
                    cands.append((unblock[0], unblock[1], SPACE))
        if mem:
            unblock = self._out_unblock.get(nid)
            if unblock is not None:
                cands.append((unblock[0], unblock[1], ORDER))
        if cands:
            bind_cycle, pred_ev, edge = max(cands)
            eid = self._append(now, _KIND_FIRE, nid, pred_ev, edge)
            # Slack of every load-fed operand against the binding arrival.
            for cycle, src_ev, kind in cands:
                if kind != OPERAND or self.ev_kind[src_ev] != _KIND_EMIT:
                    continue
                src_nid = self.ev_nid[src_ev]
                if src_nid in self._loads:
                    self.slack.setdefault(src_nid, Counter())[
                        bind_cycle - cycle
                    ] += 1
        else:
            eid = self._append(now, _KIND_FIRE, nid, -1, ROOT)
        for key in freed:
            self._unblock[key] = (now, eid)
        if mem:
            self._issue[nid].append(eid)
            self._out_count[nid] = self._out_count.get(nid, 0) + 1
        self._last_fire[nid] = eid
        return eid

    def _emit(self, now: int, record) -> int:
        """A memory response was emitted at its PE: chain back to the
        issuing firing, unless ordering or backpressure bound later."""
        nid = record.nid
        issue_ev = self._issue[nid].popleft()
        cands = [(record.arrived_cycle, issue_ev, CHAIN)]
        prev = self._last_emit.get(nid)
        if prev is not None:
            cands.append((self.ev_cycle[prev], prev, ORDER))
        for key in self._consumer_keys.get(nid, ()):
            unblock = self._unblock.get(key)
            if unblock is not None:
                cands.append((unblock[0], unblock[1], SPACE))
        _cycle, pred_ev, edge = max(cands)
        eid = self._append(now, _KIND_EMIT, nid, pred_ev, edge)
        self.ev_ms[eid] = (
            record.issue_cycle,
            record.enqueue_cycle,
            record.serve_cycle,
            record.complete_cycle,
            record.arrived_cycle,
        )
        was = self._out_count.get(nid, 0)
        self._out_count[nid] = was - 1
        if was >= self.max_outstanding:
            self._out_unblock[nid] = (now, eid)
        self._last_emit[nid] = eid
        return eid

    def on_finish(self, stats) -> None:
        """Walk the path, check the sum invariant, publish the report;
        then keep only ``report`` and ``slack`` (the rest is log)."""
        self.report = self._build_report(stats.system_cycles)
        stats.critpath = self._compact(self.report)
        for name in self.SNAPSHOT_STATE:
            if name not in ("slack", "report"):
                getattr(self, name).clear()

    # -- the backward walk -------------------------------------------------

    def _walk(self, system_cycles: int):
        categories = {cat: 0 for cat in CATEGORIES}
        per_mem: dict[int, int] = {}
        path_events: Counter = Counter()
        edge_counts: Counter = Counter()
        n = len(self.ev_cycle)
        if n == 0:
            # Zero-event run (nothing ever fired): the whole makespan is
            # unattributable residue, but the invariant still holds.
            categories["other"] = system_cycles
            return categories, per_mem, path_events, edge_counts
        cur = n - 1  # events are appended in cycle order; last = terminal
        categories["other"] += system_cycles - self.ev_cycle[cur]  # drain
        divider = self.divider
        while cur != -1:
            nid = self.ev_nid[cur]
            path_events[nid] += 1
            pred = self.ev_pred[cur]
            edge = self.ev_edge[cur]
            edge_counts[_EDGE_NAMES[edge]] += 1
            start = self.ev_cycle[pred] if pred != -1 else 0
            span = self.ev_cycle[cur] - start
            if edge == ROOT:
                categories["other"] += span
            elif edge == SPACE:
                categories["fifo-backpressure"] += span
            elif edge == ORDER:
                categories["mem-order"] += span
                per_mem[nid] = per_mem.get(nid, 0) + span
            elif edge in (OPERAND, SELF):
                if span > 0:
                    stretch = min(divider - 1, span - 1)
                    categories["compute"] += 1
                    categories["divider-stretch"] += stretch
                    categories["other"] += span - 1 - stretch
            else:  # CHAIN: the milestone ledger partitions the span.
                issue, enqueue, serve, complete, arrived = self.ev_ms[cur]
                categories["fmnoc-request"] += enqueue - issue
                categories["mem-bank"] += serve - enqueue
                categories["mem-service"] += complete - serve
                categories["noc-response"] += arrived - complete
                tail = self.ev_cycle[cur] - arrived
                stretch = min(divider - 1, tail)
                categories["divider-stretch"] += stretch
                categories["other"] += tail - stretch
                per_mem[nid] = per_mem.get(nid, 0) + span
            cur = pred
        return categories, per_mem, path_events, edge_counts

    def _build_report(self, system_cycles: int) -> dict:
        categories, per_mem, path_events, edge_counts = self._walk(
            system_cycles
        )
        attributed = sum(categories.values())
        if attributed != system_cycles:
            raise SimulationError(
                f"critical-path invariant violated: attributed "
                f"{attributed} cycles != {system_cycles} system cycles "
                f"(categories {categories})"
            )
        rollup = {bucket: 0 for bucket in ROLLUP_ORDER}
        for cat, cycles in categories.items():
            rollup[ROLLUP[cat]] += cycles
        denom = max(1, system_cycles)
        mem_nodes = {}
        for nid in sorted(self._memory):
            label, klass, op = self.node_meta[nid]
            cycles = per_mem.get(nid, 0)
            entry = {
                "label": label,
                "class": klass,
                "op": op,
                "cycles": cycles,
                "criticality": round(cycles / denom, 6),
                "path_events": path_events.get(nid, 0),
                "whatif_savings_bound": cycles,
                "whatif_min_cycles": system_cycles - cycles,
            }
            hist = self.slack.get(nid)
            if hist:
                uses = sum(hist.values())
                entry["slack"] = {
                    "uses": uses,
                    "zero": hist.get(0, 0),
                    "min": min(hist),
                    "max": max(hist),
                    "mean": round(
                        sum(s * c for s, c in hist.items()) / uses, 3
                    ),
                    "histogram": {
                        str(s): hist[s] for s in sorted(hist)
                    },
                }
            mem_nodes[str(nid)] = entry
        critical_loads = sorted(
            (
                entry
                | {"nid": int(nid)}
                for nid, entry in mem_nodes.items()
                if entry["op"] == "load" and entry["cycles"] > 0
            ),
            key=lambda e: (-e["cycles"], e["nid"]),
        )
        top_loads = [
            {
                k: e[k]
                for k in ("nid", "label", "class", "cycles", "criticality")
            }
            for e in critical_loads[:5]
        ]
        return {
            "system_cycles": system_cycles,
            "events": len(self.ev_cycle),
            "path_events": sum(path_events.values()),
            "edge_counts": {k: edge_counts[k] for k in sorted(edge_counts)},
            "categories": categories,
            "rollup": rollup,
            "memory_nodes": mem_nodes,
            "top_loads": top_loads,
        }

    @staticmethod
    def _compact(report: dict) -> dict:
        """The manifest/SimStats view: everything except per-node detail."""
        return {
            "system_cycles": report["system_cycles"],
            "events": report["events"],
            "path_events": report["path_events"],
            "categories": dict(report["categories"]),
            "rollup": dict(report["rollup"]),
            "top_loads": [dict(e) for e in report["top_loads"]],
        }

    # -- derived views -----------------------------------------------------

    def dynamic_criticality(self) -> dict[int, float]:
        """Memory nid -> measured fraction of the critical path."""
        return {
            int(nid): entry["criticality"]
            for nid, entry in self.report.get("memory_nodes", {}).items()
        }

    def per_node_blame(self) -> dict[int, dict]:
        """Stable per-memory-node blame export (see :func:`blame_shares`)."""
        return blame_shares(self.report)

    def render(self, top: int = 10) -> str:
        """Human-readable critical-path report."""
        report = self.report
        if not report:
            return "critical path: (no report; run not finished)"
        sc = report["system_cycles"]
        lines = [
            f"critical path over {sc} system cycles "
            f"({report['events']} events recorded, "
            f"{report['path_events']} on the path):"
        ]
        if report["events"] == 0:
            lines.append("  (no events recorded)")
        denom = max(1, sc)
        for cat in CATEGORIES:
            cycles = report["categories"][cat]
            if not cycles:
                continue
            lines.append(
                f"  {cat:18s} {cycles:10d}  {cycles / denom:7.1%}"
            )
        lines.append(
            f"  {'total':18s} {sum(report['categories'].values()):10d}  "
            "(== system_cycles; hard invariant)"
        )
        ranked = [
            entry | {"nid": int(nid)}
            for nid, entry in report["memory_nodes"].items()
            if entry["cycles"] > 0
        ]
        ranked.sort(key=lambda e: (-e["cycles"], e["nid"]))
        if ranked:
            lines.append("  critical memory nodes (dynamic criticality):")
            for entry in ranked[:top]:
                slack = entry.get("slack")
                tail = (
                    f"  slack zero {slack['zero']}/{slack['uses']} "
                    f"mean {slack['mean']}"
                    if slack
                    else ""
                )
                lines.append(
                    f"    n{entry['nid']:<4d} [{entry['class']}] "
                    f"{entry['label']:24s} {entry['criticality']:7.1%} "
                    f"({entry['cycles']} cycles; zero-latency makespan "
                    f">= {entry['whatif_min_cycles']}){tail}"
                )
            if len(ranked) > top:
                lines.append(f"    ... {len(ranked) - top} more")
        else:
            lines.append(
                "  (no memory round-trips on the critical path)"
            )
        return "\n".join(lines)
