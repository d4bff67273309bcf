"""Dynamic critical-path profiler: cycle-exact blame for the makespan.

The stall taxonomy (:mod:`repro.obs.sinks`) says *where* cycles went;
this module says *why the makespan is what it is*. A
:class:`CriticalPathRecorder` replays the run's recording
(:mod:`repro.obs.events`) and, for every committed node firing and every
memory-response emission, finds the **last-arrival predecessor** — the
one event whose completion released this one:

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

Walking backwards from the terminal event reconstructs the exact
critical path. Each edge's span decomposes into categories
(:data:`CATEGORIES`) whose costs **sum exactly to** ``system_cycles`` —
a structural identity, not an approximation: predecessor cycles
telescope along the walk, every edge decomposition is exhaustive, and
the root/drain residues are charged to ``other``. The recorder asserts
the identity and the report carries it.

On top of the path the recorder derives

* **dynamic criticality** per memory node — the fraction of the
  critical path spent inside that node's round-trips (the measured
  ground truth behind the paper's Sec. 5 class-A/B heuristics),
* **slack histograms** per load — how much later each response could
  have arrived without delaying its consumer,
* a **zero-latency what-if** bound per load — the makespan could drop
  by at most the cycles the path spends in that load's round-trips.

Design constraints, matching the rest of :mod:`repro.obs`: the recorder
is plain data (picklable across the parallel harness's workers) that
keeps only its report and slack histograms once built, and is
insensitive to event-driven cycle skipping (skipped spans contain no
events by construction).
"""

from __future__ import annotations

from collections import Counter, deque

from repro.errors import SimulationError
from repro.obs.events import ISSUE, PUSH, Walk
from repro.obs.sinks import node_info_of

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

#: Edge kind -> its name in ``report["edge_counts"]``.
_EDGE_NAMES = ("root", "order", "space", "self", "operand", "chain")


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
    """Backward-walk blame attribution over a run's recording.

    Built once the run ends: :func:`_release_edges` gives every event of
    the recording's :class:`~repro.obs.events.Walk` — each emitted
    response with its :class:`~repro.sim.memsys.RequestRecord`
    milestones, each committed firing with the events whose tokens it
    popped — its release edge, the backward walk over those edges
    becomes ``report``, and the edges are dropped.
    """

    def __init__(
        self,
        recording,
        compiled,
        divider: int,
        system_cycles: int,
        fifo_capacity: int = 2,
        max_outstanding: int = 2,
    ):
        self.divider = divider
        log, slack = _release_edges(
            recording, compiled.dfg, fifo_capacity, max_outstanding
        )
        #: load nid -> Counter of observed operand slacks (cycles the
        #: response could have been later without delaying the consumer).
        self.slack: dict[int, Counter] = slack
        #: The full report dict (see :meth:`_build_report`).
        self.report: dict = self._build_report(log, system_cycles, compiled)

    # -- the backward walk -------------------------------------------------

    def _walk(self, log, system_cycles: int):
        ev_cycle, ev_nid, ev_pred, ev_edge, ev_ms = log
        categories = {cat: 0 for cat in CATEGORIES}
        per_mem: dict[int, int] = {}
        path_events: Counter = Counter()
        edge_counts: Counter = Counter()
        n = len(ev_cycle)
        if n == 0:
            # Zero-event run (nothing ever fired): the whole makespan is
            # unattributable residue, but the invariant still holds.
            categories["other"] = system_cycles
            return categories, per_mem, path_events, edge_counts
        cur = n - 1  # events are appended in cycle order; last = terminal
        categories["other"] += system_cycles - ev_cycle[cur]  # drain
        divider = self.divider
        while cur != -1:
            nid = ev_nid[cur]
            path_events[nid] += 1
            pred = ev_pred[cur]
            edge = ev_edge[cur]
            edge_counts[_EDGE_NAMES[edge]] += 1
            start = ev_cycle[pred] if pred != -1 else 0
            span = ev_cycle[cur] - start
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
                issue, enqueue, serve, complete, arrived = ev_ms[cur]
                categories["fmnoc-request"] += enqueue - issue
                categories["mem-bank"] += serve - enqueue
                categories["mem-service"] += complete - serve
                categories["noc-response"] += arrived - complete
                tail = ev_cycle[cur] - arrived
                stretch = min(divider - 1, tail)
                categories["divider-stretch"] += stretch
                categories["other"] += tail - stretch
                per_mem[nid] = per_mem.get(nid, 0) + span
            cur = pred
        return categories, per_mem, path_events, edge_counts

    def _build_report(self, log, system_cycles: int, compiled) -> dict:
        categories, per_mem, path_events, edge_counts = self._walk(
            log, system_cycles
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
        info = node_info_of(compiled)
        mem_nodes = {}
        for nid in sorted(n.nid for n in compiled.dfg.memory_nodes()):
            label, klass, _pe, op = info[nid]
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
            "events": len(log[0]),
            "path_events": sum(path_events.values()),
            "edge_counts": {k: edge_counts[k] for k in sorted(edge_counts)},
            "categories": categories,
            "rollup": rollup,
            "memory_nodes": mem_nodes,
            "top_loads": top_loads,
        }

    def compact(self) -> dict:
        """The manifest/SimStats view: everything except per-node detail."""
        report = self.report
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


def _release_edges(recording, dfg, capacity: int, max_outstanding: int):
    """The last-arrival edge of every event of the recording's mirrored
    :class:`~repro.obs.events.Walk`, in run order (its event numbers are
    the event ids): the walk names the event behind each popped token,
    and the release bookkeeping of backpressure and memory ordering is
    kept here.

    An emission's candidates are the issuing firing (its ``arrived``
    stamp), the node's previous emission and its backpressure release; a
    firing's, each popped token's push, its own previous firing, and the
    release of its backpressure (if it pushes) or of its issue queue (if
    it issues). The latest by ``(cycle, event, edge)`` binds. Returns the
    event log ``(cycle, nid, pred, edge, milestones)`` — the walk's
    per-event lists, each event's binding predecessor and edge kind, and
    each emission's ``(issue, enqueue, serve, complete, arrived)`` — and
    the slack histograms (:attr:`CriticalPathRecorder.slack`).
    """
    walk = Walk(recording, dfg, capacity)
    cycle, node = walk.cycle, walk.nid
    pred: list[int] = []
    edges: list[int] = []
    milestones: dict[int, tuple[int, int, int, int, int]] = {}
    slack: dict[int, Counter] = {}
    #: Producer nid -> ``(cycle, event)`` of the latest pop that freed a
    #: full FIFO it feeds; memory nid -> that of the latest emission that
    #: freed a full issue queue.
    unblock: dict[int, tuple[int, int]] = {}
    out_unblock: dict[int, tuple[int, int]] = {}
    out_count: dict[int, int] = {}
    issued = {n.nid: deque() for n in dfg.memory_nodes()}
    last_emit: dict[int, int] = {}
    last_fire: dict[int, int] = {}
    loads = {n.nid for n in dfg.memory_nodes() if n.op == "load"}
    for now, emitted, fired, popped, *_ in walk:
        for nid, _seq, *stamps, _hops, _hit, _index in emitted:
            best = (stamps[-1], issued[nid].popleft(), CHAIN)
            if nid in last_emit:
                cand = (cycle[last_emit[nid]], last_emit[nid], ORDER)
                if cand > best:
                    best = cand
            if nid in unblock:
                cand = (*unblock[nid], SPACE)
                if cand > best:
                    best = cand
            _cycle, src, edge = best
            eid = len(pred)
            pred.append(src)
            edges.append(edge)
            milestones[eid] = tuple(stamps)
            was = out_count.get(nid, 0)
            out_count[nid] = was - 1
            if was >= max_outstanding:
                out_unblock[nid] = (now, eid)
            last_emit[nid] = eid
        for (nid, _mask, effect), tokens in zip(fired, popped):
            eid = len(pred)
            fed = []
            # No candidate: a root (e.g. a source's first firing). Every
            # candidate beats it: its cycle is >= 0 and its event >= 0.
            best = (0, -1, ROOT)
            if nid in last_fire:
                cand = (cycle[last_fire[nid]], last_fire[nid], SELF)
                if cand > best:
                    best = cand
            if effect == PUSH and nid in unblock:
                cand = (*unblock[nid], SPACE)
                if cand > best:
                    best = cand
            elif effect == ISSUE and nid in out_unblock:
                cand = (*out_unblock[nid], ORDER)
                if cand > best:
                    best = cand
            for _port, full, src in tokens:
                cand = (cycle[src], src, OPERAND)
                if cand > best:
                    best = cand
                if node[src] in loads:
                    fed.append(src)
                if full:
                    unblock[node[src]] = (now, eid)
            bind_cycle, src, edge = best
            pred.append(src)
            edges.append(edge)
            # A load's tokens are its emissions (its firings issue, never
            # push): the slack of each against the binding arrival.
            for src in fed:
                slack.setdefault(node[src], Counter())[
                    bind_cycle - cycle[src]
                ] += 1
            if effect == ISSUE:
                issued[nid].append(eid)
                out_count[nid] = out_count.get(nid, 0) + 1
            last_fire[nid] = eid
    return (cycle, node, pred, edges, milestones), slack
