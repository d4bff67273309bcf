"""Cycle-level simulator of a compiled kernel on an SDA fabric.

The engine advances the *system* clock one cycle at a time; the fabric
fires on cycles divisible by the clock divider chosen by PnR's static
timing (ratio-synchronous clocks, Sec. 4.2). Per system cycle:

1. banks serve queued requests and completed accesses travel back over the
   response network (one cycle per arbitration hop);
2. the fabric-memory frontend advances — Monaco's arbiter tree, or a
   UPEA/NUMA fixed-delay pipe;
3. on a fabric tick, PEs emit arrived memory responses and fire ready
   nodes; tokens land in consumer FIFOs at the next tick (the bufferless
   data NoC crosses any routed path within one fabric clock).

Ordered dataflow discipline: every input port has a bounded token FIFO
(backpressure stalls the producer); each PE fires its single instruction
at most once per fabric cycle; loads may pipeline up to ``max_outstanding``
requests but always deliver responses in issue order.

Machine state
-------------
Firing-dense workloads execute nearly every fabric tick, so per-tick
cost is wall clock. The machine state is therefore one ``nid``-indexed
table per kind, built once at init (:meth:`_Engine._init_tables`): FIFO
rows (one deque per input port), node states, response queues, consumer
edges (each with its FIFO deque and hop count pre-resolved), producer
ids per input port, placement, memory domain, and one firing rule per
node compiled by :func:`repro.dfg.ops.compile_rule` — the firing loop
and the probe path's ``_stall_reason`` call the same rules. Scheduling
is two flag arrays, one byte per nid (``active``, ``emit_candidates``):
waking a node stores 1, putting it to sleep stores 0, and a fabric tick
visits ``compress(range(size), bytes(flags))`` — an ascending scan of a
*copy*, so a node woken during the scan waits for the next tick, the
order a per-tick ``sorted(set)`` gives. The fire and emit loops inline
their capacity checks and pushes: on the plain path the compiled rule
(and ``_issue_memory`` for a memory op) is the only Python call per
visited node, which ``tests/test_engine_hot.py`` pins as calls per
firing. Per-op firing counts accumulate in an interned int array folded
into ``SimStats.firings`` at quiescence. Results are pinned bit for bit
by the same test file. The tables are the state ``_Engine.SNAPSHOT_STATE``
declares, so a snapshot captures them as they are laid out here
(:mod:`repro.sim.snapshot`) and a restore refills them in place.

Besides the fault injector the engine has one probe gate,
``recording``: with any probe on, the fire and emit loops append a row
per firing and emission to one :class:`repro.obs.events.Recording`, and
every probe (attribution, heatmaps, Chrome trace, critical path,
invariant checker) is built from it once the run ends.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import compress

from repro.arch.memory import AddressMap
from repro.arch.params import ArchParams
from repro.dfg.graph import DFG, PortRef
from repro.dfg.ops import NO_EMIT, compile_rule, fresh_state
from repro.errors import DeadlockError, SimulationError, SimulationPreempted
from repro.obs.events import FIRE, ISSUE, POPS, TICK_KINDS, Recording
from repro.pnr.result import CompiledKernel
from repro.pnr.route import routed_edges
from repro.sim.fmnoc_sim import MonacoFrontend
from repro.sim.memsys import MemorySystem, RequestRecord
from repro.sim.snapshot import capture, restore
from repro.sim.stats import SimStats


#: Stall bucket -> its index in a recorded ``changes`` row.
_BUCKET_CODE = {kind: code for code, kind in enumerate(TICK_KINDS)}


class SimResult:
    """Final memory state plus statistics for one run."""

    def __init__(self, memory: dict[str, list], stats: SimStats, obs=None):
        self.memory = memory
        self.stats = stats
        #: The :class:`repro.obs.sinks.Observation` built from the run's
        #: recording, or None when every probe (trace, critpath, check)
        #: was off. It holds the probes, not the recording.
        self.obs = obs
        #: ``{"from_cycle", "executed_before", "snapshot",
        #: "restore_wall_s"}`` when this run resumed from a snapshot
        #: (see :mod:`repro.sim.snapshot`); None for fresh runs.
        self.resume_info = None


def default_frontend(fabric, address_map):
    return MonacoFrontend(fabric)


def simulate(
    compiled: CompiledKernel,
    params: dict[str, int | float] | None = None,
    arrays: dict[str, list] | None = None,
    arch: ArchParams | None = None,
    frontend_factory=default_frontend,
    divider: int | None = None,
    checkpoint=None,
) -> SimResult:
    """Run ``compiled`` to quiescence and return memory + stats.

    ``arch.sim.trace`` / ``arch.sim.critpath`` / ``arch.sim.check``
    ask for the probes they name: the engine records the run
    (:class:`repro.obs.events.Recording`), the probes are built from the
    recording once ``run`` returns
    (:func:`repro.obs.sinks.make_observation`), and ``SimResult.obs``
    carries them back. The invariant checker's rules replay the
    recording before its quiescence ledger runs, and before an engine
    error propagates, so a checked run raises the first violation in
    tick order. With all three off nothing is recorded and results are
    bit-identical.
    ``arrays`` supplies initial contents by declared name (the rest are
    zero-filled); a name the kernel does not declare raises
    :class:`~repro.errors.SimulationError` before cycle 0.

    ``checkpoint`` is an optional
    :class:`repro.sim.snapshot.CheckpointConfig` arming mid-run
    snapshots (None = off); an armed run first continues from a valid
    snapshot at ``checkpoint.path``. An invalid one (missing, torn, or
    taken under another configuration) is deleted and the run starts at
    cycle 0 (:func:`repro.sim.snapshot.resolve_resume`). A resumed run
    is bit-identical to the uninterrupted one; a preempted run raises
    :class:`~repro.errors.SimulationPreempted` after writing a final
    snapshot, and SIGTERM/SIGINT preempt an armed run.
    """
    arch = arch or ArchParams()
    params = dict(params or {})
    dfg = compiled.dfg
    divider = divider or compiled.timing.clock_divider

    from repro.sim.faults import make_injector

    injector = make_injector(arch.sim)

    unknown = sorted(set(arrays or ()) - set(dfg.arrays))
    if unknown:
        raise SimulationError(
            f"arrays {unknown} are not declared by kernel {dfg.name!r} "
            f"(declared: {sorted(dfg.arrays)})"
        )
    memory: dict[str, list] = {}
    for name, size in dfg.arrays.items():
        if arrays and name in arrays:
            data = list(arrays[name])
            if len(data) != size:
                raise SimulationError(
                    f"array {name!r}: got {len(data)} words, declared {size}"
                )
        else:
            zero = 0 if dfg.array_dtypes.get(name, "i") == "i" else 0.0
            data = [zero] * size
        memory[name] = data

    address_map = AddressMap(dfg.arrays, arch.memory)
    memsys = MemorySystem(arch.memory, address_map, memory)
    frontend = frontend_factory(compiled.fabric, address_map)
    edges = routed_edges(dfg, compiled.routing)
    sim = arch.sim
    chrome = sim.trace and sim.trace_path is not None
    recording = None
    if sim.trace or sim.critpath or sim.check:
        recording = Recording(buckets=sim.trace, services=chrome)
        memsys.services = recording.services
    if injector is not None:
        memsys.faults = injector
        frontend.faults = injector
    engine = _Engine(
        compiled, params, arch, divider, memsys, frontend, address_map,
        edges, recording=recording, faults=injector,
    )

    resume_info = None
    snapshots = None
    if checkpoint is not None:
        import time as _time

        from repro.sim.snapshot import (
            Checkpointer,
            resolve_resume,
            sim_config_digest,
        )

        digest = sim_config_digest(compiled, arch, divider, frontend, params)
        restore_start = _time.perf_counter()
        snap = resolve_resume(checkpoint.path, digest)
        if snap is not None:
            snap.install(engine)
            resume_info = {
                "from_cycle": engine.now,
                "executed_before": engine.stats.executed_cycles,
                "snapshot": snap.path,
                "restore_wall_s": round(
                    _time.perf_counter() - restore_start, 6
                ),
            }
        snapshots = Checkpointer(checkpoint, digest)
        engine.snapshots = snapshots
        snapshots.watchdog.install()
    checker = None
    if sim.check:
        from repro.check.invariants import InvariantChecker

        checker = InvariantChecker(dfg, sim.fifo_capacity, sim.max_outstanding)
    try:
        stats = engine.run()
    except SimulationPreempted:
        raise
    except Exception:
        if checker is not None:
            # The first violation in tick order wins over the engine's
            # error, which it precedes (and carries as its context).
            checker.replay(recording)
        raise
    finally:
        if snapshots is not None:
            snapshots.watchdog.uninstall()
    if checker is not None:
        checker.replay(recording)
        checker.finish(stats, engine)
    if snapshots is not None:
        # Only a *clean* completion retires the snapshot file; a
        # preempted run (or a quiescence violation) leaves it behind.
        snapshots.finish()
    stats.frontend = frontend.name
    numa_counters = getattr(frontend, "numa_counters", None)
    if numa_counters is not None:
        # The one tally of access locality (the attribution reads it).
        stats.numa = numa_counters()
    obs = None
    if recording is not None:
        from repro.obs.sinks import make_observation

        obs = make_observation(
            recording, stats, compiled, divider, edges, address_map,
            getattr(frontend, "noc", None), sim,
        )
        obs.check = checker
        if chrome:
            obs.chrome.write(sim.trace_path)
    result = SimResult(memory, stats, obs=obs)
    result.resume_info = resume_info
    return result


class _Engine:
    #: What a run changes (:mod:`repro.sim.snapshot`); the wiring (rules,
    #: consumer edges, producers, placement) is rebuilt from the kernel.
    #: The recording keeps only its column lengths in a snapshot (see
    #: :meth:`state_dict`); its rows go to the snapshot's sidecar.
    SNAPSHOT_STATE = (
        "now", "last_event", "fifos", "states", "resp_queue", "arrivals",
        "_arrival_order", "_seq", "tokens", "mem_inflight", "active",
        "emit_candidates", "stats", "memsys", "frontend", "faults",
    )

    def __init__(
        self, compiled, params, arch, divider, memsys, frontend,
        address_map, edges, recording=None, faults=None,
    ):
        self.compiled = compiled
        self.dfg: DFG = compiled.dfg
        self.params = params
        self.arch = arch
        self.divider = divider
        self.memsys = memsys
        self.frontend = frontend
        self.address_map = address_map

        self.capacity = arch.sim.fifo_capacity
        self.max_outstanding = arch.sim.max_outstanding
        #: The nid-indexed tables; see the module docstring.
        self._size = max(self.dfg.nodes, default=-1) + 1
        self._init_tables(edges)
        #: Scheduler flags, one byte per nid: ``active[nid]`` has the
        #: fire loop visit the node at the next fabric tick,
        #: ``emit_candidates[nid]`` the emit loop. Every node starts
        #: awake; a visit that finds nothing to do clears the flag.
        self.active = bytearray(self._size)
        for nid in self.dfg.nodes:
            self.active[nid] = 1
        self.emit_candidates = bytearray(self._size)
        #: Tokens pushed earlier in the *current* fabric tick but not yet
        #: committed, per producer nid — a FIFO has exactly one producer,
        #: so this is the uncommitted count of every FIFO it feeds. Every
        #: capacity check counts these so two checks within one tick
        #: cannot both claim the same remaining slot (intra-tick
        #: FIFO-overflow fix).
        self.pending_pushes: dict[int, int] = {}
        self.arrivals: list[tuple[int, int, RequestRecord]] = []
        self._arrival_order = 0
        self._seq = 0
        self.tokens = 0
        self.mem_inflight = 0
        self.stats = SimStats(clock_divider=divider)
        #: The run's recording, or None (every probe off — the
        #: zero-overhead contract: every record site below is gated on
        #: this check).
        self.recording = recording
        #: Fault injector, or None (off — same zero-overhead contract:
        #: every consult site below is gated on this check).
        self.faults = faults
        #: While stall buckets are recorded: the nids whose matured
        #: response found a full consumer FIFO this tick.
        self._tick_blocked: list | None = None
        #: Stall-bucket cache (:meth:`_bucket_changes`): bucket per nid
        #: as of the last executed tick (None: classify every node), and
        #: the nids whose bucket then was an *event* (FIRE, emission-phase
        #: ``fifo-full``) rather than a state.
        self._buckets: list | None = None
        self._eventful: dict[int, str] = {}
        #: Current system cycle and last-progress cycle — instance state
        #: (not ``run()`` locals) so snapshots capture the scheduler.
        self.now = 0
        self.last_event = 0
        #: Checkpointer (:mod:`repro.sim.snapshot`), or None (off — the
        #: same zero-overhead contract: ``run`` polls one attribute).
        self.snapshots = None

    def _init_tables(self, edges) -> None:
        """Build the nid-indexed tables, the machine's only state.

        The wiring (``consumer_edges``, the rules) holds the FIFO deques
        themselves, so restore refills every container in place.
        ``edges`` is :func:`repro.pnr.route.routed_edges` of the kernel.
        """
        size = self._size
        #: Per nid, per input port: the token FIFO (None: an immediate).
        #: ``fifos[nid]`` is the row the node's rule is compiled over.
        self.fifos: list[list[deque | None]] = [[] for _ in range(size)]
        self.states: list[dict | None] = [None] * size
        #: Per nid: the firing rule, compiled once over the node's FIFO
        #: row (:func:`repro.dfg.ops.compile_rule`). Unbound parameters
        #: and unknown operators raise here, before cycle 0.
        self._rules: list = [None] * size
        #: Per nid: [(consumer_fifo, consumer_nid, port_index, hops), ...]
        #: in ``DFG.consumers()`` order.
        self.consumer_edges: list[list[tuple]] = [[] for _ in range(size)]
        #: Per memory nid: requests in flight, in issue order.
        self.resp_queue: list[deque | None] = [None] * size
        #: Per nid, per input port: producer nid (PortRef inputs only).
        self.producers: list[list[int | None]] = [[] for _ in range(size)]
        self.placement: list[tuple[int, int] | None] = [None] * size
        #: Per memory nid: NUPEA domain of the hosting PE.
        self.domain_of: list[int | None] = [None] * size
        #: Interned per-op firing counters, folded into
        #: ``SimStats.firings`` at quiescence (and at every snapshot).
        op_index: dict[str, int] = {}
        self._nid_op = [0] * size
        self._source_nids: list[int] = []
        placement = self.compiled.placement
        for nid, node in self.dfg.nodes.items():
            self.states[nid] = fresh_state(node)
            row: list[deque | None] = [None] * len(node.inputs)
            producers: list[int | None] = [None] * len(node.inputs)
            for index, inp in enumerate(node.inputs):
                if isinstance(inp, PortRef):
                    queue = row[index] = deque()
                    producers[index] = inp.src
                    # Hops for data-movement energy accounting: Manhattan
                    # distance for an edge the router did not record.
                    hops = edges[(inp.src, nid)][0]
                    if hops is None:
                        (ax, ay), (bx, by) = placement[inp.src], placement[nid]
                        hops = abs(ax - bx) + abs(ay - by)
                    self.consumer_edges[inp.src].append(
                        (queue, nid, index, hops)
                    )
            self.fifos[nid] = row
            self.producers[nid] = producers
            self._rules[nid] = compile_rule(node, row, self.params)
            self._nid_op[nid] = op_index.setdefault(node.op, len(op_index))
            self.placement[nid] = placement.get(nid)
            if node.is_memory():
                self.resp_queue[nid] = deque()
                self.domain_of[nid] = self.compiled.domain_of(nid)
            if node.op == "source":
                self._source_nids.append(nid)
        self._op_names = list(op_index)
        self._fire_counts = [0] * len(op_index)

    def _fold_firings(self) -> None:
        """Fold the interned firing counters into ``stats.firings``.

        Counts are preserved exactly (deltas added, array zeroed), so
        folding at any cycle boundary is a semantic no-op; it runs at
        quiescence and before every snapshot capture so external
        readers — the invariant checker's ledger, energy, snapshots —
        always see the complete dict.
        """
        counts = self._fire_counts
        firings = self.stats.firings
        for op_id, name in enumerate(self._op_names):
            count = counts[op_id]
            if count:
                firings[name] = firings.get(name, 0) + count
                counts[op_id] = 0

    # -- helpers ---------------------------------------------------------

    def can_emit(self, nid: int) -> bool:
        """Whether every FIFO ``nid`` feeds has a free slot this tick.

        The probes' side-effect-free peek; the emit and fire loops run
        the same check inline.
        """
        limit = self.capacity - self.pending_pushes.get(nid, 0)
        for edge in self.consumer_edges[nid]:
            if len(edge[0]) >= limit:
                return False
        return True

    def commit_pushes(self, pushes: list) -> None:
        capacity = self.capacity
        edges = self.consumer_edges
        active = self.active
        tokens = 0
        hops_total = 0
        for nid, value in pushes:
            for queue, consumer, index, hops in edges[nid]:
                queue.append(value)
                if len(queue) > capacity:
                    node = self.dfg.nodes[consumer]
                    raise SimulationError(
                        f"FIFO overflow: node {consumer} ({node.op} "
                        f"{node.tag!r}) port {node.port_name(index)} holds "
                        f"{len(queue)} tokens (capacity {capacity})"
                    )
                tokens += 1
                hops_total += hops
                active[consumer] = 1
        self.tokens += tokens
        self.stats.noc_hops += hops_total
        self.pending_pushes.clear()

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimStats:
        max_cycles = self.arch.sim.max_cycles
        deadlock_after = self.arch.sim.deadlock_cycles
        divider = self.divider
        stats = self.stats
        memsys = self.memsys
        memsys_tick = memsys.tick
        # The completions heap object is stable across restore (refilled
        # in place), so peeking it directly skips a generator set-up per
        # cycle on the (common) idle-completions path.
        completions = memsys._completions
        arrivals = self.arrivals
        active = self.active
        emit_candidates = self.emit_candidates
        frontend_tick = self.frontend.tick
        enqueue = memsys.enqueue

        def deliver(record):
            # ``self.now`` is the cycle being executed: it is written at
            # the bottom of every iteration and re-read at the top.
            enqueue(record, self.now)

        while True:
            if self.snapshots is not None:
                # Cycle boundary: pending_pushes is empty and the
                # executed/skipped ledger is closed — the only points
                # where the machine may be snapshotted or preempted.
                self.snapshots.boundary(self)
            now = self.now
            stats.executed_cycles += 1
            progressed = False
            memsys_tick(now)
            if completions and completions[0][0] <= now:
                for record in memsys.completions(now):
                    self._arrival_order += 1
                    heapq.heappush(
                        arrivals,
                        (
                            record.complete_cycle + record.response_hops,
                            self._arrival_order,
                            record,
                        ),
                    )
                progressed = True
            while arrivals and arrivals[0][0] <= now:
                record = heapq.heappop(arrivals)[2]
                record.arrived_cycle = now
                if record.request.kind == "load":
                    # Arrival-side latency ledger (fault-dropped replies
                    # never reach this point, so they never contribute).
                    memsys.stats.record_arrival(record, now)
                emit_candidates[record.nid] = 1
                progressed = True
            if frontend_tick(now, deliver):
                # Requests advancing through the fabric-memory network
                # (e.g. Monaco's arbiter chain) count as forward progress
                # for the deadlock detector.
                progressed = True
            if now % divider == 0:
                if self._fabric_tick(now):
                    progressed = True
            if progressed:
                self.last_event = now
            if self._finished(now):
                break
            if now - self.last_event > deadlock_after:
                self._raise_deadlock(now)
            if now > max_cycles:
                raise SimulationError("simulation exceeded max_cycles")
            now += 1
            if (
                not progressed
                and 1 not in active
                and 1 not in emit_candidates
            ):
                # The fabric sleeps: no state and no stall bucket changes
                # before memory, the frontend or an arrival wakes it.
                target = self._skip_target(
                    now, self.last_event, deadlock_after, max_cycles
                )
                if target > now:
                    if self.recording is not None:
                        self.recording.skips.fromlist([now, target])
                    stats.skipped_cycles += target - now
                    now = target
            self.now = now
        self._fold_firings()
        stats.system_cycles = self.now
        stats.mem = memsys.stats
        if self.faults is not None:
            stats.faults_injected = self.faults.counts()
        self._check_final_state()
        return stats

    def _skip_target(
        self, now: int, last_event: int, deadlock_after: int, max_cycles: int
    ) -> int:
        """Earliest cycle >= ``now`` at which a sleeping fabric can wake.

        ``run`` asks only after a cycle that made no progress and left
        both flag arrays clear, so no PE acts before memory, the frontend
        or an arrival hands it something. Each contributes a
        ``next_event`` hint; up to their minimum the machine is provably
        quiescent (docs/INTERNALS.md, Sec. 5). The jump is clamped so the
        deadlock detector and the ``max_cycles`` safety net still trip at
        exactly the cycle the per-cycle loop would have raised.
        """
        # Start from the clamps (where the per-cycle loop would diagnose
        # the deadlock, and the ``max_cycles`` net), then take the
        # minimum with every hint; the final ``max`` keeps a stale hint
        # from moving time backwards.
        target = min(last_event + deadlock_after + 1, max_cycles + 1)
        nxt = self.memsys.next_event(now)
        if nxt is not None and nxt < target:
            target = nxt
        if self.arrivals and self.arrivals[0][0] < target:
            target = self.arrivals[0][0]
        nxt = self.frontend.next_event(now)
        if nxt is not None and nxt < target:
            target = nxt
        return max(now, target)

    def _finished(self, now: int) -> bool:
        if now == 0:
            return False
        return (
            self.tokens == 0
            and self.mem_inflight == 0
            and not self.arrivals
            and not self.frontend.busy()
            and not self.memsys.busy()
            and not self._any_ready()
        )

    def _any_ready(self) -> bool:
        # With zero tokens in flight, only a source that has not fired yet
        # could still act. Sources are enumerated once at init, so this
        # is O(#sources) membership checks, not a scan of ``active``.
        active = self.active
        states = self.states
        for nid in self._source_nids:
            if active[nid] and not states[nid]["fired"]:
                return True
        return False

    # -- fabric ------------------------------------------------------------

    def _fabric_tick(self, now: int) -> bool:
        pushes: list = []
        progressed = False
        rec = self.recording
        if rec is not None:
            e0, f0 = len(rec.emitted), len(rec.fired)
            if rec.changes is not None:
                self._tick_blocked = []
        # Each loop scans a *copy* of its flags, taken as it starts: a
        # node woken during the scan waits for the next tick, and the
        # emit loop's wakes are in the fire loop's copy.
        emit_scan = bytes(self.emit_candidates)
        if 1 in emit_scan:
            progressed |= self._emit_responses(now, pushes, emit_scan)
        fire_scan = bytes(self.active)
        progressed |= self._fire_nodes(now, pushes, fire_scan)
        if rec is not None:
            # The tick's row closes *before* its pushes commit: tokens
            # land at the next tick, so the buckets classify the FIFO
            # state this tick's firing rules actually saw.
            c0 = c1 = 0
            if rec.changes is not None:
                c0 = len(rec.changes)
                self._bucket_changes(e0, f0, (emit_scan, fire_scan))
                c1 = len(rec.changes)
            e1, f1 = len(rec.emitted), len(rec.fired)
            if e1 != e0 or f1 != f0 or c1 != c0:
                rec.ticks.fromlist([now, e1, f1, c1])
        if pushes:
            self.commit_pushes(pushes)
            progressed = True
        return progressed

    def _bucket_changes(self, e0: int, f0: int, scans: tuple) -> None:
        """Attribute this executed fabric tick: record ``(nid, bucket)``
        for each node whose bucket differs from the last executed tick's
        (``e0``/``f0``: where the tick's emitted and fired rows start;
        ``scans``: the flag snapshots the emit and fire loops scanned).

        Only nodes whose situation may have changed are re-derived — the
        ones the emit and fire loops scanned or woke this tick, plus last
        tick's eventful nodes (nothing need wake a node that emitted its
        last response, yet it stops being FIRE). Any other node keeps its
        cached bucket: its input FIFOs, state, response queue and
        ``can_emit`` only change through an event that sets one of its
        two flags (argument in docs/INTERNALS.md, Sec. 6).
        """
        cache = self._buckets
        if cache is None:
            cache = self._buckets = [None] * self._size
            touched = set(self.dfg.nodes)
        else:
            # Scanned (the two snapshots) or woken since (flags set now):
            # OR the four byte strings as ints, then one pass.
            size = self._size
            bits = int.from_bytes(self.emit_candidates, "little")
            bits |= int.from_bytes(self.active, "little")
            for scan in scans:
                bits |= int.from_bytes(scan, "little")
            touched = set(self._eventful)
            touched.update(
                compress(range(size), bits.to_bytes(size, "little"))
            )
        rec = self.recording
        events = dict.fromkeys(self._tick_blocked, "fifo-full")
        events.update(dict.fromkeys(rec.emitted[e0::10], FIRE))
        events.update(dict.fromkeys(rec.fired[f0::3], FIRE))
        self._eventful = events
        add = rec.changes.fromlist
        for nid in sorted(touched):
            bucket = events.get(nid)
            if bucket is None:
                bucket = self._stall_reason(nid)
                if bucket == "ready":
                    # Tokens became visible (or a slot freed, or a fault
                    # suppressed the firing) only after the fire phase
                    # scanned the node: it was starved when it mattered.
                    bucket = "operand-wait"
            if bucket != cache[nid]:
                cache[nid] = bucket
                add([nid, _BUCKET_CODE[bucket]])

    def _stall_reason(self, nid: int) -> str:
        """Why ``nid`` cannot fire right now (side-effect-free peek)."""
        queue = self.resp_queue[nid]
        if queue and queue[0].arrived_cycle is not None:
            # A memory response is back at the PE but cannot be emitted.
            if not self.can_emit(nid):
                return "fifo-full"
        try:
            fired = self._rules[nid](self.states[nid])
        except Exception:  # pragma: no cover - diagnostic path only
            return "operand-wait"
        if fired is None:
            # No new firing possible; if this PE has requests in flight,
            # the wait is the memory round-trip itself (the paper's
            # critical-load stall), not operand starvation.
            return "memory-outstanding" if queue else "operand-wait"
        _pops, emit, mem, _new_state = fired
        if mem is not None:
            if queue is not None and len(queue) >= self.max_outstanding:
                return "memory-outstanding"
            return "ready"
        if emit is not NO_EMIT and not self.can_emit(nid):
            return "output-backpressure"
        return "ready"

    def _emit_responses(self, now: int, pushes: list, scan: bytes) -> bool:
        progressed = False
        rec = self.recording
        emitted = None if rec is None else rec.emitted.fromlist
        blocked = self._tick_blocked
        emit_flags = self.emit_candidates
        active = self.active
        resp = self.resp_queue
        edges = self.consumer_edges
        capacity = self.capacity
        pending = self.pending_pushes
        for nid in compress(range(len(scan)), scan):
            queue = resp[nid]
            record = queue[0] if queue else None
            if record is None or record.arrived_cycle is None:
                emit_flags[nid] = 0
                continue
            limit = capacity - pending.get(nid, 0)
            full = False
            for edge in edges[nid]:
                if len(edge[0]) >= limit:
                    full = True
                    break
            if full:
                if blocked is not None:
                    blocked.append(nid)
                continue  # retry next fabric tick
            queue.popleft()
            self.mem_inflight -= 1
            pushes.append((nid, record.value))
            pending[nid] = pending.get(nid, 0) + 1
            self.stats.fmnoc_hops += 2 * record.response_hops
            node = self.dfg.nodes[nid]
            latency = record.arrived_cycle - record.issue_cycle
            if record.request.kind == "load":
                self.stats.record_load(
                    node.criticality, self.domain_of[nid], latency
                )
            if emitted is not None:
                emitted([
                    nid, record.seq, record.issue_cycle,
                    record.enqueue_cycle, record.serve_cycle,
                    record.complete_cycle, record.arrived_cycle,
                    record.response_hops, record.hit, record.request.index,
                ])
            # The PE may issue again now that a slot freed up.
            active[nid] = 1
            if not queue or queue[0].arrived_cycle is None:
                emit_flags[nid] = 0
            progressed = True
        return progressed

    def _fire_nodes(self, now: int, pushes: list, scan: bytes) -> bool:
        progressed = False
        active = self.active
        rules = self._rules
        states = self.states
        resp = self.resp_queue
        producers = self.producers
        in_fifos = self.fifos
        edges = self.consumer_edges
        pending = self.pending_pushes
        fire_counts = self._fire_counts
        nid_op = self._nid_op
        capacity = self.capacity
        max_outstanding = self.max_outstanding
        rec = self.recording
        fired_row = None if rec is None else rec.fired.fromlist
        faults = self.faults
        tokens_popped = 0
        for nid in compress(range(len(scan)), scan):
            fired = rules[nid](states[nid])
            if fired is None:
                active[nid] = 0
                continue
            pops, emit, mem, new_state = fired
            if mem is not None:
                if len(resp[nid]) >= max_outstanding:
                    active[nid] = 0
                    continue
            elif emit is not NO_EMIT:
                limit = capacity - pending.get(nid, 0)
                full = False
                for edge in edges[nid]:
                    if len(edge[0]) >= limit:
                        full = True
                        break
                if full:
                    active[nid] = 0
                    continue
            if faults is not None and faults.stall_pe():
                # Injected PE stall: the firing was legal but is
                # suppressed this tick. The node stays active and
                # retries at the next fabric tick (so the cycle-skip
                # scheduler still schedules it).
                continue
            # Commit the firing.
            if pops:
                fifo_row = in_fifos[nid]
                producer_row = producers[nid]
                for index in pops:
                    queue = fifo_row[index]
                    if len(queue) >= capacity:
                        # A slot frees up: the blocked producer may emit.
                        active[producer_row[index]] = 1
                    queue.popleft()
                tokens_popped += len(pops)
            if new_state is not None:
                states[nid].update(new_state)
            if mem is not None:
                self._issue_memory(nid, mem, now)
            elif emit is not NO_EMIT:
                pushes.append((nid, emit))
                pending[nid] = pending.get(nid, 0) + 1
            fire_counts[nid_op[nid]] += 1
            if fired_row is not None:
                fired_row([
                    nid, POPS[pops],
                    ISSUE if mem is not None else emit is not NO_EMIT,
                ])
            progressed = True
            # The node may be ready again next tick; keep it active.
        if tokens_popped:
            self.tokens -= tokens_popped
        return progressed

    def _issue_memory(self, nid: int, request, now: int) -> None:
        self._seq += 1
        record = RequestRecord(
            nid=nid,
            seq=self._seq,
            request=request,
            address=self.address_map.address(request.array, request.index),
            pe_coord=self.placement[nid],
            issue_cycle=now,
        )
        self.resp_queue[nid].append(record)
        self.mem_inflight += 1
        self.frontend.inject(record, now)

    # -- snapshots ---------------------------------------------------------

    def state_dict(self) -> dict:
        """:func:`~repro.sim.snapshot.capture` at a cycle boundary, the
        interned firing counters folded into ``stats.firings`` first,
        plus the recording's :meth:`~repro.obs.events.Recording.mark`."""
        self._fold_firings()
        state = capture(self)
        rec = self.recording
        state["recording"] = None if rec is None else rec.mark()
        return state

    def load_state_dict(self, state: dict) -> None:
        """:func:`~repro.sim.snapshot.restore` a :meth:`state_dict` in
        place, then reset what is derived per tick: the interned firing
        deltas (the restored ``firings`` is the whole ledger) and the
        stall-bucket cache (the next tick records every node's bucket
        again, which no probe counts twice). The recording's rows are
        the snapshot's to refill (:meth:`Snapshot.install
        <repro.sim.snapshot.Snapshot.install>`); this run must record
        the columns it recorded."""
        state = dict(state)
        mark, rec = state.pop("recording"), self.recording
        for side, saved, live in (
            ("faults", state["faults"] is not None, self.faults is not None),
            ("recorded", mark and mark[0], rec and tuple(rec.lengths())),
        ):
            if saved != live:
                raise SimulationError(
                    f"snapshot has {side} {saved}, this run {live}"
                )
        restore(self, state)
        self.pending_pushes.clear()
        self._fire_counts = [0] * len(self._fire_counts)
        self._buckets = None

    # -- diagnostics ---------------------------------------------------

    def _raise_deadlock(self, now: int) -> None:
        raise DeadlockError(
            f"no progress since cycle {now - self.arch.sim.deadlock_cycles}"
            f"; {self.tokens} tokens stranded, {self.mem_inflight} memory "
            "ops in flight.\n" + self._blocked_report()
        )

    def _blocked_report(self, top: int = 20) -> str:
        """Ranked blocked-node report for deadlock diagnostics.

        Every node holding tokens or outstanding memory requests is
        listed with its stall reason, per-port FIFO occupancies, and
        in-flight memory count — the nodes hoarding the most stranded
        state first, since the cycle that wedged the machine almost
        always passes through one of them.
        """
        entries = []
        for nid, node in self.dfg.nodes.items():
            occupancy = {
                node.port_name(index): len(queue)
                for index, queue in enumerate(self.fifos[nid])
                if queue is not None
            }
            held = sum(occupancy.values())
            requests = self.resp_queue[nid] or ()
            outstanding = len(requests)
            if not held and not outstanding:
                continue
            reason = self._stall_reason(nid)
            fifos = ", ".join(
                f"{port}:{depth}" for port, depth in occupancy.items()
            )
            dropped = sum(1 for record in requests if record.dropped)
            lost = f" ({dropped} dropped by fault injection)" if dropped else ""
            entries.append(
                (
                    -(held + outstanding),
                    nid,
                    f"node {nid} ({node.op} {node.tag!r}) [{reason}] "
                    f"fifos {{{fifos}}} mem-outstanding {outstanding}{lost}",
                )
            )
        entries.sort()
        lines = ["Blocked nodes (most stranded state first):"]
        lines += [f"  {text}" for _, _, text in entries[:top]]
        if len(entries) > top:
            lines.append(f"  ... {len(entries) - top} more blocked node(s)")
        if len(entries) <= 1:
            lines.append(
                "  (single or no holder: check source nodes / frontend "
                "state; the machine may simply have drained incorrectly)"
            )
        return "\n".join(lines)

    def _check_final_state(self) -> None:
        for nid, node in self.dfg.nodes.items():
            state = self.states[nid]
            if node.op == "carry" and state["phase"] != "init":
                raise SimulationError(
                    f"carry node {nid} ({node.tag!r}) finished in RUN phase"
                )
            if node.op == "invariant" and state["held"]:
                raise SimulationError(
                    f"invariant node {nid} ({node.tag!r}) finished held"
                )
