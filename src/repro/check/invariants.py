"""Runtime invariant checkers for the cycle-level simulator.

:class:`InvariantChecker` runs under ``ArchParams.sim.check``. Its
rules read only the run's recording, through its
:class:`~repro.obs.events.Walk` — emitted responses, committed firings
and the memory requests they issued, the token each pop consumed and
the FIFOs each tick's pushes fill — and it counts each node's requests
in flight itself. ``simulate`` replays the recording through the rules
once the run ends, and also before an engine error (deadlock, FIFO overflow,
``max_cycles``) propagates, so a failing checked run raises the first
violation in tick order; only :meth:`InvariantChecker.finish`, the live
end-of-run audit, reads the final stats and the quiescent engine. It
never writes simulator state, so checked results are bit-identical;
only a *violation* changes behaviour, by raising
:class:`InvariantViolation`.

Invariant catalog (see INTERNALS Sec. 8):

**Mirrored FIFOs** (token conservation + cadence).  The walk mirrors
every token FIFO with a queue of the events that pushed its tokens,
replayed from each tick's rows, which the engine records just before
committing its pushes. A pop asserts the mirror was non-empty and that
the token's push is strictly older than the current cycle (pushes
commit at end-of-tick and become consumable at the next fabric tick).
Together with the audit that every mirror is empty at quiescence this
proves no token is consumed twice, conjured from nothing, or consumed
in the same tick it was produced.

**FIFO capacity.**  No push may leave a mirrored FIFO above
``fifo_capacity`` — independently of the engine's own checks, so a
producer pushing twice in one tick past one check cannot hide one.

**Memory-ordering monotonicity.**  A load/store whose input is fed by
another memory node (the lowering's ordering-token chains) must not
issue before that predecessor has delivered at least one response, and
strictly after the predecessor's first response emission. Combined with
the shadow-stamp rule this proves a dependent access never issues
before its predecessor's response arrived at the PE. Response delivery
is additionally checked to be per-node in issue order (``seq``
monotone) with ``issue_cycle <= arrived_cycle <= now``, and a node
issues only with fewer than ``max_outstanding`` requests in flight by
the checker's own count (its issues minus its responses).

**Stats-ledger identities** (checked at quiescence):

* ``executed_cycles + skipped_cycles == system_cycles + 1`` — the
  cycle-skipping scheduler accounts for every system cycle exactly once;
* ``hits + misses == loads + stores`` — every bank service classifies;
* ``loads == firings["load"]`` and ``stores == firings["store"]`` —
  every memory firing was served exactly once (holds under fault
  injection too: a *dropped* response was still served);
* issues == responses delivered, zero tokens and in-flight requests
  remain, and the engine's ``firings`` ledger equals the checker's own
  independent count of commit events;
* the fabric-memory frontend's ``audit()`` recount of requests inside
  the network agrees with its ``in_network`` counter and is zero, and
  Monaco's per-stage ``held`` counts equal its structural ``recount()``
  (the first stage that disagrees is named).
"""

from __future__ import annotations

from collections import Counter

from repro.dfg.graph import DFG, PortRef
from repro.errors import SimulationError
from repro.isa import MEMORY_OPS
from repro.obs.events import ISSUE, Walk


class InvariantViolation(SimulationError):
    """A runtime invariant of the simulator was broken.

    Subclasses :class:`SimulationError` so existing harness failure
    taxonomies classify it as a deterministic simulation failure (never
    retried by the sweep supervisor).
    """


class InvariantChecker:
    """Runtime invariant checks over one engine run (see module doc)."""

    def __init__(self, dfg: DFG, capacity: int, max_outstanding: int):
        self.dfg = dfg
        self.capacity = capacity
        self.max_outstanding = max_outstanding
        #: The walk's mirrored token FIFOs, once :meth:`replay` has
        #: walked the recording.
        self.fifos: dict = {}
        #: Independent firing ledger (per op kind).
        self.fired: dict[str, int] = {}
        self.issues = 0
        self.responses = 0
        self._last_seq: dict[int, int] = {}
        #: nid -> requests in flight (issues minus responses).
        self._inflight: dict[int, int] = {}
        #: nid -> cycle of its first response emission.
        self._first_emit: dict[int, int] = {}
        #: Memory node -> direct memory-node predecessors (ordering-token
        #: producers feeding it without intermediate gating).
        self._mem_preds: dict[int, tuple[int, ...]] = {}
        memory_ids = {n.nid for n in dfg.nodes.values() if n.op in MEMORY_OPS}
        for nid in memory_ids:
            preds = tuple(
                inp.src
                for inp in dfg.nodes[nid].inputs
                if isinstance(inp, PortRef) and inp.src in memory_ids
            )
            if preds:
                self._mem_preds[nid] = preds

    # -- helpers -----------------------------------------------------------

    def _fail(self, rule: str, message: str) -> None:
        raise InvariantViolation(f"invariant {rule!r} violated: {message}")

    def _describe(self, nid: int) -> str:
        node = self.dfg.nodes[nid]
        return f"node {nid} ({node.op} {node.tag!r})"

    # -- the recording (see :mod:`repro.obs.events`) ----------------------

    def replay(self, recording) -> None:
        """Run the rules over every recorded tick, in run order, then
        count the recorded firings into the ``fired`` ledger."""
        walk = Walk(recording, self.dfg, self.capacity)
        self.fifos, cycle = walk.fifos, walk.cycle
        for now, emitted, fired, popped, _pushes, overfull, _changes in walk:
            for nid, seq, issue, _enq, _serve, _done, arrived, *_ in emitted:
                self.response(now, nid, seq, issue, arrived)
            for (nid, _mask, effect), tokens in zip(fired, popped):
                for port, _full, source in tokens:
                    if source is None or cycle[source] >= now:
                        self._bad_pop(now, nid, port, source, cycle)
                if effect == ISSUE:
                    self.issue(now, nid)
            for (consumer, port), tokens in overfull:
                node = self.dfg.nodes[consumer]
                self._fail(
                    "fifo-capacity",
                    f"{self._describe(consumer)} port "
                    f"{node.port_name(port)} holds {tokens} tokens "
                    f"(capacity {self.capacity}) after the commit at "
                    f"cycle {now}",
                )
        nodes = self.dfg.nodes
        for nid, count in Counter(recording.fired[::3]).items():
            op = nodes[nid].op
            self.fired[op] = self.fired.get(op, 0) + count

    # -- rules --------------------------------------------------------------

    def _bad_pop(self, now, nid, port, source, cycle) -> None:
        """A firing at ``now`` popped a token the mirror did not hold
        (``source`` None) or one pushed at or after ``now``."""
        port = self.dfg.nodes[nid].port_name(port)
        if source is None:
            self._fail(
                "token-conservation",
                f"{self._describe(nid)} popped port {port} but the "
                "mirrored FIFO is empty — a token was consumed that was "
                "never pushed",
            )
        self._fail(
            "token-cadence",
            f"{self._describe(nid)} consumed a token on port {port} at "
            f"cycle {now} that was pushed at cycle {cycle[source]}; "
            "tokens only become visible at the tick after their push "
            "commits",
        )

    def issue(self, now: int, nid: int) -> None:
        """A memory node issued a request at cycle ``now``."""
        self.issues += 1
        outstanding = self._inflight.get(nid, 0)
        self._inflight[nid] = outstanding + 1
        if outstanding >= self.max_outstanding:
            self._fail(
                "max-outstanding",
                f"{self._describe(nid)} issued with {outstanding} "
                f"requests already in flight (limit "
                f"{self.max_outstanding})",
            )
        for pred in self._mem_preds.get(nid, ()):
            first = self._first_emit.get(pred)
            if first is None:
                self._fail(
                    "memory-ordering",
                    f"{self._describe(nid)} issued at cycle {now} but "
                    f"its ordering predecessor {self._describe(pred)} "
                    "has never delivered a response",
                )
            if first >= now:
                self._fail(
                    "memory-ordering",
                    f"{self._describe(nid)} issued at cycle {now}, not "
                    "strictly after its ordering predecessor "
                    f"{self._describe(pred)} first responded "
                    f"(cycle {first})",
                )

    def response(
        self, now: int, nid: int, seq: int, issue: int, arrived: int
    ) -> None:
        """A memory response (request ``seq``, issued at ``issue``, back
        at the PE at ``arrived``) was emitted into the fabric at ``now``."""
        self.responses += 1
        self._inflight[nid] = self._inflight.get(nid, 0) - 1
        if not issue <= arrived <= now:
            self._fail(
                "response-timing",
                f"{self._describe(nid)} emitted a response at cycle "
                f"{now} with issue={issue} arrived={arrived}; emission "
                "must follow arrival, which must follow issue",
            )
        last = self._last_seq.get(nid)
        if last is not None and seq <= last:
            self._fail(
                "response-order",
                f"{self._describe(nid)} delivered seq {seq} after seq "
                f"{last}; loads deliver responses in issue order",
            )
        self._last_seq[nid] = seq
        self._first_emit.setdefault(nid, now)

    def finish(self, stats, engine) -> None:
        """Quiescence ledger identities (see module doc); the only read
        of engine state, once the run has returned."""
        cycles = stats.executed_cycles + stats.skipped_cycles
        if cycles != stats.system_cycles + 1:
            self._fail(
                "cycle-ledger",
                f"executed ({stats.executed_cycles}) + skipped "
                f"({stats.skipped_cycles}) = {cycles} != system_cycles "
                f"+ 1 = {stats.system_cycles + 1}; the cycle-skipping "
                "scheduler lost or double-counted a cycle",
            )
        mem = stats.mem
        if mem.hits + mem.misses != mem.loads + mem.stores:
            self._fail(
                "cache-ledger",
                f"hits ({mem.hits}) + misses ({mem.misses}) != loads "
                f"({mem.loads}) + stores ({mem.stores}); a bank service "
                "escaped cache classification",
            )
        for op, served in (("load", mem.loads), ("store", mem.stores)):
            firings = stats.firings.get(op, 0)
            if served != firings:
                self._fail(
                    "service-ledger",
                    f"{served} {op}s served by the banks but {firings} "
                    f"{op} firings committed; every memory firing must "
                    "be served exactly once",
                )
        if mem.responses != mem.loads:
            self._fail(
                "arrival-ledger",
                f"{mem.loads} loads served but {mem.responses} load "
                "responses arrived at PEs; a quiescent machine must "
                "have delivered every reply",
            )
        if self.issues != self.responses:
            self._fail(
                "completion-ledger",
                f"{self.issues} requests issued, {self.responses} "
                "responses delivered; a quiescent machine must have "
                "completed every request",
            )
        if engine.tokens != 0 or engine.mem_inflight != 0:
            self._fail(
                "quiescence",
                f"engine finished with {engine.tokens} tokens and "
                f"{engine.mem_inflight} memory requests still counted "
                "in flight",
            )
        for (consumer, index), fifo in self.fifos.items():
            if fifo:
                node = self.dfg.nodes[consumer]
                self._fail(
                    "token-conservation",
                    f"{self._describe(consumer)} port "
                    f"{node.port_name(index)} still holds {len(fifo)} "
                    "token(s) at quiescence",
                )
        if self.fired != stats.firings:
            self._fail(
                "firing-ledger",
                f"engine firing ledger {stats.firings!r} disagrees with "
                f"the checker's independent count {self.fired!r}",
            )
        counted = engine.frontend.audit()
        if counted != 0:
            self._fail(
                "frontend-audit",
                f"frontend audit recounted {counted} request(s) "
                "still inside the fabric-memory network at quiescence",
            )
        in_network = engine.frontend.in_network
        if in_network != counted:
            self._fail(
                "frontend-audit",
                f"frontend in_network counter ({in_network}) "
                f"disagrees with the structural recount ({counted})",
            )
        frontend = engine.frontend
        held = getattr(frontend, "held", None)
        if held is not None:
            for stage, have, want in zip(
                frontend.stages, held, frontend.recount()
            ):
                if have != want:
                    name = f"port {stage}" if isinstance(stage, int) else stage
                    self._fail(
                        "frontend-audit",
                        f"frontend stage {name} counts {have} source(s) "
                        f"holding a request, its structural recount {want}",
                    )
