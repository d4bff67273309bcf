"""Runtime invariant checkers for the cycle-level simulator.

:class:`InvariantChecker` is one more sink of the observability bus
(:mod:`repro.obs.events`), attached by :func:`repro.obs.make_observation`
under ``ArchParams.sim.check``. Its rules read only the engine's
``tick`` records — emitted responses, committed firings and the memory
requests they issued, the pushes about to commit — and it counts each
node's requests in flight itself; only :meth:`InvariantChecker.finish`
reads the final stats and the quiescent engine. It never writes
simulator state, so checked results are bit-identical; only a
*violation* changes behaviour, by raising :class:`InvariantViolation`.

Invariant catalog (see INTERNALS Sec. 8):

**Shadow-FIFO timestamps** (token conservation + cadence).  The checker
mirrors every token FIFO with a queue of *push cycles*. A push is
recorded from the tick record, which the engine publishes just before
committing it; a pop asserts the shadow queue is non-empty and that the
front stamp is strictly older than the current cycle (pushes commit at
end-of-tick and become consumable at the next fabric tick). Together with the per-edge ``pushed == popped`` audit at
quiescence this proves no token is consumed twice, conjured from
nothing, or consumed in the same tick it was produced.

**FIFO capacity.**  Each shadow push asserts the mirrored occupancy
never exceeds ``fifo_capacity`` — independently of the engine's own
overflow guard, so a bookkeeping bug in ``pending_pushes`` cannot mask
an overflow.

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
  the network agrees with its ``in_network`` counter and is zero.
"""

from __future__ import annotations

from collections import deque

from repro.dfg.graph import DFG, PortRef
from repro.errors import SimulationError

_MEM_OPS = ("load", "store")


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
        #: Producer nid -> the (consumer, port) keys its pushes land on.
        self._fanout = dfg.consumers()
        keys = [key for sinks in self._fanout.values() for key in sinks]
        #: Shadow token FIFOs: push-cycle stamps per (consumer, port).
        self.shadow: dict[tuple[int, int], deque[int]] = {
            key: deque() for key in keys
        }
        self.pushed = dict.fromkeys(keys, 0)
        self.popped = dict.fromkeys(keys, 0)
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
        memory_ids = {n.nid for n in dfg.nodes.values() if n.op in _MEM_OPS}
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

    # -- the tick record (see ``EventBus.tick``) -----------------------------

    def on_tick(self, now: int, emitted, fired, changes, pushes) -> None:
        """Run the rules over one executed fabric tick, in record order."""
        for record, _node, _domain in emitted:
            self.response(now, record.nid, record)
        for nid, pops, issued, _emits in fired:
            self.fire(now, nid, pops)
            if issued:
                self.issue(now, nid)
        if pushes:
            self.commit(now, pushes)

    # -- rules --------------------------------------------------------------

    def fire(self, now: int, nid: int, pops: tuple[int, ...]) -> None:
        """A node committed a firing at fabric tick ``now``, consuming a
        token from each input port index in ``pops``."""
        node = self.dfg.nodes[nid]
        self.fired[node.op] = self.fired.get(node.op, 0) + 1
        for index in pops:
            key = (nid, index)
            queue = self.shadow[key]
            if not queue:
                self._fail(
                    "token-conservation",
                    f"{self._describe(nid)} popped port "
                    f"{node.port_name(index)} but the shadow FIFO is "
                    "empty — a token was consumed that was never pushed",
                )
            stamp = queue.popleft()
            self.popped[key] += 1
            if stamp >= now:
                self._fail(
                    "token-cadence",
                    f"{self._describe(nid)} consumed a token on port "
                    f"{node.port_name(index)} at cycle {now} that was "
                    f"pushed at cycle {stamp}; tokens only become "
                    "visible at the tick after their push commits",
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

    def response(self, now: int, nid: int, record) -> None:
        """A memory response was emitted into the fabric at ``now``."""
        self.responses += 1
        self._inflight[nid] = self._inflight.get(nid, 0) - 1
        if record.arrived_cycle is None or not (
            record.issue_cycle <= record.arrived_cycle <= now
        ):
            self._fail(
                "response-timing",
                f"{self._describe(nid)} emitted a response at cycle "
                f"{now} with issue={record.issue_cycle} "
                f"arrived={record.arrived_cycle}; emission must follow "
                "arrival, which must follow issue",
            )
        last = self._last_seq.get(nid)
        if last is not None and record.seq <= last:
            self._fail(
                "response-order",
                f"{self._describe(nid)} delivered seq {record.seq} "
                f"after seq {last}; loads deliver responses in issue "
                "order",
            )
        self._last_seq[nid] = record.seq
        self._first_emit.setdefault(nid, now)

    def commit(self, now: int, pushes: list) -> None:
        """This tick's token pushes, which the engine commits next."""
        fanout = self._fanout
        for nid, _value in pushes:
            for key in fanout[nid]:
                queue = self.shadow[key]
                queue.append(now)
                self.pushed[key] += 1
                if len(queue) > self.capacity:
                    consumer, index = key
                    node = self.dfg.nodes[consumer]
                    self._fail(
                        "fifo-capacity",
                        f"{self._describe(consumer)} port "
                        f"{node.port_name(index)} holds {len(queue)} "
                        f"tokens (capacity {self.capacity}) after the "
                        f"commit at cycle {now}",
                    )

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
        for key, queue in self.shadow.items():
            if queue or self.pushed[key] != self.popped[key]:
                consumer, index = key
                node = self.dfg.nodes[consumer]
                self._fail(
                    "token-conservation",
                    f"{self._describe(consumer)} port "
                    f"{node.port_name(index)}: {self.pushed[key]} "
                    f"pushed vs {self.popped[key]} popped "
                    f"({len(queue)} stamp(s) left) at quiescence",
                )
        if self.fired != stats.firings:
            self._fail(
                "firing-ledger",
                f"engine firing ledger {stats.firings!r} disagrees with "
                f"the checker's independent count {self.fired!r}",
            )
        audit = getattr(engine.frontend, "audit", None)
        if audit is not None:
            counted = audit()
            if counted != 0:
                self._fail(
                    "frontend-audit",
                    f"frontend audit recounted {counted} request(s) "
                    "still inside the fabric-memory network at "
                    "quiescence",
                )
            in_network = getattr(engine.frontend, "in_network", None)
            if in_network is not None and in_network != counted:
                self._fail(
                    "frontend-audit",
                    f"frontend in_network counter ({in_network}) "
                    f"disagrees with the structural recount ({counted})",
                )
