"""Event taxonomy and the publish/subscribe bus.

Publishers (the engine, :class:`~repro.sim.memsys.MemorySystem`) call
the ``EventBus`` methods below; sinks subscribe by implementing the
matching ``on_*`` hooks. Handler lists are resolved once at
:meth:`EventBus.attach` time so a publish is a plain loop over bound
methods — no ``hasattr`` in the hot path. The engine
publishes one :meth:`EventBus.tick` record per executed fabric tick and
one :meth:`EventBus.skip` per scheduler jump, never one event per
firing, token, node or idle cycle.

Stall taxonomy (per DFG node, per fabric tick):

``fire``
    the node committed a firing (including a load emitting its response).
``operand-wait``
    the firing rule is unsatisfied — an input FIFO the node needs is
    empty (also covers drained sources with nothing left to do, a node
    whose blocker cleared only after it was scanned this tick, and a
    firing suppressed by an injected PE stall).
``output-backpressure``
    the node is ready but a downstream consumer FIFO is full.
``fifo-full``
    a *memory response* is back at the PE but cannot be emitted because
    the consumer FIFO is full.
``memory-outstanding``
    the node is waiting on its own in-flight memory request(s): either
    the response has not completed the round-trip yet (the paper's
    critical-load stall) or the ``max_outstanding`` issue queue is full.
``divider-gap``
    system cycles between fabric ticks (global, applies to all nodes
    equally — the fabric clock simply is not edging).

Four event kinds: ``tick``, ``skip``, ``mem_service`` and ``finish``.
The attribution reads only the tick records and the final ``SimStats``,
so the cycles the scheduler jumps over need no event of their own;
``skip`` feeds only the Chrome trace's scheduler lane, and FM-NoC
stage traffic follows from the firings and the placement.
"""

from __future__ import annotations

#: Classification of a node firing (not a stall, but the sixth bucket
#: every attributed fabric tick falls into).
FIRE = "fire"

#: The stall taxonomy, in reporting order.
STALL_KINDS = (
    "operand-wait",
    "output-backpressure",
    "fifo-full",
    "memory-outstanding",
    "divider-gap",
)

#: Buckets a single fabric tick can put one node into.
TICK_KINDS = (FIRE,) + STALL_KINDS[:4]

#: publisher method name -> sink hook name.
_HOOKS = {
    "skip": "on_skip",
    "tick": "on_tick",
    "mem_service": "on_mem_service",
    "finish": "on_finish",
}


class EventBus:
    """Fan-out from simulator publish sites to attached sinks."""

    def __init__(self) -> None:
        self.sinks: list = []
        self._handlers: dict[str, list] = {name: [] for name in _HOOKS}
        #: Whether any attached sink reads the tick record's bucket
        #: changes (it says so with a true ``TAKES_BUCKETS``); the engine
        #: classifies stalls only then.
        self.wants_buckets = False

    def attach(self, sink) -> None:
        """Subscribe ``sink``; its ``on_*`` hooks are resolved now."""
        self.sinks.append(sink)
        self.wants_buckets |= getattr(sink, "TAKES_BUCKETS", False)
        for publish, hook in _HOOKS.items():
            method = getattr(sink, hook, None)
            if method is not None:
                self._handlers[publish].append(method)

    def hears(self, kind: str) -> bool:
        """Whether some attached sink reads the ``kind`` events; the
        engine gives a publisher the bus only then."""
        return bool(self._handlers[kind])

    # -- publisher API ----------------------------------------------------
    # One method per event kind; each is a plain loop over bound hooks.

    def skip(self, now: int, target: int) -> None:
        """The scheduler jumped from ``now`` to ``target`` (quiescent)."""
        for handler in self._handlers["skip"]:
            handler(now, target)

    def tick(self, now: int, emitted, fired, changes, pushes) -> None:
        """One executed fabric tick, as one record of what happened in it,
        in engine order: ``emitted`` memory responses ``(record, node,
        domain)``; committed firings ``fired`` ``(nid, pops, issued_mem,
        emits)``; ``changes`` — ``(nid, bucket)`` for each node whose
        TICK_KINDS bucket differs from the previous executed tick's (every
        node on the first tick and the first after a restore; empty
        unless :attr:`wants_buckets`); and the ``pushes`` ``(src, value)``
        about to commit onto every consumer FIFO of ``src`` — a node's
        emission precedes its firing there as in ``emitted``/``fired``."""
        for handler in self._handlers["tick"]:
            handler(now, emitted, fired, changes, pushes)

    def mem_service(self, now: int, record) -> None:
        """A bank served ``record`` (hit/miss and latency decided)."""
        for handler in self._handlers["mem_service"]:
            handler(now, record)

    def finish(self, stats) -> None:
        """The run reached quiescence; ``stats`` is the final SimStats."""
        for handler in self._handlers["finish"]:
            handler(stats)
