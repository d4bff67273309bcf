"""Event taxonomy and the run recording every probe is built from.

When any probe is on, the engine (and, for the timeline, the memory
system) appends what happened to one :class:`Recording`: integer
columns of fixed-width rows, no Python object per event. Once the run
ends, each probe is a function of that recording, the compiled kernel
and the final ``SimStats`` (:func:`repro.obs.sinks.make_observation`,
:meth:`repro.check.invariants.InvariantChecker.replay`), read through
one :class:`Walk` of its ticks — the one place the recording's token
traffic (which event pushed the token each pop consumes) is derived.

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
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from itertools import islice, repeat

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

#: Buckets a single fabric tick can put one node into; a ``changes``
#: row stores a bucket as its index here, in its low :data:`BUCKET_BITS`.
TICK_KINDS = (FIRE,) + STALL_KINDS[:4]

#: A ``changes`` row is ``nid << BUCKET_BITS | bucket``.
BUCKET_BITS = 3
assert len(TICK_KINDS) <= 1 << BUCKET_BITS

#: Column -> the fields of one of its rows, in order. ``ticks`` holds
#: one row per executed fabric tick that emitted, fired or changed a
#: bucket, with the end offsets (in array items) of its rows in the
#: three per-tick columns. Within a tick, emissions precede firings, and
#: every emission and every ``PUSH`` firing pushes one token onto each
#: consumer FIFO of its node, in that order — the tick's pushes.
FIELDS = {
    "ticks": ("now", "emitted_end", "fired_end", "changes_end"),
    "emitted": (
        "nid", "seq", "issue", "enqueue", "serve", "complete", "arrived",
        "response_hops", "hit", "index",
    ),
    "fired": ("nid", "pops", "effect"),
    "changes": ("nid_bucket",),
    "skips": ("now", "target"),
    "services": ("now", "complete", "address", "hit"),
}

#: A ``fired`` row's ``effect``: the firing pushed nothing, pushed a
#: token, or issued a memory request.
SILENT, PUSH, ISSUE = 0, 1, 2


class _Pops(dict):
    """A firing's ``pops`` (its port indices, ascending:
    :func:`repro.dfg.ops.compile_rule`) <-> the bitmask a ``fired`` row
    stores: ``POPS[pops]`` is the mask, ``POPS[mask]`` the pops."""

    def __missing__(self, key):
        if isinstance(key, int):
            value = tuple(i for i in range(key.bit_length()) if key >> i & 1)
        else:
            value = sum(1 << index for index in key)
        self[key] = value
        return value


POPS = _Pops()


class Recording:
    """What one probed run did, as ``array('q')`` columns (see
    :data:`FIELDS`). ``changes`` is kept only when a probe reads stall
    buckets (attribution, timeline), ``services`` (bank services) only
    for the timeline; the other four always."""

    def __init__(self, buckets: bool, services: bool):
        self.ticks = array("q")
        self.emitted = array("q")
        self.fired = array("q")
        self.changes = array("q") if buckets else None
        self.skips = array("q")
        self.services = array("q") if services else None
        #: Column -> items already in a snapshot's sidecar
        #: (:func:`repro.sim.snapshot.append_sidecar`).
        self.saved: dict[str, int] = {}

    def lengths(self) -> dict[str, int]:
        """Column name -> items recorded so far, for each kept column."""
        columns = {name: getattr(self, name) for name in FIELDS}
        return {name: len(c) for name, c in columns.items() if c is not None}

    def mark(self) -> tuple[tuple[str, ...], bytes]:
        """What a snapshot keeps of the recording: its column names and
        lengths, the lengths fixed-width so a snapshot's size does not
        depend on how far the run got (the rows live in the sidecar,
        :mod:`repro.sim.snapshot`)."""
        lengths = self.lengths()
        return tuple(lengths), array("Q", lengths.values()).tobytes()

    def load(self, data: dict[str, array]) -> None:
        """Refill every column in place (the engine and memory system
        hold the arrays) from a sidecar that holds them already."""
        for name in self.lengths():
            getattr(self, name)[:] = data[name]
        self.saved = self.lengths()

    def rows(self, name: str):
        """The rows of column ``name`` in order (none when it is not
        kept), as tuples of its :data:`FIELDS`: one zip over one
        iterator of the column, so each is unpacked once, lazily."""
        items = iter(getattr(self, name) or ())
        return zip(*[items] * len(FIELDS[name]))


def lengths_of(mark) -> dict[str, int]:
    """Column name -> length, from a :meth:`Recording.mark`."""
    names, packed = mark
    return dict(zip(names, array("Q", packed)))


class Walk:
    """One walk of a recording's ticks, in run order.

    Iterating yields, per recorded tick, ``(now, emitted, fired, popped,
    pushes, overfull, changes)``: its ``emitted`` and ``fired`` rows (as
    :data:`FIELDS` tuples), the producer of each of its ``pushes`` — its
    emissions, then its ``PUSH`` firings, each landing on every consumer
    FIFO of its producer after the tick's pops — and its bucket
    ``changes`` as ``(nid, index in TICK_KINDS)``.

    Events are numbered in run order: each tick's emissions, then its
    firings. Given the ``dfg``, the walk mirrors each token FIFO as a
    queue of the events that pushed its tokens (:attr:`fifos`) and keeps
    each event's :attr:`cycle` and :attr:`nid`; ``popped`` holds, per
    firing, ``(port, full, source)`` per port it popped, ascending
    (whether the FIFO held ``capacity`` tokens before the pop; the event
    that pushed the token, None if the mirror was empty), and
    ``overfull`` a ``((consumer, port), tokens)`` per push that left a
    FIFO above ``capacity``. Without a ``dfg`` both are empty. The mirror
    is the walk's state: iterate a walk once.
    """

    def __init__(self, recording: Recording, dfg=None, capacity: int = 0):
        self.recording, self.capacity = recording, capacity
        self._mirrored = dfg is not None
        consumers = dfg.consumers() if self._mirrored else {}
        #: ``(consumer, port)`` -> the events whose tokens it holds.
        self.fifos: dict[tuple[int, int], deque] = {
            key: deque() for keys in consumers.values() for key in keys
        }
        #: Producer nid -> ``(key, fifo)`` of each FIFO its pushes land on.
        self._lands = {
            nid: [(key, self.fifos[key]) for key in keys]
            for nid, keys in consumers.items()
        }
        #: Event number -> its cycle, and its node (a mirrored walk).
        self.cycle: list[int] = []
        self.nid: list[int] = []

    def push_counts(self) -> Counter:
        """Producer nid -> its pushes over the run: what iterating yields
        as ``pushes``, counted without walking tick by tick."""
        rec = self.recording
        counts = Counter(row[0] for row in rec.rows("emitted"))
        counts.update(nid for nid, _, effect in rec.rows("fired")
                      if effect == PUSH)
        return counts

    def __iter__(self):
        rec, capacity, lands = self.recording, self.capacity, self._lands
        e_width, f_width = len(FIELDS["emitted"]), len(FIELDS["fired"])
        emitted, fired = rec.rows("emitted"), rec.rows("fired")
        changes, split = rec.changes or (), 1 << BUCKET_BITS
        ticks = rec.ticks
        cycle, node, mirrored = self.cycle, self.nid, self._mirrored
        # Consumer nid -> its FIFOs by port.
        inputs: dict[int, dict[int, deque]] = {}
        for (consumer, port), fifo in self.fifos.items():
            inputs.setdefault(consumer, {})[port] = fifo
        e0 = f0 = c0 = 0
        for now, e1, f1, c1 in zip(
            ticks[0::4], ticks[1::4], ticks[2::4], ticks[3::4]
        ):
            emits = list(islice(emitted, (e1 - e0) // e_width))
            fires = list(islice(fired, (f1 - f0) // f_width))
            pushes = [row[0] for row in emits]
            pushes += [nid for nid, _mask, effect in fires if effect == PUSH]
            popped = overfull = ()
            if mirrored:
                first = len(cycle)
                sources = list(range(first, first + len(emits)))
                popped = []
                for event, (nid, mask, effect) in enumerate(
                    fires, first + len(emits)
                ):
                    got = ()
                    if mask:
                        got = []
                        ports = inputs[nid]
                        for port in POPS[mask]:
                            fifo = ports[port]
                            # ``full`` is read before the pop frees a slot.
                            got.append((
                                port, len(fifo) >= capacity,
                                fifo.popleft() if fifo else None,
                            ))
                    popped.append(got)
                    if effect == PUSH:
                        sources.append(event)
                cycle.extend(repeat(now, len(emits) + len(fires)))
                node += [row[0] for row in emits]
                node += [row[0] for row in fires]
                overfull = []
                for nid, source in zip(pushes, sources):
                    for key, fifo in lands[nid]:
                        fifo.append(source)
                        if len(fifo) > capacity:
                            overfull.append((key, len(fifo)))
            yield now, emits, fires, popped, pushes, overfull, [
                divmod(row, split) for row in changes[c0:c1]
            ]
            e0, f0, c0 = e1, f1, c1
