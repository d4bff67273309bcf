"""Event taxonomy and the run recording every probe is built from.

When any probe is on, the engine (and, for the timeline, the memory
system) appends what happened to one :class:`Recording`: integer
columns of fixed-width rows, no Python object per event. Once the run
ends, each probe is a function of that recording, the compiled kernel
and the final ``SimStats`` (:func:`repro.obs.sinks.make_observation`,
:meth:`repro.check.invariants.InvariantChecker.replay`).

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
#: row stores a bucket as its index here.
TICK_KINDS = (FIRE,) + STALL_KINDS[:4]

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
    "changes": ("nid", "bucket"),
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

    def each_tick(self):
        """Per recorded tick, ``(now, emitted, fired, changes)``: its rows
        of each, as tuples of their :data:`FIELDS`."""
        ticks, rows = self.ticks, self.rows
        e0 = f0 = c0 = 0
        for row in range(0, len(ticks), 4):
            now, e1, f1, c1 = ticks[row:row + 4]
            yield (
                now, rows("emitted", e0, e1), rows("fired", f0, f1),
                rows("changes", c0, c1),
            )
            e0, f0, c0 = e1, f1, c1

    def rows(self, name: str, start: int = 0, end: int | None = None):
        """The rows of column ``name`` between two item offsets (all of
        them by default), as tuples of its :data:`FIELDS`."""
        column, width = getattr(self, name), len(FIELDS[name])
        if not column or start == end:
            return ()
        return zip(*[column[start + k:end:width] for k in range(width)])


def lengths_of(mark) -> dict[str, int]:
    """Column name -> length, from a :meth:`Recording.mark`."""
    names, packed = mark
    return dict(zip(names, array("Q", packed)))
