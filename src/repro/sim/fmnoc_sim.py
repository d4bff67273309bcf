"""Timed model of Monaco's fabric-memory NoC (paper Fig. 9).

Requests from LS PEs flow through the row's arbiter chain toward memory:
one system cycle per arbitration stage, round-robin selection, single
request forwarded per arbiter per cycle. D0 PEs bypass the network to
their direct ports; each row's *shared* port round-robins between its D0
PE and the row's D1 arbiter (the "combinationally arbitrated" third port).
Responses return over a mirrored network modeled as a pure pipeline delay
of one cycle per stage (``response_hops``).
"""

from __future__ import annotations

from collections import deque
from itertools import compress, islice

from repro.arch.fabric import Fabric
from repro.arch.fmnoc import ArbiterId, FMNoC
from repro.errors import SimulationError
from repro.sim.memsys import RequestRecord


class _Arbiter:
    """One arbitration stage: RR over inputs, single-entry output latch."""

    SNAPSHOT_STATE = ("rr", "latch")

    def __init__(self, sources: list):
        self.sources = sources  # PE coords and/or upstream ArbiterId
        self.rr = 0
        self.latch: RequestRecord | None = None
        #: Plan stage this arbiter's latch feeds (set by the plans).
        self.feeds = -1


def _holds(handle) -> bool:
    """Whether a source handle (an ``_Arbiter`` or a PE injection deque)
    holds a request its stage could take."""
    if type(handle) is _Arbiter:
        return handle.latch is not None
    return bool(handle)


class MonacoFrontend:
    """Request-side fabric-memory NoC for the Monaco topology."""

    name = "monaco"
    #: Fault injector (see :mod:`repro.sim.faults`); None = off.
    faults = None
    #: Queues, latches and round-robin cursors (:mod:`repro.sim.snapshot`);
    #: the network structure and the plans over it are rebuilt from the
    #: fabric, and a restore refills the queues and arbiters they hold.
    SNAPSHOT_STATE = ("pe_queues", "arbiters", "port_rr", "in_network")

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self.noc = FMNoC(fabric)
        #: Injection queue per LS PE coordinate.
        self.pe_queues: dict[tuple[int, int], deque] = {
            pe.coord: deque() for pe in fabric.ls_pes()
        }
        self.arbiters: dict[ArbiterId, _Arbiter] = {}
        for arb_id in self.noc.arbiters():
            sources = [
                s.coord if hasattr(s, "coord") else s
                for s in self.noc.arbiter_inputs(arb_id)
            ]
            self.arbiters[arb_id] = _Arbiter(sources)
        #: port id -> list of sources (PE coords and/or ArbiterId).
        self.port_sources: dict[int, list] = {}
        self.port_rr: dict[int, int] = {}
        for pe in fabric.ls_pes():
            if pe.direct_port is not None:
                self.port_sources.setdefault(pe.direct_port, []).append(
                    pe.coord
                )
        for row, port in fabric.row_shared_port.items():
            arb = ArbiterId(row, 1)
            if arb in self.arbiters:
                self.port_sources.setdefault(port, []).append(arb)
        for port in self.port_sources:
            self.port_rr[port] = 0
        #: Requests between ``inject`` and their port's delivery, PE
        #: queues and latches alike (:meth:`audit` recounts them); the
        #: engine ticks the network only while this is non-zero.
        self.in_network = 0
        self._build_plans()

    def _build_plans(self) -> None:
        """Pre-resolve the per-cycle iteration order once.

        The replaced tick sorted ``port_sources``/``arbiters`` and hashed
        an ``ArbiterId`` or PE coord per take — every system cycle, on
        structures that never change after construction. The plans bake
        in the sorted order and swap each source id for its live handle
        (the PE's injection deque, or the ``_Arbiter`` object itself);
        restore refills those in place, so handles never go stale.

        Each plan entry is a *stage* — a port, then an arbiter — numbered
        in plan order (ports first). Every source feeds exactly one
        stage, so ``held[stage]``, the number of its sources holding a
        request, changes only where a request enters a source (``inject``,
        a latch fill) or leaves it (a take), and a tick visits only the
        stages it is nonzero for.
        """

        def handle(source):
            if isinstance(source, ArbiterId):
                return self.arbiters[source]
            return self.pe_queues[source]

        ports = sorted(self.port_sources)
        arb_ids = sorted(self.arbiters, key=lambda a: (a.domain, a.row))
        #: Stage -> its port id or ``ArbiterId`` (names a stage).
        self.stages: list = ports + arb_ids
        inputs = [self.port_sources[port] for port in ports]
        inputs += [self.arbiters[arb_id].sources for arb_id in arb_ids]
        feeds = {
            source: stage
            for stage, sources in enumerate(inputs)
            for source in sources
        }
        #: PE coord -> the stage its injection queue feeds.
        self._pe_feeds = {coord: feeds[coord] for coord in self.pe_queues}
        for arb_id, arbiter in self.arbiters.items():
            arbiter.feeds = feeds[arb_id]
        #: (stage, port, [source handles]) in ascending port order.
        self._port_plan = [
            (stage, port, [handle(s) for s in inputs[stage]])
            for stage, port in enumerate(ports)
        ]
        #: (stage, arbiter, [source handles]) nearest-to-memory domain
        #: first — the order that advances a request one stage per cycle.
        self._arb_plan = [
            (stage, self.arbiters[arb_id], [handle(s) for s in inputs[stage]])
            for stage, arb_id in enumerate(arb_ids, len(ports))
        ]
        #: Per stage, how many of its sources hold a request (not
        #: snapshotted: :meth:`restored` recounts it).
        self.held = self.recount()

    def recount(self) -> list[int]:
        """Per stage, the sources holding a request, counted from the
        queues and latches themselves (what :attr:`held` must equal)."""
        return [
            sum(map(_holds, handles))
            for plan in (self._port_plan, self._arb_plan)
            for _, _, handles in plan
        ]

    def restored(self) -> None:
        """Snapshot hook: the queues and latches were written back, so
        the held counts derived from them are rebuilt."""
        self.held[:] = self.recount()

    # -- Frontend interface ------------------------------------------------

    def inject(self, record: RequestRecord, now: int) -> None:
        pe = self.fabric.pes[record.pe_coord]
        if not pe.is_ls:
            raise SimulationError(
                f"memory request from non-LS PE {record.pe_coord}"
            )
        record.response_hops = self.noc.request_hops(pe)
        queue = self.pe_queues[record.pe_coord]
        if not queue:
            self.held[self._pe_feeds[record.pe_coord]] += 1
        queue.append(record)
        self.in_network += 1

    def tick(self, now: int, deliver) -> bool:
        """Advance one system cycle; ``deliver(record)`` hands to memory.

        Returns True when any request moved — a port delivered to memory
        or an arbiter latch refilled. The engine's deadlock detector
        counts this as progress, so a request crawling through a long
        arbiter chain does not false-trip ``DeadlockError``.

        Only stages with a held source are visited: a stage none of whose
        sources holds a request would grant nothing, move no cursor and
        draw no fault. A take empties its source (a latch, or a queue's
        last request) for no stage but the one being visited, and a
        latch fill counts for the stage downstream, already visited this
        cycle, so the counts read lazily as the plan goes stay exact.
        The engine calls it only while :attr:`in_network` is non-zero:
        an empty network grants nothing and moves no cursor.
        """
        moved = False
        faults = self.faults
        held = self.held
        port_rr = self.port_rr
        # 1. Ports consume (one request per port per cycle). A source
        # handle is either an upstream _Arbiter (take = drain its latch)
        # or a PE injection deque (take = popleft).
        for stage, port, handles in compress(self._port_plan, held):
            start = port_rr[port]
            n = len(handles)
            for offset in range(n):
                handle = handles[(start + offset) % n]
                if type(handle) is _Arbiter:
                    record = handle.latch
                else:
                    record = handle[0] if handle else None
                if record is not None:
                    if faults is not None and faults.skip_grant():
                        # Injected grant glitch: the port granted this
                        # source but the transfer is withheld; the
                        # request stays where it was and the port wastes
                        # the cycle.
                        break
                    if type(handle) is _Arbiter:
                        handle.latch = None
                        held[stage] -= 1
                    else:
                        handle.popleft()
                        if not handle:
                            held[stage] -= 1
                    port_rr[port] = (start + offset + 1) % n
                    self.in_network -= 1
                    deliver(record)
                    moved = True
                    break
        # 2. Arbiters refill their latches, nearest-to-memory domain first
        #    so a request advances at most one stage per cycle.
        for stage, arbiter, handles in compress(
            self._arb_plan, islice(held, len(self._port_plan), None)
        ):
            if arbiter.latch is not None:
                continue
            start = arbiter.rr
            n = len(handles)
            for offset in range(n):
                handle = handles[(start + offset) % n]
                if type(handle) is _Arbiter:
                    record = handle.latch
                else:
                    record = handle[0] if handle else None
                if record is not None:
                    if faults is not None and faults.skip_grant():
                        # Injected grant glitch: the stage keeps its
                        # latch empty this cycle and the request stays
                        # at its source.
                        break
                    if type(handle) is _Arbiter:
                        handle.latch = None
                        held[stage] -= 1
                    else:
                        handle.popleft()
                        if not handle:
                            held[stage] -= 1
                    arbiter.rr = (start + offset + 1) % n
                    arbiter.latch = record
                    held[arbiter.feeds] += 1
                    moved = True
                    break
        return moved

    # -- snapshots ---------------------------------------------------------

    def signature(self) -> str:
        """Stable identity string for the snapshot config digest: two
        frontends with equal signatures route requests identically."""
        return f"monaco:{self.fabric.rows}x{self.fabric.cols}"

    def audit(self) -> int:
        """Structural recount of requests inside the request network.

        Walks every PE injection queue and every arbiter latch and
        counts what is actually there — independently of the
        :attr:`in_network` running counter, so the conformance layer
        (:mod:`repro.check.invariants`) can prove the inject/deliver
        bookkeeping conserves requests.
        """
        held = sum(len(queue) for queue in self.pe_queues.values())
        held += sum(
            1 for a in self.arbiters.values() if a.latch is not None
        )
        return held
