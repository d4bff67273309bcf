"""Banked memory with a shared memory-side cache (paper Sec. 4/6).

Monaco's memory is banked 32x behind a shared data cache: a cache hit
takes 2 system cycles, main memory 4 more. Banks interleave at line
granularity and each accepts one request per system cycle; queueing at a
bank is the bank-conflict effect. The cache is a shared, memory-side LRU
of whole lines (loads and stores both allocate). Data values are read and
written at bank-service time, which is consistent with the DFG's
memory-ordering tokens (a dependent access cannot even be *issued* before
its predecessor's response).

Fault injection and accounting
------------------------------
Response faults (:mod:`repro.sim.faults`) act strictly *after* bank
service: a dropped or delayed response has already touched the cache,
read or written its data word, and been counted in
:class:`MemStats` (``loads``/``stores``/``hits``/``misses``/
``bank_wait_cycles``). This is intended — the access *was* served; only
the reply vanished in the response network — and it keeps the ledger
identity ``hits + misses == loads + stores`` exact under any fault mix.
Consequently a faulted run and its clean twin agree on ``loads + stores``
for the same prefix of serviced requests (asserted in
``tests/test_check_satellites.py``). Only :attr:`MemStats.latency_total`
and :attr:`MemStats.responses` are arrival-side: they accumulate when a
load's response reaches its PE, so dropped responses never contribute.

Memory holds only its bank queues: a served access's completion, like
every fixed delay of a round trip, is an entry of the engine's
:class:`Calendar`, booked through ``schedule``.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.arch.memory import AddressMap
from repro.arch.params import MemoryParams
from repro.dfg.ops import MemRequest
from repro.errors import SimulationError

#: Kinds of calendar entry, in the order a cycle drains a tie: a bank
#: access completes, a response reaches its PE, a request leaves a
#: fixed-delay frontend for its bank.
COMPLETE, ARRIVE, DELIVER = range(3)


class Calendar:
    """The requests' timed hops, a heap of ``(cycle, kind, order,
    record)``: ``order`` counts bookings, so one kind's entries drain in
    booking order (docs/INTERNALS.md, Sec. 5)."""

    SNAPSHOT_STATE = ("entries", "booked")

    def __init__(self):
        self.entries: list[tuple] = []
        self.booked = 0

    def schedule(self, cycle: int, kind: int, record) -> None:
        """Book ``record``'s next timed hop, of ``kind``, at ``cycle``."""
        self.booked += 1
        heapq.heappush(self.entries, (cycle, kind, self.booked, record))


@dataclass
class RequestRecord:
    """One in-flight memory access."""

    nid: int
    seq: int
    request: MemRequest
    address: int
    pe_coord: tuple[int, int]
    issue_cycle: int
    #: System cycles of response-network delay back to the PE.
    response_hops: int = 0
    #: System cycle the request joined its bank queue (-1 while in the
    #: fabric-memory network). A plain field — not side-table bookkeeping
    #: keyed by ``id(record)`` — so records survive pickling and object
    #: reuse across worker processes.
    enqueue_cycle: int = -1
    serve_cycle: int = -1
    complete_cycle: int = -1
    #: System cycle the response reached the PE (None while in flight).
    arrived_cycle: int | None = None
    value: int | float | None = None
    hit: bool | None = None
    #: True when fault injection swallowed the response (the access was
    #: served — data read/written — but the reply never returns; see
    #: :mod:`repro.sim.faults`). Diagnostic only.
    dropped: bool = False


@dataclass
class MemStats:
    loads: int = 0
    stores: int = 0
    hits: int = 0
    misses: int = 0
    bank_wait_cycles: int = 0
    #: Total load round-trip latency (issue -> response arrival at the
    #: PE), accumulated by the engine when the response lands; with
    #: :attr:`responses` this yields the exact average memory latency.
    latency_total: int = 0
    #: Load responses that actually arrived back at a PE (excludes
    #: fault-dropped replies, which never arrive).
    responses: int = 0

    @property
    def avg_latency(self) -> float:
        """Exact mean load round-trip latency in system cycles."""
        return self.latency_total / self.responses if self.responses else 0.0

    def record_service(self, record: RequestRecord) -> None:
        if record.enqueue_cycle < 0:
            raise SimulationError(
                f"node {record.nid}: request seq {record.seq} served at "
                f"cycle {record.serve_cycle} was never enqueued "
                f"(enqueue_cycle={record.enqueue_cycle}); bank-wait "
                "accounting would silently corrupt"
            )
        if record.request.kind == "load":
            self.loads += 1
        else:
            self.stores += 1
        if record.hit:
            self.hits += 1
        else:
            self.misses += 1
        self.bank_wait_cycles += record.serve_cycle - record.enqueue_cycle

    def record_arrival(self, record: RequestRecord, now: int) -> None:
        """A load's response reached its PE at cycle ``now``."""
        self.latency_total += now - record.issue_cycle
        self.responses += 1


class SharedCache:
    """Shared memory-side LRU cache of whole lines."""

    #: LRU recency order is semantic state: a restore must replay the
    #: same hit/miss/eviction sequence.
    SNAPSHOT_STATE = ("lines",)

    def __init__(self, capacity_lines: int):
        self.capacity = capacity_lines
        self.lines: OrderedDict[int, None] = OrderedDict()

    def access(self, line: int) -> bool:
        """Touch ``line``; returns True on hit (allocates on miss)."""
        if self.capacity <= 0:
            return False
        if line in self.lines:
            self.lines.move_to_end(line)
            return True
        self.lines[line] = None
        if len(self.lines) > self.capacity:
            self.lines.popitem(last=False)
        return False


class MemorySystem:
    """Banks + shared cache + backing data for one simulation."""

    #: See :mod:`repro.sim.snapshot`. ``data`` is refilled in place: it
    #: is the dict the engine hands back as the run's final memory.
    SNAPSHOT_STATE = ("data", "cache", "bank_queues", "_busy_banks", "stats")

    def __init__(
        self,
        params: MemoryParams,
        address_map: AddressMap,
        data: dict[str, list],
    ):
        self.params = params
        self.address_map = address_map
        self.data = data
        self.cache = SharedCache(params.cache_lines)
        self.bank_queues: list[deque] = [
            deque() for _ in range(params.n_banks)
        ]
        #: A heap of the indices of non-empty bank queues, each exactly
        #: once: a tick serves only the banks that hold work, in the
        #: ascending-index order of a scan of all ``n_banks`` queues, and
        #: memory is idle exactly when it is empty.
        self._busy_banks: list[int] = []
        self.stats = MemStats()
        self.schedule = None  # the engine's Calendar.schedule
        #: The run's recorded bank services (:mod:`repro.obs.events`),
        #: kept only for a Chrome timeline; None = off.
        self.services = None
        #: Fault injector (see :mod:`repro.sim.faults`); None = off.
        self.faults = None

    def enqueue(self, record: RequestRecord, now: int) -> None:
        """A request arrives at its bank's queue."""
        bank = self.address_map.bank(record.address)
        queue = self.bank_queues[bank]
        if not queue:
            heapq.heappush(self._busy_banks, bank)
        queue.append(record)
        record.enqueue_cycle = now

    def tick(self, now: int) -> None:
        """Serve one request per busy bank this cycle.

        Drains the busy-bank heap in ascending index order — identical
        service order to the full-scan loop it replaces (the engine only
        enqueues *after* this tick ran, so no bank turns busy mid-drain).
        Banks still holding requests re-enter the calendar; the drain
        order keeps that remainder sorted, so it is a valid heap as-is.
        """
        busy = self._busy_banks
        queues = self.bank_queues
        still_busy: list[int] = []
        while busy:
            bank = heapq.heappop(busy)
            queue = queues[bank]
            self._serve(queue.popleft(), now)
            if queue:
                still_busy.append(bank)
        busy.extend(still_busy)

    def _serve(self, record: RequestRecord, now: int) -> None:
        request = record.request
        line = self.address_map.line(record.address)
        record.hit = self.cache.access(line)
        latency = (
            self.params.hit_cycles
            if record.hit
            else self.params.miss_latency()
        )
        record.serve_cycle = now
        array = self.data[request.array]
        if request.kind == "load":
            record.value = array[request.index]
        else:
            array[request.index] = request.value
            record.value = 0
        record.complete_cycle = now + latency
        self.stats.record_service(record)
        if self.services is not None:
            self.services.fromlist(
                [now, record.complete_cycle, record.address, record.hit]
            )
        if self.faults is not None:
            # Draw both streams per service event (even when the drop
            # wins) so enabling one category never shifts the other's
            # schedule.
            dropped = self.faults.drop_response()
            record.complete_cycle += self.faults.delay_response()
            if dropped:
                # The access was performed, but the response vanishes in
                # the network: the issuing PE waits forever, and the
                # deadlock detector must catch it.
                record.dropped = True
                return
        self.schedule(record.complete_cycle, COMPLETE, record)
