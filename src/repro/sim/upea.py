"""Baseline fabric-memory interconnects: UPEA and NUMA-UPEA (Sec. 6).

* :class:`UniformFrontend` — uniform PE access: every memory request pays
  a fixed delay of N *fabric* cycles before reaching its bank, with no
  port or arbiter contention ("the baselines model only the delay from
  UPEA and do not explicitly arbitrate memory requests to memory ports",
  so they enjoy higher available bandwidth than Monaco). ``N = 0`` is the
  paper's **Ideal** configuration.
* :class:`NumaFrontend` — UPEA plus NUMA memory: LS PEs are randomly
  assigned to ``n_domains`` NUMA domains and the address space is
  interleaved across domains at cache-line granularity; an access to the
  local domain bypasses the UPEA delay entirely (so local accesses may
  overtake older remote ones, exactly as in a real NUMA interconnect).
"""

from __future__ import annotations

import hashlib
import heapq
import random

from repro.arch.fabric import Fabric
from repro.arch.memory import AddressMap
from repro.sim.memsys import RequestRecord


class UniformFrontend:
    """Fixed-delay, contention-free fabric-memory interconnect."""

    name = "upea"
    #: Fault injector (see :mod:`repro.sim.faults`); None = off. The
    #: uniform frontends are contention-free pipes, so they have no
    #: grants to perturb — memory-response faults still apply to them
    #: through :class:`repro.sim.memsys.MemorySystem`.
    faults = None

    def __init__(self, delay_system_cycles: int):
        if delay_system_cycles < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay_system_cycles
        self._pipe: list[tuple[int, int, RequestRecord]] = []
        self._order = 0

    def _schedule(self, record: RequestRecord, ready: int) -> None:
        self._order += 1
        heapq.heappush(self._pipe, (ready, self._order, record))

    def inject(self, record: RequestRecord, now: int) -> None:
        record.response_hops = 0
        self._schedule(record, now + self.delay)

    def tick(self, now: int, deliver) -> bool:
        moved = False
        while self._pipe and self._pipe[0][0] <= now:
            deliver(heapq.heappop(self._pipe)[2])
            moved = True
        return moved

    def busy(self) -> bool:
        return bool(self._pipe)

    def audit(self) -> int:
        """Structural recount of requests still inside the delay pipe
        (see :meth:`repro.sim.fmnoc_sim.MonacoFrontend.audit`)."""
        return len(self._pipe)

    def next_event(self, now: int) -> int | None:
        """Cycle-skip hint: nothing happens until the pipe's head matures,
        so the engine may jump straight over the fixed UPEA delay."""
        if not self._pipe:
            return None
        return max(now, self._pipe[0][0])

    # -- snapshots ---------------------------------------------------------

    def signature(self) -> str:
        """Stable identity string for the snapshot config digest (the
        delay is set by the machine config, not by ``ArchParams``, so it
        must be pinned here)."""
        return f"upea:delay={self.delay}"

    def state_dict(self) -> dict:
        return {"pipe": list(self._pipe), "order": self._order}

    def load_state_dict(self, state: dict) -> None:
        self._pipe = list(state["pipe"])
        self._order = state["order"]


class NumaFrontend(UniformFrontend):
    """UPEA with NUMA domains: local accesses skip the uniform delay."""

    name = "numa-upea"

    def __init__(
        self,
        delay_system_cycles: int,
        fabric: Fabric,
        address_map: AddressMap,
        n_domains: int = 4,
        seed: int = 0,
    ):
        super().__init__(delay_system_cycles)
        self.n_domains = n_domains
        self.address_map = address_map
        rng = random.Random(seed)
        #: Random LS PE -> NUMA domain assignment (paper Sec. 6).
        self.pe_domain = {
            pe.coord: rng.randrange(n_domains)
            for pe in sorted(fabric.ls_pes(), key=lambda p: (p.y, p.x))
        }
        self.local_accesses = 0
        self.remote_accesses = 0

    def domain_of_address(self, address: int) -> int:
        return self.address_map.line(address) % self.n_domains

    def numa_counters(self) -> dict[str, int]:
        """Locality tally for :attr:`SimStats.numa` (reported at
        quiescence; the split is the whole point of the NUMA baseline)."""
        return {
            "local_accesses": self.local_accesses,
            "remote_accesses": self.remote_accesses,
        }

    def inject(self, record: RequestRecord, now: int) -> None:
        record.response_hops = 0
        local = self.pe_domain[record.pe_coord] == self.domain_of_address(
            record.address
        )
        if local:
            self.local_accesses += 1
            self._schedule(record, now)
        else:
            self.remote_accesses += 1
            self._schedule(record, now + self.delay)

    # -- snapshots ---------------------------------------------------------

    def signature(self) -> str:
        """Pins the domain count *and* the concrete PE->domain draw (two
        runs with different seeds route differently, so their snapshots
        must not be interchangeable)."""
        assignment = hashlib.sha256(
            repr(sorted(self.pe_domain.items())).encode()
        ).hexdigest()[:12]
        return (
            f"numa-upea:delay={self.delay}:domains={self.n_domains}"
            f":assign={assignment}"
        )

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["local_accesses"] = self.local_accesses
        state["remote_accesses"] = self.remote_accesses
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.local_accesses = state["local_accesses"]
        self.remote_accesses = state["remote_accesses"]
