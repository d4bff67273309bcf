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

Neither holds a request: ``inject`` books its hand-over to the bank on
the engine's calendar, so ``in_network`` stays 0 and nothing ticks them.
"""

from __future__ import annotations

import hashlib
import random

from repro.arch.fabric import Fabric
from repro.arch.memory import AddressMap
from repro.sim.memsys import DELIVER, RequestRecord


class UniformFrontend:
    """Fixed-delay, contention-free fabric-memory interconnect."""

    name = "upea"
    #: Fault injector (see :mod:`repro.sim.faults`); None = off. The
    #: uniform frontends are contention-free pipes, so they have no
    #: grants to perturb — memory-response faults still apply to them
    #: through :class:`repro.sim.memsys.MemorySystem`.
    faults = None
    SNAPSHOT_STATE = ()
    in_network = 0  # module docstring
    schedule = None  # the engine's Calendar.schedule

    def __init__(self, delay_system_cycles: int):
        if delay_system_cycles < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay_system_cycles

    def inject(self, record: RequestRecord, now: int) -> None:
        record.response_hops = 0
        self.schedule(now + self.delay, DELIVER, record)

    def audit(self) -> int:
        """Structural recount of requests inside the frontend (see
        :meth:`repro.sim.fmnoc_sim.MonacoFrontend.audit`): a delayed
        request waits on the engine's calendar, not in here."""
        return 0

    # -- snapshots ---------------------------------------------------------

    def signature(self) -> str:
        """Stable identity string for the snapshot config digest (the
        delay is set by the machine config, not by ``ArchParams``, so it
        must be pinned here)."""
        return f"upea:delay={self.delay}"


class NumaFrontend(UniformFrontend):
    """UPEA with NUMA domains: local accesses skip the uniform delay."""

    name = "numa-upea"
    SNAPSHOT_STATE = ("local_accesses", "remote_accesses")

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
            self.schedule(now, DELIVER, record)
        else:
            self.remote_accesses += 1
            self.schedule(now + self.delay, DELIVER, record)

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
