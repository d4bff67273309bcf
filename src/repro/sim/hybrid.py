"""NUMA + NUPEA hybrid interconnect (the paper's Sec. 3 extension).

"NUPEA is complementary to prior data-centric approaches ... One could
design SDAs with non-uniformity in both memory and PE access to further
scale data movement." This frontend explores that design point: requests
still traverse Monaco's per-row arbiter hierarchy (NUPEA), but the banks
behind the ports are partitioned into NUMA regions tied to LS-row groups;
a request leaving its local region pays an extra crossing delay.

Unlike the NUMA-UPEA baseline's random PE-to-domain assignment, the hybrid
assignment is *spatial*: consecutive LS rows share a region, matching how
a physical design would place bank groups beside row groups. A remote
request's crossing is a fixed delay, booked on the engine's calendar
when its port grants it.
"""

from __future__ import annotations

from repro.arch.fabric import Fabric
from repro.arch.memory import AddressMap
from repro.sim.fmnoc_sim import MonacoFrontend
from repro.sim.memsys import DELIVER, RequestRecord

#: NUMA regions the LS rows (and the line-interleaved banks) split into.
N_REGIONS = 4


class HybridFrontend(MonacoFrontend):
    """Monaco's FM-NoC with NUMA-partitioned memory behind the ports."""

    name = "monaco-numa"
    SNAPSHOT_STATE = MonacoFrontend.SNAPSHOT_STATE + (
        "local_accesses", "remote_accesses",
    )
    schedule = None  # the engine's Calendar.schedule

    def __init__(
        self,
        fabric: Fabric,
        address_map: AddressMap,
        remote_cycles: int = 2,
    ):
        super().__init__(fabric)
        self.address_map = address_map
        self.remote_cycles = remote_cycles
        rows = fabric.ls_rows()
        self.row_region = {
            row: index * N_REGIONS // len(rows)
            for index, row in enumerate(rows)
        }
        self.local_accesses = 0
        self.remote_accesses = 0

    def region_of_address(self, address: int) -> int:
        return self.address_map.line(address) % N_REGIONS

    def numa_counters(self) -> dict[str, int]:
        """Locality tally for :attr:`SimStats.numa` (same accessor as
        :meth:`repro.sim.upea.NumaFrontend.numa_counters`)."""
        return {
            "local_accesses": self.local_accesses,
            "remote_accesses": self.remote_accesses,
        }

    def tick(self, now: int, deliver) -> bool:
        def stage(record: RequestRecord) -> None:
            local = self.row_region[record.pe_coord[1]] == (
                self.region_of_address(record.address)
            )
            if local:
                self.local_accesses += 1
                deliver(record)
            else:
                self.remote_accesses += 1
                record.response_hops += self.remote_cycles
                self.schedule(now + self.remote_cycles, DELIVER, record)

        return super().tick(now, stage)

    # -- snapshots ---------------------------------------------------------

    def signature(self) -> str:
        """Pins the spatial region layout on top of the Monaco topology
        (``row_region`` is a pure function of these three parameters)."""
        return (
            f"monaco-numa:{self.fabric.rows}x{self.fabric.cols}"
            f":regions={N_REGIONS}:remote={self.remote_cycles}"
        )
