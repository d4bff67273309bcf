"""Machine configurations compared in the evaluation (paper Sec. 6).

* ``MONACO`` — the NUPEA design: hierarchical per-row arbitration, direct
  D0 ports, non-uniform latency.
* ``ideal()`` / ``upea(n)`` — uniform PE access with an N-fabric-cycle
  delay on every request and no port arbitration (N=0 is **Ideal**).
* ``numa(n)`` — UPEA plus NUMA memory: random LS-PE-to-domain assignment,
  line-interleaved address space, local accesses skip the delay.
* ``hybrid(n)`` — the Sec. 3 extension: Monaco's arbiter hierarchy with
  NUMA-partitioned memory behind the ports; remote regions pay the delay.

All configurations share the fabric topology, PE mix, memory ports and
memory system; only the fabric-memory interconnect model differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.fmnoc_sim import MonacoFrontend
from repro.sim.upea import NumaFrontend, UniformFrontend


@dataclass(frozen=True)
class MachineConfig:
    """A named fabric-memory interconnect model."""

    name: str
    kind: str  # "monaco" | "upea" | "numa" | "hybrid"
    #: Uniform PE-access delay in *fabric* cycles (upea/numa kinds); the
    #: remote-region penalty of the hybrid kind.
    upea_fabric_cycles: int = 0
    numa_domains: int = 4
    numa_seed: int = 0

    def frontend_factory(self, divider: int):
        """A (fabric, address_map) -> frontend factory for the simulator."""
        delay = self.upea_fabric_cycles * divider
        if self.kind == "monaco":
            return lambda fabric, amap: MonacoFrontend(fabric)
        if self.kind == "upea":
            return lambda fabric, amap: UniformFrontend(delay)
        if self.kind == "numa":
            return lambda fabric, amap: NumaFrontend(
                delay,
                fabric,
                amap,
                n_domains=self.numa_domains,
                seed=self.numa_seed,
            )
        if self.kind == "hybrid":
            from repro.sim.hybrid import HybridFrontend

            return lambda fabric, amap: HybridFrontend(
                fabric, amap, remote_cycles=delay
            )
        raise ValueError(f"unknown config kind {self.kind!r}")


MONACO = MachineConfig("monaco", "monaco")


def ideal() -> MachineConfig:
    """UPEA with 0-cycle uniform access: the paper's Ideal baseline."""
    return MachineConfig("ideal", "upea", 0)


def upea(n: int) -> MachineConfig:
    return MachineConfig(f"upea{n}", "upea", n)


def numa(n: int, seed: int = 0) -> MachineConfig:
    return MachineConfig(f"numa-upea{n}", "numa", n, numa_seed=seed)


def hybrid(n: int) -> MachineConfig:
    return MachineConfig(f"monaco-numa{n}", "hybrid", n)


#: Fig. 11's comparison set: Ideal, realistic UPEA, NUMA-UPEA, Monaco.
def primary_configs() -> list[MachineConfig]:
    return [ideal(), upea(2), numa(2), MONACO]
