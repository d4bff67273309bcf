"""Compiled-kernel container: everything downstream of PnR needs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.fabric import Fabric
from repro.core.criticality import CriticalityReport
from repro.core.policy import PlacementPolicy
from repro.dfg.graph import DFG
from repro.pnr.route import RoutingResult
from repro.pnr.timing import TimingReport

Coord = tuple[int, int]


@dataclass
class PnRStats:
    """Compile-time telemetry for one PnR run (wall times are volatile)."""

    place_wall_s: float = 0.0
    route_wall_s: float = 0.0
    total_wall_s: float = 0.0
    anneal_moves: int = 0
    anneal_proposals: int = 0
    anneal_accepted: int = 0
    moves_per_s: float = 0.0
    route_iterations: int = 0
    nets_rerouted: int = 0
    #: Mem-scale candidates actually evaluated for the winning compile.
    candidates: int = 0
    #: Parallelism-search overhead (compile_kernel only).
    search_wall_s: float = 0.0
    degrees_tried: int = 0

    def to_dict(self) -> dict:
        return {
            "place_wall_s": self.place_wall_s,
            "route_wall_s": self.route_wall_s,
            "total_wall_s": self.total_wall_s,
            "anneal_moves": self.anneal_moves,
            "anneal_proposals": self.anneal_proposals,
            "anneal_accepted": self.anneal_accepted,
            "moves_per_s": self.moves_per_s,
            "route_iterations": self.route_iterations,
            "nets_rerouted": self.nets_rerouted,
            "candidates": self.candidates,
            "search_wall_s": self.search_wall_s,
            "degrees_tried": self.degrees_tried,
        }


@dataclass
class CompiledKernel:
    """A kernel after lowering, analysis, placement, routing and timing."""

    dfg: DFG
    fabric: Fabric
    policy: PlacementPolicy
    criticality: CriticalityReport
    placement: dict[int, Coord]
    routing: RoutingResult
    timing: TimingReport
    parallelism: int = 1
    place_cost: float = 0.0
    meta: dict = field(default_factory=dict)
    pnr: PnRStats | None = None

    @property
    def clock_divider(self) -> int:
        return self.timing.clock_divider

    def domain_of(self, nid: int) -> int | None:
        """NUPEA domain of the PE hosting node ``nid``."""
        pe = self.fabric.pes[self.placement[nid]]
        return pe.domain

    def domain_histogram(self) -> dict[str, dict[int, int]]:
        """Per criticality class, how many memory nodes sit in each domain."""
        hist: dict[str, dict[int, int]] = {"A": {}, "B": {}, "C": {}}
        for node in self.dfg.memory_nodes():
            domain = self.domain_of(node.nid)
            per = hist[node.criticality]
            per[domain] = per.get(domain, 0) + 1
        return hist

    def summary(self) -> str:
        counts = self.criticality.counts()
        return (
            f"{self.dfg.name}: {len(self.dfg)} nodes on "
            f"{self.fabric.name} (policy={self.policy.name}, "
            f"parallelism={self.parallelism}); criticality "
            f"A/B/C = {counts['A']}/{counts['B']}/{counts['C']}; "
            f"max path hops = {self.timing.max_hops}, "
            f"divider = {self.timing.clock_divider}"
        )
