"""Energy accounting for simulated runs.

Data movement is "the dominant energy, performance, and scalability
bottleneck" (paper Sec. 1); this module turns a run's event counts into an
energy estimate so the NUPEA-vs-baseline comparison can be read in energy
as well as cycles. Event energies are *illustrative relative costs* in the
spirit of standard pJ/op tables (ALU op ~1pJ, NoC hop a fraction of that,
SRAM/cache accesses an order of magnitude more); absolute joules are not
calibrated to the 22nm Monaco implementation, ratios between
configurations are the meaningful output.

The simulator counts the events; :func:`estimate_energy` prices them:

* one PE firing per dataflow instruction (ALU vs control/steering cost),
* one data-NoC hop per routed channel a token crosses (from the compiled
  design's actual routes),
* one arbitration-stage traversal per fabric-memory NoC hop, each way,
* one cache access per memory op, plus a main-memory access on a miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.isa import MEMORY_OPS
from repro.sim.stats import SimStats

#: Ops priced as full ALU operations.
ALU_OPS = frozenset(("binop", "unop"))
#: Ops priced as lightweight control/steering (combinational CF in Monaco).
CONTROL_OPS = frozenset(
    ("steer", "carry", "merge", "select", "invariant", "join", "inject",
     "source")
)


@dataclass(frozen=True)
class EnergyParams:
    """Relative event energies (picojoules, illustrative)."""

    pj_alu: float = 1.0
    pj_control: float = 0.3
    pj_mem_issue: float = 0.5
    pj_noc_hop: float = 0.2
    pj_arb_hop: float = 0.4
    pj_cache_access: float = 6.0
    pj_memory_access: float = 30.0


@dataclass
class EnergyReport:
    """Per-component energy breakdown for one run."""

    compute: float = 0.0
    control: float = 0.0
    #: Issue-side cost of load/store firings. Historically folded into
    #: ``compute``, which deflated the data-movement share — the paper's
    #: Sec. 1 headline metric; it belongs under movement.
    mem_issue: float = 0.0
    data_noc: float = 0.0
    fabric_memory_noc: float = 0.0
    cache: float = 0.0
    main_memory: float = 0.0
    params: EnergyParams = field(default_factory=EnergyParams)

    @property
    def total(self) -> float:
        return (
            self.compute
            + self.control
            + self.mem_issue
            + self.data_noc
            + self.fabric_memory_noc
            + self.cache
            + self.main_memory
        )

    @property
    def data_movement(self) -> float:
        """Everything that is movement rather than computation."""
        return self.total - self.compute - self.control

    def summary(self) -> str:
        parts = [
            f"total {self.total:.0f}pJ",
            f"compute {self.compute:.0f}",
            f"control {self.control:.0f}",
            f"mem-issue {self.mem_issue:.0f}",
            f"data-NoC {self.data_noc:.0f}",
            f"FM-NoC {self.fabric_memory_noc:.0f}",
            f"cache {self.cache:.0f}",
            f"memory {self.main_memory:.0f}",
        ]
        share = self.data_movement / self.total if self.total else 0.0
        parts.append(f"data movement {share:.0%}")
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """Machine-readable breakdown for ``--stats-json``/manifests.

        Derived purely from stable firing/hop/access counters, so the
        block is deterministic and safe inside manifest stable views.
        """
        return {
            "total_pj": round(self.total, 6),
            "compute_pj": round(self.compute, 6),
            "control_pj": round(self.control, 6),
            "mem_issue_pj": round(self.mem_issue, 6),
            "data_noc_pj": round(self.data_noc, 6),
            "fabric_memory_noc_pj": round(self.fabric_memory_noc, 6),
            "cache_pj": round(self.cache, 6),
            "main_memory_pj": round(self.main_memory, 6),
            "data_movement_pj": round(self.data_movement, 6),
            "data_movement_share": round(
                self.data_movement / self.total if self.total else 0.0, 6
            ),
        }


def estimate_energy(
    stats: SimStats, params: EnergyParams | None = None
) -> EnergyReport:
    """Price a run's event counts into an energy breakdown."""
    params = params or EnergyParams()
    report = EnergyReport(params=params)
    # Sorted so float accumulation order never depends on dict history
    # (the report must digest identically across serial/parallel runs).
    for op, count in sorted(stats.firings.items()):
        if op in ALU_OPS:
            report.compute += count * params.pj_alu
        elif op in CONTROL_OPS:
            report.control += count * params.pj_control
        elif op in MEMORY_OPS:
            # Issue side only: driving the request into the fabric-memory
            # network. The access itself is priced below.
            report.mem_issue += count * params.pj_mem_issue
        else:
            raise SimulationError(
                f"estimate_energy: op {op!r} has no energy class; add it "
                "to ALU_OPS/CONTROL_OPS/MEMORY_OPS rather than letting it be "
                "silently mispriced"
            )
    report.data_noc = stats.noc_hops * params.pj_noc_hop
    report.fabric_memory_noc = stats.fmnoc_hops * params.pj_arb_hop
    accesses = stats.mem.loads + stats.mem.stores
    report.cache = accesses * params.pj_cache_access
    report.main_memory = stats.mem.misses * params.pj_memory_access
    return report
