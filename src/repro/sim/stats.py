"""Simulation statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.memsys import MemStats

#: Reservoir capacity per latency accumulator; runs with fewer samples
#: keep every latency (percentiles exact), larger runs are sampled.
RESERVOIR_CAP = 2048

#: 64-bit LCG constants (Knuth) for deterministic reservoir sampling and
#: fault injection — plain ints, so accumulators and injectors stay
#: picklable and value-comparable.
LCG_MUL = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MASK = (1 << 64) - 1


@dataclass
class LatencyAccumulator:
    """Streaming latency statistics: exact mean + sampled percentiles.

    The mean is exact (running count/total); percentiles come from a
    deterministic reservoir (algorithm R driven by an inline LCG), so two
    runs that observe the same latency sequence — cycle-skip on or off,
    serial or parallel harness — hold bit-identical reservoirs.
    """

    count: int = 0
    total: int = 0
    #: Reservoir of observed latencies (exact below RESERVOIR_CAP).
    samples: list[int] = field(default_factory=list)
    _lcg: int = field(default=0x9E3779B97F4A7C15, repr=False)

    def add(self, latency: int) -> None:
        self.count += 1
        self.total += latency
        if len(self.samples) < RESERVOIR_CAP:
            self.samples.append(latency)
            return
        self._lcg = (self._lcg * LCG_MUL + LCG_INC) & LCG_MASK
        slot = self._lcg % self.count
        if slot < RESERVOIR_CAP:
            self.samples[slot] = latency

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the reservoir (0.0 if empty)."""
        if not self.samples:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p!r} outside [0, 100]")
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, round(p / 100 * len(ordered)) - 1))
        if p == 0:
            rank = 0
        return float(ordered[rank])

    def to_dict(self) -> dict:
        """JSON-friendly summary (count, mean, p50/p95/p99)."""
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def describe(self) -> str:
        """Compact ``p50/p95/p99 (mean, n)`` rendering; '-' when empty."""
        if not self.count:
            return "-"
        return (
            f"p50={self.percentile(50):.0f}/p95={self.percentile(95):.0f}"
            f"/p99={self.percentile(99):.0f} (mean {self.mean:.1f}, "
            f"n={self.count})"
        )


@dataclass
class SimStats:
    """What one timed run measured."""

    system_cycles: int = 0
    clock_divider: int = 1
    firings: dict[str, int] = field(default_factory=dict)
    #: Load latency (issue -> response arrival, system cycles) per
    #: criticality class.
    load_latency: dict[str, LatencyAccumulator] = field(
        default_factory=lambda: {
            "A": LatencyAccumulator(),
            "B": LatencyAccumulator(),
            "C": LatencyAccumulator(),
        }
    )
    #: Load latency per NUPEA domain (Monaco runs only).
    domain_latency: dict[int, LatencyAccumulator] = field(
        default_factory=dict
    )
    mem: MemStats = field(default_factory=MemStats)
    frontend: str = ""
    #: Routed data-NoC channel hops crossed by tokens during the run.
    noc_hops: int = 0
    #: Fabric-memory NoC arbitration stages traversed (request + response).
    fmnoc_hops: int = 0
    #: System cycles the engine actually executed (loop iterations). With
    #: event-driven cycle skipping this is <= system_cycles; excluded from
    #: equality so skip-on and skip-off stats still compare bit-identical.
    executed_cycles: int = field(default=0, compare=False)
    #: System cycles the scheduler jumped over as provably idle.
    skipped_cycles: int = field(default=0, compare=False)
    #: Fault injections actually performed (empty when injection is off,
    #: so clean runs stay bit-identical to pre-fault-layer builds).
    faults_injected: dict[str, int] = field(default_factory=dict)
    #: NUMA locality split (``local_accesses``/``remote_accesses``) from
    #: frontends that tally one — the NUMA-UPEA baseline and the hybrid.
    #: Empty for uniform/Monaco runs, so their digests are unchanged.
    numa: dict[str, int] = field(default_factory=dict)
    #: Critical-path attribution (see :mod:`repro.obs.critpath`): the
    #: compact report the recorder publishes at finish — category costs
    #: summing exactly to ``system_cycles``, the coarse rollup, and the
    #: top critical loads. Empty when profiling is off; excluded from
    #: equality so profiled and unprofiled runs of the same point still
    #: compare bit-identical (the ``executed_cycles`` pattern).
    critpath: dict = field(default_factory=dict, compare=False)

    @property
    def fabric_cycles(self) -> int:
        return self.system_cycles // self.clock_divider

    @property
    def total_firings(self) -> int:
        return sum(self.firings.values())

    @property
    def ipc(self) -> float:
        """Instructions fired per fabric cycle."""
        cycles = self.fabric_cycles
        return self.total_firings / cycles if cycles else 0.0

    @property
    def avg_mem_latency(self) -> float:
        """Exact mean load round-trip latency (issue -> PE arrival).

        Computed from the arrival-side ledger
        (:attr:`MemStats.latency_total` / :attr:`MemStats.responses`),
        so it equals the combined mean of the per-class reservoir
        accumulators (whose means are exact running totals; only their
        percentiles are sampled).
        """
        return self.mem.avg_latency

    def record_load(
        self, criticality: str, domain: int | None, latency: int
    ) -> None:
        self.load_latency[criticality].add(latency)
        if domain is not None:
            self.domain_latency.setdefault(
                domain, LatencyAccumulator()
            ).add(latency)

    def summary(self) -> str:
        parts = [
            f"{self.system_cycles} system cycles "
            f"(divider {self.clock_divider}, {self.fabric_cycles} fabric)",
            f"{self.total_firings} firings (IPC {self.ipc:.2f})",
            f"{self.mem.loads} loads / {self.mem.stores} stores "
            f"({self.mem.hits} hits, {self.mem.misses} misses)",
        ]
        if self.mem.responses:
            parts.append(
                f"avg mem latency {self.avg_mem_latency:.1f} cycles"
            )
        lat = ", ".join(
            f"{klass}: {acc.describe()}"
            for klass, acc in sorted(self.load_latency.items())
            if acc.count
        )
        if lat:
            parts.append(f"load latency by class [{lat}]")
        dom = ", ".join(
            f"D{domain}: {acc.describe()}"
            for domain, acc in sorted(self.domain_latency.items())
            if acc.count
        )
        if dom:
            parts.append(f"by domain [{dom}]")
        if self.numa:
            local = self.numa.get("local_accesses", 0)
            remote = self.numa.get("remote_accesses", 0)
            total = local + remote
            share = local / total if total else 0.0
            parts.append(
                f"NUMA {local} local / {remote} remote "
                f"({share:.0%} local)"
            )
        if self.critpath:
            denom = max(1, self.critpath.get("system_cycles", 1))
            rollup = self.critpath.get("rollup", {})
            buckets = ", ".join(
                f"{name} {cycles / denom:.0%}"
                for name, cycles in sorted(
                    rollup.items(), key=lambda kv: -kv[1]
                )[:3]
                if cycles
            )
            if buckets:
                parts.append(f"critical path [{buckets}]")
            loads = ", ".join(
                f"n{e['nid']} [{e['class']}] {e['criticality']:.0%}"
                for e in self.critpath.get("top_loads", ())[:3]
            )
            if loads:
                parts.append(f"top critical loads [{loads}]")
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """Machine-readable stats for ``--stats-json`` and manifests."""
        return {
            "system_cycles": self.system_cycles,
            "clock_divider": self.clock_divider,
            "fabric_cycles": self.fabric_cycles,
            "executed_cycles": self.executed_cycles,
            "skipped_cycles": self.skipped_cycles,
            "frontend": self.frontend,
            "firings": dict(sorted(self.firings.items())),
            "total_firings": self.total_firings,
            "ipc": round(self.ipc, 4),
            "noc_hops": self.noc_hops,
            "fmnoc_hops": self.fmnoc_hops,
            "mem": {
                "loads": self.mem.loads,
                "stores": self.mem.stores,
                "hits": self.mem.hits,
                "misses": self.mem.misses,
                "bank_wait_cycles": self.mem.bank_wait_cycles,
                "latency_total": self.mem.latency_total,
                "responses": self.mem.responses,
                "avg_mem_latency": round(self.avg_mem_latency, 3),
            },
            "load_latency": {
                klass: acc.to_dict()
                for klass, acc in sorted(self.load_latency.items())
                if acc.count
            },
            "domain_latency": {
                str(domain): acc.to_dict()
                for domain, acc in sorted(self.domain_latency.items())
                if acc.count
            },
            **(
                {"faults_injected": dict(sorted(self.faults_injected.items()))}
                if self.faults_injected
                else {}
            ),
            **(
                {"numa": dict(sorted(self.numa.items()))}
                if self.numa
                else {}
            ),
            **({"critpath": self.critpath} if self.critpath else {}),
        }
