"""Architecture and simulation parameters (paper Sec. 6 defaults).

Monaco's evaluated configuration: 8MB total memory including a 256KB
memory-side data cache, both banked 32x; main-memory latency 4 system
cycles, cache hits 2; one system cycle per arbitration hop in the
fabric-memory NoC; D0 accesses see no fabric-memory NoC delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ArchError

#: Bytes per data word (Monaco's data NoC tracks are 32-bit).
WORD_BYTES = 4


@dataclass(frozen=True)
class MemoryParams:
    """Memory-system configuration."""

    n_banks: int = 32
    line_words: int = 16  # 64B cache lines
    #: Cache capacity in lines: 256KB / 64B = 4096.
    cache_lines: int = 4096
    #: Total memory in words: 8MB / 4B.
    total_words: int = 2 * 1024 * 1024
    #: System cycles for a cache hit.
    hit_cycles: int = 2
    #: Additional system cycles to reach main memory on a miss.
    memory_cycles: int = 4
    #: Requests a bank accepts per system cycle.
    bank_throughput: int = 1

    def __post_init__(self):
        if self.n_banks <= 0 or self.line_words <= 0:
            raise ArchError("banks and line size must be positive")
        if self.cache_lines < 0 or self.total_words <= 0:
            raise ArchError("bad cache or memory capacity")

    def miss_latency(self) -> int:
        return self.hit_cycles + self.memory_cycles


@dataclass(frozen=True)
class FaultParams:
    """Deterministic fault-injection knobs (see :mod:`repro.sim.faults`).

    All probabilities default to 0.0 and the whole block defaults to
    ``None`` on :class:`SimParams`, so the off-path is untouched (and
    verified bit-identical in ``tests/test_faults.py``). Draws are made
    *per event* (per memory service, per firing, per FM-NoC grant) from
    per-category deterministic streams, never per cycle — so the same
    fault schedule unfolds whether the engine ticks every cycle or
    event-skips, and enabling one fault category does not perturb the
    stream of another.
    """

    #: Seed for every per-category fault stream.
    seed: int = 0
    #: Probability a served memory access's response is delayed.
    mem_delay_prob: float = 0.0
    #: Extra system cycles added to a delayed response.
    mem_delay_cycles: int = 8
    #: Probability a served memory access's response never returns to the
    #: PE (adversarial: exercises the deadlock detector).
    mem_drop_prob: float = 0.0
    #: Probability a would-fire PE is stalled for one fabric tick.
    pe_stall_prob: float = 0.0
    #: Probability an FM-NoC port/arbiter grant is withheld for a cycle.
    grant_skip_prob: float = 0.0

    def __post_init__(self):
        for name in (
            "mem_delay_prob", "mem_drop_prob", "pe_stall_prob",
            "grant_skip_prob",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ArchError(f"{name} must be in [0, 1], got {p!r}")
        if self.mem_delay_cycles < 0:
            raise ArchError("mem_delay_cycles must be non-negative")

    def active(self) -> bool:
        """True when any injector can ever fire."""
        return any(
            (
                self.mem_delay_prob,
                self.mem_drop_prob,
                self.pe_stall_prob,
                self.grant_skip_prob,
            )
        )

    def signature(self) -> str:
        """Compact stable string naming this fault model.

        Journaled into sweep manifests so a resume never mistakes a
        faulted run for a clean one (different signature, different
        point digest).
        """
        parts = [f"seed={self.seed}"]
        if self.mem_delay_prob:
            parts.append(
                f"mem-delay={self.mem_delay_prob}:{self.mem_delay_cycles}"
            )
        if self.mem_drop_prob:
            parts.append(f"mem-drop={self.mem_drop_prob}")
        if self.pe_stall_prob:
            parts.append(f"pe-stall={self.pe_stall_prob}")
        if self.grant_skip_prob:
            parts.append(f"grant-skip={self.grant_skip_prob}")
        return ",".join(parts)


@dataclass(frozen=True)
class SimParams:
    """Timed-simulation knobs."""

    #: Token-FIFO capacity per input port. Monaco buffers tokens at PE
    #: inputs for pipelining (Sec. 4.1); its PEs are small, so the
    #: per-operand buffers are shallow.
    fifo_capacity: int = 2
    #: Outstanding memory requests a single LS PE may have in flight.
    max_outstanding: int = 2
    #: Give up if no progress for this many system cycles.
    deadlock_cycles: int = 50_000
    #: Absolute cycle budget (safety net).
    max_cycles: int = 200_000_000
    #: Cycle-attribution tracing (see :mod:`repro.obs`). Off by default:
    #: with ``trace=False`` the engine publishes nothing and stats are
    #: bit-identical to a build without the observability layer.
    trace: bool = False
    #: When tracing, also collect a Chrome ``trace_event`` timeline and —
    #: if a path is given — write it at the end of the run.
    trace_path: str | None = None
    #: Dynamic critical-path profiling (see :mod:`repro.obs.critpath`).
    #: Off by default and wired like ``trace``: with ``critpath=False``
    #: the engine publishes nothing and results are bit-identical to a
    #: build without the profiler; with it on, the recorder only
    #: *listens*, so simulated results are still bit-identical — the
    #: attribution lands in ``SimStats.critpath`` (a compare-excluded
    #: field) and the full report on ``Observation.critpath``.
    critpath: bool = False
    #: Deterministic fault injection (see :class:`FaultParams` and
    #: :mod:`repro.sim.faults`). ``None`` = off; the off-path publishes
    #: nothing and is verified bit-identical to a build without the
    #: fault layer.
    faults: FaultParams | None = None
    #: Runtime invariant checking (see :mod:`repro.check.invariants`).
    #: Off by default and wired like ``critpath``: one more sink of the
    #: observability bus, reading the tick records and, at quiescence,
    #: the final stats. Off, nothing is attached; on, the checker never
    #: writes simulator state, so results are still bit-identical — a
    #: violation raises instead.
    check: bool = False

    def __post_init__(self):
        if self.fifo_capacity < 2:
            raise ArchError("fifo capacity must be >= 2 (carry loops)")
        if self.max_outstanding < 1:
            raise ArchError("max outstanding must be >= 1")


@dataclass(frozen=True)
class TimingParams:
    """Static-timing constants for the clock-divider computation.

    Unit delays stand in for the paper's sign-off timing numbers: what
    matters for the reproduction is that longer routed paths force a larger
    divider (slower fabric clock), reproducing the Fig. 16/17 trends.
    """

    #: Delay units consumed by PE logic per fabric cycle.
    pe_logic_units: float = 2.0
    #: Delay units per routed hop on the data NoC.
    hop_units: float = 1.0
    #: Delay units available in one system-clock period.
    system_period_units: float = 4.0


@dataclass(frozen=True)
class ArchParams:
    """Complete architecture parameterization."""

    memory: MemoryParams = field(default_factory=MemoryParams)
    sim: SimParams = field(default_factory=SimParams)
    timing: TimingParams = field(default_factory=TimingParams)
    #: Data NoC tracks per channel (Fig. 16/17 sweep 2 vs 7; Monaco has 3).
    noc_tracks: int = 3
    #: Channel-graph model: "simple" (uniform mesh) or "monaco-tracks"
    #: (cardinal + diagonal + skip segments, Sec. 4.1).
    noc_model: str = "simple"

    def __post_init__(self):
        if self.noc_tracks < 1:
            raise ArchError("need at least one NoC track")
        if self.noc_model not in ("simple", "monaco-tracks"):
            raise ArchError(f"unknown NoC model {self.noc_model!r}")
