"""Deterministic fault injection for the timed simulator.

The simulator's own failure detectors — the deadlock detector's ranked
blocked-node report, the ``max_cycles`` watchdog, the reference check —
guard every run, but until this module they were trusted untested. A
:class:`FaultInjector` built from :class:`repro.arch.params.FaultParams`
adversarially exercises them with *seeded, reproducible* perturbations:

* **memory response delay** — a served access's response is held back
  ``mem_delay_cycles`` extra system cycles (models bank jitter / retried
  DRAM transactions; results stay correct, cycles degrade);
* **memory response drop** — the response never returns to the PE, which
  must wedge the machine and trip :class:`~repro.errors.DeadlockError`
  with the dropping node in the blocked report;
* **PE stall** — a would-fire node is suppressed for one fabric tick
  (models transient PE unavailability);
* **FM-NoC grant skip** — a port/arbiter grant that round-robin selected
  a request withholds it for a cycle (models arbitration glitches).

Determinism contract: every category draws from its *own* LCG stream
(seeded from ``FaultParams.seed`` + a category tag), and a stream is
consulted only when its event actually occurs — per memory service, per
firing, per grant — never per cycle. Event sequences are identical with
cycle-skipping on or off (the engine never skips a cycle in which any of
these events could happen), so injected runs are bit-identical under
either scheduler, and enabling one category does not shift another's
stream.
"""

from __future__ import annotations

from repro.arch.params import FaultParams
from repro.sim.stats import LCG_INC, LCG_MASK, LCG_MUL

#: 2^53: draws use the top 53 bits, uniform in [0, 1).
_DENOM = float(1 << 53)


class _Stream:
    """One deterministic per-category Bernoulli stream."""

    __slots__ = ("prob", "state", "fires")
    #: LCG cursor + fire count: a restored stream continues the exact
    #: Bernoulli sequence (``prob`` is rebuilt from params).
    SNAPSHOT_STATE = ("state", "fires")

    def __init__(self, seed: int, tag: str, prob: float):
        self.prob = prob
        # Mix the tag into the seed so categories are decorrelated.
        state = (seed * LCG_MUL + LCG_INC) & LCG_MASK
        for ch in tag:
            state = ((state ^ ord(ch)) * LCG_MUL + LCG_INC) & LCG_MASK
        self.state = state
        self.fires = 0

    def hit(self) -> bool:
        """One Bernoulli draw. Never called when ``prob == 0`` (the
        caller gates on the probability), so an off category consumes
        nothing and cannot shift other categories' schedules."""
        self.state = (self.state * LCG_MUL + LCG_INC) & LCG_MASK
        if (self.state >> 11) / _DENOM < self.prob:
            self.fires += 1
            return True
        return False


class FaultInjector:
    """Per-run fault oracle consulted by engine, memsys and frontends.

    Components hold ``faults = None`` by default and gate every consult
    on that check — the same zero-overhead-when-off contract as the
    observability bus.
    """

    #: All four category streams (see :mod:`repro.sim.snapshot`).
    SNAPSHOT_STATE = ("_mem_delay", "_mem_drop", "_pe_stall", "_grant")

    def __init__(self, params: FaultParams):
        self.params = params
        self._mem_delay = _Stream(params.seed, "mem-delay", params.mem_delay_prob)
        self._mem_drop = _Stream(params.seed, "mem-drop", params.mem_drop_prob)
        self._pe_stall = _Stream(params.seed, "pe-stall", params.pe_stall_prob)
        self._grant = _Stream(params.seed, "grant-skip", params.grant_skip_prob)

    # -- consult points ---------------------------------------------------

    def drop_response(self) -> bool:
        """Memory service: should this response vanish in the network?"""
        return self.params.mem_drop_prob > 0.0 and self._mem_drop.hit()

    def delay_response(self) -> int:
        """Memory service: extra response cycles (0 = undisturbed)."""
        if self.params.mem_delay_prob > 0.0 and self._mem_delay.hit():
            return self.params.mem_delay_cycles
        return 0

    def stall_pe(self) -> bool:
        """Fire phase: suppress this otherwise-committed firing?"""
        return self.params.pe_stall_prob > 0.0 and self._pe_stall.hit()

    def skip_grant(self) -> bool:
        """FM-NoC: withhold this port/arbiter grant for a cycle?"""
        return self.params.grant_skip_prob > 0.0 and self._grant.hit()

    # -- accounting -------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Injections actually performed (for stats / manifests)."""
        raw = {
            "mem-delay": self._mem_delay.fires,
            "mem-drop": self._mem_drop.fires,
            "pe-stall": self._pe_stall.fires,
            "grant-skip": self._grant.fires,
        }
        return {kind: n for kind, n in raw.items() if n}


def make_injector(arch_sim) -> FaultInjector | None:
    """Build an injector from ``ArchParams.sim``, or None when off."""
    params = getattr(arch_sim, "faults", None)
    if params is None or not params.active():
        return None
    return FaultInjector(params)
