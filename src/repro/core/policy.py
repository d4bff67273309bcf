"""NUPEA placement policies (the Fig. 12 ablation axes).

The three policies evaluated in the paper:

* ``DOMAIN_UNAWARE`` — PnR has no incentive to place memory instructions
  near memory; only communication locality matters.
* ``DOMAIN_AWARE`` ("Only-Domain-Aware") — memory instructions prefer fast
  NUPEA domains, but all memory instructions are treated alike.
* ``EFFCC`` — full effcc heuristic: domain awareness fused with
  criticality, so class-A loads get first claim on the fastest domains,
  then class-B, then the rest.

A policy contributes a *throughput-reduction factor* to the annealer's
objective: the estimated memory latency of each memory node, weighted by
its criticality class (Sec. 5, "NUPEA-aware PnR").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PnRError


@dataclass(frozen=True)
class PlacementPolicy:
    """Weights applied to the estimated memory latency per node class."""

    name: str
    weight_a: float
    weight_b: float
    weight_c: float
    #: Latency-rank penalty of one column step within a domain, relative
    #: to a full arbitration hop between domains.
    column_step: float = 0.25

    def weight(self, criticality: str) -> float:
        if criticality == "A":
            return self.weight_a
        if criticality == "B":
            return self.weight_b
        if criticality == "C":
            return self.weight_c
        raise PnRError(f"unknown criticality class {criticality!r}")

    def node_weight(
        self,
        criticality: str,
        nid: int,
        overrides: dict[int, float] | None = None,
    ) -> float:
        """Per-node placement weight: the override when one exists.

        ``overrides`` maps DFG node id -> weight (e.g. derived from
        measured critical-path blame, see :mod:`repro.exp.fdo`); nodes
        absent from the map — and every node when the map is ``None`` —
        fall back to the class weight, returning the *identical float*
        :meth:`weight` would, so the no-override path is bit-identical
        to the historical class-weight path.
        """
        if overrides is not None:
            override = overrides.get(nid)
            if override is not None:
                return float(override)
        return self.weight(criticality)

    def latency_rank(self, arbiter_hops: int, column_rank: int) -> float:
        """Scalar preference rank of an LS PE slot, lower = better.

        Encodes the paper's ordering ``... D1.c0 <= D0.c2 <= D0.c1 <=
        D0.c0``: a column step costs a fraction of an arbitration hop, so
        all columns of a faster domain beat the best column of a slower
        one.
        """
        return arbiter_hops + self.column_step * column_rank

    @property
    def domain_aware(self) -> bool:
        return (self.weight_a, self.weight_b, self.weight_c) != (0, 0, 0)

    @property
    def criticality_aware(self) -> bool:
        """Whether the policy distinguishes criticality classes."""
        return not (self.weight_a == self.weight_b == self.weight_c)


DOMAIN_UNAWARE = PlacementPolicy("domain-unaware", 0.0, 0.0, 0.0)
DOMAIN_AWARE = PlacementPolicy("only-domain-aware", 1.0, 1.0, 1.0)
EFFCC = PlacementPolicy("effcc", 8.0, 3.0, 1.0)
#: effcc with the intra-domain column preference collapsed: the
#: column-preference ablation's variant (``repro figure
#: ablation_column_pref``), not a ``--policy`` choice.
EFFCC_FLAT = PlacementPolicy("effcc-flat", 8.0, 3.0, 1.0, column_step=0.0)

POLICIES = {
    policy.name: policy for policy in (DOMAIN_UNAWARE, DOMAIN_AWARE, EFFCC)
}


def get_policy(name: str) -> PlacementPolicy:
    """A ``--policy`` choice, or the ablation's variant, by name."""
    try:
        return {**POLICIES, EFFCC_FLAT.name: EFFCC_FLAT}[name]
    except KeyError:
        raise PnRError(
            f"unknown policy {name!r}; available: {sorted(POLICIES)}"
        ) from None
