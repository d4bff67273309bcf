"""Feedback-directed placement optimization: the critpath -> PnR loop.

The dynamic critical-path profiler (:mod:`repro.obs.critpath`) measures,
cycle-exactly, which memory nodes the makespan actually waited on. The
EFFCC placement policy spends the scarce D0 ports on *statically
predicted* critical loads (class A/B). When the static prediction misses
— a class-C load that dominates the measured path, a class-B load that
never mattered — the placement leaves speedup on the table. This module
closes the loop:

1. **Round 0** compiles the given :class:`~repro.exp.spec.RunSpec`
   with the plain static policy (a cache hit when the point was compiled
   before — the static path is untouched) and runs a timed simulation
   with the profiler attached.
2. The per-node blame shares (:func:`repro.obs.critpath.blame_shares`)
   are mapped to a deterministic per-node placement weight
   (:func:`blame_to_weights`): the most-blamed node gets the class-A
   weight, zero-blame nodes the class-C weight, linear in between.
3. **Round k>0** re-runs PnR with those weights as per-node overrides
   (``PlacementPolicy.node_weight``) at the parallelism degree round 0
   chose — pinning parallelism keeps the lowered DFG, and therefore the
   node ids the weights refer to, identical across rounds.
4. Iterate until the weight map reaches a fixed point or the makespan
   repeats (oscillation), bounded by ``rounds``.

Every round is journaled (:class:`FdoRound`) with no volatile fields —
two FDO runs of the same point, cold or warm compile cache, produce
byte-identical journals. The best round is whichever round's
timed run had the fewest system cycles (ties to the earliest, i.e. the
static baseline wins ties).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.policy import PlacementPolicy, get_policy
from repro.exp.runner import compile_cached, compile_point, run_point
from repro.exp.spec import RunSpec, weight_map_digest
from repro.obs.manifest import append_manifest

#: FDO round-journal schema; bump on incompatible layout changes.
FDO_SCHEMA = 1

#: Default bound on feedback rounds (not counting the static round 0).
DEFAULT_ROUNDS = 3


def blame_to_weights(
    blame: dict[int, dict], policy: PlacementPolicy
) -> dict[int, float]:
    """Map per-node blame shares to per-node placement weights.

    Linear interpolation between the policy's class-C and class-A
    weights: the most-blamed memory node gets exactly ``weight("A")``,
    a zero-blame node exactly ``weight("C")``. Rounded to 6 decimals so
    the map is a stable fixed-point candidate (and JSON round-trips
    without drift). Returns ``{}`` when no memory node carried any blame
    (e.g. a compute-bound path) — the empty map is, by construction, the
    plain class-weight placement.
    """
    shares = {int(nid): entry["share"] for nid, entry in blame.items()}
    share_max = max(shares.values(), default=0.0)
    if share_max <= 0.0:
        return {}
    w_a = policy.weight("A")
    w_c = policy.weight("C")
    return {
        nid: round(w_c + (w_a - w_c) * (share / share_max), 6)
        for nid, share in sorted(shares.items())
    }


@dataclass
class FdoRound:
    """One journaled round of the feedback loop."""

    round: int
    #: Per-node weight overrides this round *compiled with* ({} = static).
    weights: dict[int, float]
    parallelism: int
    divider: int
    cycles: int
    #: Weight map the round's measured blame proposes for the next round.
    next_weights: dict[int, float] = field(default_factory=dict)
    #: True when the profiled run blamed no memory node at all.
    degenerate: bool = False

    def to_record(self, **identity) -> dict:
        """Deterministic journal record (no timestamps, no wall times)."""
        return {
            "schema": FDO_SCHEMA,
            "kind": "fdo-round",
            **identity,
            "round": self.round,
            "parallelism": self.parallelism,
            "divider": self.divider,
            "cycles": self.cycles,
            "weights": {str(n): w for n, w in sorted(self.weights.items())},
            "weights_digest": (
                weight_map_digest(self.weights) if self.weights else None
            ),
            "next_weights_digest": (
                weight_map_digest(self.next_weights)
                if self.next_weights
                else None
            ),
            "degenerate": self.degenerate,
        }


@dataclass
class FdoResult:
    """Outcome of one feedback-directed optimization run."""

    workload: str
    config: str
    scale: str
    seed: int
    policy: str
    rounds: list[FdoRound]
    #: Why the loop stopped: ``"weights-fixed-point"``,
    #: ``"makespan-repeat"``, ``"degenerate-profile"`` or
    #: ``"round-bound"``.
    stopped: str

    @property
    def baseline_cycles(self) -> int:
        return self.rounds[0].cycles

    @property
    def best(self) -> FdoRound:
        return min(self.rounds, key=lambda r: (r.cycles, r.round))

    @property
    def best_cycles(self) -> int:
        return self.best.cycles

    @property
    def converged(self) -> bool:
        return self.stopped != "round-bound"

    @property
    def speedup(self) -> float:
        """Best-round speedup over the static round 0 (>= 1.0 means FDO
        found a placement at least as good as static EFFCC)."""
        return self.baseline_cycles / max(1, self.best_cycles)

    def to_dict(self) -> dict:
        identity = self._identity()
        return {
            **identity,
            "rounds": [r.to_record(**identity) for r in self.rounds],
            "stopped": self.stopped,
            "converged": self.converged,
            "baseline_cycles": self.baseline_cycles,
            "best_round": self.best.round,
            "best_cycles": self.best_cycles,
            "speedup": round(self.speedup, 6),
        }

    def _identity(self) -> dict:
        return {
            "workload": self.workload,
            "config": self.config,
            "scale": self.scale,
            "seed": self.seed,
            "policy": self.policy,
        }

    def summary(self) -> str:
        lines = [
            f"fdo {self.workload} on {self.config} "
            f"({self.scale}/seed{self.seed}, policy {self.policy}):"
        ]
        for rnd in self.rounds:
            marker = " <- best" if rnd is self.best else ""
            kind = "static" if rnd.round == 0 else (
                f"{len(rnd.weights)} node weights"
            )
            lines.append(
                f"  round {rnd.round}: {rnd.cycles} cycles "
                f"({kind}, parallelism {rnd.parallelism}, "
                f"divider {rnd.divider}){marker}"
            )
        lines.append(
            f"  stopped: {self.stopped}; best round {self.best.round} "
            f"is {self.speedup:.3f}x the static baseline"
        )
        return "\n".join(lines)


def run_fdo(
    spec: RunSpec, rounds: int = DEFAULT_ROUNDS, manifest_path=None
) -> FdoResult:
    """Run the feedback-directed placement loop on ``spec``'s point.

    Round 0 compiles ``spec`` itself; later rounds recompile it with the
    weight map at the degree round 0 chose. ``rounds`` bounds the
    *feedback* rounds; the static round 0 always runs, so at most
    ``rounds + 1`` compile+simulate iterations execute.
    ``manifest_path`` appends one deterministic JSONL record per round
    (see :meth:`FdoRound.to_record`).

    The timed runs have the critical-path profiler attached and run at
    the divider their routed design achieved (``spec``'s own ``critpath``
    and ``divider`` are overridden); profiling is zero-perturbation (the
    simulated cycle counts are bit-identical with it on or off), so
    round cycles are directly comparable to unprofiled runs of the same
    artifact.
    """
    arch = spec.arch
    spec = replace(
        spec,
        arch=replace(arch, sim=replace(arch.sim, critpath=True)),
        divider=None,
    )
    policy = get_policy(spec.policy)
    # Round 0 is the static compile: a cache hit when anything compiled
    # this point before.
    instance, compiled = compile_point(spec)

    identity = {
        "workload": spec.workload,
        "config": spec.config.name,
        "scale": spec.scale,
        "seed": spec.seed,
        "policy": spec.policy,
    }
    journal: list[FdoRound] = []
    weights: dict[int, float] = {}
    seen_cycles: set[int] = set()
    stopped = "round-bound"

    for rnd in range(rounds + 1):
        if rnd:
            # At the degree round 0's search chose: every round must
            # lower the *same* DFG so the node ids the weight map names
            # keep meaning the same loads.
            compiled = compile_cached(
                instance,
                compiled.fabric,
                spec.arch,
                policy=policy,
                parallelism=compiled.parallelism,
                seed=spec.seed,
                node_weights=weights,
                mem_mode=spec.mem_mode,
            )
        run = run_point(spec, instance, compiled)
        blame = run.obs.critpath.per_node_blame()
        next_weights = blame_to_weights(blame, policy)
        record = FdoRound(
            round=rnd,
            weights=dict(weights),
            parallelism=compiled.parallelism,
            divider=run.stats.clock_divider,
            cycles=run.cycles,
            next_weights=next_weights,
            degenerate=not next_weights,
        )
        journal.append(record)
        if manifest_path is not None:
            append_manifest(manifest_path, record.to_record(**identity))
        if not next_weights and not weights:
            # No memory node on the measured path and no overrides in
            # play: there is nothing for feedback to act on.
            stopped = "degenerate-profile"
            break
        if next_weights == weights:
            stopped = "weights-fixed-point"
            break
        if run.cycles in seen_cycles:
            # The loop revisited a makespan it already measured — it is
            # oscillating between placements, not improving.
            stopped = "makespan-repeat"
            break
        seen_cycles.add(run.cycles)
        weights = next_weights

    return FdoResult(**identity, rounds=journal, stopped=stopped)
