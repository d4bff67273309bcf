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
3. **Round k>0** is round 0's point with those weights as per-node
   overrides (``RunSpec.node_weights``) at the parallelism degree round
   0 chose — pinning parallelism keeps the lowered DFG, and therefore
   the node ids the weights refer to, identical across rounds.
4. Iterate until the weight map reaches a fixed point or the makespan
   repeats (oscillation), bounded by ``rounds``.

:func:`fdo_step` is that rule; :func:`run_fdo` drives it one round at
a time, the ``fdo`` table of :mod:`repro.exp.figures` through its job
graph.

Every round is journaled (:class:`FdoRound`) with no volatile fields —
two FDO runs of the same point, cold or warm compile cache, produce
byte-identical journals. The best round is whichever round's
timed run had the fewest system cycles (ties to the earliest, i.e. the
static baseline wins ties).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.policy import PlacementPolicy, get_policy
from repro.exp.runner import RunResult, compile_point, run_point
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
    #: Weight map the round's measured blame proposes for the next round
    #: ({}: the profiled run blamed no memory node, a degenerate round).
    next_weights: dict[int, float]

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
            "degenerate": not self.next_weights,
        }


def _identity(spec: RunSpec) -> dict:
    """The point columns every journal record of the loop carries."""
    return {"workload": spec.workload, "config": spec.config.name,
            "scale": spec.scale, "seed": spec.seed, "policy": spec.policy}


@dataclass
class FdoResult:
    """Outcome of one feedback-directed optimization run."""

    #: Round 0's point (:func:`fdo_round0`).
    spec: RunSpec
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
    def speedup(self) -> float:
        """Best-round speedup over the static round 0 (>= 1.0 means FDO
        found a placement at least as good as static EFFCC)."""
        return self.baseline_cycles / max(1, self.best_cycles)

    def to_dict(self) -> dict:
        identity = _identity(self.spec)
        return {
            **identity,
            "rounds": [r.to_record(**identity) for r in self.rounds],
            "stopped": self.stopped,
            "converged": self.stopped != "round-bound",
            "baseline_cycles": self.baseline_cycles,
            "best_round": self.best.round,
            "best_cycles": self.best_cycles,
            "speedup": round(self.speedup, 6),
        }

    def summary(self) -> str:
        spec = self.spec
        lines = [
            f"fdo {spec.workload} on {spec.config.name} "
            f"({spec.scale}/seed{spec.seed}, policy {spec.policy}):"
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


def fdo_round0(spec: RunSpec) -> RunSpec:
    """Round 0 on ``spec``'s point: its static compile, profiled, at the
    divider its routed design achieved (profiling moves no cycle)."""
    sim = replace(spec.arch.sim, critpath=True)
    return replace(spec, arch=replace(spec.arch, sim=sim), divider=None)


def fdo_step(
    spec: RunSpec, run: RunResult, earlier: list[int], rounds: int
) -> tuple[FdoRound, RunSpec | str]:
    """Round ``k = len(earlier)``'s journal record, and round ``k+1``'s
    spec or why the loop stops, from round k's ``spec`` and profiled
    ``run`` (``earlier``: the cycles of rounds ``0..k-1``; ``rounds``
    bounds the feedback rounds)."""
    weights = dict(spec.node_weights or ())
    next_weights = blame_to_weights(
        run.obs.critpath.per_node_blame(), get_policy(spec.policy)
    )
    record = FdoRound(len(earlier), weights, run.parallelism,
                      run.stats.clock_divider, run.cycles, next_weights)
    if not next_weights and not weights:
        # No memory node on the measured path and no overrides in
        # play: there is nothing for feedback to act on.
        return record, "degenerate-profile"
    if next_weights == weights:
        return record, "weights-fixed-point"
    if run.cycles in earlier:
        # The loop revisited a makespan it already measured — it is
        # oscillating between placements, not improving.
        return record, "makespan-repeat"
    if len(earlier) == rounds:
        return record, "round-bound"
    return record, replace(
        spec,
        parallelism=run.parallelism,
        node_weights=tuple(next_weights.items()) or None,
    )


def run_fdo(
    spec: RunSpec, rounds: int = DEFAULT_ROUNDS, manifest_path=None
) -> FdoResult:
    """The feedback loop on ``spec``'s point, one round at a time, at
    most ``rounds + 1`` of them. ``manifest_path`` appends one
    deterministic JSONL record per round (:meth:`FdoRound.to_record`).
    """
    spec = round0 = fdo_round0(spec)
    identity, journal = _identity(round0), []
    while isinstance(spec, RunSpec):
        run = run_point(spec, *compile_point(spec))
        earlier = [r.cycles for r in journal]
        record, spec = fdo_step(spec, run, earlier, rounds)
        journal.append(record)
        if manifest_path is not None:
            append_manifest(manifest_path, record.to_record(**identity))
    return FdoResult(round0, journal, spec)
