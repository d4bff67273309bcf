"""Three-way differential oracle: IR interp vs DFG interp vs timed sim.

The repository's central claim is that its three execution layers agree
on every kernel:

1. the IR reference interpreter (:func:`repro.ir.interp.run_kernel`) —
   semantic ground truth;
2. the untimed DFG token interpreter (:func:`repro.dfg.interp.run_dfg`)
   under several admissible firing orders — the lowering's oracle;
3. the cycle-level simulator (:func:`repro.sim.engine.simulate`) with
   runtime invariant checking enabled — the timing model.

:func:`check_kernel` runs one kernel through all of them and diffs
final array states element-by-element plus op/firing counts, producing
a structured :class:`ConformanceReport`: the first divergent array and
index with the per-layer values, any protocol failure (token leak,
deadlock, invariant violation), and a config digest naming exactly what
was compared. Dataflow determinism makes the comparison exact: a node's
input sequences are fixed by data dependencies, not by scheduling, so
per-node firing counts and even float results are bit-identical across
admissible schedules — any inequality is a bug, never noise.

Comparability notes: the two DFG layers execute the *same* graph, so
their per-op firing counts must match exactly. The IR interpreter is
compared on the memory-op subset only — lowering materializes loop
control (``i+1``, ``i<n``) as extra ``binop`` nodes, so arithmetic
counts legitimately differ across the IR boundary. Store counts match
exactly (stores are never optimized away); load counts are one-sided
(``eliminate_dead`` may prune a load whose value is unused, but the
lowering must never invent one).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.arch.params import ArchParams
from repro.check.pnr import verify_routing
from repro.dfg.interp import run_dfg
from repro.errors import DFGError, PnRError, ReproError, SimulationError
from repro.ir.ast import Kernel
from repro.ir.interp import run_kernel
from repro.obs.manifest import config_digest
from repro.sim.engine import simulate

#: Firing orders the untimed DFG interpreter is exercised under.
DEFAULT_ORDERS = ("fifo", "lifo", "random")

#: Cap on recorded divergences per report (the first is the one that
#: matters for debugging; the cap keeps reports bounded on total loss).
MAX_DIVERGENCES = 16


@dataclasses.dataclass(frozen=True)
class Divergence:
    """One disagreement between two layers (or a layer failure).

    ``kind`` is ``"array"`` (a memory cell differs), ``"op-counts"``
    (firing/op ledgers differ), ``"protocol"`` (a layer raised: token
    leak, deadlock, invariant violation), or ``"reference"`` (a layer
    disagrees with a workload's golden output).
    """

    kind: str
    layers: tuple[str, ...]
    array: str | None = None
    index: int | None = None
    #: Per-layer value at the divergent point (or error text).
    values: tuple[tuple[str, object], ...] = ()
    detail: str = ""

    def describe(self) -> str:
        where = ""
        if self.array is not None:
            where = f" at {self.array}[{self.index}]"
        vals = ", ".join(f"{layer}={value!r}" for layer, value in self.values)
        body = self.detail or vals
        return f"[{self.kind}] {' vs '.join(self.layers)}{where}: {body}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "layers": list(self.layers),
            "array": self.array,
            "index": self.index,
            "values": {layer: value for layer, value in self.values},
            "detail": self.detail,
        }


@dataclasses.dataclass
class ConformanceReport:
    """Outcome of one three-way differential run."""

    name: str
    config: str
    layers: tuple[str, ...]
    divergences: list[Divergence]
    #: Per-layer op/firing counts actually observed.
    op_counts: dict[str, dict[str, int]]
    #: Timed-simulation system cycles (0 when the sim layer failed).
    cycles: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def digest(self) -> str:
        """Stable digest of the full outcome (serial == parallel)."""
        return config_digest(
            {
                "report": self.name,
                "config": self.config,
                "layers": list(self.layers),
                "divergences": [d.to_dict() for d in self.divergences],
                "op_counts": self.op_counts,
                "cycles": self.cycles,
            }
        )

    def describe(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} divergence(s)"
        lines = [
            f"{self.name}: {status} "
            f"(layers {', '.join(self.layers)}; config {self.config}; "
            f"{self.cycles} cycles)"
        ]
        lines += [f"  {d.describe()}" for d in self.divergences]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "config": self.config,
            "digest": self.digest(),
            "layers": list(self.layers),
            "cycles": self.cycles,
            "op_counts": self.op_counts,
            "divergences": [d.to_dict() for d in self.divergences],
        }


def _memory_digest(memory: dict[str, list]) -> str:
    payload = json.dumps(
        {name: data for name, data in sorted(memory.items())},
        sort_keys=True,
        default=str,
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _with_check(arch: ArchParams) -> ArchParams:
    if arch.sim.check:
        return arch
    return dataclasses.replace(
        arch, sim=dataclasses.replace(arch.sim, check=True)
    )


def _diff_memory(
    reference: dict[str, list],
    ref_layer: str,
    memory: dict[str, list],
    layer: str,
    out: list[Divergence],
) -> None:
    for array in sorted(reference):
        want = reference[array]
        got = memory.get(array)
        if got is None or len(got) != len(want):
            out.append(
                Divergence(
                    "array",
                    (ref_layer, layer),
                    array=array,
                    detail=(
                        f"array missing or wrong length "
                        f"({None if got is None else len(got)} vs "
                        f"{len(want)})"
                    ),
                )
            )
            continue
        for index, (w, g) in enumerate(zip(want, got)):
            if g != w:
                out.append(
                    Divergence(
                        "array",
                        (ref_layer, layer),
                        array=array,
                        index=index,
                        values=((ref_layer, w), (layer, g)),
                    )
                )
                break  # first divergent index per array is enough
        if len(out) >= MAX_DIVERGENCES:
            return


def check_kernel(
    kernel: Kernel,
    params: dict[str, int | float] | None = None,
    arrays: dict[str, list] | None = None,
    *,
    arch: ArchParams | None = None,
    compiled=None,
    fabric=None,
    orders: tuple[str, ...] = DEFAULT_ORDERS,
    seed: int = 0,
    divider: int | None = None,
    frontend_factory=None,
    anneal_moves: int | None = None,
    name: str | None = None,
    reference_outputs: dict[str, list] | None = None,
    tolerance: float = 0.0,
) -> ConformanceReport:
    """Run ``kernel`` through all three layers and diff the results.

    The IR interpreter is the ground truth: if *it* fails the kernel is
    invalid and the error propagates. DFG/sim-layer failures (token
    leaks, deadlocks, invariant violations) are *findings* — recorded as
    ``protocol`` divergences so the fuzzer can shrink them. ``compiled``
    short-circuits compilation (the workload harness passes its cached
    :class:`~repro.pnr.result.CompiledKernel`); otherwise the kernel is
    compiled at parallelism 1 on ``fabric`` (default Monaco 12x12).
    :class:`~repro.errors.PnRError` propagates — an unroutable kernel is
    a capacity limit, not a conformance finding.
    """
    params = dict(params or {})
    arch = arch or ArchParams()
    label = name or kernel.name
    divergences: list[Divergence] = []
    op_counts: dict[str, dict[str, int]] = {}

    # Layer 1: IR reference interpreter (ground truth).
    ir_counts: dict[str, int] = {}
    ir_memory = run_kernel(kernel, params, arrays, counts=ir_counts)
    op_counts["ir"] = dict(sorted(ir_counts.items()))

    # Compile once (PnR is deterministic given the seed); the simulator
    # and the untimed interpreter then execute the *same* graph, making
    # per-op firing counts exactly comparable.
    if compiled is None:
        from repro.arch.fabric import monaco
        from repro.pnr.flow import compile_once

        compiled = compile_once(
            kernel,
            fabric if fabric is not None else monaco(),
            arch,
            parallelism=1,
            seed=seed,
            anneal_moves=anneal_moves,
        )
    dfg = compiled.dfg

    # Static lint (pillar 3) over the graph the layers below execute.
    from repro.check.lint import lint_dfg

    for issue in lint_dfg(dfg):
        divergences.append(
            Divergence("protocol", ("lint",), detail=issue.describe())
        )

    digest = config_digest(
        {
            "oracle": label,
            "params": {k: params[k] for k in sorted(params)},
            "arrays": _memory_digest(
                {k: list(v) for k, v in (arrays or {}).items()}
            ),
            "orders": list(orders),
            "seed": seed,
            "divider": divider,
            "fabric": compiled.fabric.name,
            "fifo_capacity": arch.sim.fifo_capacity,
            "max_outstanding": arch.sim.max_outstanding,
            "noc_tracks": arch.noc_tracks,
        }
    )
    layers: list[str] = ["ir"]

    # Layer 2: untimed DFG interpreter under every requested order.
    dfg_firings: dict[str, int] | None = None
    for order in orders:
        layer = f"dfg-{order}"
        layers.append(layer)
        try:
            interp = run_dfg(dfg, params, arrays, order=order, seed=seed)
        except DFGError as error:
            divergences.append(
                Divergence("protocol", (layer,), detail=str(error))
            )
            continue
        op_counts[layer] = dict(sorted(interp.firings.items()))
        _diff_memory(ir_memory, "ir", interp.memory, layer, divergences)
        if dfg_firings is None:
            dfg_firings = interp.firings
        elif interp.firings != dfg_firings:
            divergences.append(
                Divergence(
                    "op-counts",
                    (f"dfg-{orders[0]}", layer),
                    detail=(
                        "firing counts differ across admissible "
                        f"schedules: {dfg_firings!r} vs "
                        f"{interp.firings!r}"
                    ),
                )
            )

    # Layer 3: cycle-level simulator, invariant checkers armed.
    layers.append("sim")
    sim_kwargs = {"divider": divider}
    if frontend_factory is not None:
        sim_kwargs["frontend_factory"] = frontend_factory
    cycles = 0
    try:
        result = simulate(
            compiled, params, arrays, _with_check(arch), **sim_kwargs
        )
    except (SimulationError, DFGError) as error:
        divergences.append(
            Divergence(
                "protocol",
                ("sim",),
                detail=f"{type(error).__name__}: {error}",
            )
        )
    else:
        cycles = result.stats.system_cycles
        op_counts["sim"] = dict(sorted(result.stats.firings.items()))
        _diff_memory(ir_memory, "ir", result.memory, "sim", divergences)
        if dfg_firings is not None and result.stats.firings != dfg_firings:
            divergences.append(
                Divergence(
                    "op-counts",
                    (f"dfg-{orders[0]}", "sim"),
                    detail=(
                        "timed firing counts differ from the untimed "
                        f"interpreter: {dfg_firings!r} vs "
                        f"{result.stats.firings!r}"
                    ),
                )
            )
        if reference_outputs is not None:
            _diff_reference(
                reference_outputs, result.memory, tolerance, divergences
            )

    # IR vs DFG on the memory-op subset (see module doc). Stores are
    # never optimized away, so their counts match exactly; loads are
    # one-sided — ``eliminate_dead`` legally prunes a load whose value
    # is unused (fuzz-discovered: ``v = X[0]`` with ``v`` dead), but
    # the lowering must never *invent* a load the program didn't run.
    if dfg_firings is not None:
        ir_stores = ir_counts.get("store", 0)
        dfg_stores = dfg_firings.get("store", 0)
        if ir_stores != dfg_stores:
            divergences.append(
                Divergence(
                    "op-counts",
                    ("ir", f"dfg-{orders[0]}"),
                    detail=(
                        f"{ir_stores} IR stores executed but "
                        f"{dfg_stores} store node firings"
                    ),
                )
            )
        ir_loads = ir_counts.get("load", 0)
        dfg_loads = dfg_firings.get("load", 0)
        if dfg_loads > ir_loads:
            divergences.append(
                Divergence(
                    "op-counts",
                    ("ir", f"dfg-{orders[0]}"),
                    detail=(
                        f"{dfg_loads} load node firings exceed the "
                        f"{ir_loads} loads the program executed"
                    ),
                )
            )

    return ConformanceReport(
        name=label,
        config=digest,
        layers=tuple(layers),
        divergences=divergences[:MAX_DIVERGENCES],
        op_counts=op_counts,
        cycles=cycles,
    )


def _diff_reference(
    reference: dict[str, list],
    memory: dict[str, list],
    tolerance: float,
    out: list[Divergence],
) -> None:
    for array in sorted(reference):
        want = reference[array]
        got = memory.get(array, [])
        for index, (w, g) in enumerate(zip(want, got)):
            bad = abs(g - w) > tolerance if tolerance else g != w
            if bad:
                out.append(
                    Divergence(
                        "reference",
                        ("sim", "golden"),
                        array=array,
                        index=index,
                        values=(("sim", g), ("golden", w)),
                    )
                )
                break


def check_workload(
    name: str,
    scale: str = "tiny",
    seed: int = 0,
    *,
    arch: ArchParams | None = None,
    orders: tuple[str, ...] = DEFAULT_ORDERS,
) -> ConformanceReport:
    """Three-way check of one Table-1 workload, plus its golden output.

    Compiles through the shared cache exactly like the experiment
    harness (same key, same parallelism search) so what the oracle
    certifies is the graph the experiments actually run. The compile
    runs under ``sim.check``, which arms the placer's and the router's
    references on every candidate; ``compile_key`` leaves ``arch.sim``
    out, so the artifact and its cache entry are the unchecked ones.
    """
    from repro.arch.fabric import monaco
    from repro.exp.runner import PAPER_DIVIDER, compile_cached
    from repro.workloads.registry import make_workload

    arch = arch or ArchParams()
    instance = make_workload(name, scale, seed)
    compiled = compile_cached(instance, monaco(), _with_check(arch), seed=seed)
    verify_routing(compiled, arch)
    return check_kernel(
        instance.kernel,
        instance.params,
        instance.arrays,
        arch=arch,
        compiled=compiled,
        orders=orders,
        seed=seed,
        divider=PAPER_DIVIDER,
        name=f"{name}@{scale}",
        reference_outputs=instance.reference,
        tolerance=instance.tolerance,
    )


def run_conformance(
    names=None,
    scale: str = "tiny",
    seed: int = 0,
    *,
    arch: ArchParams | None = None,
) -> list[ConformanceReport]:
    """Run :func:`check_workload` over ``names`` (default: all 13)."""
    from repro.workloads.registry import ALL_WORKLOADS

    reports = []
    for name in names or ALL_WORKLOADS:
        try:
            reports.append(check_workload(name, scale, seed, arch=arch))
        except PnRError as error:
            reports.append(
                ConformanceReport(
                    name=f"{name}@{scale}",
                    config="-",
                    layers=(),
                    divergences=[
                        Divergence(
                            "protocol", ("pnr",), detail=str(error)
                        )
                    ],
                    op_counts={},
                )
            )
        except ReproError as error:
            reports.append(
                ConformanceReport(
                    name=f"{name}@{scale}",
                    config="-",
                    layers=(),
                    divergences=[
                        Divergence(
                            "protocol",
                            (type(error).__name__,),
                            detail=str(error),
                        )
                    ],
                    op_counts={},
                )
            )
    return reports
