"""repro: a full-stack reproduction of NUPEA (ISCA 2025).

Non-Uniform Processing-Element Access: exposing non-uniform fabric-memory
latency in a spatial dataflow architecture and teaching the compiler to
place critical loads near memory. This package implements the complete
stack the paper evaluates:

* ``repro.ir`` — structured kernel IR and builder (the C/MLIR frontend's
  role),
* ``repro.dfg`` — dataflow graph, steering-control lowering, memory
  ordering, functional interpreter,
* ``repro.core`` — NUPEA domains, critical-load analysis, placement
  policies (the paper's contribution),
* ``repro.arch`` — the Monaco microarchitecture and clustered baselines,
* ``repro.pnr`` — NUPEA-aware simulated-annealing place-and-route,
* ``repro.sim`` — cycle-level simulator (fabric, fabric-memory NoC,
  banked memory + shared cache) with UPEA/NUMA baseline interconnects,
* ``repro.workloads`` — the 13 Table 1 applications,
* ``repro.exp`` — harness regenerating every evaluation figure.

Quickstart::

    from repro import (
        KernelBuilder, monaco, ArchParams, compile_kernel, simulate,
    )
    b = KernelBuilder("dot", params=["n"])
    x, y = b.array("x", 64), b.array("y", 64)
    out = b.array("out", 1)
    acc = b.let("acc", 0)
    with b.for_("i", 0, b.p.n) as i:
        b.set(acc, acc + x.load(i) * y.load(i))
    out.store(0, acc)
    compiled = compile_kernel(b.build(), monaco(12, 12), ArchParams())
    result = simulate(compiled, {"n": 64}, {"x": [1] * 64, "y": [2] * 64})
    print(result.memory["out"], result.stats.summary())
"""

from repro.arch.fabric import build_fabric, monaco
from repro.arch.params import ArchParams
from repro.core.criticality import format_report
from repro.core.policy import DOMAIN_UNAWARE, EFFCC
from repro.ir.builder import KernelBuilder
from repro.pnr.flow import compile_kernel
from repro.sim.energy import estimate_energy
from repro.sim.engine import simulate
from repro.sim.upea import NumaFrontend, UniformFrontend
from repro.workloads.registry import make_workload

__version__ = "1.0.0"

__all__ = [
    "ArchParams",
    "DOMAIN_UNAWARE",
    "EFFCC",
    "KernelBuilder",
    "NumaFrontend",
    "UniformFrontend",
    "build_fabric",
    "compile_kernel",
    "estimate_energy",
    "format_report",
    "make_workload",
    "monaco",
    "simulate",
    "__version__",
]
