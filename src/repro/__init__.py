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

from repro.arch import ArchParams, Fabric, build_fabric, monaco
from repro.core import (
    DOMAIN_AWARE,
    DOMAIN_UNAWARE,
    EFFCC,
    analyze_criticality,
    format_report,
)
from repro.dfg import lower_kernel, run_dfg
from repro.errors import ReproError
from repro.ir import KernelBuilder, parallelize, run_kernel
from repro.pnr import CompiledKernel, compile_kernel
from repro.sim import SimResult, simulate
from repro.workloads import ALL_WORKLOADS, make_workload

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "ArchParams",
    "CompiledKernel",
    "DOMAIN_AWARE",
    "DOMAIN_UNAWARE",
    "EFFCC",
    "Fabric",
    "KernelBuilder",
    "ReproError",
    "SimResult",
    "analyze_criticality",
    "build_fabric",
    "compile_kernel",
    "format_report",
    "lower_kernel",
    "make_workload",
    "monaco",
    "parallelize",
    "run_dfg",
    "run_kernel",
    "simulate",
    "__version__",
]
