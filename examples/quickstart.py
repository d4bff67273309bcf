"""Quickstart: write a kernel, compile it onto Monaco, simulate it.

Run with::

    python examples/quickstart.py
"""

from repro import (
    ArchParams,
    KernelBuilder,
    compile_kernel,
    format_report,
    monaco,
    simulate,
)


def build_saxpy(n: int):
    """y = a*x + y over integers — the 'hello world' of kernels."""
    b = KernelBuilder("saxpy", params=["n", "a"])
    x = b.array("x", n)
    y = b.array("y", n)
    with b.parfor("i", 0, b.p.n) as i:
        y.store(i, b.p.a * x.load(i) + y.load(i))
    return b.build()


def main():
    n = 64
    kernel = build_saxpy(n)
    fabric = monaco(12, 12)
    arch = ArchParams()

    # Compile: parallelize -> lower to dataflow -> criticality analysis ->
    # NUPEA-aware place-and-route -> static timing.
    compiled = compile_kernel(kernel, fabric, arch)
    print(compiled.summary())
    print(format_report(compiled.dfg, compiled.criticality))
    print("memory nodes per NUPEA domain:", compiled.domain_histogram())

    # Simulate on the cycle-level Monaco model.
    params = {"n": n, "a": 3}
    arrays = {"x": list(range(n)), "y": [1] * n}
    result = simulate(compiled, params, arrays, arch)
    expected = [3 * i + 1 for i in range(n)]
    assert result.memory["y"] == expected
    print("result verified:", result.memory["y"][:8], "...")
    print("stats:", result.stats.summary())


if __name__ == "__main__":
    main()
