"""The paper's running example: spmspv and its critical loads.

Reproduces, at example scale, the story of Fig. 3/5/6: the sparse
matrix-sparse vector product's intersection loop has loads on a
loop-governing recurrence; effcc classifies them as class-A critical and
places them in NUPEA domain D0, which recovers most of an idealized
memory's performance.

Run with::

    python examples/spmspv_criticality.py
"""

from repro import (
    DOMAIN_UNAWARE,
    EFFCC,
    ArchParams,
    NumaFrontend,
    UniformFrontend,
    compile_kernel,
    format_report,
    make_workload,
    monaco,
    simulate,
)


def main():
    instance = make_workload("spmspv", scale="small")
    fabric = monaco(12, 12)
    arch = ArchParams()

    compiled = compile_kernel(instance.kernel, fabric, arch, policy=EFFCC)
    print(compiled.summary())
    print(format_report(compiled.dfg, compiled.criticality))
    print("memory nodes per NUPEA domain:", compiled.domain_histogram())
    print()

    # Compare fabric-memory interconnects on the same compiled design
    # (mini Fig. 6c / Fig. 11).
    frontends = {
        "ideal (UPEA0)": lambda f, a: UniformFrontend(0),
        "UPEA2": lambda f, a: UniformFrontend(2 * 2),
        "NUMA-UPEA2": lambda f, a: NumaFrontend(2 * 2, f, a, seed=0),
        "Monaco (NUPEA)": None,  # default Monaco frontend
    }
    cycles = {}
    for label, factory in frontends.items():
        kwargs = {"divider": 2}
        if factory is not None:
            kwargs["frontend_factory"] = factory
        result = simulate(
            compiled, instance.params, instance.arrays, arch, **kwargs
        )
        instance.check(result.memory)
        cycles[label] = result.stats.system_cycles
        lat = result.stats.load_latency["A"]
        print(
            f"{label:16s}: {result.stats.system_cycles:7d} cycles"
            f"   (mean class-A load latency {lat.mean:5.1f})"
        )
    base = cycles["Monaco (NUPEA)"]
    print(
        f"\nNUPEA vs UPEA2 speedup: {cycles['UPEA2'] / base:.2f}x; "
        f"vs ideal: {cycles['ideal (UPEA0)'] / base:.2f}x"
    )

    # The ablation at the heart of Fig. 12: throw away criticality and
    # domain awareness and watch the critical loads drift to far domains.
    unaware = compile_kernel(
        instance.kernel,
        fabric,
        arch,
        policy=DOMAIN_UNAWARE,
        parallelism=compiled.parallelism,
    )
    result = simulate(unaware, instance.params, instance.arrays, arch,
                      divider=2)
    print(
        f"\ndomain-unaware PnR: {result.stats.system_cycles} cycles "
        f"({result.stats.system_cycles / base:.2f}x slower), "
        f"class-A loads now in domains "
        f"{sorted(unaware.domain_histogram()['A'])}"
    )


if __name__ == "__main__":
    main()
