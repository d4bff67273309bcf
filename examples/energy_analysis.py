"""Energy analysis: where does the energy go, and what does NUPEA save?

Data movement is the paper's motivating bottleneck. This example runs
spmspv under effcc and domain-unaware placement, and under the UPEA
baseline, then breaks each run's energy down by component.

Run with::

    python examples/energy_analysis.py
"""

from repro import (
    DOMAIN_UNAWARE,
    EFFCC,
    ArchParams,
    UniformFrontend,
    compile_kernel,
    estimate_energy,
    make_workload,
    monaco,
    simulate,
)


def main():
    instance = make_workload("spmspv", scale="small")
    fabric = monaco(12, 12)
    arch = ArchParams()

    effcc = compile_kernel(instance.kernel, fabric, arch, policy=EFFCC)
    unaware = compile_kernel(
        instance.kernel,
        fabric,
        arch,
        policy=DOMAIN_UNAWARE,
        parallelism=effcc.parallelism,
    )

    runs = {
        "Monaco + effcc": (effcc, None),
        "Monaco + domain-unaware": (unaware, None),
        "UPEA2 + effcc": (effcc, lambda f, a: UniformFrontend(4)),
    }
    print(f"{'configuration':26s} {'cycles':>8s} {'total pJ':>9s} "
          f"{'data-NoC':>9s} {'FM-NoC':>7s} {'movement':>9s}")
    for label, (compiled, factory) in runs.items():
        kwargs = {"divider": 2}
        if factory is not None:
            kwargs["frontend_factory"] = factory
        result = simulate(
            compiled, instance.params, instance.arrays, arch, **kwargs
        )
        instance.check(result.memory)
        energy = estimate_energy(result.stats)
        share = energy.data_movement / energy.total
        print(
            f"{label:26s} {result.stats.system_cycles:8d} "
            f"{energy.total:9.0f} {energy.data_noc:9.0f} "
            f"{energy.fabric_memory_noc:7.0f} {share:9.0%}"
        )
    print(
        "\nNUPEA's effect in energy terms: criticality-aware placement"
        "\neliminates fabric-memory arbitration traversals for the loads"
        "\nthat fire most, so the FM-NoC column collapses under effcc."
    )


if __name__ == "__main__":
    main()
