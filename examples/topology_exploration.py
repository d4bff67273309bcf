"""Design-space exploration of NUPEA fabric topologies (mini Fig. 16/17).

Compiles and simulates spmspv on Monaco and the clustered alternatives
(Fig. 13) across fabric sizes and NoC track budgets, reporting execution
time, the PnR-chosen parallelism, and the max routed path delay that sets
the fabric clock divider.

Run with::

    python examples/topology_exploration.py
"""

from repro import (
    EFFCC,
    ArchParams,
    build_fabric,
    compile_kernel,
    make_workload,
    simulate,
)
from repro.errors import PnRError

TOPOLOGIES = ("monaco", "clustered-single", "clustered-double")
SIZES = (8, 16)
TRACKS = (2, 7)


def main():
    instance = make_workload("spmspv", scale="small")
    print(
        f"{'topology':18s} {'fabric':8s} {'tracks':>6s} {'par':>4s} "
        f"{'maxhops':>8s} {'divider':>8s} {'cycles':>9s}"
    )
    for tracks in TRACKS:
        arch = ArchParams(noc_tracks=tracks)
        for size in SIZES:
            for topology in TOPOLOGIES:
                fabric = build_fabric(topology, size, size)
                try:
                    compiled = compile_kernel(
                        instance.kernel, fabric, arch, policy=EFFCC
                    )
                except PnRError:
                    print(f"{topology:18s} {size}x{size:<5d} {tracks:6d}"
                          "  unroutable")
                    continue
                divider = max(2, compiled.timing.clock_divider)
                result = simulate(
                    compiled,
                    instance.params,
                    instance.arrays,
                    arch,
                    divider=divider,
                )
                instance.check(result.memory)
                print(
                    f"{topology:18s} {size}x{size:<5d} {tracks:6d} "
                    f"{compiled.parallelism:4d} "
                    f"{compiled.timing.max_hops:8.1f} {divider:8d} "
                    f"{result.stats.system_cycles:9d}"
                )
    print(
        "\nThe paper's claim (Fig. 16/17): with scarce tracks, clustered"
        "\ntopologies suffer longer paths and worse dividers on large"
        "\nfabrics, while Monaco keeps LS PEs adjacent to arithmetic rows."
    )


if __name__ == "__main__":
    main()
