"""Workload registry: the 13 applications of Table 1."""

from __future__ import annotations

from repro.errors import ReproError
from repro.workloads.base import WorkloadInstance
from repro.workloads.dense import build_dmv
from repro.workloads.dsp import build_fft
from repro.workloads.graph import build_tc
from repro.workloads.nn import build_ad, build_ic, build_vww
from repro.workloads.sort import build_mergesort
from repro.workloads.sparse import (
    build_spadd,
    build_spmspm,
    build_spmspv,
    build_spmv,
)
from repro.workloads.stencil import build_heat3d, build_jacobi2d

#: Table 1 order.
BUILDERS = {
    "dmv": build_dmv,
    "jacobi2d": build_jacobi2d,
    "heat3d": build_heat3d,
    "spmv": build_spmv,
    "spmspm": build_spmspm,
    "spmspv": build_spmspv,
    "spadd": build_spadd,
    "tc": build_tc,
    "mergesort": build_mergesort,
    "fft": build_fft,
    "ad": build_ad,
    "ic": build_ic,
    "vww": build_vww,
}

ALL_WORKLOADS = tuple(BUILDERS)


def make_workload(
    name: str, scale: str = "small", seed: int = 0
) -> WorkloadInstance:
    """Instantiate a Table 1 workload at the given scale."""
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ReproError(
            f"unknown workload {name!r}; available: {sorted(BUILDERS)}"
        ) from None
    return builder(scale=scale, seed=seed)


__all__ = ["ALL_WORKLOADS", "BUILDERS", "make_workload"]
