"""PnR artifacts of the figure sweeps' policy x fabric x NoC points, pinned.

``tests/test_pnr_incremental.py`` pins the 13 kernels at the default
architecture only; the points the paper's scaling figures visit — 2 and
7 NoC tracks, the heterogeneous track graph, 16x16 and 24x24 fabrics,
the clustered topologies, the two ablation policies — were compiled by
nothing tier-1 looked at. ``tests/data/pnr_route_pins.json`` holds their
``pnr_digest`` (an unroutable point pins ``error:<type>``), generated by
the tuple/dict Dijkstra router at commit 57a7eb2 — the parent of the
flat-table bound-pruned search — so the rewritten router is held to the
old one's trees bit for bit. Every pinned artifact is also handed to the
independent verifiers (:func:`repro.check.pnr.verify_placement` and
:func:`repro.check.pnr.verify_routing`).
Regenerate — only after an *intentional* change to what PnR decides —
with::

    PYTHONPATH=src:tests:. python tests/test_pnr_route_pins.py --regen
"""

from __future__ import annotations

import json
import pathlib

import pytest

from benchmarks.e2e.digests import pnr_digest
from repro.arch.fabric import build_fabric
from repro.arch.params import ArchParams
from repro.check.pnr import verify_placement, verify_routing
from repro.core.policy import get_policy
from repro.errors import PnRError
from repro.pnr.flow import compile_once
from repro.workloads.registry import ALL_WORKLOADS, make_workload

PIN_PATH = pathlib.Path(__file__).parent / "data" / "pnr_route_pins.json"

#: NoC points on monaco 12x12, every kernel.
NOC = {
    "simple-2": ArchParams(noc_tracks=2),
    "simple-7": ArchParams(noc_tracks=7),
    "monaco-tracks": ArchParams(noc_model="monaco-tracks"),
}
#: (topology, size, policy) points at the default NoC, three kernels.
WIDE_KERNELS = ("dmv", "spmspv", "ic")
WIDE = {
    "monaco-16": ("monaco", 16, "effcc"),
    "monaco-24": ("monaco", 24, "effcc"),
    "clustered-single": ("clustered-single", 12, "effcc"),
    "clustered-double": ("clustered-double", 12, "effcc"),
    "domain-unaware": ("monaco", 12, "domain-unaware"),
    "only-domain-aware": ("monaco", 12, "only-domain-aware"),
}

POINTS = {
    **{
        f"{name}/{noc}": (name, "monaco", 12, "effcc", arch)
        for name in sorted(ALL_WORKLOADS)
        for noc, arch in NOC.items()
    },
    **{
        f"{name}/{point}": (name, *spec, ArchParams())
        for name in WIDE_KERNELS
        for point, spec in WIDE.items()
    },
}


def compile_point(point: str):
    """The point's ``(compiled | None, arch, pin)``."""
    name, topology, size, policy, arch = POINTS[point]
    kernel = make_workload(name, scale="tiny", seed=0).kernel
    try:
        compiled = compile_once(
            kernel, build_fabric(topology, size, size), arch,
            get_policy(policy), parallelism=1, seed=0,
        )
    except PnRError as error:
        return None, arch, f"error:{type(error).__name__}"
    return compiled, arch, pnr_digest(compiled)


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PIN_PATH.read_text())


def test_the_pin_file_covers_every_point(pins):
    assert sorted(pins) == sorted(POINTS)


@pytest.mark.parametrize("point", sorted(POINTS))
def test_pinned_route_digest(point, pins):
    """HEAD compiles the parent router's artifact, and it verifies."""
    compiled, arch, pin = compile_point(point)
    assert pin == pins[point]
    if compiled is not None:
        verify_placement(compiled, arch)
        verify_routing(compiled, arch)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--regen"]:
        raise SystemExit(__doc__)
    PIN_PATH.write_text(
        json.dumps(
            {point: compile_point(point)[2] for point in sorted(POINTS)},
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {len(POINTS)} pins to {PIN_PATH}")
