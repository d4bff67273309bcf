"""Three-way differential oracle (``repro.check.oracle``).

The system-level sweep over all 13 workloads runs in CI as
``repro check --all`` (and the invariant suite already simulates the
full registry); here a representative subset keeps the oracle's own
behaviours pinned: green reports, digest determinism, structured
divergences, and the comparability rules for op counts — including the
regression for the one-sided load comparison the fuzzer forced us to
adopt (``eliminate_dead`` may legally prune an unused load).
"""

from __future__ import annotations

import pytest

from repro.check.oracle import (
    ConformanceReport,
    Divergence,
    check_kernel,
    check_workload,
    run_conformance,
)
from repro.ir.ast import ArraySpec, Const, Kernel, Load, Store

from kernels import dot_kernel, join_kernel, nested_kernel

SUBSET = ("spmspv", "dmv", "mergesort")


@pytest.mark.parametrize("name", SUBSET)
def test_workloads_conform(name):
    report = check_workload(name, scale="tiny")
    assert report.ok, report.describe()
    assert report.name == f"{name}@tiny"
    assert set(report.layers) >= {"ir", "dfg-fifo", "sim"}
    assert report.cycles > 0
    # The two DFG layers executed the same graph: ledgers are identical.
    assert report.op_counts["dfg-fifo"] == report.op_counts["dfg-lifo"]
    assert report.op_counts["sim"] == report.op_counts["dfg-fifo"]
    # Memory-op subset vs the IR ground truth.
    ir, dfg = report.op_counts["ir"], report.op_counts["dfg-fifo"]
    assert dfg.get("store", 0) == ir.get("store", 0)
    assert dfg.get("load", 0) <= ir.get("load", 0)


def test_digest_is_deterministic():
    a = check_workload("spmspv", scale="tiny")
    b = check_workload("spmspv", scale="tiny")
    assert a.digest() == b.digest()
    assert len(a.digest()) == 16


def test_digest_distinguishes_workloads():
    a = check_workload("spmspv", scale="tiny")
    b = check_workload("dmv", scale="tiny")
    assert a.digest() != b.digest()


def test_run_conformance_subset():
    reports = run_conformance(SUBSET[:2], scale="tiny")
    assert [r.name.split("@")[0] for r in reports] == list(SUBSET[:2])
    assert all(r.ok for r in reports)


@pytest.mark.parametrize(
    "kernel,params",
    [
        (dot_kernel(), {"n": 4}),
        (join_kernel(), {"na": 6, "nb": 6}),
        (nested_kernel(), {"n": 3, "m": 3}),
    ],
    ids=["dot", "join", "nested"],
)
def test_zoo_kernels_conform(kernel, params):
    report = check_kernel(kernel, params, anneal_moves=400)
    assert report.ok, report.describe()


def test_reference_divergence_is_reported():
    kernel = dot_kernel()
    size = next(a.size for a in kernel.arrays if a.name == "out")
    wrong = {"out": [-12345] * size}
    report = check_kernel(
        kernel, {"n": 4}, anneal_moves=400, reference_outputs=wrong
    )
    assert not report.ok
    kinds = {d.kind for d in report.divergences}
    assert kinds == {"reference"}
    first = report.divergences[0]
    assert first.array == "out"
    assert ("golden", -12345) in first.values
    assert "out" in first.describe()


def test_any_error_of_a_lower_layer_is_a_finding(monkeypatch):
    """A kernel's fault raised by the simulator (the division by zero of
    :mod:`repro.isa`) is the sim layer's ``protocol`` divergence; the IR
    and DFG results are kept."""
    import repro.check.oracle as oracle
    from repro.errors import KernelFault

    def broken(*args, **kwargs):
        raise KernelFault("integer division by zero in kernel")

    monkeypatch.setattr(oracle, "simulate", broken)
    report = check_kernel(dot_kernel(), {"n": 4}, anneal_moves=400)
    (divergence,) = report.divergences
    assert (divergence.kind, divergence.layers) == ("protocol", ("sim",))
    assert divergence.detail == (
        "KernelFault: integer division by zero in kernel"
    )
    lower = ("ir", "dfg-fifo", "dfg-lifo", "dfg-random")
    assert report.layers == (*lower, "sim")
    assert tuple(report.op_counts) == lower  # the IR and DFG results kept
    assert report.op_counts["dfg-fifo"]["store"] == (
        report.op_counts["ir"]["store"]
    )
    assert report.cycles == 0


def test_dead_load_is_not_a_divergence():
    """Regression: the fuzzer's first findings were all this shape.

    A load whose value never reaches a store is legally pruned by
    ``eliminate_dead``; the oracle must treat the IR-vs-DFG load count
    as one-sided, not flag it.
    """
    kernel = Kernel(
        "dead_load",
        [],
        [ArraySpec("A", 8, "i"), ArraySpec("X", 8, "i")],
        [
            Load("v3", "X", Const(0)),  # result unused
            Store("A", Const(0), Const(0)),
        ],
    )
    report = check_kernel(kernel, {}, anneal_moves=400)
    assert report.ok, report.describe()
    assert report.op_counts["ir"].get("load", 0) == 1
    assert report.op_counts["dfg-fifo"].get("load", 0) == 0


def test_report_round_trips_to_dict():
    report = check_workload("dmv", scale="tiny")
    data = report.to_dict()
    assert data["ok"] is True
    assert data["name"] == "dmv@tiny"
    assert data["digest"] == report.digest()
    import json

    json.dumps(data)  # must be plain-JSON serialisable


def test_divergence_describe_and_report_cap():
    d = Divergence(
        "array",
        ("ir", "sim"),
        array="A",
        index=3,
        values=(("ir", 1), ("sim", 2)),
    )
    assert "A[3]" in d.describe()
    report = ConformanceReport(
        name="x",
        config="deadbeef",
        layers=("ir", "sim"),
        divergences=[d],
        op_counts={},
        cycles=0,
    )
    assert not report.ok
    assert "A[3]" in report.describe()
