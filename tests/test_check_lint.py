"""DFG static lint pass (``repro.check.lint``).

Each rule gets a deliberately broken graph built by mutating a real
lowering's output (the lint is defined against the lowering's
token-cadence discipline, so mutated-real graphs are the honest test
vehicle). The soundness side — every Table 1 workload's lowering passes
``lint_strict`` — is asserted over the full registry.
"""

from __future__ import annotations

import pytest

from repro.check.lint import (
    _lint_carries,
    lint_dfg,
    lint_strict,
)
from repro.dfg.graph import ImmRef, PortRef
from repro.dfg.lower import lower_kernel
from repro.errors import DFGError
from repro.workloads.registry import ALL_WORKLOADS, make_workload

from kernels import dot_kernel, nested_kernel


def rules(issues):
    return {issue.rule for issue in issues}


# -- soundness: real lowerings are clean ------------------------------------


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_all_workloads_lint_clean(name):
    instance = make_workload(name, scale="tiny")
    dfg = lower_kernel(instance.kernel)
    lint_strict(dfg)  # raises on findings
    assert lint_dfg(dfg) == []


# -- each rule fires on its broken graph ------------------------------------


def test_dangling_port_nonexistent_node():
    dfg = lower_kernel(dot_kernel())
    victim = next(
        n for n in dfg.nodes.values()
        if any(isinstance(i, PortRef) for i in n.inputs)
    )
    index = next(
        i for i, inp in enumerate(victim.inputs) if isinstance(inp, PortRef)
    )
    victim.inputs[index] = PortRef(999_999)
    issues = lint_dfg(dfg)
    assert rules(issues) == {"dangling-port"}
    assert any("nonexistent node 999999" in i.message for i in issues)


def test_dangling_port_flags_unpatched_placeholder():
    dfg = lower_kernel(nested_kernel())
    carry = next(n for n in dfg.nodes.values() if n.op == "carry")
    carry.inputs[1] = PortRef(-1)
    issues = lint_dfg(dfg)
    assert rules(issues) == {"dangling-port"}
    assert any("back-edge placeholder" in i.message for i in issues)
    with pytest.raises(DFGError, match="dangling-port"):
        lint_strict(dfg)


def test_unreachable_node():
    dfg = lower_kernel(dot_kernel())
    # A node with immediate-only inputs has no forward path from the
    # source: it can never receive a launch token.
    orphan = dfg.add(
        "binop",
        [ImmRef("const", 1), ImmRef("const", 2)],
        opname="+",
        tag="orphan",
    )
    issues = lint_dfg(dfg)
    assert "unreachable" in rules(issues)
    assert any(i.nid == orphan for i in issues if i.rule == "unreachable")


def test_dead_node():
    dfg = lower_kernel(dot_kernel())
    store = next(n for n in dfg.nodes.values() if n.op == "store")
    feeder = next(
        inp.src for inp in store.inputs if isinstance(inp, PortRef)
    )
    # Reachable (fed by a live node) but with no path to any store.
    dead = dfg.add(
        "unop", [PortRef(feeder)], opname="neg", tag="dead-limb"
    )
    issues = lint_dfg(dfg)
    assert any(
        i.rule == "dead" and i.nid == dead for i in issues
    ), issues


def test_carry_init_immediate():
    dfg = lower_kernel(nested_kernel())
    carry = next(n for n in dfg.nodes.values() if n.op == "carry")
    carry.inputs[0] = ImmRef("const", 0)
    issues = lint_dfg(dfg)
    assert any(
        i.rule == "carry-init-imm" and i.nid == carry.nid for i in issues
    )


def test_carry_placeholder_rule_directly():
    # Through ``lint_dfg`` a PortRef(-1) is reported as dangling-port
    # (and stops the pass); the carry rule itself must still recognise
    # the placeholder for graphs where node -1 hypothetically resolves.
    dfg = lower_kernel(nested_kernel())
    carry = next(n for n in dfg.nodes.values() if n.op == "carry")
    carry.inputs[2] = PortRef(-1)
    issues = _lint_carries(dfg)
    assert any(
        i.rule == "carry-placeholder" and i.nid == carry.nid
        for i in issues
    )


def test_steer_cadence_incomparable_regions():
    dfg = lower_kernel(nested_kernel())
    steer = next(
        n
        for n in dfg.nodes.values()
        if n.op == "steer"
        and any(
            isinstance(inp, PortRef)
            and dfg.nodes[inp.src].attrs.get("loop") is not None
            for inp in n.inputs[:2]
        )
    )
    # Retag the steer into a loop region that exists nowhere in the
    # nesting tree: neither region encloses the other.
    steer.attrs["loop"] = 999_999
    issues = lint_dfg(dfg)
    assert any(
        i.rule == "steer-cadence" and i.nid == steer.nid for i in issues
    ), issues


def test_lint_strict_raises_with_full_listing():
    dfg = lower_kernel(dot_kernel())
    dfg.add(
        "binop",
        [ImmRef("const", 1), ImmRef("const", 2)],
        opname="+",
        tag="orphan",
    )
    with pytest.raises(DFGError) as excinfo:
        lint_strict(dfg)
    assert "unreachable" in str(excinfo.value)
    assert "issue(s)" in str(excinfo.value)


def test_issue_describe_format():
    dfg = lower_kernel(dot_kernel())
    victim = next(
        n for n in dfg.nodes.values()
        if any(isinstance(i, PortRef) for i in n.inputs)
    )
    index = next(
        i for i, inp in enumerate(victim.inputs) if isinstance(inp, PortRef)
    )
    victim.inputs[index] = PortRef(-1)
    (issue, *_rest) = lint_dfg(dfg)
    text = issue.describe()
    assert text.startswith("[dangling-port]")
    assert f"node {victim.nid}" in text
