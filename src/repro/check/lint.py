"""Static lint pass over lowered dataflow graphs.

:func:`repro.dfg.graph.DFG.validate` rejects graphs that are *malformed*
(wrong arity, undeclared arrays, immediates on cadence-carrying ports).
This pass catches the next class up: graphs that are well-formed but
*wrong by construction* — exactly the bug family PR 3 fixed by hand when
loop-carry inits under an untaken ``If`` arm leaked ungated tokens. The
rules here are derived from the lowering's token-cadence discipline
(see ``dfg/lower.py`` and INTERNALS Sec. 1):

``dangling-port``
    an edge references a node id that does not exist (includes the
    lowering's ``PortRef(-1)`` back-edge placeholder, which must never
    survive to a finished graph);
``unreachable``
    a node with no forward path from the ``source`` — none of its edge
    inputs can ever carry a token, so it can never fire (a firing-rule
    wedge waiting to happen);
``dead``
    a node with no path *to* any store in a graph that has stores —
    :func:`repro.dfg.lower.eliminate_dead` should have removed it, so
    its survival indicates the lowering lost track of liveness;
``carry-init-imm``
    a carry whose ``init`` input is an immediate: an always-available
    init lets the loop re-launch itself (the lowering materializes
    constants through region-triggered injects precisely to avoid this);
``carry-placeholder``
    a carry whose ``back``/``dec`` inputs were never patched after the
    loop body was lowered;
``steer-cadence``
    a steer whose decider or steered value is produced in a loop region
    *incomparable* with the steer's own (neither encloses the other in
    the loop-nesting tree). Token streams only cross between comparable
    regions — inward through carries/invariants/gates, outward through
    exit steers — so an edge between sibling loops means the two ends
    fire under unrelated cadences and the steer's input FIFOs drift:
    the classic token leak. A control steer (``ctlT``/``ctlF``/``ctlL``)
    carries the region it gates, even when the lowering first builds it
    inside a nested loop.

Every rule is *sound for the lowering's output*: the 13 Table-1
workloads and the fuzz corpus lint clean, and the tests build broken
graphs for each rule. The conformance oracle runs this pass over every
graph it checks, and :func:`lint_strict` raises
:class:`repro.errors.DFGError` on any finding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dfg.graph import DFG, PortRef
from repro.errors import DFGError


@dataclass(frozen=True)
class LintIssue:
    """One lint finding: a rule violation at a specific node."""

    rule: str
    nid: int
    message: str

    def describe(self) -> str:
        return f"[{self.rule}] node {self.nid}: {self.message}"


def _loop_ancestors(dfg: DFG, loop: int | None) -> set[int | None]:
    """``loop`` and every enclosing loop id (``None`` = top level)."""
    parents = getattr(dfg, "loops_parent", {})
    chain: set[int | None] = {loop}
    seen = 0
    while loop is not None and seen < len(parents) + 1:
        loop = parents.get(loop)
        chain.add(loop)
        seen += 1
    return chain


def lint_dfg(dfg: DFG) -> list[LintIssue]:
    """Run every lint rule over ``dfg``; returns all findings (no raise)."""
    issues: list[LintIssue] = []
    issues += _lint_dangling(dfg)
    # Downstream rules assume edges resolve; a graph with dangling ports
    # is reported on that alone.
    if issues:
        return issues
    issues += _lint_unreachable(dfg)
    issues += _lint_dead(dfg)
    issues += _lint_carries(dfg)
    issues += _lint_steer_cadence(dfg)
    return issues


def lint_strict(dfg: DFG) -> None:
    """Raise :class:`DFGError` listing every finding (no-op when clean)."""
    issues = lint_dfg(dfg)
    if issues:
        listing = "\n".join(f"  {issue.describe()}" for issue in issues)
        raise DFGError(
            f"DFG lint: {len(issues)} issue(s) in {dfg.name!r}:\n{listing}"
        )


# -- rules ------------------------------------------------------------------


def _lint_dangling(dfg: DFG) -> list[LintIssue]:
    issues = []
    for node in dfg.nodes.values():
        for index, inp in enumerate(node.inputs):
            if isinstance(inp, PortRef) and inp.src not in dfg.nodes:
                detail = (
                    "unpatched back-edge placeholder"
                    if inp.src == -1
                    else f"edge from nonexistent node {inp.src}"
                )
                issues.append(
                    LintIssue(
                        "dangling-port",
                        node.nid,
                        f"({node.op} {node.tag!r}) port "
                        f"{node.port_name(index)}: {detail}",
                    )
                )
    return issues


def _lint_unreachable(dfg: DFG) -> list[LintIssue]:
    sources = [n.nid for n in dfg.nodes.values() if n.op == "source"]
    consumers = dfg.consumers()
    reached: set[int] = set()
    stack = list(sources)
    while stack:
        nid = stack.pop()
        if nid in reached:
            continue
        reached.add(nid)
        for consumer, _index in consumers[nid]:
            if consumer not in reached:
                stack.append(consumer)
    issues = []
    for node in dfg.nodes.values():
        if node.nid not in reached:
            issues.append(
                LintIssue(
                    "unreachable",
                    node.nid,
                    f"({node.op} {node.tag!r}) has no forward path from "
                    "the source; it can never fire",
                )
            )
    return issues


def _lint_dead(dfg: DFG) -> list[LintIssue]:
    stores = [n.nid for n in dfg.nodes.values() if n.op == "store"]
    if not stores:
        return []
    live: set[int] = set()
    stack = list(stores)
    while stack:
        nid = stack.pop()
        if nid in live:
            continue
        live.add(nid)
        for inp in dfg.nodes[nid].inputs:
            if isinstance(inp, PortRef) and inp.src not in live:
                stack.append(inp.src)
    issues = []
    for node in dfg.nodes.values():
        if node.nid not in live:
            issues.append(
                LintIssue(
                    "dead",
                    node.nid,
                    f"({node.op} {node.tag!r}) has no path to any store; "
                    "eliminate_dead should have removed it",
                )
            )
    return issues


def _lint_carries(dfg: DFG) -> list[LintIssue]:
    issues = []
    for node in dfg.nodes.values():
        if node.op != "carry":
            continue
        init, back, dec = node.inputs
        if not isinstance(init, PortRef):
            issues.append(
                LintIssue(
                    "carry-init-imm",
                    node.nid,
                    f"({node.tag!r}) init is an immediate; an "
                    "always-available init re-launches the loop "
                    "(materialize constants through a region-triggered "
                    "inject instead)",
                )
            )
        for name, inp in (("back", back), ("dec", dec)):
            if isinstance(inp, PortRef) and inp.src == -1:
                issues.append(
                    LintIssue(
                        "carry-placeholder",
                        node.nid,
                        f"({node.tag!r}) {name} port still holds the "
                        "lowering's back-edge placeholder",
                    )
                )
    return issues


def _lint_steer_cadence(dfg: DFG) -> list[LintIssue]:
    issues = []
    for node in dfg.nodes.values():
        if node.op != "steer":
            continue
        loop = node.attrs.get("loop")
        ancestors = _loop_ancestors(dfg, loop)
        for port, inp in (("dec", node.inputs[0]), ("val", node.inputs[1])):
            if not isinstance(inp, PortRef):
                continue
            src_loop = dfg.nodes[inp.src].attrs.get("loop")
            comparable = (
                src_loop in ancestors
                or loop in _loop_ancestors(dfg, src_loop)
            )
            if not comparable:
                issues.append(
                    LintIssue(
                        "steer-cadence",
                        node.nid,
                        f"({node.tag!r}) {port} input produced in loop "
                        f"region {src_loop!r}, incomparable with the "
                        f"steer's region {loop!r}: sibling regions fire "
                        "under unrelated cadences",
                    )
                )
    return issues
