"""Critical-load analysis (paper Sec. 5, "Identifying critical loads").

effcc's heuristics categorize memory instructions as:

* class **A** — *critical* loads that contribute to long initiation
  intervals: loads on a loop-governing recurrence. In the DFG these are
  exactly the loads inside a strongly connected component that also
  contains a carry node — the load's value feeds, through the dependence
  cycle, the computation that launches the next iteration (e.g. the
  ``nzIdxA[iA]`` load of a stream-join).
* class **B** — *inner-loop* memory instructions: loads and stores in a
  leaf (innermost) loop. They execute frequently but do not gate the next
  iteration.
* class **C** — everything else.

Class A is more critical than B: a long class-A load blocks *all*
dependent work, while class-B latency is pipelined away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dfg.graph import DFG, PortRef


@dataclass
class CriticalityReport:
    """Per-class memory-node ids, plus recurrence metadata."""

    class_a: list[int] = field(default_factory=list)
    class_b: list[int] = field(default_factory=list)
    class_c: list[int] = field(default_factory=list)
    #: Non-trivial SCCs containing at least one carry (recurrences),
    #: ordered by smallest member node id.
    recurrences: list[frozenset[int]] = field(default_factory=list)

    def klass(self, nid: int) -> str:
        if nid in self.class_a:
            return "A"
        if nid in self.class_b:
            return "B"
        return "C"

    def counts(self) -> dict[str, int]:
        return {
            "A": len(self.class_a),
            "B": len(self.class_b),
            "C": len(self.class_c),
        }


def dependence_graph(dfg: DFG) -> dict[int, list[int]]:
    """The DFG's token-dependence digraph (port edges only).

    ``{nid: [successor nid, ...]}`` with one entry per port edge, so a
    consumer reading two ports of one producer appears twice.
    """
    graph: dict[int, list[int]] = {nid: [] for nid in dfg.nodes}
    for node in dfg.nodes.values():
        for inp in node.inputs:
            if isinstance(inp, PortRef):
                graph[inp.src].append(node.nid)
    return graph


def strongly_connected_components(
    graph: dict[int, list[int]],
) -> list[set[int]]:
    """Tarjan's SCC algorithm over a successor dict.

    Iterative (an explicit DFS stack of ``(node, successor iterator)``
    frames): lowered kernels chain thousands of nodes, far past the
    interpreter's recursion limit.
    """
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[set[int]] = []
    for root in graph:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        frames = [(root, iter(graph[root]))]
        while frames:
            node, successors = frames[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    frames.append((succ, iter(graph[succ])))
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def leaf_loops(dfg: DFG) -> set[int]:
    """Loop ids with no nested loops."""
    parents = getattr(dfg, "loops_parent", {})
    loops = set(parents)
    with_children = {p for p in parents.values() if p is not None}
    return loops - with_children


def analyze_criticality(dfg: DFG) -> CriticalityReport:
    """Classify memory nodes and annotate ``node.criticality`` in place."""
    graph = dependence_graph(dfg)
    report = CriticalityReport()

    recurrence_members: set[int] = set()
    for component in strongly_connected_components(graph):
        if len(component) < 2:
            continue
        has_carry = any(dfg.nodes[n].op == "carry" for n in component)
        if has_carry:
            report.recurrences.append(frozenset(component))
            recurrence_members |= component
    report.recurrences.sort(key=min)

    leaves = leaf_loops(dfg)
    for node in dfg.nodes.values():
        if not node.is_memory():
            continue
        if node.op == "load" and node.nid in recurrence_members:
            node.criticality = "A"
            report.class_a.append(node.nid)
        elif node.attrs.get("loop") in leaves:
            node.criticality = "B"
            report.class_b.append(node.nid)
        else:
            node.criticality = "C"
            report.class_c.append(node.nid)
    report.class_a.sort()
    report.class_b.sort()
    report.class_c.sort()
    return report


@dataclass
class ValidationRow:
    """Static-vs-dynamic agreement for one workload and one class set.

    The static classifier (class A, or A∪B) predicts which memory nodes
    are critical; the measured ground truth is the dynamic criticality
    from :mod:`repro.obs.critpath` (fraction of the critical path spent
    in each node's memory round-trips). Standard retrieval framing:
    *precision* = of the statically flagged nodes, how many were
    dynamically critical; *recall* = of the dynamically critical nodes,
    how many the static heuristic flagged.
    """

    workload: str
    classes: str
    predicted: int
    actual: int
    true_positive: int

    @property
    def precision(self) -> float | None:
        if not self.predicted:
            return None
        return self.true_positive / self.predicted

    @property
    def recall(self) -> float | None:
        if not self.actual:
            return None
        return self.true_positive / self.actual


def validate_against_dynamic(
    workload: str,
    report: CriticalityReport,
    dynamic: dict[int, float],
    threshold: float = 0.01,
) -> list[ValidationRow]:
    """Score the static class-A (and A∪B) sets against measured
    criticality.

    ``dynamic`` maps memory nid -> fraction of the critical path through
    that node (see
    :meth:`repro.obs.critpath.CriticalPathRecorder.dynamic_criticality`);
    a node is *dynamically critical* when its fraction reaches
    ``threshold``. Returns one row for class ``A`` and one for ``A+B``.
    """
    actual = {nid for nid, frac in dynamic.items() if frac >= threshold}
    rows = []
    for classes, predicted in (
        ("A", set(report.class_a)),
        ("A+B", set(report.class_a) | set(report.class_b)),
    ):
        rows.append(
            ValidationRow(
                workload=workload,
                classes=classes,
                predicted=len(predicted),
                actual=len(actual),
                true_positive=len(predicted & actual),
            )
        )
    return rows


def format_report(dfg: DFG, report: CriticalityReport) -> str:
    """Human-readable criticality summary (used by examples and docs)."""
    lines = [f"criticality report for {dfg.name!r}:"]
    for klass, nids in (
        ("A (recurrence-critical loads)", report.class_a),
        ("B (inner-loop memory ops)", report.class_b),
        ("C (other memory ops)", report.class_c),
    ):
        lines.append(f"  class {klass}: {len(nids)}")
        for nid in nids[:16]:
            node = dfg.nodes[nid]
            lines.append(
                f"    node {nid:4d} {node.op:5s} "
                f"{node.attrs.get('array', ''):12s} tag={node.tag!r}"
            )
        if len(nids) > 16:
            lines.append(f"    ... and {len(nids) - 16} more")
    lines.append(f"  recurrences: {len(report.recurrences)}")
    return "\n".join(lines)
