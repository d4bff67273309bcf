"""Unit tests for critical-load analysis."""

from repro.core.criticality import (
    analyze_criticality,
    dependence_graph,
    format_report,
    leaf_loops,
)
from repro.dfg.lower import lower_kernel

from kernels import zoo_instance


def classes(dfg):
    report = analyze_criticality(dfg)
    return report


def test_stream_join_loads_are_class_a():
    kernel, _, _ = zoo_instance("join")
    dfg = lower_kernel(kernel)
    report = classes(dfg)
    a_arrays = {
        dfg.nodes[n].attrs["array"] for n in report.class_a
    }
    assert a_arrays == {"A", "B"}
    assert len(report.class_a) == 2


def test_pointer_chase_load_is_class_a():
    kernel, _, _ = zoo_instance("chase")
    dfg = lower_kernel(kernel)
    report = classes(dfg)
    assert len(report.class_a) == 1
    assert dfg.nodes[report.class_a[0]].attrs["array"] == "next"


def test_dense_loop_loads_are_class_b():
    kernel, _, _ = zoo_instance("dot")
    dfg = lower_kernel(kernel)
    report = classes(dfg)
    assert not report.class_a
    loads = [n for n in dfg.nodes.values() if n.op == "load"]
    assert {n.nid for n in loads} <= set(report.class_b)


def test_top_level_store_is_class_c():
    kernel, _, _ = zoo_instance("dot")
    dfg = lower_kernel(kernel)
    report = classes(dfg)
    stores = [n.nid for n in dfg.nodes.values() if n.op == "store"]
    assert set(stores) <= set(report.class_c)


def test_in_place_update_load_is_on_ordering_recurrence():
    # The in-place update chains load -> store -> next load through the
    # memory-ordering token: the load sits on a loop recurrence "added by
    # effcc for memory ordering", exactly the paper's jacobi2d case, so
    # it is class A; the store is inner-loop class B.
    kernel, _, _ = zoo_instance("nested")
    dfg = lower_kernel(kernel)
    report = classes(dfg)
    loads = [n.nid for n in dfg.nodes.values() if n.op == "load"]
    stores = [n.nid for n in dfg.nodes.values() if n.op == "store"]
    assert set(loads) <= set(report.class_a)
    assert set(stores) <= set(report.class_b)


def test_read_only_nested_loop_loads_are_class_b():
    # Without an in-place update there is no ordering recurrence: loads
    # in the leaf loop are class B.
    from repro.ir.builder import KernelBuilder

    b = KernelBuilder("ro", params=["n", "m"])
    src = b.array("S", 16)
    dst = b.array("D", 16)
    with b.for_("i", 0, b.p.n) as i:
        with b.for_("j", 0, b.p.m) as j:
            dst.store(i * b.p.m + j, src.load(i * b.p.m + j) * 2)
    dfg = lower_kernel(b.build())
    report = classes(dfg)
    assert not report.class_a
    loads = [n.nid for n in dfg.nodes.values() if n.op == "load"]
    assert set(loads) <= set(report.class_b)


def test_nodes_annotated_in_place():
    kernel, _, _ = zoo_instance("join")
    dfg = lower_kernel(kernel)
    report = analyze_criticality(dfg)
    for nid in report.class_a:
        assert dfg.nodes[nid].criticality == "A"
    for nid in report.class_b:
        assert dfg.nodes[nid].criticality == "B"


def test_recurrences_contain_carries():
    kernel, _, _ = zoo_instance("join")
    dfg = lower_kernel(kernel)
    report = analyze_criticality(dfg)
    assert report.recurrences
    for component in report.recurrences:
        assert any(dfg.nodes[n].op == "carry" for n in component)


def test_leaf_loops_identified():
    kernel, _, _ = zoo_instance("nested")
    dfg = lower_kernel(kernel)
    leaves = leaf_loops(dfg)
    assert len(leaves) == 1


def test_dependence_graph_mirrors_edges():
    kernel, _, _ = zoo_instance("dot")
    dfg = lower_kernel(kernel)
    graph = dependence_graph(dfg)
    assert set(graph) == set(dfg.nodes)
    assert sorted(
        (src, dst) for src, succs in graph.items() for dst in succs
    ) == sorted((src, dst) for src, dst, _ in dfg.edge_list())


def test_deep_chain_does_not_recurse():
    """A 5000-node dependence chain closed by one carry: a recursive SCC
    would blow the interpreter stack; the recurrence is still found."""
    import sys

    from repro.dfg.graph import DFG, ImmRef, PortRef

    depth = 5 * sys.getrecursionlimit()
    dfg = DFG("chain")
    dfg.declare_array("a", 8)
    carry = dfg.add("carry", [ImmRef("const", 0)])
    load = dfg.add("load", [PortRef(carry)], array="a")
    tail = load
    for _ in range(depth):
        tail = dfg.add("unop", [PortRef(tail)], opname="neg")
    dfg.nodes[carry].inputs.append(PortRef(tail))
    stray = dfg.add("load", [ImmRef("const", 0)], array="a")

    report = analyze_criticality(dfg)
    assert report.recurrences == [frozenset(range(carry, tail + 1))]
    assert report.class_a == [load]
    assert report.class_c == [stray]


def test_recurrences_ordered_by_min_node_id():
    kernel, _, _ = zoo_instance("join")
    report = analyze_criticality(lower_kernel(kernel))
    assert len(report.recurrences) > 1
    firsts = [min(component) for component in report.recurrences]
    assert firsts == sorted(firsts)


def test_counts_and_klass_helpers():
    kernel, _, _ = zoo_instance("join")
    dfg = lower_kernel(kernel)
    report = analyze_criticality(dfg)
    counts = report.counts()
    assert counts["A"] == 2
    for nid in report.class_a:
        assert report.klass(nid) == "A"


def test_format_report_mentions_classes():
    kernel, _, _ = zoo_instance("join")
    dfg = lower_kernel(kernel)
    report = analyze_criticality(dfg)
    text = format_report(dfg, report)
    assert "class A" in text and "recurrences" in text
