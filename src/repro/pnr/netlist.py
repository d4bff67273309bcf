"""Netlist view of a DFG for place-and-route.

PnR works on *cells* (DFG nodes, one per PE) and *nets* (one per producer,
fanning out to every consumer — a multicast on the statically routed data
NoC, so sinks of one net may share channel segments).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dfg.graph import DFG, PortRef


@dataclass(frozen=True)
class Net:
    """One producer and its sinks (consumer node ids, deduplicated)."""

    src: int
    sinks: tuple[int, ...]


@dataclass
class Netlist:
    """Cells and nets extracted from a DFG."""

    dfg: DFG
    cells: list[int] = field(default_factory=list)
    nets: list[Net] = field(default_factory=list)
    #: cell -> indices of nets it participates in (as source or sink).
    nets_of: dict[int, list[int]] = field(default_factory=dict)
    #: Anneal tables derived from ``cells``/``nets``
    #: (:class:`repro.pnr.place.NetlistTables`), built by the first anneal
    #: on this netlist and shared by every later one. They die with the
    #: netlist.
    place_tables: object = field(default=None, repr=False, compare=False)


def build_netlist(dfg: DFG) -> Netlist:
    """Extract the netlist (every node is a cell; fan-out grouped by net)."""
    netlist = Netlist(dfg)
    netlist.cells = sorted(dfg.nodes)
    sinks_of: dict[int, list[int]] = {}
    for node in dfg.nodes.values():
        seen: set[int] = set()
        for inp in node.inputs:
            if isinstance(inp, PortRef) and inp.src not in seen:
                seen.add(inp.src)
                sinks_of.setdefault(inp.src, []).append(node.nid)
    netlist.nets_of = {nid: [] for nid in netlist.cells}
    for src in sorted(sinks_of):
        index = len(netlist.nets)
        sinks = tuple(sorted(set(sinks_of[src])))
        netlist.nets.append(Net(src, sinks))
        netlist.nets_of[src].append(index)
        for sink in sinks:
            if sink != src:
                netlist.nets_of[sink].append(index)
    return netlist
