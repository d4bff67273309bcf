"""Independent verifier of placed and routed PnR (``repro.check.pnr``).

The placer, the router and static timing are guarded by equivalence
tests — fast path against reference path — which are blind to anything
both share. This module re-derives what a routed
:class:`~repro.pnr.result.CompiledKernel` claims from the artifact alone
and shares no code with ``pnr/place.py``, ``pnr/route.py``,
``pnr/timing.py`` or the channel graphs of ``arch/noc.py``: a channel key
``((x, y), (x, y), kind)`` says where it runs and how much wire it is,
``ArchParams`` says how many nets a kind may carry, and the DFG's netlist
says which cells a net must join.

:func:`verify_placement` checks that exactly the DFG's nodes are placed,
one per PE, each on a PE that supports its op, memory ops on LS PEs (a
node's NUPEA domain is read off its PE, so no placement can disagree
with it). :func:`verify_routing` checks, per net, that its channels form
a tree rooted at the source's cell — no cell entered twice, no channel
the root does not reach — touching every sink's cell, and that
``sink_hops`` is the wire summed along that tree; per channel, that
occupancy is within capacity under the architecture's ``noc_model``; and
that ``max_hops``, the path delay and ``clock_divider`` follow from the
hops. A wrong artifact is refused by a
typed error naming the node, net, channel or field. The errors derive
from :class:`~repro.errors.PnRVerifyError`, which the placer's and
router's ``check`` modes raise as well, and which is not a
:class:`~repro.errors.PnRError`: the parallelism search reads that as
"does not fit" and backs off, which would hide a wrong artifact behind a
smaller right one.
"""

from __future__ import annotations

import math

from repro.arch.params import ArchParams
from repro.errors import PnRVerifyError
from repro.pnr.netlist import build_netlist


class PlacementCoverageError(PnRVerifyError):
    """The placement places a node the DFG lacks, or misses one it has."""


class SlotConflictError(PnRVerifyError):
    """Two nodes share one PE, or a node sits where the fabric has none."""


class UnsupportedOpError(PnRVerifyError):
    """A node sits on a PE that cannot execute its op."""


class LoadStorePlacementError(PnRVerifyError):
    """A memory op sits off the fabric's load-store PEs."""


class NetTreeError(PnRVerifyError):
    """A net's channels are not a tree from its source to every sink."""


class ChannelCapacityError(PnRVerifyError):
    """A channel does not exist on this NoC or carries too many nets."""


class HopCountError(PnRVerifyError):
    """A recorded sink hop count is not the wire along the net's tree."""


class DerivedFieldError(PnRVerifyError):
    """A summary or timing field does not follow from the routed trees."""


#: kind -> (sorted |dx|, |dy| of one segment, wire units).
_GEOMETRY = {
    "cardinal": ((0, 1), 1.0),
    "diagonal": ((2, 2), 2.0),
    "skip": ((0, 2), 2.0),
}


def _capacities(arch: ArchParams) -> dict[str, int]:
    """Nets one channel of each kind may carry under ``arch``."""
    if arch.noc_model == "simple":
        return {"cardinal": arch.noc_tracks}
    per_kind = max(1, round(arch.noc_tracks / 3))
    return dict.fromkeys(_GEOMETRY, per_kind)


def _wire(channel, capacities, fabric) -> float:
    """Wire units of ``channel``, or refuse it as not part of the NoC."""
    (ax, ay), (bx, by), kind = channel
    span = tuple(sorted((abs(ax - bx), abs(ay - by))))
    inside = 0 <= bx < fabric.cols and 0 <= by < fabric.rows
    if kind not in capacities or _GEOMETRY[kind][0] != span or not inside:
        raise ChannelCapacityError(
            f"channel {channel} does not exist on this NoC", channel=channel
        )
    return _GEOMETRY[kind][1]


def _tree_depths(index, root, channels, capacities, fabric) -> dict:
    """Cell -> wire units from ``root`` along the tree ``channels`` form."""
    entered: dict = {}
    leaving: dict = {}
    for channel in channels:
        src, dst, _ = channel
        if dst == root or dst in entered:
            raise NetTreeError(
                f"net {index}: cell {dst} is entered twice "
                f"(by {channel} and {entered.get(dst, 'as the source')})",
                net=index, channel=channel,
            )
        entered[dst] = channel
        leaving.setdefault(src, []).append(channel)
    depth = {root: 0.0}
    frontier = [root]
    while frontier:
        cell = frontier.pop()
        for channel in leaving.get(cell, ()):
            dst = channel[1]
            depth[dst] = depth[cell] + _wire(channel, capacities, fabric)
            frontier.append(dst)
    for dst, channel in entered.items():
        if dst not in depth:
            raise NetTreeError(
                f"net {index}: channel {channel} is not connected to the "
                f"source's cell {root}",
                net=index, channel=channel,
            )
    return depth


def verify_placement(compiled, arch: ArchParams) -> None:
    """Raise a :class:`PnRVerifyError` unless ``compiled``'s placement is
    legal for its DFG on its fabric (``arch`` is unused, kept for
    symmetry with :func:`verify_routing`: no knob constrains a placement)."""
    dfg, placement, fabric = compiled.dfg, compiled.placement, compiled.fabric
    if set(placement) != set(dfg.nodes):
        odd = sorted(set(placement) ^ set(dfg.nodes))[0]
        what = "placed, but not in the DFG" if odd in placement else "unplaced"
        raise PlacementCoverageError(f"node {odd}: {what}", node=odd)
    holder: dict = {}
    for nid in sorted(placement):
        slot, node = placement[nid], dfg.nodes[nid]
        pe = fabric.pes.get(slot)
        if pe is None or slot in holder:
            held = f"node {holder[slot]}" if slot in holder else "no PE"
            raise SlotConflictError(
                f"node {nid}: slot {slot} holds {held}", node=nid
            )
        holder[slot] = nid
        if node.is_memory() and not pe.is_ls:
            raise LoadStorePlacementError(
                f"node {nid}: {node.op} on {pe.label()}, not an LS PE",
                node=nid,
            )
        if not pe.supports(node.op):
            raise UnsupportedOpError(
                f"node {nid}: {pe.label()} does not support {node.op}",
                node=nid,
            )


def verify_routing(compiled, arch: ArchParams) -> None:
    """Raise a :class:`PnRVerifyError` unless ``compiled``'s routing and
    timing are consistent with its placement, its DFG and ``arch``."""
    routing, timing = compiled.routing, compiled.timing
    placement, fabric = compiled.placement, compiled.fabric
    capacities = _capacities(arch)
    nets = build_netlist(compiled.dfg).nets
    routable = {}
    for index, net in enumerate(nets):
        sinks = [s for s in net.sinks if s != net.src]
        if sinks:
            routable[index] = sinks
    for name in ("net_channels", "sink_hops"):
        table = getattr(routing, name)
        if set(table) != set(routable):
            odd = sorted(set(table) ^ set(routable))[0]
            raise NetTreeError(
                f"net {odd}: routing.{name} and the netlist disagree on "
                "whether it is routed",
                net=odd, field=name,
            )

    occupancy: dict = {}
    longest = 0.0
    for index, sinks in routable.items():
        channels = routing.net_channels[index]
        depth = _tree_depths(
            index, placement[nets[index].src], channels, capacities, fabric
        )
        for channel in channels:
            occupancy[channel] = occupancy.get(channel, 0) + 1
        hops = routing.sink_hops[index]
        if set(hops) != set(sinks):
            raise HopCountError(
                f"net {index}: sink_hops names sinks {sorted(hops)}, the "
                f"netlist {sorted(sinks)}",
                net=index, field="sink_hops",
            )
        for sink in sinks:
            cell = placement[sink]
            if cell not in depth:
                raise NetTreeError(
                    f"net {index}: no channel reaches sink {sink}'s cell "
                    f"{cell} (severed)",
                    net=index,
                )
            if hops[sink] != depth[cell]:
                raise HopCountError(
                    f"net {index}: sink_hops[{sink}] is {hops[sink]}, the "
                    f"tree's wire to {cell} is {depth[cell]}",
                    net=index, field="sink_hops",
                )
            longest = max(longest, depth[cell])

    for channel, nets_on in occupancy.items():
        if nets_on > capacities[channel[2]]:
            raise ChannelCapacityError(
                f"channel {channel} carries {nets_on} nets, capacity "
                f"{capacities[channel[2]]}",
                channel=channel,
            )

    units = arch.timing.pe_logic_units + arch.timing.hop_units * longest
    divider = max(1, math.ceil(units / arch.timing.system_period_units))
    for owner, field, have, want in (
        ("routing", "total_channel_use", routing.total_channel_use,
         sum(occupancy.values())),
        ("routing", "max_hops", routing.max_hops, longest),
        ("timing", "max_hops", timing.max_hops, longest),
        ("timing", "max_path_delay_units", timing.max_path_delay_units, units),
        ("timing", "clock_divider", timing.clock_divider, divider),
    ):
        if have != want:
            raise DerivedFieldError(
                f"{owner}.{field} is {have}; the routed trees give {want}",
                field=field,
            )
