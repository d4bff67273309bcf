"""Global routing with congestion negotiation (PathFinder-style).

Each net (one producer, many sinks) is routed as a tree over the data
NoC's channel graph; sinks of the same net share segments for free.
Channels have per-segment track capacities; the router iterates with
growing present-congestion and history penalties until no channel is over
capacity, or raises :class:`RoutingError` — the signal effcc's parallelism
search uses to back off (Sec. 5).

The router is channel-model agnostic: it reads the flat tables every
graph of :mod:`repro.arch.noc` carries (integer cells, channel ids,
``cells`` / ``cap`` / ``cardinal`` / ``lower_x`` / ``lower_y``), so the same
negotiation loop routes the uniform mesh and the heterogeneous
cardinal/diagonal/skip track graph, and keeps its own ``usage`` and
``history`` as lists by channel id. Coordinates and channel keys appear
only in the :class:`RoutingResult` it hands back. Path *lengths* are wire
units (a two-cell diagonal segment costs two units but one switch), which
is what static timing consumes.

Each sink's search is a Dijkstra from the whole tree built so far, pruned
by a bound that cannot change its answer (:func:`_route_net`; the
argument is in docs/INTERNALS.md §4, "The bounded search").

There is one negotiation loop, a full reroute per pass. Its reference
is its own ``check`` mode, which repeats every bounded search unbounded
and raises unless the two agree.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro.errors import PnRVerifyError, RoutingError
from repro.pnr.netlist import Netlist, build_netlist
from repro.pnr.place import Placement


@dataclass
class RoutingResult:
    """Routed trees plus congestion/timing summaries."""

    #: net index -> sink nid -> wire units from the net's source.
    sink_hops: dict[int, dict[int, float]] = field(default_factory=dict)
    #: net index -> set of channel keys the net's tree occupies.
    net_channels: dict[int, set] = field(default_factory=dict)
    #: Longest source->sink path in wire units (float: diagonal/skip
    #: tracks cost fractional switch-equivalents per unit).
    max_hops: float = 0.0
    iterations: int = 0
    total_channel_use: int = 0
    #: Nets routed across all negotiation passes: every routable net in
    #: every pass, so ``len(routable) * iterations``.
    nets_rerouted: int = 0
    wall_s: float = field(default=0.0, compare=False)

    def wirelength(self) -> int:
        return sum(len(c) for c in self.net_channels.values())


def routed_edges(dfg, routing: RoutingResult) -> dict[tuple[int, int], tuple]:
    """``(producer, consumer) -> (hops, channels)`` for every DFG edge:
    the wire units the router recorded to that sink (None if it recorded
    none) and the sorted channel keys of the producing net's tree."""
    out: dict[tuple[int, int], tuple] = {}
    for index, net in enumerate(build_netlist(dfg).nets):
        hops = routing.sink_hops.get(index, {})
        channels = tuple(sorted(routing.net_channels.get(index, ())))
        for sink in net.sinks:
            out[(net.src, sink)] = (hops.get(sink), channels)
    return out


def route_design(
    netlist: Netlist,
    placement: Placement,
    channels,
    max_iters: int = 10,
    check: bool = False,
) -> RoutingResult:
    """Route every net within track capacity or raise RoutingError.

    Every negotiation pass rips up and reroutes every net, in net order,
    against the ``usage`` the nets before it left (PathFinder). Passes
    end when no channel is over capacity; between passes the present
    factor doubles and every overused channel's history grows by its
    overflow.

    No pass can safely skip a net as clean: pass 2 follows a pass in
    which every channel any tree holds changed occupancy, and each later
    pass follows one that ended with an overused channel, whose first
    rip-up in scan order vacates a channel priced for congestion and so
    may attract any net. So ``nets_rerouted`` is ``len(routable nets) *
    iterations``.

    ``check=True`` repeats every net's bounded search with an infinite
    bound (a bounded search that finds no path counts as differing), and
    re-derives channel usage from the trees after every pass; either
    disagreement raises :class:`~repro.errors.PnRVerifyError` naming the
    net or the field: a wrong answer, never a design that does not fit.
    Checked and unchecked calls return equal results.
    """
    if max_iters < 1:
        raise RoutingError(
            f"route_design needs max_iters >= 1, got {max_iters}"
        )
    t0 = time.perf_counter()
    rows = channels.fabric.rows
    cap = channels.cap
    usage = [0] * len(cap)
    history = [0.0] * len(cap)
    routes: dict[int, set[int]] = {}
    hops: dict[int, dict[int, float]] = {}

    # Per routable net, its source cell and its ``(sink, cell)`` pins,
    # nearest the source first: the order the tree grows in.
    loc = placement.loc
    cell_of = {nid: x * rows + y for nid, (x, y) in loc.items()}
    pins: dict[int, tuple[int, list[tuple[int, int]]]] = {}
    for index, net in enumerate(netlist.nets):
        sinks = [s for s in net.sinks if s != net.src]
        if sinks:
            sx, sy = loc[net.src]
            sinks.sort(
                key=lambda s: abs(loc[s][0] - sx) + abs(loc[s][1] - sy)
            )
            pins[index] = cell_of[net.src], [(s, cell_of[s]) for s in sinks]

    present_factor = 0.5
    for iteration in range(1, max_iters + 1):
        for index, (src, sinks) in pins.items():
            for channel in routes.get(index, ()):
                usage[channel] -= 1
            net = (index, src, sinks, usage, history, present_factor)
            if check:
                tree, hops[index] = _checked_route(channels, net)
            else:
                tree, hops[index] = _route_net(channels, *net)
            routes[index] = tree
            for channel in tree:
                usage[channel] += 1
        if check:
            _check_usage(usage, routes)
        overused = [c for c, use in enumerate(usage) if use > cap[c]]
        if not overused:
            keys = channels.keys
            return RoutingResult(
                sink_hops=hops,
                net_channels={
                    index: {keys[c] for c in tree}
                    for index, tree in routes.items()
                },
                max_hops=max(
                    (h for per_net in hops.values() for h in per_net.values()),
                    default=0.0,
                ),
                iterations=iteration,
                total_channel_use=sum(usage),
                nets_rerouted=len(pins) * iteration,
                wall_s=time.perf_counter() - t0,
            )
        for channel in overused:
            history[channel] += usage[channel] - cap[channel]
        present_factor *= 2.0
    raise RoutingError(
        f"unroutable: {len(overused)} channels over capacity after "
        f"{max_iters} iterations"
    )


def _checked_route(channels, net) -> tuple[set[int], dict[int, float]]:
    """:func:`_route_net`, held to the same search with no bound."""
    try:
        routed = _route_net(channels, *net)
    except RoutingError:
        routed = None  # a sound bound always keeps the priced walk
    if routed != _route_net(channels, *net, bounded=False):
        raise PnRVerifyError(
            f"net {net[0]}: the bounded search and the unbounded one "
            "route it differently",
            net=net[0],
        )
    return routed


def _check_usage(usage: list[int], routes: dict[int, set[int]]) -> None:
    """Assert incrementally maintained usage matches a fresh recount."""
    recount = [0] * len(usage)
    for tree in routes.values():
        for channel in tree:
            recount[channel] += 1
    if recount != usage:
        diff = [
            (channel, (have, want))
            for channel, (have, want) in enumerate(zip(usage, recount))
            if have != want
        ]
        raise PnRVerifyError(
            f"usage accounting drift on {len(diff)} channels: {diff[:5]}",
            field="usage",
        )


def _route_net(
    channels,
    index: int,
    src: int,
    sinks: list[tuple[int, int]],
    usage: list[int],
    history: list[float],
    present_factor: float,
    bounded: bool = True,
) -> tuple[set[int], dict[int, float]]:
    """Grow one net's tree sink by sink; ``(channel ids, sink hops)``.

    Each sink is reached by the cheapest path from any cell of the tree
    so far, found by Dijkstra over ``(cost, cell)``. Claiming a channel
    costs ``wire + present_factor * max(0, use + 1 - cap) + history``.

    The search is bounded: one concrete path is priced first — the
    cardinal x-then-y walk from the tree cell nearest the sink — and a
    relaxation whose cost so far plus the graph's lower bound to the sink
    exceeds that price is dropped, as is a tree cell that far away. This
    cannot change the tree (INTERNALS §4): prices hold still for the
    whole call, the lower bound is consistent, so a kept cell keeps every
    cheapest predecessor and is popped at the same cost in the same
    order; ``==`` the bound is kept, so ties are as they were; and every
    operand is a short binary fraction, so the sums compared are exact.
    ``bounded=False`` is the same search with an infinite bound.
    """
    cells = channels.cells
    cap = channels.cap
    cardinal = channels.cardinal
    rows = channels.fabric.rows
    heappop = heapq.heappop
    heappush = heapq.heappush
    inf = float("inf")

    tree_channels: set[int] = set()
    depth: dict[int, float] = {src: 0.0}
    sink_hops: dict[int, float] = {}
    for sink, target in sinks:
        if target in depth:
            sink_hops[sink] = depth[target]
            continue
        column, row = divmod(target, rows)
        lower_x, lower_y = channels.lower_x[column], channels.lower_y[row]
        bound = inf
        if bounded:
            bound = 0.0
            cell = min(depth, key=lambda c: lower_x[c] + lower_y[c])
            while cell != target:
                if cell // rows != column:
                    step = cell + rows if cell // rows < column else cell - rows
                else:
                    step = cell + 1 if cell < target else cell - 1
                _, channel, wire = cardinal[cell][step]
                over = usage[channel] + 1 - cap[channel]
                bound += (
                    wire + present_factor * max(over, 0) + history[channel]
                )
                cell = step
        dist = [inf] * len(cells)
        for cell in depth:
            dist[cell] = 0.0
        came: list = [None] * len(cells)
        heap = [
            (0.0, cell)
            for cell in depth
            if lower_x[cell] + lower_y[cell] <= bound
        ]
        heapq.heapify(heap)
        while heap:
            d, cell = heappop(heap)
            if d > dist[cell]:
                continue  # a cheaper entry for this cell was popped first
            if cell == target:
                break
            for edge in cells[cell]:
                neighbor, channel, wire = edge
                # Adding ``present_factor * 0`` is a bitwise no-op, so
                # the uncongested fast path skips the multiply outright.
                over = usage[channel] + 1 - cap[channel]
                if over > 0:
                    nd = d + (
                        wire + present_factor * over + history[channel]
                    )
                else:
                    nd = d + (wire + history[channel])
                if (
                    nd < dist[neighbor]
                    and nd + lower_x[neighbor] + lower_y[neighbor] <= bound
                ):
                    dist[neighbor] = nd
                    came[neighbor] = cell, edge
                    heappush(heap, (nd, neighbor))
        else:
            raise RoutingError(
                f"net {index}: no path {divmod(src, rows)} -> "
                f"{divmod(target, rows)}"
            )
        # Walk back to the existing tree, claiming channels.
        path = []
        cell = target
        while cell not in depth:
            cell, edge = came[cell]
            path.append(edge)
        reached = depth[cell]
        for cell, channel, wire in reversed(path):
            tree_channels.add(channel)
            reached += wire
            depth[cell] = reached
        sink_hops[sink] = depth[target]
    return tree_channels, sink_hops
