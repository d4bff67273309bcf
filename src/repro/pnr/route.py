"""Global routing with congestion negotiation (PathFinder-style).

Each net (one producer, many sinks) is routed as a tree over the data
NoC's channel graph; sinks of the same net share segments for free.
Channels have per-segment track capacities; the router iterates with
growing present-congestion and history penalties until no channel is over
capacity, or raises :class:`RoutingError` — the signal effcc's parallelism
search uses to back off (Sec. 5).

The router is channel-model agnostic: it consumes the
``edges_from``/``capacity`` interface of :mod:`repro.arch.noc`, so the
same negotiation loop routes the uniform mesh and the heterogeneous
cardinal/diagonal/skip track graph. Path *lengths* are wire units (a
two-cell diagonal segment costs two units but one switch), which is what
static timing consumes.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.pnr.netlist import Netlist
from repro.pnr.place import Placement

Coord = tuple[int, int]


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
    #: Total _route_net invocations across all negotiation iterations
    #: (== len(routable) * iterations for a full reroute).
    nets_rerouted: int = 0
    wall_s: float = field(default=0.0, compare=False)

    def wirelength(self) -> int:
        return sum(len(c) for c in self.net_channels.values())


def route_design(
    netlist: Netlist,
    placement: Placement,
    channels,
    max_iters: int = 10,
    incremental: bool = True,
    check: bool = False,
) -> RoutingResult:
    """Route every net within track capacity or raise RoutingError.

    With ``incremental=True`` (default), negotiation iterations after the
    first skip clean nets — but only when skipping is *provably* safe,
    so the result stays bit-identical to a full reroute
    (``incremental=False``, kept as the tests' reference; no caller in
    ``src/`` passes it). A skipped net would reproduce its old tree
    exactly iff its cost landscape changed by benign increases only:

    * Increases on channels *off* its tree can never flip its choice
      (alternatives only got pricier; its own path cost is unchanged).
    * Increases on its own tree (another net claiming a shared channel,
      the doubled present factor or a history bump on an overused
      channel) can — so a net is dirty when its tree intersects the
      previous pass's overused or occupancy-changed channels, or a
      channel a net rerouted *earlier in the same pass* (the in-order
      scan mirrors the full reroute's sequencing).
    * Any effective cost *decrease* — ripping a channel that was priced
      for congestion (usage >= capacity) — can attract an arbitrary
      net, no matter where its tree sits. That rip raises a flag which
      forces every later net in the pass, and the entire next pass, to
      reroute. In congestion-heavy passes this degenerates to a full
      reroute (soundness over savings); the skips concentrate in the
      almost-converged tail, where only lightly-loaded channels churn.

    ``check=True`` re-derives channel usage from the routed trees after
    every pass and raises if it disagrees with the incrementally
    maintained counts.
    """
    if max_iters < 1:
        raise RoutingError(
            f"route_design needs max_iters >= 1, got {max_iters}"
        )
    t0 = time.perf_counter()
    usage: dict = {}
    history: dict = {}
    routes: dict[int, set] = {}
    hops: dict[int, dict[int, float]] = {}
    # Capacities are static per channel graph; snapshotting them once
    # spares the Dijkstra relaxation a method call per edge.
    cap = {key: channels.capacity(key) for key in channels.channels()}

    routable = [
        index
        for index, net in enumerate(netlist.nets)
        if any(s != net.src for s in net.sinks)
    ]

    present_factor = 0.5
    rerouted = 0
    dirty: set = set()
    #: True while a congestion-priced channel has been vacated since the
    #: last full pass — clean nets may be attracted, so nothing skips.
    decreased = True  # iteration 1 routes everything
    for iteration in range(1, max_iters + 1):
        full_pass = decreased or not incremental
        decreased = False
        changed: set = set()
        for index in routable:
            old = routes.get(index)
            if not full_pass and not decreased:
                if not (old & dirty or old & changed):
                    continue
            if old:
                for channel in old:
                    if usage[channel] >= cap[channel]:
                        decreased = True
                    usage[channel] -= 1
            tree_channels, sink_hops = _route_net(
                netlist, placement, channels, index, usage, history,
                present_factor, cap,
            )
            routes[index] = tree_channels
            hops[index] = sink_hops
            for channel in tree_channels:
                usage[channel] = usage.get(channel, 0) + 1
            changed.update(tree_channels.symmetric_difference(old or ()))
            rerouted += 1
        if check:
            _check_usage(usage, routes)
        overused = {c: u for c, u in usage.items() if u > cap[c]}
        if not overused:
            result = RoutingResult(
                sink_hops=hops,
                net_channels=routes,
                iterations=iteration,
                total_channel_use=sum(usage.values()),
                nets_rerouted=rerouted,
                wall_s=time.perf_counter() - t0,
            )
            result.max_hops = max(
                (h for per_net in hops.values() for h in per_net.values()),
                default=0.0,
            )
            return result
        for channel, use in overused.items():
            history[channel] = history.get(channel, 0.0) + (
                use - cap[channel]
            )
        present_factor *= 2.0
        dirty = set(overused)
        dirty.update(changed)
    raise RoutingError(
        f"unroutable: {len(overused)} channels over capacity after "
        f"{max_iters} iterations"
    )


def _check_usage(usage: dict, routes: dict[int, set]) -> None:
    """Assert incrementally maintained usage matches a fresh recount."""
    recount: dict = {}
    for tree in routes.values():
        for channel in tree:
            recount[channel] = recount.get(channel, 0) + 1
    live = {c: u for c, u in usage.items() if u}
    if live != recount:
        diff = {
            c: (usage.get(c, 0), recount.get(c, 0))
            for c in set(live) | set(recount)
            if live.get(c, 0) != recount.get(c, 0)
        }
        raise RoutingError(
            f"usage accounting drift on {len(diff)} channels: "
            f"{sorted(diff.items())[:5]}"
        )


def _route_net(
    netlist: Netlist,
    placement: Placement,
    channels,
    index: int,
    usage: dict,
    history: dict,
    present_factor: float,
    cap: dict,
) -> tuple[set, dict[int, float]]:
    net = netlist.nets[index]
    src_coord = placement.loc[net.src]
    tree_channels: set = set()
    depth: dict[Coord, float] = {src_coord: 0.0}
    sink_hops: dict[int, float] = {}

    # The congestion cost of claiming a channel, inlined below:
    # ``wire + present_factor * max(0, use + 1 - cap) + history`` —
    # adding ``present_factor * 0`` is a bitwise no-op, so the
    # uncongested fast path skips the multiply outright.
    usage_get = usage.get
    history_get = history.get
    edges_from = channels.edges_from
    heappop = heapq.heappop
    heappush = heapq.heappush
    inf = float("inf")

    sinks = sorted(
        (s for s in net.sinks if s != net.src),
        key=lambda s: abs(placement.loc[s][0] - src_coord[0])
        + abs(placement.loc[s][1] - src_coord[1]),
    )
    for sink in sinks:
        target = placement.loc[sink]
        if target in depth:
            sink_hops[sink] = depth[target]
            continue
        came: dict[Coord, tuple[Coord, object, float]] = {}
        dist: dict[Coord, float] = {c: 0.0 for c in depth}
        dist_get = dist.get
        heap = [(0.0, c) for c in depth]
        heapq.heapify(heap)
        seen: set[Coord] = set()
        seen_add = seen.add
        while heap:
            d, coord = heappop(heap)
            if coord in seen:
                continue
            seen_add(coord)
            if coord == target:
                break
            for neighbor, key, wire in edges_from(coord):
                if neighbor in seen:
                    continue
                over = usage_get(key, 0) + 1 - cap[key]
                if over > 0:
                    nd = d + (
                        wire + present_factor * over + history_get(key, 0.0)
                    )
                else:
                    nd = d + (wire + history_get(key, 0.0))
                if nd < dist_get(neighbor, inf):
                    dist[neighbor] = nd
                    came[neighbor] = (coord, key, wire)
                    heappush(heap, (nd, neighbor))
        if target not in seen:
            raise RoutingError(
                f"net {index}: no path {src_coord} -> {target}"
            )
        # Walk back to the existing tree, claiming channels.
        path: list[tuple[Coord, object, float]] = []
        coord = target
        while coord not in depth:
            prev, key, wire = came[coord]
            path.append((coord, key, wire))
            coord = prev
        base_depth = depth[coord]
        wire_sum = 0.0
        for coord, key, wire in reversed(path):
            tree_channels.add(key)
            wire_sum += wire
            if coord not in depth:
                depth[coord] = base_depth + wire_sum
        sink_hops[sink] = depth[target]
    return tree_channels, sink_hops
