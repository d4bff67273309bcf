"""The full-recompute PnR loops the equivalence suites diff against.

``src/`` keeps one code path per PnR leaf. The naive implementations
those paths replaced live here, moved verbatim (``Placement.legal`` and
``Placement.cell_cost`` became functions of the placement):

* :func:`anneal` — ``place.anneal`` on :func:`_anneal_naive`, the loop
  that prices every proposal over every pin of the moved cells' nets;
* :func:`_greedy_rest_naive` — the O(n^2) greedy seeding.

The router has no second loop to keep: every pass is a full reroute,
and ``route_design(check=True)`` repeats each bounded search unbounded.
"""

from __future__ import annotations

import math
import random
import time

from repro.arch.pe import manhattan
from repro.pnr.place import Coord, Placement, _neighbors_map


def legal(placement: Placement, nid: int, coord: Coord) -> bool:
    node = placement.netlist.dfg.nodes[nid]
    return placement.fabric.pes[coord].supports(node.op)


def cell_cost(placement: Placement, nid: int) -> float:
    cost = placement.mem_cost(nid)
    for net_index in placement.netlist.nets_of[nid]:
        cost += placement.net_cost(net_index)
    return cost


def _pair_cost(placement: Placement, a: int, b: int) -> float:
    nets = set(placement.netlist.nets_of[a]) | set(
        placement.netlist.nets_of[b]
    )
    cost = placement.mem_cost(a) + placement.mem_cost(b)
    for net_index in nets:
        cost += placement.net_cost(net_index)
    return cost


def anneal(
    placement: Placement,
    rng: random.Random,
    moves: int | None = None,
    t_start: float = 8.0,
    t_end: float = 0.05,
    check: bool = False,
    stats: dict | None = None,
) -> float:
    """``place.anneal``'s contract on the full-recompute loop.

    Every proposal is priced the full way, so ``stats["repriced"] ==
    stats["proposals"]``; ``check`` is the end-of-anneal drift check.
    """
    t0 = time.perf_counter()
    netlist = placement.netlist
    cells = list(netlist.cells)
    if not cells:
        if stats is not None:
            stats.update(
                proposals=0,
                accepted=0,
                repriced=0,
                moves=0,
                wall_s=0.0,
                moves_per_s=0.0,
            )
        return 0.0
    if moves is None:
        moves = min(60_000, 200 * len(cells))
    alpha = (t_end / t_start) ** (1.0 / max(1, moves))

    cost, proposals, accepted = _anneal_naive(
        placement, rng, cells, moves, alpha, t_start
    )
    repriced = proposals

    exact = placement.total_cost()
    if check and abs(cost - exact) > 1e-6 * max(1.0, abs(exact)):
        raise AssertionError(
            f"anneal cost drift: accumulated {cost!r} != exact {exact!r}"
        )
    wall = time.perf_counter() - t0
    if stats is not None:
        stats["proposals"] = proposals
        stats["accepted"] = accepted
        stats["repriced"] = repriced
        stats["moves"] = moves
        stats["wall_s"] = wall
        stats["moves_per_s"] = moves / wall if wall > 0 else 0.0
    return exact


def _anneal_naive(
    placement: Placement,
    rng: random.Random,
    cells: list[int],
    moves: int,
    alpha: float,
    t_start: float,
) -> tuple[float, int, int]:
    """Full-recompute anneal loop (the reference the tests diff against)."""
    fabric = placement.fabric
    temperature = t_start
    cost = placement.total_cost()
    max_window = max(fabric.rows, fabric.cols)
    proposals = accepted = 0

    for step in range(moves):
        nid = rng.choice(cells)
        # VPR-style range limit: the candidate window shrinks as the
        # anneal cools, so late moves are local refinements.
        window = max(2, round(max_window * (1.0 - step / moves)))
        cx, cy = placement.loc[nid]
        target = (
            min(
                fabric.cols - 1,
                max(0, cx + rng.randint(-window, window)),
            ),
            min(
                fabric.rows - 1,
                max(0, cy + rng.randint(-window, window)),
            ),
        )
        if target == placement.loc[nid]:
            temperature *= alpha
            continue
        other = placement.occupant.get(target)
        if not legal(placement, nid, target):
            temperature *= alpha
            continue
        if other is not None and not legal(
            placement, other, placement.loc[nid]
        ):
            temperature *= alpha
            continue

        proposals += 1
        if other is None:
            before = cell_cost(placement, nid)
            origin = placement.loc[nid]
            placement.move(nid, target)
            delta = cell_cost(placement, nid) - before
            if delta > 0 and rng.random() >= math.exp(-delta / temperature):
                placement.move(nid, origin)
            else:
                cost += delta
                accepted += 1
        else:
            before = _pair_cost(placement, nid, other)
            placement.swap(nid, other)
            delta = _pair_cost(placement, nid, other) - before
            if delta > 0 and rng.random() >= math.exp(-delta / temperature):
                placement.swap(nid, other)
            else:
                cost += delta
                accepted += 1
        temperature *= alpha
    return cost, proposals, accepted


def _greedy_rest_naive(netlist, fabric, placement) -> None:
    """The pre-optimization O(n^2) greedy seeding, kept verbatim."""
    dfg = netlist.dfg
    adjacency = _neighbors_map(dfg)
    free = [
        pe.coord
        for pe in sorted(fabric.pes.values(), key=lambda p: (p.y, p.x))
        if pe.coord not in placement.occupant
    ]
    frontier = sorted(placement.loc)
    visited = set(frontier)
    queue = list(frontier)
    order = []
    while queue:
        current = queue.pop(0)
        for neighbor in adjacency[current]:
            if neighbor not in visited:
                visited.add(neighbor)
                order.append(neighbor)
                queue.append(neighbor)
    order += [n for n in netlist.cells if n not in visited]

    for nid in order:
        if nid in placement.loc:
            continue
        anchors = [
            placement.loc[a] for a in adjacency[nid] if a in placement.loc
        ]
        best, best_cost = None, None
        for coord in free:
            if not legal(placement, nid, coord):
                continue
            cost = sum(manhattan(coord, a) for a in anchors)
            if best_cost is None or cost < best_cost:
                best, best_cost = coord, cost
        assert best is not None
        placement.assign(nid, best)
        free.remove(best)
