"""Placement: NUPEA-aware simulated annealing (paper Sec. 5).

The flow mirrors effcc's: memory instructions are placed first, favoring
NUPEA domains in the preference order ``D0.c0 <= D0.c1 <= ... <= D1.c0``
weighted by criticality class; all other instructions are then placed
greedily in breadth-first order through defs and uses; finally simulated
annealing refines the placement under a cost that combines communication
locality with a throughput-reduction factor for memory latency.

The anneal is one loop (:func:`anneal`). Its references are its own
``check`` mode, which prices every proposal the fast estimate refuses
the full way too, and the full-recompute loop in
``tests/pnr_reference.py`` that the equivalence suites diff against.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from collections import deque

from repro.arch.fabric import Fabric
from repro.arch.pe import PE, manhattan

from repro.core.policy import PlacementPolicy
from repro.dfg.graph import DFG, PortRef
from repro.errors import PlacementError, PnRVerifyError
from repro.pnr.netlist import Netlist

Coord = tuple[int, int]

#: Weight of the memory-latency (throughput) term against wirelength.
MEM_WEIGHT = 6.0
#: Quadratic penalty that discourages individual long nets (a proxy for
#: the max-path-delay objective static timing later enforces).
QUAD_WEIGHT = 0.3


class Placement:
    """A complete node -> PE assignment with incremental cost tracking."""

    def __init__(
        self,
        netlist: Netlist,
        fabric: Fabric,
        policy: PlacementPolicy,
        mem_scale: float = 1.0,
        node_weights: dict[int, float] | None = None,
    ):
        self.netlist = netlist
        self.fabric = fabric
        self.policy = policy
        #: Scales the memory-preference term; the flow lowers it when
        #: timing feedback shows the near-memory pull is congesting the
        #: data NoC (placement/routing negotiation).
        self.mem_scale = mem_scale
        #: Optional per-node weight overrides (feedback-directed
        #: placement, :mod:`repro.exp.fdo`). An empty map is normalized
        #: to None so the override-free path stays bit-identical to the
        #: historical class-weight one.
        self.node_weights = node_weights or None
        self.loc: dict[int, Coord] = {}
        self.occupant: dict[Coord, int] = {}

    # -- assignment ------------------------------------------------------

    def assign(self, nid: int, coord: Coord) -> None:
        if coord in self.occupant:
            raise PlacementError(f"PE {coord} already occupied")
        self.loc[nid] = coord
        self.occupant[coord] = nid

    def move(self, nid: int, coord: Coord) -> None:
        del self.occupant[self.loc[nid]]
        self.loc[nid] = coord
        self.occupant[coord] = nid

    def swap(self, a: int, b: int) -> None:
        la, lb = self.loc[a], self.loc[b]
        self.loc[a], self.loc[b] = lb, la
        self.occupant[la], self.occupant[lb] = b, a

    # -- cost ------------------------------------------------------------

    def net_cost(self, net_index: int) -> float:
        net = self.netlist.nets[net_index]
        src = self.loc[net.src]
        cost = 0.0
        for sink in net.sinks:
            if sink == net.src:
                continue
            dist = manhattan(src, self.loc[sink])
            cost += dist + QUAD_WEIGHT * dist * dist
        return cost

    def mem_base(self, nid: int) -> float | None:
        """Position-independent factor of :meth:`mem_cost` (None: no term)."""
        node = self.netlist.dfg.nodes[nid]
        if not node.is_memory():
            return None
        weight = self.policy.node_weight(
            node.criticality, nid, self.node_weights
        )
        if weight == 0.0:
            return None
        return MEM_WEIGHT * self.mem_scale * weight

    def pe_rank(self, pe: PE) -> float:
        """Memory-latency rank of an LS PE (the position factor of
        :meth:`mem_cost`), under this placement's policy."""
        return self.policy.latency_rank(
            self.fabric.domains[pe.domain].arbiter_hops, pe.column_rank
        )

    def mem_cost(self, nid: int) -> float:
        base = self.mem_base(nid)
        if base is None:
            return 0.0
        return base * self.pe_rank(self.fabric.pes[self.loc[nid]])

    def total_cost(self) -> float:
        cost = sum(self.net_cost(i) for i in range(len(self.netlist.nets)))
        cost += sum(self.mem_cost(nid) for nid in self.netlist.cells)
        return cost


def initial_placement(
    netlist: Netlist,
    fabric: Fabric,
    policy: PlacementPolicy,
    rng: random.Random,
    mem_scale: float = 1.0,
    node_weights: dict[int, float] | None = None,
) -> Placement:
    """Deterministic seed placement: memory first, then greedy BFS.

    Memory nodes are grouped by connected *cluster* (spatially replicated
    workers are independent subgraphs) and each cluster is confined to a
    contiguous band of LS rows: within a band, the NUPEA preference order
    (fast domains and columns first, criticality classes in order) decides
    slots. Banding keeps each worker's nodes spatially compact, which is
    what lets the annealer converge to short nets on large fabrics.

    ``node_weights`` (feedback-directed placement) overrides the
    per-node memory weight: within a cluster, memory nodes claim slots
    in descending *effective* weight order instead of class order, and
    the anneal objective prices each node at its override. An empty or
    ``None`` map reproduces the class-weight path bit for bit.
    """
    dfg = netlist.dfg
    if len(netlist.cells) > fabric.size():
        raise PlacementError(
            f"{len(netlist.cells)} nodes exceed fabric capacity "
            f"{fabric.size()}"
        )
    mem_nodes = [n for n in netlist.cells if dfg.nodes[n].is_memory()]
    if len(mem_nodes) > len(fabric.ls_pes()):
        raise PlacementError(
            f"{len(mem_nodes)} memory nodes exceed {len(fabric.ls_pes())} "
            "LS PEs"
        )
    placement = Placement(
        netlist, fabric, policy, mem_scale=mem_scale,
        node_weights=node_weights,
    )

    clusters = _clusters(netlist)
    bands = _row_bands(clusters, dfg, fabric)
    if policy.domain_aware:
        all_slots = fabric.preferred_ls_slots()
    else:
        all_slots = sorted(fabric.ls_pes(), key=lambda pe: (pe.y, pe.x))
    klass_order = {"A": 0, "B": 1, "C": 2}
    for cluster, band in zip(clusters, bands):
        mems = sorted(n for n in cluster if dfg.nodes[n].is_memory())
        if placement.node_weights is not None:
            # Feedback-directed: measured weights, not class guesses,
            # decide who claims the fast domains first.
            mems.sort(
                key=lambda n: (
                    -policy.node_weight(
                        dfg.nodes[n].criticality, n, placement.node_weights
                    ),
                    n,
                )
            )
        elif policy.criticality_aware:
            mems.sort(
                key=lambda n: (klass_order[dfg.nodes[n].criticality], n)
            )
        elif policy.domain_aware:
            # Domain-aware but criticality-blind: the policy "does not
            # distinguish between the few critical loads and the many
            # others" (Sec. 7.1), so the order within a cluster is
            # arbitrary.
            rng.shuffle(mems)
        band_slots = [pe for pe in all_slots if pe.y in band]
        for nid in mems:
            slot = _first_free(placement, band_slots) or _first_free(
                placement, all_slots
            )
            if slot is None:
                raise PlacementError("ran out of LS PEs")  # pragma: no cover
            placement.assign(nid, slot.coord)

    _greedy_rest(netlist, fabric, placement)
    return placement


def _first_free(placement: Placement, slots: list[PE]) -> PE | None:
    for pe in slots:
        if pe.coord not in placement.occupant:
            return pe
    return None


def _clusters(netlist: Netlist) -> list[list[int]]:
    """Connected components, ignoring broadcast and synchronization nodes.

    The launch token and constant injections fan out to every replicated
    worker, and memory-token joins bridge parallel phases; excluding them
    recovers the per-worker subgraphs that should be placed compactly.
    """
    dfg = netlist.dfg
    skip = {
        n.nid
        for n in dfg.nodes.values()
        if n.op in ("source", "inject", "join")
    }
    parent: dict[int, int] = {n: n for n in netlist.cells}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for node in dfg.nodes.values():
        if node.nid in skip:
            continue
        for inp in node.inputs:
            if isinstance(inp, PortRef) and inp.src not in skip:
                ra, rb = find(node.nid), find(inp.src)
                if ra != rb:
                    parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for nid in netlist.cells:
        groups.setdefault(find(nid), []).append(nid)
    return sorted(groups.values(), key=min)


def _row_bands(
    clusters: list[list[int]], dfg, fabric: Fabric
) -> list[set[int]]:
    """Contiguous LS-row spans per cluster, sized by memory-node count."""
    ls_rows = fabric.ls_rows()
    weights = [
        max(1, sum(1 for n in c if dfg.nodes[n].is_memory()))
        for c in clusters
    ]
    total = sum(weights)
    d0_width = max(1, len(fabric.domains[0].columns))
    bands: list[set[int]] = []
    cursor = 0.0
    for weight in weights:
        span = weight / total * len(ls_rows)
        lo = int(cursor)
        hi = max(lo + 1, int(cursor + span + 1e-9))
        # Cap the band at what the cluster's memory nodes actually need
        # (bands anchor clusters; they need not tile the whole fabric).
        need = max(1, -(-weight // d0_width)) + 1
        hi = min(hi, lo + need)
        bands.append(set(ls_rows[lo:hi]))
        cursor += span
    return bands


def _neighbors_map(dfg: DFG) -> dict[int, list[int]]:
    """Undirected def/use adjacency."""
    adjacency: dict[int, list[int]] = {nid: [] for nid in dfg.nodes}
    for node in dfg.nodes.values():
        for inp in node.inputs:
            if isinstance(inp, PortRef):
                adjacency[node.nid].append(inp.src)
                adjacency[inp.src].append(node.nid)
    return adjacency


def _greedy_rest(
    netlist: Netlist, fabric: Fabric, placement: Placement
) -> None:
    """Place remaining cells in BFS order near their placed neighbors.

    The BFS queue is a deque (``list.pop(0)`` is O(n)) and the free-PE
    pool is an insertion-ordered dict keyed by coord (``list.remove`` is
    O(n)); scan order and the strict ``<`` first-minimum tie-break match
    the original list-based implementation, so placements are
    bit-identical (asserted on all 13 workloads by the test suite).
    Legality is ``PE.supports``, read off the rows the anneal uses.
    """
    dfg = netlist.dfg
    adjacency = _neighbors_map(dfg)
    tables = _fabric_tables(fabric)
    cols = fabric.cols
    # Insertion order == the original (y, x)-sorted scan order; dict
    # deletion preserves the order of the remaining coords. The value is
    # the coord's position in FabricTables' rows.
    free: dict[Coord, int] = {
        pe.coord: pe.y * cols + pe.x
        for pe in sorted(fabric.pes.values(), key=lambda p: (p.y, p.x))
        if pe.coord not in placement.occupant
    }
    frontier = sorted(placement.loc)
    visited = set(frontier)
    queue = deque(frontier)
    order: list[int] = []
    while queue:
        current = queue.popleft()
        for neighbor in adjacency[current]:
            if neighbor not in visited:
                visited.add(neighbor)
                order.append(neighbor)
                queue.append(neighbor)
    # Any disconnected leftovers (rare) go last.
    order += [n for n in netlist.cells if n not in visited]

    for nid in order:
        if nid in placement.loc:
            continue
        anchors = [
            placement.loc[a] for a in adjacency[nid] if a in placement.loc
        ]
        legal = tables.legal(dfg.nodes[nid].op)
        best, best_cost = None, None
        for coord, position in free.items():
            if not legal[position]:
                continue
            cx, cy = coord
            cost = 0
            for ax, ay in anchors:
                cost += abs(cx - ax) + abs(cy - ay)
            if best_cost is None or cost < best_cost:
                best, best_cost = coord, cost
        if best is None:
            raise PlacementError(
                f"no legal free PE for node {nid} "
                f"({dfg.nodes[nid].op})"
            )
        placement.assign(nid, best)
        del free[best]


def anneal(
    placement: Placement,
    rng: random.Random,
    moves: int | None = None,
    t_start: float = 8.0,
    t_end: float = 0.05,
    check: bool = False,
    stats: dict | None = None,
) -> float:
    """Refine ``placement`` in place; returns the final (exact) cost.

    One loop, :func:`_anneal_incremental`: cached per-net costs over flat
    integer state, with the netlist- and fabric-derived tables built once
    and shared by every anneal on the same ``placement.netlist`` /
    ``placement.fabric``. A proposal is refused on an O(changed pins)
    estimate of its delta when the estimate alone settles that the spec
    (every pin of its incident nets, priced the full-recompute way) would
    refuse it, and is otherwise priced by the spec. The trajectory is
    bit-identical to the full-recompute loop the tests keep as their
    reference (``tests/pnr_reference.py``): same rng call sequence, same
    operand bits in every delta, hence the same accept/reject decisions
    and the same final placement for a given seed.

    ``check=True`` prices every proposal the estimate refuses by the
    spec as well, and asserts the incrementally accumulated cost matches
    ``total_cost()`` at anneal end within 1e-6 (relative). Either
    disagreement raises :class:`~repro.errors.PnRVerifyError` — a wrong
    answer, never a placement that does not fit. The returned value is
    reconciled to the exact recomputed total either way, so a cached
    ``CompiledKernel.place_cost`` is float-drift-free.

    ``stats``, if given, is filled with ``proposals`` (moves surviving
    the window/legality filters), ``accepted``, ``repriced`` (proposals
    priced the full way: the accepted ones plus the few the estimate
    could not refuse; all of them under ``check``), ``moves``,
    ``wall_s``, and ``moves_per_s``.
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

    cost, proposals, accepted, repriced = _anneal_incremental(
        placement, rng, cells, moves, alpha, t_start, check
    )
    exact = placement.total_cost()
    if check and abs(cost - exact) > 1e-6 * max(1.0, abs(exact)):
        raise PnRVerifyError(
            f"anneal cost drift: accumulated {cost!r} != exact {exact!r}",
            field="place_cost",
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


class NetlistTables:
    """What the anneal loop reads of a netlist, by dense cell index.

    Cell ``c`` is ``netlist.cells[c]`` (node ids need not be dense).
    Built once per netlist (``netlist.place_tables``): every mem-scale
    candidate and restart of a compile anneals the same netlist.
    """

    __slots__ = ("pins", "cell_nets", "net_sets", "own_sinks", "sink_srcs")

    def __init__(self, netlist: Netlist):
        cell = {nid: c for c, nid in enumerate(netlist.cells)}
        #: Per net ``(src, sinks-excluding-src)`` in pin order: the skip
        #: of self-loop pins in Placement.net_cost is placement-independent.
        self.pins = [
            (cell[n.src], tuple(cell[s] for s in n.sinks if s != n.src))
            for n in netlist.nets
        ]
        self.cell_nets = [
            tuple(netlist.nets_of[nid]) for nid in netlist.cells
        ]
        # Built like ``set(nets_of[a])`` in the reference loop's pair
        # cost, so ``net_sets[a] | net_sets[b]`` iterates in its order.
        self.net_sets = [set(nets) for nets in self.cell_nets]
        #: What the estimate reads. ``own_sinks[c]``: the one net cell
        #: ``c`` sources (a netlist has one net per producer) as ``(net
        #: index, sinks)``, None when it drives no pin. ``sink_srcs[c]``:
        #: the source cell of every net that merely sinks ``c``.
        self.own_sinks: list[tuple[int, tuple[int, ...]] | None] = [
            None for _ in netlist.cells
        ]
        self.sink_srcs: list[tuple[int, ...]] = []
        for c, nets in enumerate(self.cell_nets):
            srcs = []
            for index in nets:
                src, sinks = self.pins[index]
                if src != c:
                    srcs.append(src)
                elif sinks:
                    self.own_sinks[c] = (index, sinks)
            self.sink_srcs.append(tuple(srcs))


class FabricTables:
    """What the anneal loop reads of a fabric, by position ``y*cols + x``.

    Built once per fabric (``fabric.place_tables``) and shared by every
    compile on that object, so it holds only what the fabric alone
    decides: ``mem_cost``'s rank is the policy's and is derived per
    anneal, like ``mem_base``.
    """

    __slots__ = ("xs", "ys", "dist_cost", "pes", "_legal")

    def __init__(self, fabric: Fabric):
        cols, rows = fabric.cols, fabric.rows
        self.xs = [x for _ in range(rows) for x in range(cols)]
        self.ys = [y for y in range(rows) for _ in range(cols)]
        # Manhattan distances are small ints, so the per-sink term of
        # Placement.net_cost takes rows+cols-1 distinct values; every row
        # of ``dist_cost`` points at these same floats.
        dcost = [
            float(d) + QUAD_WEIGHT * d * d for d in range(cols + rows - 1)
        ]
        coords = list(zip(self.xs, self.ys))
        self.dist_cost = [
            [dcost[abs(sx - tx) + abs(sy - ty)] for tx, ty in coords]
            for sx, sy in coords
        ]
        self.pes = [fabric.pes[xy] for xy in coords]
        self._legal: dict[str, list[bool]] = {}

    def legal(self, op: str) -> list[bool]:
        """``PE.supports(op)`` per position: the one legality test."""
        mask = self._legal.get(op)
        if mask is None:
            mask = self._legal[op] = [pe.supports(op) for pe in self.pes]
        return mask


def _fabric_tables(fabric: Fabric) -> FabricTables:
    tables = fabric.place_tables
    if tables is None:
        tables = fabric.place_tables = FabricTables(fabric)
    return tables


def _window_segments(moves: int, max_window: int) -> list[tuple[int, int]]:
    """The VPR range-limit schedule as run-length ``(steps, window)`` pairs.

    The window never grows with the step, so each value's last step is
    found by bisection on the naive loop's own expression.
    """

    def narrowness(step: int) -> int:
        return -max(2, round(max_window * (1.0 - step / moves)))

    segments = []
    step = 0
    while step < moves:
        key = narrowness(step)
        end = bisect.bisect_right(range(moves), key, lo=step, key=narrowness)
        segments.append((end - step, -key))
        step = end
    return segments


#: How far the estimate's margin sits above the worst-case rounding
#: error of the two evaluations it separates (:func:`_estimate_margin`).
ESTIMATE_HEADROOM = 1024.0
#: ``exp`` is monotone only up to libm's error (< 1 ulp) and the rounding
#: of its quotient argument (|x| < 746, so < 2**-42 relative in the
#: result): the cap on the spec's acceptance probability is raised by
#: 2**-30, thousands of times either.
EXP_SLACK = 1.0 + 2.0**-30


def _estimate_margin(
    nt: NetlistTables,
    ft: FabricTables,
    mem_base: list[float | None],
    rank: list[float | None],
) -> float:
    """How far the estimate may sit from the spec's ``after - before``.

    Both are floating evaluations of one real number: the sum of signed
    operands (``dist_cost`` entries, cached and new memory terms) a
    proposal changes. Each floating addition is off by at most 2**-53 of
    its result and additions carry earlier errors through unamplified, so
    an evaluation is off by at most *additions x largest partial sum x
    2**-53*. The spec's ``before`` (or ``after``) of a swap adds two
    memory terms, the pins of every net either cell touches (each cached
    ``net[]`` value is itself such a pin-order sum) and those nets'
    values; the estimate adds a subset of the same operands, but its
    partial sums may hold both sides at once.
    """
    # The most pins, and the most nets, one cell's incident nets hold.
    pins = max(
        sum(len(nt.pins[index][1]) for index in nets) for nets in nt.cell_nets
    )
    nets = max(map(len, nt.cell_nets))
    # Row 0 is a corner's: it holds every distance the fabric has.
    farthest = max(map(abs, ft.dist_cost[0]))
    heaviest = max(
        (abs(b) for b in mem_base if b is not None), default=0.0
    ) * max((abs(r) for r in rank if r is not None), default=0.0)
    side = 2 * heaviest + 2 * pins * farthest
    additions = 2 * (2 * pins + 2 * nets + 1) + 1
    worst = (2 * additions) * (2 * side) * 2.0**-53
    return ESTIMATE_HEADROOM * worst


def _anneal_incremental(
    placement: Placement,
    rng: random.Random,
    cells: list[int],
    moves: int,
    alpha: float,
    t_start: float,
    check: bool = False,
) -> tuple[float, int, int, int]:
    """Delta-cost anneal loop over flat integer state.

    Mirrors the full-recompute loop (the tests' reference) decision for
    decision, on four obligations. *Rng stream*: ``choice(cells)`` and ``randint(-w, w)``
    are inlined to their ``_randbelow`` cores (draw ``n.bit_length()``
    bits, redraw while >= n; ``rng`` must be getrandbits-based, as
    ``random.Random`` is) and ``random()`` is drawn only when delta > 0.
    *Operand bits*: cached per-net and per-cell values start as
    Placement.net_cost's and mem_cost's and are replaced by floats summed
    from ``dist_cost`` in pin order, i.e. what Placement.net_cost would
    return. *Addition order*: ``before``/``after`` add the memory terms
    first, then the nets in ``nets_of`` order (move) or in the order
    ``set(nets_of[a]) | set(nets_of[b])`` iterates (swap). *An estimate
    may only reject*: ~97 % of proposals are refused, so each is first
    priced by a changed-pins estimate ``est`` of the same delta — the
    memory terms, one pin of every net that merely sinks a moved cell
    (O(1): ``dist_cost`` is symmetric, so the new and old rows of the
    moved cell are read at the net's source), and the pin-order sum of
    the net each moved cell sources against its cached value (a moved
    source changes every pin). ``est`` and ``delta`` differ by at most
    ``margin`` (:func:`_estimate_margin`), so ``est > margin`` makes
    ``delta > 0`` certain: ``u = rand()`` is drawn where the spec would
    draw it, and the proposal is refused if ``u`` exceeds the most the
    spec's ``exp(-delta / temperature)`` can be. Everything else — and
    every accept — is priced by the spec below, reusing ``u``.

    A proposal is priced with only ``pos`` rewritten; a reject restores
    ``pos`` and nothing else. An accept stores the new per-net values and
    replays the move on ``placement`` (so ``loc`` keeps its key order).
    Under ``check`` the estimate's refusals are priced by the spec too,
    and a disagreement raises :class:`~repro.errors.PnRVerifyError`.
    """
    fabric = placement.fabric
    netlist = placement.netlist
    nt = netlist.place_tables
    if nt is None:
        nt = netlist.place_tables = NetlistTables(netlist)
    ft = _fabric_tables(fabric)
    pins, cell_nets, net_sets = nt.pins, nt.cell_nets, nt.net_sets
    own_sinks, sink_srcs = nt.own_sinks, nt.sink_srcs
    xs, ys, dist_cost = ft.xs, ft.ys, ft.dist_cost

    # Per candidate: positions, occupants (-1: free), legality rows, the
    # memory term's two factors (mem_scale- and policy-dependent: the
    # weight per cell, mem_cost's rank per position, None off the LS PEs)
    # and the cached costs.
    cols = fabric.cols
    loc = placement.loc
    pos = [loc[nid][1] * cols + loc[nid][0] for nid in cells]
    occupant = [-1] * fabric.size()
    for c, p in enumerate(pos):
        occupant[p] = c
    nodes = netlist.dfg.nodes
    legal = [ft.legal(nodes[nid].op) for nid in cells]
    mem_base = [placement.mem_base(nid) for nid in cells]
    rank = [placement.pe_rank(pe) if pe.is_ls else None for pe in ft.pes]
    margin = _estimate_margin(nt, ft, mem_base, rank)
    # Summed as total_cost() sums them: nets, then cells.
    net = [placement.net_cost(i) for i in range(len(netlist.nets))]
    mem = [placement.mem_cost(nid) for nid in cells]
    cost = sum(net) + sum(mem)

    cols_max = cols - 1
    rows_max = fabric.rows - 1
    getrandbits = rng.getrandbits
    rand = rng.random
    exp = math.exp
    slack = EXP_SLACK
    ncells = len(cells)
    kcells = ncells.bit_length()
    proposals = accepted = repriced = 0
    cooled = t_start
    first = 0

    for steps, window in _window_segments(
        moves, max(fabric.rows, fabric.cols)
    ):
        span = window + window + 1
        kspan = span.bit_length()
        for step in range(first, first + steps):
            # The naive loop's ``temperature *= alpha`` at every exit.
            temperature = cooled
            cooled = temperature * alpha
            a = getrandbits(kcells)
            while a >= ncells:
                a = getrandbits(kcells)
            origin = pos[a]
            r = getrandbits(kspan)
            while r >= span:
                r = getrandbits(kspan)
            tx = xs[origin] - window + r
            if tx < 0:
                tx = 0
            elif tx > cols_max:
                tx = cols_max
            r = getrandbits(kspan)
            while r >= span:
                r = getrandbits(kspan)
            ty = ys[origin] - window + r
            if ty < 0:
                ty = 0
            elif ty > rows_max:
                ty = rows_max
            target = ty * cols + tx
            if target == origin or not legal[a][target]:
                continue
            b = occupant[target]
            if b >= 0 and not legal[b][origin]:
                continue

            proposals += 1
            pos[a] = target
            there = dist_cost[target]
            here = dist_cost[origin]
            base = mem_base[a]
            est = 0.0 if base is None else base * rank[target] - mem[a]
            if b < 0:
                for src in sink_srcs[a]:
                    p = pos[src]
                    est += there[p] - here[p]
            else:
                pos[b] = origin
                base = mem_base[b]
                if base is not None:
                    est += base * rank[origin] - mem[b]
                # A net the other cell sources is priced whole, as its own.
                for src in sink_srcs[a]:
                    if src != b:
                        p = pos[src]
                        est += there[p] - here[p]
                for src in sink_srcs[b]:
                    if src != a:
                        p = pos[src]
                        est += here[p] - there[p]
                own = own_sinks[b]
                if own is not None:
                    index, sinks = own
                    value = 0.0
                    for sink in sinks:
                        value += here[pos[sink]]
                    est += value - net[index]
            own = own_sinks[a]
            if own is not None:
                index, sinks = own
                value = 0.0
                for sink in sinks:
                    value += there[pos[sink]]
                est += value - net[index]

            if est > margin:
                u = rand()
                cap = exp((margin - est) / temperature) * slack
                if u > cap and not check:
                    pos[a] = origin
                    if b >= 0:
                        pos[b] = target
                    continue
            else:
                u = None

            # The spec: every pin of every incident net, in naive order.
            repriced += 1
            base = mem_base[a]
            new_mem_a = 0.0 if base is None else base * rank[target]
            if b < 0:
                nets = cell_nets[a]
                before = mem[a]
                after = new_mem_a
            else:
                base = mem_base[b]
                new_mem_b = 0.0 if base is None else base * rank[origin]
                nets = net_sets[a] | net_sets[b]
                before = mem[a] + mem[b]
                after = new_mem_a + new_mem_b
            for index in nets:
                before += net[index]
                src, sinks = pins[index]
                row = dist_cost[pos[src]]
                value = 0.0
                for sink in sinks:
                    value += row[pos[sink]]
                after += value
            delta = after - before
            if check and (
                abs(est - delta) > margin
                or (
                    u is not None
                    and u > cap
                    and (delta <= 0 or u < exp(-delta / temperature))
                )
            ):
                raise PnRVerifyError(
                    f"anneal estimate disagrees with the spec at step "
                    f"{step}: cells {cells[a]} -> "
                    f"{cells[b] if b >= 0 else (tx, ty)}, est {est!r}, "
                    f"delta {delta!r}, margin {margin!r}",
                    field="estimate",
                )
            if delta > 0:
                if u is None:
                    u = rand()
                if u >= exp(-delta / temperature):
                    pos[a] = origin
                    if b >= 0:
                        pos[b] = target
                    continue

            cost += delta
            accepted += 1
            occupant[target] = a
            occupant[origin] = b  # -1 (free) when this was a move
            mem[a] = new_mem_a
            if b < 0:
                placement.move(cells[a], (tx, ty))
            else:
                mem[b] = new_mem_b
                placement.swap(cells[a], cells[b])
            for index in nets:
                src, sinks = pins[index]
                row = dist_cost[pos[src]]
                value = 0.0
                for sink in sinks:
                    value += row[pos[sink]]
                net[index] = value
        first += steps
    return cost, proposals, accepted, repriced

