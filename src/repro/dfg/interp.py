"""Untimed DFG interpreter.

Executes a dataflow graph with unbounded token FIFOs and zero-latency
memory. This is the compiler's functional oracle: it must agree with the
IR interpreter on final memory for every kernel (and the timed simulator
must agree with both).

The scheduling ``order`` is configurable ('fifo', 'lifo', 'random') so tests
can shake out ordering races: a correctly lowered graph produces identical
results under every admissible firing order.
"""

from __future__ import annotations

import random as _random
from collections import deque

from repro.dfg.graph import DFG, PortRef
from repro.dfg.ops import NO_EMIT, compile_rule, fresh_state, unfinished
from repro.errors import DFGError
from repro.isa import launch_memory

#: Safety net against graphs that never quiesce.
MAX_FIRINGS = 100_000_000


class InterpResult:
    """Final memory plus execution statistics."""

    def __init__(
        self,
        memory: dict[str, list],
        firings: dict[str, int],
        node_firings: dict[int, int] | None = None,
    ):
        self.memory = memory
        #: Firing counts per op kind.
        self.firings = firings
        #: Firing counts per node id (the profile used by profile-guided
        #: criticality analysis).
        self.node_firings = node_firings or {}

    @property
    def total_firings(self) -> int:
        return sum(self.firings.values())


def run_dfg(
    dfg: DFG,
    params: dict[str, int | float] | None = None,
    arrays: dict[str, list] | None = None,
    order: str = "fifo",
    seed: int = 0,
    max_firings: int = MAX_FIRINGS,
) -> InterpResult:
    """Execute ``dfg`` to quiescence and return final memory + stats.

    Raises :class:`DFGError` if tokens remain in flight at quiescence or if
    any node is left mid-protocol (:func:`repro.dfg.ops.unfinished`) —
    both indicate a lowering bug —, when a load or store rule refuses its
    index, and, before the first firing, if ``arrays`` names an array
    the kernel does not declare (:func:`repro.isa.launch_memory`).
    """
    params = dict(params or {})
    memory = launch_memory(dfg.name, dfg.declared(), arrays, DFGError)

    # Per node: one unbounded deque per port input (None for immediates),
    # the firing rule compiled over them, and the deques it feeds.
    rows = {
        nid: [
            deque() if isinstance(inp, PortRef) else None
            for inp in node.inputs
        ]
        for nid, node in dfg.nodes.items()
    }
    rules = {
        nid: compile_rule(node, rows[nid], params, dfg.arrays)
        for nid, node in dfg.nodes.items()
    }
    sinks = {
        nid: [(consumer, rows[consumer][index]) for consumer, index in edges]
        for nid, edges in dfg.consumers().items()
    }
    states = {nid: fresh_state(node) for nid, node in dfg.nodes.items()}
    rng = _random.Random(seed)

    pending: deque[int] = deque(sorted(dfg.nodes))
    in_pending = set(pending)
    firings: dict[str, int] = {}
    node_firings: dict[int, int] = {}
    fired_total = 0

    def wake(nid: int) -> None:
        if nid not in in_pending:
            pending.append(nid)
            in_pending.add(nid)

    while pending:
        if order == "fifo":
            nid = pending.popleft()
        elif order == "lifo":
            nid = pending.pop()
        elif order == "random":
            index = rng.randrange(len(pending))
            pending[index], pending[-1] = pending[-1], pending[index]
            nid = pending.pop()
        else:
            raise DFGError(f"unknown scheduling order {order!r}")
        in_pending.discard(nid)
        fired = rules[nid](states[nid])
        if fired is None:
            continue
        pops, emit, request, new_state = fired
        fired_total += 1
        if fired_total > max_firings:
            raise DFGError("DFG exceeded the firing safety limit")
        op = dfg.nodes[nid].op
        firings[op] = firings.get(op, 0) + 1
        node_firings[nid] = node_firings.get(nid, 0) + 1
        row = rows[nid]
        for index in pops:
            row[index].popleft()
        if new_state is not None:
            states[nid].update(new_state)
        if request is not None:
            data = memory[request.array]
            if request.kind == "load":
                emit = data[request.index]
            else:
                data[request.index] = request.value
                emit = 0  # the store's ordering token
        if emit is not NO_EMIT:
            for consumer, queue in sinks[nid]:
                queue.append(emit)
                wake(consumer)
        # The node may be ready again immediately (queued tokens).
        wake(nid)

    _check_quiescent(dfg, rows, states)
    return InterpResult(memory, firings, node_firings)


def _check_quiescent(dfg: DFG, rows: dict, states: dict) -> None:
    # Non-empty FIFOs at quiescence: (node, port, depth).
    residue = [
        (nid, idx, len(queue))
        for nid, row in rows.items()
        for idx, queue in enumerate(row)
        if queue
    ]
    if residue:
        nid, idx, depth = residue[0]
        node = dfg.nodes[nid]
        raise DFGError(
            f"token leak: {len(residue)} FIFOs non-empty at quiescence; "
            f"first: node {nid} ({node.op} {node.tag!r}) port "
            f"{node.port_name(idx)} holds {depth} token(s)"
        )
    for nid, node in dfg.nodes.items():
        fault = unfinished(node, states[nid])
        if fault is not None:
            raise DFGError(fault)
