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
from repro.dfg.ops import NO_EMIT, compile_rule, fresh_state
from repro.errors import DFGError

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
    any node is left mid-protocol (a carry outside its INIT phase, a held
    invariant) — both indicate a lowering bug — and, before the first
    firing, if ``arrays`` names an array the kernel does not declare.
    """
    params = dict(params or {})
    unknown = sorted(set(arrays or ()) - set(dfg.arrays))
    if unknown:
        raise DFGError(
            f"arrays {unknown} are not declared by kernel {dfg.name!r} "
            f"(declared: {sorted(dfg.arrays)})"
        )
    memory: dict[str, list] = {}
    for name, size in dfg.arrays.items():
        if arrays and name in arrays:
            data = list(arrays[name])
            if len(data) != size:
                raise DFGError(
                    f"array {name!r}: got {len(data)} words, declared {size}"
                )
        else:
            zero = 0 if dfg.array_dtypes.get(name, "i") == "i" else 0.0
            data = [zero] * size
        memory[name] = data

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
        nid: compile_rule(node, rows[nid], params)
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
            if not 0 <= request.index < len(data):
                raise DFGError(
                    f"node {nid}: index {request.index} out of bounds for "
                    f"array {request.array!r} of size {len(data)}"
                )
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
    for nid, state in states.items():
        node = dfg.nodes[nid]
        if node.op == "carry" and state["phase"] != "init":
            raise DFGError(
                f"carry node {nid} ({node.tag!r}) left in RUN phase"
            )
        if node.op == "invariant" and state["held"]:
            raise DFGError(
                f"invariant node {nid} ({node.tag!r}) left holding a value"
            )
