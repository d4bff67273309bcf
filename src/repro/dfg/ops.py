"""Firing semantics for DFG operations, compiled once per node.

Both the untimed interpreter (:mod:`repro.dfg.interp`) and the timed Monaco
simulator (:mod:`repro.sim.engine`) — its firing loop and its probe
path alike — fire nodes through the rules :func:`compile_rule` builds,
so the *functional* semantics of every op are defined in exactly one
place; the executors differ only in when a ready node gets to fire and
how long memory takes.

A rule is a closure ``rule(state)`` specialised at construction on
everything about its node that cannot change during a run: the op, the
resolved operator callable, the resolved immediates, which inputs are
ports and which are immediates, and the constant ``pops`` tuples. It
peeks FIFO heads without mutating anything and returns ``None`` when the
node is not ready, otherwise the firing ``(pops, emit, mem, new_state)``:

* ``pops`` — tuple of the input port indices the firing consumes
  (immediates are persistent and never popped);
* ``emit`` — the output token, or :data:`NO_EMIT`;
* ``mem`` — a :class:`MemRequest` for a load/store (the executor
  produces the emitted token when the access completes), else ``None``;
* ``new_state`` — entries to merge into the node's state with
  ``state.update``, or ``None``. It may be a constant shared between
  firings, so executors must not mutate it.

The executor applies the firing (pop inputs, update state, emit / issue
the memory request) once it has checked machine-specific constraints
such as downstream buffer space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dfg.graph import ImmRef, Node
from repro.errors import DFGError, ReproError
from repro.isa import BINARY_IMPLS, UNARY_IMPLS


class _NoEmit:
    def __repr__(self):
        return "NO_EMIT"


#: Sentinel: the firing consumes tokens but produces no output token.
NO_EMIT = _NoEmit()


@dataclass(frozen=True)
class MemRequest:
    """A memory access produced by firing a load or store node."""

    kind: str  # "load" or "store"
    array: str
    index: int
    value: int | float | None = None  # store data


def fresh_state(node: Node) -> dict:
    """Initial private state for a node."""
    if node.op == "source":
        return {"fired": False}
    if node.op == "carry":
        return {"phase": "init"}
    if node.op == "invariant":
        return {"held": False, "value": None}
    return {}




# -- rule compilation -------------------------------------------------------
#
# Every builder below receives ``ins`` — per input, the port's deque or,
# for an immediate, the 1-tuple ``(value,)``. Both answer ``bool(x)``
# ("a token is available") and ``x[0]`` ("its value") the same way, so
# one body covers every port/immediate shape of an op and only the
# ``pops`` tuples (built by ``ports``) differ. Binops, the one op whose
# immediates are common, get a body per shape instead. A decider is
# taken when ``dec[0] != 0`` — :func:`repro.isa.truthy`, inlined.


def _describe(node: Node) -> str:
    return f"node {node.nid} ({node.op} {node.tag!r})"


def _resolve(node: Node, imm, params: dict):
    if not isinstance(imm, ImmRef):
        raise DFGError(f"{_describe(node)}: no FIFO for port input {imm!r}")
    try:
        return imm.resolve(params)
    except DFGError as error:
        raise DFGError(f"{_describe(node)}: {error}") from None


def _operator(node: Node, table: dict, arity: str):
    opname = node.attrs["opname"]
    try:
        return table[opname]
    except KeyError:
        raise ReproError(
            f"{_describe(node)}: unknown {arity} operator {opname!r}"
        ) from None


def _source(node, ins, ports, params):
    fire = ((), 0, None, {"fired": True})

    def rule(state):
        return None if state["fired"] else fire

    return rule


def _inject(node, ins, ports, params):
    (trig,) = ins
    fire = (ports(0), _resolve(node, node.attrs["value"], params), None, None)

    def rule(state):
        return fire if trig else None

    return rule


def _binop(node, ins, ports, params):
    impl = _operator(node, BINARY_IMPLS, "binary")
    lhs, rhs = ins
    pops = ports(0, 1)
    if pops == (0,):
        b = rhs[0]

        def rule(state):
            if not lhs:
                return None
            return pops, impl(lhs[0], b), None, None

    elif pops == (1,):
        a = lhs[0]

        def rule(state):
            if not rhs:
                return None
            return pops, impl(a, rhs[0]), None, None

    else:

        def rule(state):
            if not lhs or not rhs:
                return None
            return pops, impl(lhs[0], rhs[0]), None, None

    return rule


def _unop(node, ins, ports, params):
    impl = _operator(node, UNARY_IMPLS, "unary")
    (a,) = ins
    pops = ports(0)

    def rule(state):
        if not a:
            return None
        return pops, impl(a[0]), None, None

    return rule


def _steer(node, ins, ports, params):
    dec, val = ins
    polarity = node.attrs["polarity"]
    pops = ports(0, 1)
    drop = (pops, NO_EMIT, None, None)

    def rule(state):
        if not dec or not val:
            return None
        if (dec[0] != 0) == polarity:
            return pops, val[0], None, None
        return drop

    return rule


def _invariant(node, ins, ports, params):
    # Port 0: val (once per region activation); port 1: dec.
    val, dec = ins
    take = ports(0, 1)
    replay = ports(1)
    skip = (take, NO_EMIT, None, None)
    release = (replay, NO_EMIT, None, {"held": False, "value": None})

    def rule(state):
        if not state["held"]:
            if not val or not dec:
                return None
            if dec[0] != 0:
                value = val[0]
                return take, value, None, {"held": True, "value": value}
            return skip
        if not dec:
            return None
        if dec[0] != 0:
            return replay, state["value"], None, None
        return release

    return rule


def _carry(node, ins, ports, params):
    init, back, dec = ins
    enter = ports(0)
    step = ports(1, 2)
    run = {"phase": "run"}
    leave = (ports(2), NO_EMIT, None, {"phase": "init"})

    def rule(state):
        if state["phase"] == "init":
            if not init:
                return None
            return enter, init[0], None, run
        if not dec:
            return None
        if dec[0] == 0:
            return leave
        if not back:
            return None
        return step, back[0], None, None

    return rule


def _merge(node, ins, ports, params):
    # Peek the decider, then wait for the chosen arm only.
    dec, on_true, on_false = ins
    pops_true = ports(0, 1)
    pops_false = ports(0, 2)

    def rule(state):
        if not dec:
            return None
        if dec[0] != 0:
            if not on_true:
                return None
            return pops_true, on_true[0], None, None
        if not on_false:
            return None
        return pops_false, on_false[0], None, None

    return rule


def _select(node, ins, ports, params):
    # Eager ternary: both arms are computed unconditionally; consume all
    # three inputs and forward the chosen value.
    dec, on_true, on_false = ins
    pops = ports(0, 1, 2)

    def rule(state):
        if not dec or not on_true or not on_false:
            return None
        return pops, (on_true if dec[0] != 0 else on_false)[0], None, None

    return rule


def _memory(node, ins, ports, params):
    # The emitted token (loaded value, or 0 for a store's ordering token)
    # is produced by the executor when the access completes.
    kind = node.op
    nid = node.nid
    array = node.attrs["array"]
    idx = ins[0]
    data = ins[1] if kind == "store" else None
    pops = ports()

    def rule(state):
        for operand in ins:
            if not operand:
                return None
        index = idx[0]
        whole = int(index)
        if index != whole:
            raise DFGError(
                f"node {nid}: non-integer index {index!r} into {array!r}"
            )
        value = None if data is None else data[0]
        return pops, NO_EMIT, MemRequest(kind, array, whole, value), None

    return rule


def _join(node, ins, ports, params):
    fire = (ports(), 0, None, None)

    def rule(state):
        for operand in ins:
            if not operand:
                return None
        return fire

    return rule


#: The op table: one rule builder per DFG operation.
_BUILDERS = {
    "source": _source,
    "inject": _inject,
    "binop": _binop,
    "unop": _unop,
    "steer": _steer,
    "invariant": _invariant,
    "carry": _carry,
    "merge": _merge,
    "select": _select,
    "load": _memory,
    "store": _memory,
    "join": _join,
}


def compile_rule(node: Node, row, params: dict):
    """Compile ``node``'s firing rule (see the module docstring).

    ``row[i]`` is input ``i``'s FIFO deque, or ``None`` where the input
    is an immediate. The rule closes over exactly those deques, so an
    executor that restores state must refill them in place. Immediates
    and operator names are resolved here: an unbound kernel parameter or
    an unknown operator raises before anything runs.
    """
    try:
        build = _BUILDERS[node.op]
    except KeyError:
        raise DFGError(f"node {node.nid}: unknown op {node.op!r}") from None
    ins = tuple(
        (_resolve(node, inp, params),) if queue is None else queue
        for inp, queue in zip(node.inputs, row, strict=True)
    )

    def ports(*indices: int) -> tuple[int, ...]:
        """The port (poppable) inputs among ``indices`` — default: all."""
        return tuple(
            i for i in indices or range(len(row)) if row[i] is not None
        )

    return build(node, ins, ports, params)
