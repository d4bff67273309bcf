"""Unit tests for DFG firing semantics (the compiled rule state machines)."""

from collections import deque, namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dfg.graph import DFG, ImmRef, Node, PortRef
from repro.dfg.ops import NO_EMIT, compile_rule, fresh_state
from repro.errors import DFGError, KernelFault, ReproError
from repro.isa import apply_binop

#: A rule's result, named for readable assertions.
Firing = namedtuple("Firing", "pops emit mem state")


class Fifos:
    """Hand-fed FIFO double."""

    def __init__(self):
        self.queues: dict[tuple[int, int], deque] = {}
        #: nid -> rule compiled over these deques (see :func:`fire`).
        self.rules: dict = {}

    def queue(self, nid, index):
        return self.queues.setdefault((nid, index), deque())

    def feed(self, nid, index, *values):
        self.queue(nid, index).extend(values)

    def pop(self, node, index):
        return self.queues[(node.nid, index)].popleft()


#: Array sizes the rules are compiled against (the memory tests use "A").
SIZES = {"A": 4}


def fire(node, state, fifos, params):
    """Evaluate ``node``'s rule once. The rule is compiled on first use
    over the double's deques (``row``: a deque per port input, None per
    immediate) and reused afterwards, as the executors do."""
    rule = fifos.rules.get(node.nid)
    if rule is None:
        row = [
            fifos.queue(node.nid, index) if isinstance(inp, PortRef) else None
            for index, inp in enumerate(node.inputs)
        ]
        rule = fifos.rules[node.nid] = compile_rule(node, row, params, SIZES)
    fired = rule(state)
    return None if fired is None else Firing(*fired)


def apply(node, state, fifos, decision):
    for index in decision.pops:
        fifos.pop(node, index)
    if decision.state is not None:
        state.update(decision.state)


def node_of(op, inputs, **attrs):
    return Node(0, op, inputs, attrs)


SRC = PortRef(99)


class TestSource:
    def test_fires_once(self):
        node = node_of("source", [])
        state = fresh_state(node)
        fifos = Fifos()
        d = fire(node, state, fifos, {})
        assert d.emit == 0
        apply(node, state, fifos, d)
        assert fire(node, state, fifos, {}) is None


class TestInject:
    def test_emits_value_per_trigger(self):
        node = node_of("inject", [SRC], value=ImmRef("param", "n"))
        state = fresh_state(node)
        fifos = Fifos()
        assert fire(node, state, fifos, {"n": 7}) is None
        fifos.feed(0, 0, 0, 0)
        d = fire(node, state, fifos, {"n": 7})
        assert d.emit == 7 and d.pops == (0,)


class TestBinop:
    def test_port_port(self):
        node = node_of("binop", [SRC, PortRef(98)], opname="-")
        fifos = Fifos()
        fifos.feed(0, 0, 10)
        assert fire(node, {}, fifos, {}) is None
        fifos.feed(0, 1, 4)
        d = fire(node, {}, fifos, {})
        assert d.emit == 6 and d.pops == (0, 1)

    def test_port_imm(self):
        node = node_of("binop", [SRC, ImmRef("const", 3)], opname="*")
        fifos = Fifos()
        fifos.feed(0, 0, 5)
        d = fire(node, {}, fifos, {})
        assert d.emit == 15 and d.pops == (0,)

    @given(
        op=st.sampled_from(["+", "-", "*", "min", "max", "<", "=="]),
        a=st.integers(-100, 100),
        b=st.integers(-100, 100),
    )
    def test_matches_isa(self, op, a, b):
        node = node_of("binop", [SRC, PortRef(98)], opname=op)
        fifos = Fifos()
        fifos.feed(0, 0, a)
        fifos.feed(0, 1, b)
        assert fire(node, {}, fifos, {}).emit == apply_binop(op, a, b)


class TestUnop:
    def test_negation(self):
        node = node_of("unop", [SRC], opname="-")
        fifos = Fifos()
        fifos.feed(0, 0, 4)
        assert fire(node, {}, fifos, {}).emit == -4


class TestSteer:
    def test_true_polarity_forwards_on_true(self):
        node = node_of("steer", [SRC, PortRef(98)], polarity=True)
        fifos = Fifos()
        fifos.feed(0, 0, 1)
        fifos.feed(0, 1, 42)
        d = fire(node, {}, fifos, {})
        assert d.emit == 42

    def test_true_polarity_drops_on_false(self):
        node = node_of("steer", [SRC, PortRef(98)], polarity=True)
        fifos = Fifos()
        fifos.feed(0, 0, 0)
        fifos.feed(0, 1, 42)
        d = fire(node, {}, fifos, {})
        assert d.emit is NO_EMIT and d.pops == (0, 1)

    def test_false_polarity(self):
        node = node_of("steer", [SRC, PortRef(98)], polarity=False)
        fifos = Fifos()
        fifos.feed(0, 0, 0)
        fifos.feed(0, 1, 7)
        assert fire(node, {}, fifos, {}).emit == 7

    def test_imm_value_operand(self):
        node = node_of(
            "steer", [SRC, ImmRef("const", 5)], polarity=True
        )
        fifos = Fifos()
        fifos.feed(0, 0, 1)
        d = fire(node, {}, fifos, {})
        assert d.emit == 5 and d.pops == (0,)


class TestCarry:
    def make(self):
        node = node_of("carry", [SRC, PortRef(98), PortRef(97)])
        return node, fresh_state(node), Fifos()

    def test_full_loop_protocol(self):
        node, state, fifos = self.make()
        # INIT: emits the init value.
        fifos.feed(0, 0, 100)
        d = fire(node, state, fifos, {})
        assert d.emit == 100 and d.state == {"phase": "run"}
        apply(node, state, fifos, d)
        # RUN, dec true: forwards the back value.
        fifos.feed(0, 2, 1)
        assert fire(node, state, fifos, {}) is None  # back missing
        fifos.feed(0, 1, 101)
        d = fire(node, state, fifos, {})
        assert d.emit == 101 and d.state is None
        apply(node, state, fifos, d)
        # RUN, dec false: resets without emitting.
        fifos.feed(0, 2, 0)
        d = fire(node, state, fifos, {})
        assert d.emit is NO_EMIT and d.state == {"phase": "init"}
        apply(node, state, fifos, d)
        # Next activation re-reads init.
        fifos.feed(0, 0, 200)
        assert fire(node, state, fifos, {}).emit == 200

    def test_zero_trip_loop(self):
        node, state, fifos = self.make()
        fifos.feed(0, 0, 9)
        apply(node, state, fifos, fire(node, state, fifos, {}))
        fifos.feed(0, 2, 0)
        d = fire(node, state, fifos, {})
        assert d.emit is NO_EMIT and d.state == {"phase": "init"}


class TestInvariant:
    def make(self):
        node = node_of("invariant", [SRC, PortRef(98)])
        return node, fresh_state(node), Fifos()

    def test_holds_and_replays(self):
        node, state, fifos = self.make()
        fifos.feed(0, 0, 77)
        assert fire(node, state, fifos, {}) is None  # no dec yet
        fifos.feed(0, 1, 1)
        d = fire(node, state, fifos, {})
        assert d.emit == 77 and d.state["held"]
        apply(node, state, fifos, d)
        fifos.feed(0, 1, 1)
        d = fire(node, state, fifos, {})
        assert d.emit == 77 and d.state is None
        apply(node, state, fifos, d)
        fifos.feed(0, 1, 0)
        d = fire(node, state, fifos, {})
        assert d.emit is NO_EMIT and not d.state["held"]

    def test_zero_trip_discards_value(self):
        node, state, fifos = self.make()
        fifos.feed(0, 0, 77)
        fifos.feed(0, 1, 0)
        d = fire(node, state, fifos, {})
        assert d.emit is NO_EMIT
        assert d.pops == (0, 1)
        apply(node, state, fifos, d)
        assert not state["held"]


class TestMerge:
    def make(self):
        node = node_of("merge", [SRC, PortRef(98), PortRef(97)])
        return node, Fifos()

    def test_waits_for_chosen_arm_only(self):
        node, fifos = self.make()
        fifos.feed(0, 0, 1)  # choose t
        fifos.feed(0, 2, 500)  # f arm present but not chosen
        assert fire(node, {}, fifos, {}) is None
        fifos.feed(0, 1, 400)
        d = fire(node, {}, fifos, {})
        assert d.emit == 400 and d.pops == (0, 1)

    def test_false_chooses_f(self):
        node, fifos = self.make()
        fifos.feed(0, 0, 0)
        fifos.feed(0, 2, 500)
        assert fire(node, {}, fifos, {}).emit == 500

    def test_imm_arm(self):
        node = node_of(
            "merge", [SRC, ImmRef("const", 7), PortRef(97)]
        )
        fifos = Fifos()
        fifos.feed(0, 0, 1)
        d = fire(node, {}, fifos, {})
        assert d.emit == 7 and d.pops == (0,)


class TestMemoryOps:
    def test_load_produces_request(self):
        node = node_of("load", [SRC], array="A", has_ord=False)
        fifos = Fifos()
        fifos.feed(0, 0, 3)
        d = fire(node, {}, fifos, {})
        assert d.emit is NO_EMIT
        assert d.mem.kind == "load" and d.mem.index == 3

    def test_load_with_ord_waits_for_token(self):
        node = node_of("load", [SRC, PortRef(98)], array="A", has_ord=True)
        fifos = Fifos()
        fifos.feed(0, 0, 3)
        assert fire(node, {}, fifos, {}) is None
        fifos.feed(0, 1, 0)
        assert fire(node, {}, fifos, {}).mem is not None

    def test_store_request_carries_value(self):
        node = node_of(
            "store", [SRC, PortRef(98)], array="A", has_ord=False
        )
        fifos = Fifos()
        fifos.feed(0, 0, 2)
        fifos.feed(0, 1, 55)
        d = fire(node, {}, fifos, {})
        assert d.mem.kind == "store"
        assert d.mem.index == 2 and d.mem.value == 55

    def test_non_integer_index_raises(self):
        node = node_of("load", [SRC], array="A", has_ord=False)
        fifos = Fifos()
        fifos.feed(0, 0, 2.5)
        with pytest.raises(KernelFault, match="non-integer"):
            fire(node, {}, fifos, {})

    @pytest.mark.parametrize("op", ["load", "store"])
    @pytest.mark.parametrize("index", [4, 7, -1])
    def test_out_of_range_index_raises_naming_the_node(self, op, index):
        """The bounds check is the rule's: both executors raise this."""
        inputs = [SRC] if op == "load" else [SRC, PortRef(98)]
        node = Node(2, op, inputs, {"array": "A", "has_ord": False})
        fifos = Fifos()
        fifos.feed(2, 0, index)
        fifos.feed(2, 1, 55)
        with pytest.raises(
            KernelFault,
            match=rf"^node 2: index {index} out of bounds for array 'A' "
            r"of size 4$",
        ):
            fire(node, {}, fifos, {})


class TestJoin:
    def test_waits_for_all(self):
        node = node_of("join", [SRC, PortRef(98), PortRef(97)])
        fifos = Fifos()
        fifos.feed(0, 0, 0)
        fifos.feed(0, 1, 0)
        assert fire(node, {}, fifos, {}) is None
        fifos.feed(0, 2, 0)
        d = fire(node, {}, fifos, {})
        assert d.emit == 0 and d.pops == (0, 1, 2)


# -- immediates: resolved at compile time, never popped ----------------------

#: (op, attrs, one value per input, positions made immediate).
IMM_SHAPES = [
    ("binop", {"opname": "-"}, (10, 4), {0}),
    ("binop", {"opname": "-"}, (10, 4), {1}),
    ("binop", {"opname": "-"}, (10, 4), {0, 1}),
    ("steer", {"polarity": True}, (1, 42), {1}),
    ("steer", {"polarity": True}, (0, 42), {1}),
    ("steer", {"polarity": False}, (0, 42), {0}),
    ("select", {}, (1, 5, 6), {1}),
    ("select", {}, (0, 5, 6), {1, 2}),
    ("select", {}, (1, 5, 6), {0}),
    ("merge", {}, (1, 400, 500), {0}),
    ("merge", {}, (0, 400, 500), {0}),
    ("merge", {}, (0, 400, 500), {0, 2}),
    ("load", {"array": "A", "has_ord": False}, (3,), {0}),
    ("load", {"array": "A", "has_ord": True}, (3, 0), {0}),
    ("store", {"array": "A", "has_ord": False}, (2, 55), {0}),
    ("store", {"array": "A", "has_ord": True}, (2, 55, 0), {0, 1}),
]


@pytest.mark.parametrize("op,attrs,values,imms", IMM_SHAPES)
def test_immediate_shape_matches_port_fed(op, attrs, values, imms):
    def fire_with(immediates):
        node = node_of(
            op,
            [
                ImmRef("const", value) if index in immediates else PortRef(90)
                for index, value in enumerate(values)
            ],
            **attrs,
        )
        fifos = Fifos()
        for index, value in enumerate(values):
            if index not in immediates:
                fifos.feed(0, index, value)
        return fire(node, fresh_state(node), fifos, {})

    ported = fire_with(set())
    immediate = fire_with(imms)
    assert immediate.pops == tuple(i for i in ported.pops if i not in imms)
    assert immediate[1:] == ported[1:]  # emit, mem, state


def test_param_immediate_is_resolved_once_at_compile_time():
    node = node_of("binop", [SRC, ImmRef("param", "k")], opname="+")
    fifos = Fifos()
    fifos.feed(0, 0, 1, 1)
    params = {"k": 10}
    assert fire(node, {}, fifos, params).emit == 11
    params["k"] = 99  # the compiled rule keeps the launch-time value
    assert fire(node, {}, fifos, params).emit == 11


class TestCompileTimeErrors:
    def test_unbound_parameter_names_node_and_parameter(self):
        node = Node(7, "binop", [SRC, ImmRef("param", "n")], {"opname": "+"})
        with pytest.raises(DFGError, match=r"node 7 .*unbound.*'n'"):
            compile_rule(node, [deque(), None], {}, {})

    def test_unbound_inject_value(self):
        node = Node(4, "inject", [SRC], {"value": ImmRef("param", "n")})
        with pytest.raises(DFGError, match=r"node 4 .*unbound.*'n'"):
            compile_rule(node, [deque()], {}, {})

    @pytest.mark.parametrize(
        "op,inputs,kind",
        [("binop", [SRC, SRC], "binary"), ("unop", [SRC], "unary")],
    )
    def test_unknown_operator_names_node_and_operator(self, op, inputs, kind):
        node = Node(5, op, inputs, {"opname": "**"})
        with pytest.raises(ReproError, match=rf"node 5 .*{kind}.*'\*\*'"):
            compile_rule(node, [deque() for _ in inputs], {}, {})

    def test_unknown_op(self):
        with pytest.raises(DFGError, match="node 3: unknown op 'teleport'"):
            compile_rule(Node(3, "teleport"), [], {}, {})

    def test_port_input_without_a_fifo(self):
        node = node_of("unop", [SRC], opname="-")
        with pytest.raises(DFGError, match="no FIFO"):
            compile_rule(node, [None], {}, {})
