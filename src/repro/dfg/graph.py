"""Dataflow graph (DFG) representation.

The DFG is the compiler's output and the simulator's input: a graph of
dataflow instructions in Monaco's style (Sec. 4.1 of the paper) — ordered
dataflow with steering control (phi^-1), loop carries, and explicit memory
operations. Each node produces at most one output value per firing, fanned
out to every consumer.

Inputs are either *ports* (edges from a producer node) or *immediates*.
Immediates model Monaco's ``xdata`` program-argument FUs: compile-time
constants or launch-time kernel parameters that are always available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DFGError
from repro.isa import MEMORY_OPS

#: All DFG operations.
ALL_OPS = frozenset(
    (
        "source",
        "inject",
        "binop",
        "unop",
        "steer",
        "invariant",
        "carry",
        "merge",
        "select",
        "load",
        "store",
        "join",
    )
)

#: Port names per op, in input order. ``load``/``store`` may append an
#: optional trailing ``ord`` port; ``join`` takes any number of ports.
PORT_NAMES = {
    "source": (),
    "inject": ("trig",),
    "binop": ("lhs", "rhs"),
    "unop": ("a",),
    "steer": ("dec", "val"),
    "invariant": ("val", "dec"),
    "carry": ("init", "back", "dec"),
    "merge": ("dec", "t", "f"),
    "select": ("dec", "t", "f"),
    "load": ("idx",),
    "store": ("idx", "val"),
    "join": (),
}

#: (op, port-name) pairs where an immediate input is legal. Everywhere
#: else the token *cadence* matters, so an always-available immediate
#: would corrupt the ordered-dataflow firing discipline.
IMM_OK = frozenset(
    (
        ("binop", "lhs"),
        ("binop", "rhs"),
        ("unop", "a"),
        ("steer", "val"),
        ("merge", "t"),
        ("merge", "f"),
        ("select", "t"),
        ("select", "f"),
        ("load", "idx"),
        ("store", "idx"),
        ("store", "val"),
        ("invariant", "val"),
    )
)


@dataclass(frozen=True)
class PortRef:
    """An edge input: consume tokens produced by node ``src``."""

    src: int


@dataclass(frozen=True)
class ImmRef:
    """An immediate input: ``('const', value)`` or ``('param', name)``."""

    kind: str
    value: int | float | str

    def __post_init__(self):
        if self.kind not in ("const", "param"):
            raise DFGError(f"bad immediate kind {self.kind!r}")

    def resolve(self, params: dict[str, int | float]) -> int | float:
        if self.kind == "const":
            return self.value
        try:
            return params[self.value]
        except KeyError:
            raise DFGError(f"unbound kernel parameter {self.value!r}") from None


Input = PortRef | ImmRef


@dataclass
class Node:
    """One dataflow instruction."""

    nid: int
    op: str
    inputs: list[Input] = field(default_factory=list)
    #: Op-specific attributes: ``opname`` (binop/unop), ``polarity``
    #: (steer: True steers on nonzero deciders), ``array`` (load/store),
    #: ``value`` (inject, an ImmRef), ``has_ord`` (load/store).
    attrs: dict = field(default_factory=dict)
    #: Loop-nesting depth at creation (0 = top level).
    depth: int = 0
    #: Debug tag, e.g. the IR variable this node computes.
    tag: str = ""
    #: Criticality class assigned by analysis: "A", "B", or "C".
    criticality: str = "C"

    def port_name(self, index: int) -> str:
        names = PORT_NAMES[self.op]
        if index < len(names):
            return names[index]
        if self.op in MEMORY_OPS:
            return "ord"
        return f"in{index}"

    def is_memory(self) -> bool:
        return self.op in MEMORY_OPS


def node_label(node: Node) -> str:
    """A node's display label: its op, then its debug tag if any."""
    return node.op + (f" {node.tag!r}" if node.tag else "")


class DFG:
    """A dataflow graph: nodes, implicit edges, and launch metadata."""

    def __init__(self, name: str = "dfg"):
        self.name = name
        self.nodes: dict[int, Node] = {}
        self._next_id = 0
        #: Arrays referenced by memory nodes: name -> size in words.
        self.arrays: dict[str, int] = {}
        #: dtype per array ('i' or 'f'), for zero-initialization.
        self.array_dtypes: dict[str, str] = {}
        #: Kernel parameter names expected at launch.
        self.params: list[str] = []

    # -- construction --------------------------------------------------

    def add(
        self,
        op: str,
        inputs: list[Input] | None = None,
        tag: str = "",
        depth: int = 0,
        **attrs,
    ) -> int:
        """Add a node; returns its id."""
        if op not in ALL_OPS:
            raise DFGError(f"unknown op {op!r}")
        node = Node(
            self._next_id,
            op,
            list(inputs or []),
            dict(attrs),
            depth=depth,
            tag=tag,
        )
        self.nodes[node.nid] = node
        self._next_id += 1
        return node.nid

    def declare_array(self, name: str, size: int, dtype: str = "i") -> None:
        if name in self.arrays and self.arrays[name] != size:
            raise DFGError(f"array {name!r} redeclared with different size")
        self.arrays[name] = size
        self.array_dtypes[name] = dtype

    def declared(self) -> dict[str, tuple[int, str]]:
        """Array name -> ``(size, dtype)``, as
        :func:`repro.isa.launch_memory` takes it."""
        return {
            name: (size, self.array_dtypes.get(name, "i"))
            for name, size in self.arrays.items()
        }

    # -- queries ---------------------------------------------------------

    def consumers(self) -> dict[int, list[tuple[int, int]]]:
        """Map producer nid -> list of (consumer nid, input index)."""
        out: dict[int, list[tuple[int, int]]] = {n: [] for n in self.nodes}
        for node in self.nodes.values():
            for index, inp in enumerate(node.inputs):
                if isinstance(inp, PortRef):
                    out[inp.src].append((node.nid, index))
        return out

    def memory_nodes(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.is_memory()]

    def edge_list(self) -> list[tuple[int, int, int]]:
        """All edges as (src, dst, dst_input_index)."""
        edges = []
        for node in self.nodes.values():
            for index, inp in enumerate(node.inputs):
                if isinstance(inp, PortRef):
                    edges.append((inp.src, node.nid, index))
        return edges

    def op_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for node in self.nodes.values():
            hist[node.op] = hist.get(node.op, 0) + 1
        return hist

    def __len__(self) -> int:
        return len(self.nodes)

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`DFGError` on failure."""
        sources = [n for n in self.nodes.values() if n.op == "source"]
        if len(sources) > 1:
            raise DFGError("multiple source nodes")
        for node in self.nodes.values():
            self._validate_node(node)

    def _validate_node(self, node: Node) -> None:
        names = PORT_NAMES[node.op]
        arity = len(node.inputs)
        if node.op in MEMORY_OPS:
            base = len(names)
            ord_count = node.attrs.get(
                "ord_count", 1 if node.attrs.get("has_ord") else 0
            )
            if node.op == "load" and ord_count > 1:
                raise DFGError(
                    f"load node {node.nid}: at most one ordering input"
                )
            expected = base + ord_count
            if arity != expected:
                raise DFGError(
                    f"node {node.nid} ({node.op}): expected {expected} "
                    f"inputs, got {arity}"
                )
            if "array" not in node.attrs:
                raise DFGError(f"node {node.nid} ({node.op}): missing array")
            if node.attrs["array"] not in self.arrays:
                raise DFGError(
                    f"node {node.nid}: array {node.attrs['array']!r} "
                    "not declared"
                )
        elif node.op == "join":
            if arity < 1:
                raise DFGError(f"join node {node.nid} has no inputs")
        elif node.op == "source":
            if arity != 0:
                raise DFGError("source node must have no inputs")
        else:
            if arity != len(names):
                raise DFGError(
                    f"node {node.nid} ({node.op}): expected "
                    f"{len(names)} inputs, got {arity}"
                )
        if node.op == "binop" and "opname" not in node.attrs:
            raise DFGError(f"binop node {node.nid} missing opname")
        if node.op == "unop" and "opname" not in node.attrs:
            raise DFGError(f"unop node {node.nid} missing opname")
        if node.op == "steer" and "polarity" not in node.attrs:
            raise DFGError(f"steer node {node.nid} missing polarity")
        if node.op == "inject" and not isinstance(
            node.attrs.get("value"), ImmRef
        ):
            raise DFGError(f"inject node {node.nid} missing ImmRef value")
        has_edge = False
        for index, inp in enumerate(node.inputs):
            if isinstance(inp, PortRef):
                if inp.src not in self.nodes:
                    raise DFGError(
                        f"node {node.nid}: dangling edge from {inp.src}"
                    )
                has_edge = True
            elif isinstance(inp, ImmRef):
                key = (node.op, node.port_name(index))
                if key not in IMM_OK:
                    raise DFGError(
                        f"node {node.nid} ({node.op}): immediate not "
                        f"allowed on port {node.port_name(index)!r}"
                    )
            else:
                raise DFGError(f"node {node.nid}: bad input {inp!r}")
        if node.op not in ("source",) and not has_edge:
            raise DFGError(
                f"node {node.nid} ({node.op}) has no edge input; it would "
                "be self-firing"
            )
