"""Dataflow graph: representation, lowering, analysis, interpretation."""

from repro.dfg.graph import (
    ALL_OPS,
    DFG,
    ImmRef,
    MEMORY_OPS,
    Node,
    PortRef,
)
from repro.dfg.interp import InterpResult, run_dfg
from repro.dfg.lower import eliminate_dead, lower_kernel, mem_token_var
from repro.dfg.ops import NO_EMIT, MemRequest, compile_rule, fresh_state

__all__ = [
    "ALL_OPS",
    "DFG",
    "ImmRef",
    "InterpResult",
    "MEMORY_OPS",
    "MemRequest",
    "NO_EMIT",
    "Node",
    "PortRef",
    "compile_rule",
    "eliminate_dead",
    "fresh_state",
    "lower_kernel",
    "mem_token_var",
    "run_dfg",
]
