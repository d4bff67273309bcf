"""Scalar operation semantics shared by every execution level.

The IR interpreter, the untimed DFG interpreter, and the timed simulator all
evaluate arithmetic through this module, so "what does ``//`` mean" has
exactly one answer across the stack (one of the three-level-equivalence
contracts in DESIGN.md).

Integer division and modulo follow C semantics (truncation toward zero),
matching what effcc-compiled C kernels would compute.
"""

from __future__ import annotations

from repro.errors import ReproError

Number = int | float


def _c_div(a: Number, b: Number) -> Number:
    if b == 0:
        raise ReproError("integer division by zero in kernel")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


def _c_mod(a: Number, b: Number) -> Number:
    if b == 0:
        raise ReproError("integer modulo by zero in kernel")
    return a - _c_div(a, b) * b


BINARY_IMPLS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": _c_div,
    "/": lambda a, b: a / b,
    "%": _c_mod,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "min": min,
    "max": max,
}

UNARY_IMPLS = {
    "-": lambda a: -a,
    "not": lambda a: int(not a),
    "abs": abs,
}

#: Operators producing a boolean (0/1) result; these may drive steering.
COMPARISON_OPS = frozenset(("<", "<=", ">", ">=", "==", "!=", "not"))


def apply_binop(op: str, lhs: Number, rhs: Number) -> Number:
    """Evaluate a binary operator with the library-wide semantics.

    The one-shot form over :data:`BINARY_IMPLS`; compiled DFG firing
    rules (:func:`repro.dfg.ops.compile_rule`) bind the table entry once.
    """
    try:
        impl = BINARY_IMPLS[op]
    except KeyError:
        raise ReproError(f"unknown binary operator {op!r}") from None
    return impl(lhs, rhs)


def apply_unop(op: str, operand: Number) -> Number:
    """Evaluate a unary operator with the library-wide semantics
    (one-shot form over :data:`UNARY_IMPLS`, see :func:`apply_binop`)."""
    try:
        impl = UNARY_IMPLS[op]
    except KeyError:
        raise ReproError(f"unknown unary operator {op!r}") from None
    return impl(operand)


def truthy(value: Number) -> bool:
    """Steering-control truth test: nonzero means taken."""
    return value != 0
