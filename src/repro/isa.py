"""Scalar operation semantics shared by every execution level.

The IR interpreter, the untimed DFG interpreter, and the timed simulator all
evaluate arithmetic through this module, so "what does ``//`` mean" has
exactly one answer across the stack (one of the three-level-equivalence
contracts in DESIGN.md).

Integer division and modulo follow C semantics (truncation toward zero),
matching what effcc-compiled C kernels would compute.

It also names the memory operations (:data:`MEMORY_OPS`), one set for
every layer that singles them out, and holds the two memory rules every
level shares: how a run's memory starts (:func:`launch_memory`) and when
two memories agree (:func:`mismatches`).
"""

from __future__ import annotations

from repro.errors import KernelFault, ReproError

Number = int | float


def _c_div(a: Number, b: Number) -> Number:
    if b == 0:
        raise KernelFault("integer division by zero in kernel")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


def _c_mod(a: Number, b: Number) -> Number:
    if b == 0:
        raise KernelFault("integer modulo by zero in kernel")
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

#: Operations whose execution touches memory (must be placed on LS PEs).
MEMORY_OPS = frozenset(("load", "store"))

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


def launch_memory(
    kernel: str, declared: dict, arrays: dict | None, error: type
) -> dict[str, list]:
    """A run's starting memory. ``declared`` maps each array of ``kernel``
    to ``(size, dtype)``; ``arrays`` gives contents (copied) by name, the
    rest are zero-filled. An undeclared name or a wrong length raises
    ``error``, the calling level's own class."""
    arrays = arrays or {}
    unknown = sorted(set(arrays) - set(declared))
    if unknown:
        raise error(
            f"arrays {unknown} are not declared by kernel {kernel!r} "
            f"(declared: {sorted(declared)})"
        )
    memory: dict[str, list] = {}
    for name, (size, dtype) in declared.items():
        data = list(arrays.get(name, [0 if dtype == "i" else 0.0] * size))
        if len(data) != size:
            raise error(
                f"array {name!r}: got {len(data)} words, declared {size}"
            )
        memory[name] = data
    return memory


def mismatches(want: dict, got: dict, tolerance: float = 0.0):
    """Yield ``(array, index, got, want)`` for each array of ``want``, in
    order, that ``got`` disagrees on: the first index whose values differ
    (by more than ``tolerance``, or at all when it is 0), or, with
    ``index`` None, the two lengths (``got`` None: the array is missing).
    """
    for name, expected in want.items():
        actual = got.get(name)
        if actual is None or len(actual) != len(expected):
            length = None if actual is None else len(actual)
            yield name, None, length, len(expected)
            continue
        for index, (g, w) in enumerate(zip(actual, expected)):
            if abs(g - w) > tolerance if tolerance else g != w:
                yield name, index, g, w
                break
