"""Structured kernel IR.

This IR plays the role of effcc's MLIR ``scf``-level representation: kernels
are structured programs over scalar variables and flat arrays, with ``for`` /
``while`` / ``if`` regions and an explicitly parallelizable ``parfor``.

Expressions are side-effect free; memory is touched only through the
:class:`Load` and :class:`Store` statements, which keeps the dataflow
lowering's memory-ordering analysis simple (exactly like effcc's memory
ordering pass operating on dedicated memory operations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IRError

#: Binary operators understood by the IR, the DFG and the simulator.
BINARY_OPS = (
    "+", "-", "*", "//", "/", "%",
    "&", "|", "^", "<<", ">>",
    "<", "<=", ">", ">=", "==", "!=",
    "min", "max",
)

#: Unary operators.
UNARY_OPS = ("-", "not", "abs")


class Expr:
    """Base class for IR expressions, with operator-overloading sugar."""

    def __add__(self, other):
        return BinOp("+", self, wrap(other))

    def __radd__(self, other):
        return BinOp("+", wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, wrap(other))

    def __rsub__(self, other):
        return BinOp("-", wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, wrap(other))

    def __rmul__(self, other):
        return BinOp("*", wrap(other), self)

    def __floordiv__(self, other):
        return BinOp("//", self, wrap(other))

    def __rfloordiv__(self, other):
        return BinOp("//", wrap(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, wrap(other))

    def __rtruediv__(self, other):
        return BinOp("/", wrap(other), self)

    def __mod__(self, other):
        return BinOp("%", self, wrap(other))

    def __rmod__(self, other):
        return BinOp("%", wrap(other), self)

    def __and__(self, other):
        return BinOp("&", self, wrap(other))

    def __rand__(self, other):
        return BinOp("&", wrap(other), self)

    def __or__(self, other):
        return BinOp("|", self, wrap(other))

    def __ror__(self, other):
        return BinOp("|", wrap(other), self)

    def __xor__(self, other):
        return BinOp("^", self, wrap(other))

    def __rxor__(self, other):
        return BinOp("^", wrap(other), self)

    def __lshift__(self, other):
        return BinOp("<<", self, wrap(other))

    def __rlshift__(self, other):
        return BinOp("<<", wrap(other), self)

    def __rshift__(self, other):
        return BinOp(">>", self, wrap(other))

    def __rrshift__(self, other):
        return BinOp(">>", wrap(other), self)

    def __lt__(self, other):
        return BinOp("<", self, wrap(other))

    def __le__(self, other):
        return BinOp("<=", self, wrap(other))

    def __gt__(self, other):
        return BinOp(">", self, wrap(other))

    def __ge__(self, other):
        return BinOp(">=", self, wrap(other))

    def eq(self, other):
        """Equality comparison (named method: ``==`` is reserved)."""
        return BinOp("==", self, wrap(other))

    def ne(self, other):
        """Inequality comparison (named method: ``!=`` is reserved)."""
        return BinOp("!=", self, wrap(other))

    def __neg__(self):
        return UnOp("-", self)

    def min(self, other):
        return BinOp("min", self, wrap(other))

    def max(self, other):
        return BinOp("max", self, wrap(other))


def wrap(value) -> Expr:
    """Coerce a Python number into a :class:`Const`; pass exprs through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(int(value))
    if isinstance(value, (int, float)):
        return Const(value)
    raise IRError(f"cannot use {value!r} as an IR expression")


@dataclass(frozen=True)
class Const(Expr):
    """A compile-time constant scalar."""

    value: int | float

    def __repr__(self):
        return f"Const({self.value})"


@dataclass(frozen=True)
class Var(Expr):
    """A scalar variable reference (kernel parameter or local)."""

    name: str

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic, logical, or comparison operation."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise IRError(f"unknown binary operator {self.op!r}")

    def __repr__(self):
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation."""

    op: str
    operand: Expr

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise IRError(f"unknown unary operator {self.op!r}")

    def __repr__(self):
        return f"({self.op} {self.operand!r})"


@dataclass(frozen=True)
class Select(Expr):
    """Eager ternary: both arms evaluate; the decider picks one.

    Unlike an ``If`` statement, a select introduces no control flow in the
    dataflow graph — it lowers to a single select node, which is cheaper
    than steer/merge gating when both arms are inexpensive to compute.
    """

    cond: Expr
    on_true: Expr
    on_false: Expr

    def __repr__(self):
        return (
            f"select({self.cond!r}, {self.on_true!r}, {self.on_false!r})"
        )


def select(cond, on_true, on_false) -> Select:
    """Build an eager ternary expression."""
    return Select(wrap(cond), wrap(on_true), wrap(on_false))


class Stmt:
    """Base class for IR statements."""


@dataclass
class Assign(Stmt):
    """``var = expr``."""

    var: str
    expr: Expr


@dataclass
class Load(Stmt):
    """``var = array[index]``."""

    var: str
    array: str
    index: Expr


@dataclass
class Store(Stmt):
    """``array[index] = value``."""

    array: str
    index: Expr
    value: Expr


@dataclass
class If(Stmt):
    """Two-armed conditional; either arm may be empty."""

    cond: Expr
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    """``while cond: body``. ``cond`` must be load-free."""

    cond: Expr
    body: list[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    """Counted loop ``for var in range(lo, hi, step)``; step > 0."""

    var: str
    lo: Expr
    hi: Expr
    step: Expr
    body: list[Stmt] = field(default_factory=list)


@dataclass
class ParFor(Stmt):
    """A counted loop whose iterations are independent and parallelizable.

    Iterations may freely read shared state but must not assign scalar
    variables defined outside the loop; stores from distinct iterations must
    target distinct addresses (the validator enforces the former, tests
    enforce the latter by checking final memory against a reference).
    """

    var: str
    lo: Expr
    hi: Expr
    step: Expr
    body: list[Stmt] = field(default_factory=list)


@dataclass
class Par(Stmt):
    """Explicitly parallel blocks (produced by the parallelizer).

    Each block executes concurrently with independent scalar state; the
    lowering forks and re-joins memory-ordering chains around the blocks.
    """

    blocks: list[list[Stmt]] = field(default_factory=list)


@dataclass(frozen=True)
class ArraySpec:
    """Declares a flat array of ``size`` words of ``dtype`` ('i' or 'f')."""

    name: str
    size: int
    dtype: str = "i"

    def __post_init__(self):
        if self.dtype not in ("i", "f"):
            raise IRError(f"array {self.name}: dtype must be 'i' or 'f'")
        if self.size <= 0:
            raise IRError(f"array {self.name}: size must be positive")


@dataclass
class Kernel:
    """A complete kernel: parameters, array declarations, and a body.

    Parameters are launch-time scalars (they become immediates in the DFG,
    like Monaco's ``xdata`` program arguments). Arrays live in the simulated
    flat memory; the launcher assigns each a base address.
    """

    name: str
    params: list[str]
    arrays: list[ArraySpec]
    body: list[Stmt]

    def array(self, name: str) -> ArraySpec:
        """Return the spec for a declared array."""
        for spec in self.arrays:
            if spec.name == name:
                return spec
        raise IRError(f"kernel {self.name}: no array named {name!r}")

    def array_names(self) -> list[str]:
        return [spec.name for spec in self.arrays]


def walk_stmts(body: list[Stmt]):
    """Yield every statement in ``body``, recursively, in program order."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, (While, For, ParFor)):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, Par):
            for block in stmt.blocks:
                yield from walk_stmts(block)


def walk_exprs(expr: Expr):
    """Yield ``expr`` and every sub-expression."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_exprs(expr.lhs)
        yield from walk_exprs(expr.rhs)
    elif isinstance(expr, UnOp):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, Select):
        yield from walk_exprs(expr.cond)
        yield from walk_exprs(expr.on_true)
        yield from walk_exprs(expr.on_false)


def expr_vars(expr: Expr) -> set[str]:
    """The set of variable names referenced by ``expr``."""
    return {e.name for e in walk_exprs(expr) if isinstance(e, Var)}

