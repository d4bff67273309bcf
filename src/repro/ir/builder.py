"""Ergonomic construction of kernel IR.

:class:`KernelBuilder` is the user-facing frontend of the compiler stack: it
plays the role of writing C for effcc. Statements are appended to the block
that is currently open; ``for`` / ``parfor`` / ``while`` / ``if`` regions are
opened with context managers.

Example (dot product)::

    b = KernelBuilder("dot", params=["n"])
    x = b.array("x", 64, "f")
    y = b.array("y", 64, "f")
    out = b.array("out", 1, "f")
    acc = b.let("acc", 0.0)
    with b.for_("i", 0, b.p.n) as i:
        b.set(acc, acc + x.load(i) * y.load(i))
    out.store(0, acc)
    kernel = b.build()
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

from repro.errors import IRError
from repro.ir.ast import (
    ArraySpec,
    Assign,
    For,
    If,
    Kernel,
    Load,
    ParFor,
    Stmt,
    Store,
    Var,
    While,
    wrap,
)
from repro.ir.validate import validate_kernel


class ArrayHandle:
    """A declared array, offering ``load`` / ``store`` sugar."""

    def __init__(self, builder: "KernelBuilder", spec: ArraySpec):
        self._builder = builder
        self.spec = spec
        self.name = spec.name

    def load(self, index, name: str | None = None) -> Var:
        """Emit ``name = array[index]`` and return the destination var."""
        dest = name or self._builder.fresh(f"{self.name}_ld")
        self._builder.emit(Load(dest, self.name, wrap(index)))
        return Var(dest)

    def store(self, index, value) -> None:
        """Emit ``array[index] = value``."""
        self._builder.emit(Store(self.name, wrap(index), wrap(value)))


class KernelBuilder:
    """Incrementally builds a :class:`~repro.ir.ast.Kernel`."""

    def __init__(self, name: str, params: list[str] | None = None):
        self.name = name
        self.params = list(params or [])
        self._arrays: list[ArraySpec] = []
        self._body: list[Stmt] = []
        self._blocks: list[list[Stmt]] = [self._body]
        self._fresh_counter = 0
        self._built = False
        self._else_used: set[int] = set()
        #: Parameter vars, accessible as attributes: ``b.p.n``.
        self.p = SimpleNamespace(**{n: Var(n) for n in self.params})

    # -- declarations ------------------------------------------------------

    def array(self, name: str, size: int, dtype: str = "i") -> ArrayHandle:
        """Declare a flat array and return a handle for loads/stores."""
        if any(spec.name == name for spec in self._arrays):
            raise IRError(f"array {name!r} declared twice")
        spec = ArraySpec(name, size, dtype)
        self._arrays.append(spec)
        return ArrayHandle(self, spec)

    def fresh(self, hint: str = "t") -> str:
        """Return a fresh variable name."""
        self._fresh_counter += 1
        return f"%{hint}{self._fresh_counter}"

    # -- straight-line statements -----------------------------------------

    def emit(self, stmt: Stmt) -> None:
        """Append a statement to the currently open block."""
        if self._built:
            raise IRError("builder already finalized")
        self._blocks[-1].append(stmt)

    def let(self, name: str, expr) -> Var:
        """Emit ``name = expr`` for a new variable and return its Var."""
        self.emit(Assign(name, wrap(expr)))
        return Var(name)

    def set(self, var: Var | str, expr) -> None:
        """Emit an assignment to an existing variable."""
        name = var.name if isinstance(var, Var) else var
        self.emit(Assign(name, wrap(expr)))

    # -- regions -----------------------------------------------------------

    @contextlib.contextmanager
    def for_(self, var: str, lo, hi, step=1):
        """Open a counted sequential loop; yields the induction Var."""
        stmt = For(var, wrap(lo), wrap(hi), wrap(step))
        self.emit(stmt)
        self._blocks.append(stmt.body)
        try:
            yield Var(var)
        finally:
            self._blocks.pop()

    @contextlib.contextmanager
    def parfor(self, var: str, lo, hi, step=1):
        """Open a parallelizable counted loop; yields the induction Var."""
        stmt = ParFor(var, wrap(lo), wrap(hi), wrap(step))
        self.emit(stmt)
        self._blocks.append(stmt.body)
        try:
            yield Var(var)
        finally:
            self._blocks.pop()

    @contextlib.contextmanager
    def while_(self, cond):
        """Open a while loop whose condition is re-evaluated each iteration."""
        stmt = While(wrap(cond))
        self.emit(stmt)
        self._blocks.append(stmt.body)
        try:
            yield
        finally:
            self._blocks.pop()

    @contextlib.contextmanager
    def if_(self, cond):
        """Open the then-branch of a conditional."""
        stmt = If(wrap(cond))
        self.emit(stmt)
        self._blocks.append(stmt.then_body)
        try:
            yield
        finally:
            self._blocks.pop()

    @contextlib.contextmanager
    def else_(self):
        """Open the else-branch of the most recently closed conditional."""
        block = self._blocks[-1]
        if not block or not isinstance(block[-1], If):
            raise IRError("else_() must directly follow an if_() block")
        stmt = block[-1]
        if id(stmt) in self._else_used:
            raise IRError("this conditional already has an else branch")
        self._else_used.add(id(stmt))
        self._blocks.append(stmt.else_body)
        try:
            yield
        finally:
            self._blocks.pop()

    # -- finalization --------------------------------------------------

    def build(self, validate: bool = True) -> Kernel:
        """Finalize and (by default) validate the kernel."""
        if len(self._blocks) != 1:
            raise IRError("build() called with an open region")
        self._built = True
        kernel = Kernel(self.name, self.params, self._arrays, self._body)
        if validate:
            validate_kernel(kernel)
        return kernel


__all__ = ["KernelBuilder", "ArrayHandle"]
