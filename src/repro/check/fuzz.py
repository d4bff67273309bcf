"""Seeded random-kernel fuzzer with a greedy shrinker and corpus dir.

The generator, the repo's only one, is a plain :class:`random.Random`
walk over the kernel IR — deliberately *not* hypothesis, so ``repro
check --fuzz N --seed S`` reproduces the exact same kernel sequence on
any machine with nothing but the seed (the property tests draw that
seed from hypothesis). It emits the NUPEA-critical patterns: nested
counted loops, data-dependent bounded ``while`` loops, two-armed
``If``s, loop-carried scalar accumulators, indirect loads (``A[X[i] %
N]`` — the pointer-chasing access shape the paper's critical-load
analysis targets), and a loaded scalar that one arm of a nested ``If``
reassigns (the shape of :mod:`repro.dfg.lower`'s partial-write rule).
Every scalar live at the end is stored, so no definition is dead code.
Indices are clamped into bounds and loops carry explicit counters, so
every generated kernel terminates and the IR reference interpreter
(ground truth) always succeeds.

Each kernel is pushed through the full three-way differential oracle
(:func:`repro.check.oracle.check_kernel`) with runtime invariants and
DFG lint armed. A failing report is shrunk by greedy structural
reduction — drop statements, inline ``If`` arms and loop bodies,
shorten loop bounds, simplify expressions — re-running the oracle after
each candidate and keeping any candidate that still fails, until a
fixpoint (or the attempt budget). The minimal reproducer is written to
the corpus directory as JSON (AST via :mod:`repro.ir.serialize`, plus
the inputs, the report, and a pretty-printed listing) so a regression
test can replay it forever.

Kernels that fail *PnR* (unroutable/unplaceable at the fuzz fabric
size) are counted as skips per exception class, not findings:
routability is a capacity property, not a conformance one. A PnR
self-check failure (:class:`~repro.errors.PnRVerifyError`) is a finding.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from pathlib import Path

from repro.arch.params import ArchParams, SimParams
from repro.dfg.lower import lower_kernel
from repro.errors import PnRError, PnRVerifyError, ReproError
from repro.ir.ast import (
    ArraySpec,
    Assign,
    BinOp,
    Const,
    For,
    If,
    Kernel,
    Load,
    Store,
    Var,
    While,
)
from repro.ir.interp import run_kernel
from repro.ir.serialize import kernel_from_dict, kernel_to_dict
from repro.ir.validate import validate_kernel

#: Fuzz arrays are this many words; every index is clamped into range.
ARRAY_SIZE = 8

#: Launch parameters every fuzz kernel receives.
FUZZ_PARAMS = {"n": 3}

#: Operators the generator draws from. Division and shifts are excluded
#: (zero divisors / huge shifts would make the *generator* buggy, not
#: the layers under test); ``&``/``|`` operands are guarded through
#: comparisons so bit-ops stay on small non-negative values.
SAFE_BINOPS = ("+", "-", "*", "min", "max", "<", "<=", "==", "&", "|")

#: Scalar names the walk loads and assigns.
SCALARS = ("v0", "v1", "v2", "v3")

#: Conditions an ``If`` draws whole half the time: ``0`` and ``1`` fold
#: away during lowering; ``n`` and ``0*n`` are steered, and are true and
#: false at run time.
CONDITIONS = (Const(0), Const(1), Var("n"), BinOp("*", Const(0), Var("n")))

#: Iteration budget when pre-checking shrink candidates (a candidate
#: that lost its loop increment must fail fast, not spin to 50M).
SHRINK_ITER_BUDGET = 100_000

#: Oracle runs the shrinker may spend per failure.
SHRINK_BUDGET = 300

#: Statement nesting depth of a generated kernel body.
MAX_DEPTH = 2


def fuzz_arrays(rng: random.Random) -> dict[str, list]:
    """Deterministic initial array contents for one fuzz case."""
    return {
        "A": [rng.randrange(-4, 8) for _ in range(ARRAY_SIZE)],
        "X": [rng.randrange(0, ARRAY_SIZE) for _ in range(ARRAY_SIZE)],
    }


def _clamp(expr) -> BinOp:
    """``((expr % N) + N) % N`` — always a valid index."""
    wrapped = BinOp("%", expr, Const(ARRAY_SIZE))
    return BinOp(
        "%", BinOp("+", wrapped, Const(ARRAY_SIZE)), Const(ARRAY_SIZE)
    )


class KernelGen:
    """Seeded random kernel generator (see module doc)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._counter = 0

    def expr(self, variables: list[str], depth: int = 2):
        rng = self.rng
        if depth == 0 or not variables or rng.random() < 0.3:
            if variables and rng.random() < 0.5:
                return Var(rng.choice(variables))
            return Const(rng.randrange(-4, 5))
        op = rng.choice(SAFE_BINOPS)
        lhs = self.expr(variables, depth - 1)
        rhs = self.expr(variables, depth - 1)
        if op in ("&", "|"):
            lhs = BinOp("<", lhs, Const(2))
            rhs = BinOp("<", rhs, Const(2))
        return BinOp(op, lhs, rhs)

    def cond(self, variables: list[str]):
        """An ``If`` condition: half the time one of :data:`CONDITIONS`."""
        if self.rng.random() < 0.5:
            return self.rng.choice(CONDITIONS)
        return self.expr(variables)

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def stmts(self, variables: set[str], depth: int) -> list:
        out = []
        for _ in range(self.rng.randrange(1, 4)):
            out.extend(self.stmt(variables, depth))
        return out

    def stmt(self, variables: set[str], depth: int) -> list:
        """One statement (as a list — some patterns expand to several)."""
        rng = self.rng
        kinds = ["assign", "load", "store", "indirect"]
        if depth > 0:
            kinds += ["if", "for", "while", "accum", "partial"]
        kind = rng.choice(kinds)
        scalars = sorted(variables)
        if kind == "assign":
            name = rng.choice(SCALARS)
            stmt = Assign(name, self.expr(scalars))
            variables.add(name)
            return [stmt]
        if kind == "load":
            name = rng.choice(SCALARS)
            array = rng.choice(["A", "X"])
            stmt = Load(name, array, _clamp(self.expr(scalars)))
            variables.add(name)
            return [stmt]
        if kind == "indirect":
            # The NUPEA-critical shape: a load whose index is itself
            # loaded (A[X[e] % N]) — a two-deep critical-load chain.
            ptr = self._fresh("p")
            name = rng.choice(SCALARS)
            stmts = [
                Load(ptr, "X", _clamp(self.expr(scalars))),
                Load(name, "A", _clamp(Var(ptr))),
            ]
            variables.add(name)
            return stmts
        if kind == "store":
            return [
                Store("A", _clamp(self.expr(scalars)), self.expr(scalars))
            ]
        if kind == "partial":
            # A loaded scalar that one arm of a nested If reassigns: the
            # nested merge takes the incoming binding on its other arm,
            # and on every run that skips the enclosing arm.
            name = rng.choice(SCALARS)
            array = rng.choice(["A", "X"])
            load = Load(name, array, _clamp(self.expr(scalars)))
            variables.add(name)
            others = [v for v in scalars if v != name]
            inner_arms = [[Assign(name, self.expr(others))], []]
            rng.shuffle(inner_arms)
            outer_arms = [
                [If(self.cond(scalars), *inner_arms)],
                self.stmts(set(variables), depth - 1),
            ]
            rng.shuffle(outer_arms)
            return [load, If(self.cond(scalars), *outer_arms)]
        if kind == "if":
            cond = self.cond(scalars)
            then_vars = set(variables)
            then_body = self.stmts(then_vars, depth - 1)
            else_vars = set(variables)
            else_body = (
                self.stmts(else_vars, depth - 1)
                if rng.random() < 0.7
                else []
            )
            variables |= then_vars & else_vars
            return [If(cond, then_body, else_body)]
        if kind == "for":
            loop_var = self._fresh("i")
            body_vars = set(variables) | {loop_var}
            body = self.stmts(body_vars, depth - 1)
            return [
                For(
                    loop_var,
                    Const(0),
                    Const(rng.randrange(0, 5)),
                    Const(1),
                    body,
                )
            ]
        if kind == "accum":
            # Loop-carried scalar: init before the loop, update inside,
            # observable through a store after.
            acc = self._fresh("a")
            loop_var = self._fresh("i")
            variables.add(acc)
            body_vars = set(variables) | {loop_var}
            update = BinOp(
                rng.choice(("+", "-", "min", "max")),
                Var(acc),
                self.expr(sorted(body_vars), depth=1),
            )
            body = self.stmts(body_vars, depth - 1) + [Assign(acc, update)]
            return [
                Assign(acc, self.expr(scalars, depth=1)),
                For(
                    loop_var,
                    Const(0),
                    Const(rng.randrange(1, 5)),
                    Const(1),
                    body,
                ),
                Store("A", _clamp(self.expr(scalars)), Var(acc)),
            ]
        # while: a bounded counter guarantees termination; the extra
        # data-dependent term exercises irregular iteration counts.
        guard = self._fresh("w")
        variables.add(guard)
        body_vars = set(variables)
        body = self.stmts(body_vars, depth - 1)
        bound = self.rng.randrange(0, 5)
        body = body + [Assign(guard, BinOp("+", Var(guard), Const(1)))]
        return [
            Assign(guard, Const(0)),
            While(BinOp("<", Var(guard), Const(bound)), body),
        ]

    def kernel(self, index: int) -> Kernel:
        variables: set[str] = {"n"}
        body = self.stmts(variables, MAX_DEPTH)
        # Guarantee at least one observable effect, and observe every
        # scalar live at the end (see module doc).
        body.append(
            Store("A", Const(0), self.expr(sorted(variables), depth=1))
        )
        for slot, name in enumerate(sorted(variables & set(SCALARS)), 1):
            body.append(Store("A", Const(slot), Var(name)))
        kernel = Kernel(
            f"fuzz{index}",
            ["n"],
            [ArraySpec("A", ARRAY_SIZE), ArraySpec("X", ARRAY_SIZE)],
            body,
        )
        validate_kernel(kernel)
        return kernel


def fuzz_case(seed: int, index: int) -> tuple[Kernel, dict]:
    """Kernel ``index`` of a ``seed`` run and its inputs.

    One independent stream per case: a failure is reproducible from
    ``(seed, index)`` alone, without replaying the whole run.
    """
    rng = random.Random((seed << 20) ^ index)
    return KernelGen(rng).kernel(index), fuzz_arrays(rng)


# -- the fuzz loop ----------------------------------------------------------


@dataclasses.dataclass
class FuzzFailure:
    """One divergence found by the fuzzer."""

    index: int
    seed: int
    kernel: Kernel
    shrunk: Kernel
    report: object  # ConformanceReport
    path: Path | None = None


@dataclasses.dataclass
class FuzzResult:
    ran: int = 0
    #: PnR skips (capacity limits, not findings) by exception class name.
    skips: dict[str, int] = dataclasses.field(default_factory=dict)
    failures: list[FuzzFailure] = dataclasses.field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def skipped(self) -> int:
        return sum(self.skips.values())


#: The machine every fuzz kernel runs on: the default one, checked, and
#: quick to fail on wedges and runaways.
FUZZ_ARCH = ArchParams(
    sim=SimParams(check=True, deadlock_cycles=20_000, max_cycles=2_000_000)
)


def _oracle(kernel: Kernel, arrays: dict, seed: int):
    """Run the three-way oracle.

    A :class:`~repro.errors.PnRError` is returned, not raised: the kernel
    exceeds the fabric, a skip and not a bug. A
    :class:`~repro.errors.PnRVerifyError` is PnR contradicting its own
    reference, a finding: it becomes a ``protocol`` divergence on layer
    ``pnr``, shrunk and written like any other.
    """
    from repro.check.oracle import ConformanceReport, check_kernel

    try:
        return check_kernel(
            kernel,
            FUZZ_PARAMS,
            arrays,
            arch=FUZZ_ARCH,
            seed=seed,
            anneal_moves=400,
        )
    except PnRError as error:
        return error
    except PnRVerifyError as error:
        return ConformanceReport.failed(
            kernel.name, "pnr", f"{type(error).__name__}: {error}"
        )


def shrink_kernel(
    kernel: Kernel,
    still_fails,
    budget: int = SHRINK_BUDGET,
) -> Kernel:
    """Greedy structural shrink: keep any reduction that still fails.

    ``still_fails(kernel) -> bool`` runs the oracle; candidates must be
    valid, terminating kernels (checked here against the IR interpreter
    with a small iteration budget) that the lowering accepts (a reduction
    may leave a ``while`` whose body no longer changes its condition)
    before the oracle is spent on them.
    Restarts the candidate scan after every accepted reduction until a
    full pass accepts nothing or ``budget`` oracle runs are spent.
    """
    spent = 0
    current = kernel_to_dict(kernel)

    def viable(data: dict) -> Kernel | None:
        try:
            candidate = kernel_from_dict(data)
            validate_kernel(candidate)
            run_kernel(
                candidate,
                FUZZ_PARAMS,
                None,
                max_iterations=SHRINK_ITER_BUDGET,
            )
            lower_kernel(candidate)
        except ReproError:
            return None
        return candidate

    progress = True
    while progress and spent < budget:
        progress = False
        for candidate_data in _reductions(current):
            if spent >= budget:
                break
            candidate = viable(candidate_data)
            if candidate is None:
                continue
            spent += 1
            if still_fails(candidate):
                current = candidate_data
                progress = True
                break
    return kernel_from_dict(current)


def _reductions(data: dict):
    """Yield shrink candidates (deep-copied dicts), smallest-step first."""

    def copy(d):
        return json.loads(json.dumps(d))

    # Pass 1: drop whole statements (later statements first: the forced
    # trailing store is the likeliest to be droppable without losing
    # the failure, and dropping from the tail keeps prefixes intact).
    for path, block in _blocks(data):
        for i in reversed(range(len(block))):
            candidate = copy(data)
            _at(candidate, path)[i : i + 1] = []
            yield candidate
    # Pass 2: inline structured statements.
    for path, block in _blocks(data):
        for i, stmt in enumerate(block):
            if stmt["s"] == "if":
                for arm in ("then", "else"):
                    candidate = copy(data)
                    _at(candidate, path)[i : i + 1] = copy(stmt[arm])
                    yield candidate
            elif stmt["s"] in ("for", "while"):
                candidate = copy(data)
                _at(candidate, path)[i : i + 1] = copy(stmt["body"])
                yield candidate
    # Pass 3: simplify expressions, binop operands included (binop ->
    # operand, anything -> 0/1, an integer constant one step toward 0,
    # which also shortens a counted loop's constant trip count).
    for path in _expr_paths(data):
        expr = _at(data, path)
        replacements = []
        if expr["e"] == "binop":
            replacements += [expr["lhs"], expr["rhs"]]
        if expr["e"] != "const":
            replacements += [
                {"e": "const", "value": 0},
                {"e": "const", "value": 1},
            ]
        elif type(expr["value"]) is int and expr["value"]:
            step = 1 if expr["value"] > 0 else -1
            replacements.append({"e": "const", "value": expr["value"] - step})
        for replacement in replacements:
            candidate = copy(data)
            _at(candidate, path[:-1])[path[-1]] = copy(replacement)
            yield candidate


# -- dict-AST traversal helpers --------------------------------------------
# Only the statements :class:`KernelGen` emits: no ``par`` or ``parfor``.

_STMT_BLOCK_KEYS = {
    "if": ("then", "else"),
    "while": ("body",),
    "for": ("body",),
}
_STMT_EXPR_KEYS = {
    "assign": ("expr",),
    "load": ("index",),
    "store": ("index", "value"),
    "if": ("cond",),
    "while": ("cond",),
    "for": ("lo", "hi", "step"),
}


def _blocks(data: dict):
    """Yield (path, block) for every statement list, outermost first.

    A path is a tuple of steps navigating from the kernel dict:
    ``("body",)`` then per-statement ``(index, key)`` extensions.
    """

    def walk(block, path):
        yield path, block
        for i, stmt in enumerate(block):
            for key in _STMT_BLOCK_KEYS.get(stmt["s"], ()):
                yield from walk(stmt[key], path + (i, key))

    yield from walk(data["body"], ("body",))


def _at(data: dict, path):
    """What ``path`` leads to from ``data``."""
    for step in path:
        data = data[step]
    return data


def _expr_paths(data: dict):
    """Paths to every expression slot, binop operands included."""

    def walk(expr, path):
        yield path
        if expr["e"] == "binop":
            for side in ("lhs", "rhs"):
                yield from walk(expr[side], path + (side,))

    for path, block in _blocks(data):
        for i, stmt in enumerate(block):
            for key in _STMT_EXPR_KEYS.get(stmt["s"], ()):
                yield from walk(stmt[key], path + (i, key))


# -- corpus ----------------------------------------------------------------


def write_reproducer(
    corpus_dir: Path, failure: FuzzFailure, arrays: dict
) -> Path:
    """Write one shrunken reproducer as reviewable JSON."""
    from repro.ir.pretty import format_kernel

    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / f"fail-s{failure.seed}-k{failure.index}.json"
    payload = {
        "schema": 1,
        "seed": failure.seed,
        "index": failure.index,
        "params": FUZZ_PARAMS,
        "arrays": arrays,
        "kernel": kernel_to_dict(failure.shrunk),
        "original_kernel": kernel_to_dict(failure.kernel),
        "report": (
            failure.report.to_dict() if failure.report is not None else None
        ),
        "pretty": format_kernel(failure.shrunk).splitlines(),
    }
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


def load_reproducer(path) -> tuple[Kernel, dict, dict]:
    """Load a corpus entry back: (kernel, params, arrays)."""
    payload = json.loads(Path(path).read_text())
    return (
        kernel_from_dict(payload["kernel"]),
        payload["params"],
        payload["arrays"],
    )


def fuzz(
    count: int,
    seed: int = 0,
    corpus_dir=None,
    shrink: bool = True,
    progress=None,
) -> FuzzResult:
    """Fuzz ``count`` kernels from ``seed``; shrink and record failures.

    Deterministic: the same ``(count, seed)`` generates the same kernel
    and input sequence everywhere. ``progress`` is an optional callable
    ``(index, status, detail)`` for CLI reporting.
    """
    start = time.perf_counter()
    result = FuzzResult()
    for index in range(count):
        kernel, arrays = fuzz_case(seed, index)
        report = _oracle(kernel, arrays, seed)
        if isinstance(report, PnRError):
            kind = type(report).__name__
            result.skips[kind] = result.skips.get(kind, 0) + 1
            if progress is not None:
                progress(index, "skip", f"{kind}: {report}")
            continue
        result.ran += 1
        if report.ok:
            if progress is not None:
                progress(index, "ok", f"{report.cycles} cycles")
            continue
        if progress is not None:
            progress(index, "FAIL", report.divergences[0].describe())
        shrunk = kernel
        final_report = report
        if shrink:
            def still_fails(candidate: Kernel) -> bool:
                nonlocal final_report
                candidate_report = _oracle(candidate, arrays, seed)
                if (
                    not isinstance(candidate_report, PnRError)
                    and not candidate_report.ok
                ):
                    final_report = candidate_report
                    return True
                return False

            shrunk = shrink_kernel(kernel, still_fails)
        failure = FuzzFailure(
            index=index,
            seed=seed,
            kernel=kernel,
            shrunk=shrunk,
            report=final_report,
        )
        if corpus_dir is not None:
            failure.path = write_reproducer(
                Path(corpus_dir), failure, arrays
            )
        result.failures.append(failure)
    result.wall_time = time.perf_counter() - start
    return result
