"""Lowering: structured kernel IR -> dataflow graph.

This pass is the reproduction of effcc's dataflow lowering (paper Sec. 5):
it converts control dependencies into data dependencies via *steering
control* — steer nodes gate values into regions, carry nodes circulate
loop-carried values, merge nodes reconcile conditional definitions, and
invariant nodes replay loop-invariant values each iteration. It also
performs memory ordering by threading per-array ordering tokens through the
same machinery.

Token-cadence discipline
------------------------
The lowering maintains one invariant everywhere: *within a region, every
environment value that is a port produces exactly one token per activation
of that region*. Regions are the kernel body (one activation per launch),
loop bodies (one per iteration), and conditional arms (one per taken
activation). All gating rules follow from it:

* values entering a loop must pass through a carry (read-write or read in
  the condition) or an invariant (read-only, body-only);
* values entering a conditional arm must be steered by the arm's polarity;
* a merge arm must receive tokens only on activations where that arm is
  chosen — so arms are branch-gated values or immediates;
* a carry's ``init`` must never be an immediate (an always-available init
  would let the loop re-launch itself); constants are materialized once
  per activation with an inject node triggered by the region's control
  token.

Memory ordering
---------------
``mode='raw'`` (default) threads two ordering tokens per written array:

* the *store token* (``__memst$A``): produced by each store; loads take it
  as an extra input, so a load waits for the last prior store
  (read-after-write) while independent loads proceed in parallel;
* the *accumulation token* (``__memacc$A``): every load joins its response
  into this token; stores take it as their ordering input, so a store
  waits for all prior loads **and** the previous store (write-after-read
  and write-after-write) without serializing the loads themselves.

``mode='serialize'`` chains every access to a written array through one
token (full serialization).
"""

from __future__ import annotations

from repro.dfg.graph import DFG, ImmRef, Input, PortRef
from repro.errors import LoweringError
from repro.ir.ast import (
    Assign,
    BinOp,
    Const,
    Expr,
    For,
    If,
    Kernel,
    Load,
    Par,
    ParFor,
    Select,
    Stmt,
    Store,
    UnOp,
    Var,
    While,
    expr_vars,
    walk_stmts,
)
from repro.isa import apply_binop, apply_unop

#: Lowering-time value: a node id (token stream) or an immediate.
Val = int | ImmRef

MEM_MODES = ("raw", "serialize")


def store_token_var(array: str) -> str:
    """Pseudo-variable holding ``array``'s last-store ordering token."""
    return f"__memst${array}"


def acc_token_var(array: str) -> str:
    """Pseudo-variable accumulating ``array``'s completed accesses."""
    return f"__memacc${array}"


def mem_token_var(array: str) -> str:
    """The single ordering-token pseudo-variable (serialize mode)."""
    return f"__mem${array}"


def lower_kernel(kernel: Kernel, mem_mode: str = "raw") -> DFG:
    """Lower ``kernel`` to a validated dataflow graph.

    :meth:`repro.dfg.graph.DFG.validate` checks the graph is well formed;
    :func:`repro.check.lint.lint_strict` over the result also catches the
    well-formed-but-wrong-by-construction family (unpatched back-edges,
    ungated carry inits, cross-region steer cadences).
    """
    if mem_mode not in MEM_MODES:
        raise LoweringError(f"unknown memory-ordering mode {mem_mode!r}")
    return _Lowerer(kernel, mem_mode).lower()


class _Lowerer:
    def __init__(self, kernel: Kernel, mem_mode: str):
        self.kernel = kernel
        self.mem_mode = mem_mode
        self.dfg = DFG(kernel.name)
        self.dfg.params = list(kernel.params)
        for spec in kernel.arrays:
            self.dfg.declare_array(spec.name, spec.size, spec.dtype)
        self.ordered: set[str] = {
            s.array for s in walk_stmts(kernel.body) if isinstance(s, Store)
        }
        self.depth = 0
        self._loop_stack: list[int] = []
        self._loop_counter = 0
        self.dfg.loops_parent: dict[int, int | None] = {}
        self._inject_cache: dict[tuple, int] = {}
        self._steer_cache: dict[tuple, int] = {}
        self._cse_cache: dict[tuple, int] = {}
        self._fresh = 0

    # -- node helpers ------------------------------------------------------

    def region(self) -> int | None:
        """The innermost loop being lowered (``None`` at kernel level)."""
        return self._loop_stack[-1] if self._loop_stack else None

    def add(self, op: str, inputs: list[Input], tag: str = "", **attrs) -> int:
        attrs.setdefault("loop", self.region())
        return self.dfg.add(
            op, inputs, tag=tag, depth=self.depth, **attrs
        )

    def as_input(self, val: Val) -> Input:
        return PortRef(val) if isinstance(val, int) else val

    @staticmethod
    def _key(val: Val) -> tuple:
        if isinstance(val, int):
            return ("p", val)
        return ("i", val.kind, val.value)

    def tokenize(self, val: Val, ctl) -> int:
        """Ensure ``val`` is a token stream; inject immediates via ``ctl``."""
        if isinstance(val, int):
            return val
        trigger = ctl()
        key = (trigger, val.kind, val.value)
        nid = self._inject_cache.get(key)
        if nid is None:
            # It fires once per trigger token: the trigger's region.
            nid = self.add(
                "inject", [PortRef(trigger)], value=val, tag=f"inj:{val.value}",
                loop=self.dfg.nodes[trigger].attrs["loop"],
            )
            self._inject_cache[key] = nid
        return nid

    def binop(self, opname: str, lhs: Val, rhs: Val, ctl, tag: str = "") -> Val:
        if isinstance(lhs, ImmRef) and isinstance(rhs, ImmRef):
            if lhs.kind == "const" and rhs.kind == "const":
                return ImmRef("const", apply_binop(opname, lhs.value, rhs.value))
            lhs = self.tokenize(lhs, ctl)
        key = ("binop", opname, self._key(lhs), self._key(rhs))
        nid = self._cse_cache.get(key)
        if nid is None:
            nid = self.add(
                "binop",
                [self.as_input(lhs), self.as_input(rhs)],
                opname=opname,
                tag=tag,
            )
            self._cse_cache[key] = nid
        return nid

    def unop(self, opname: str, operand: Val, ctl, tag: str = "") -> Val:
        if isinstance(operand, ImmRef):
            if operand.kind == "const":
                return ImmRef("const", apply_unop(opname, operand.value))
            operand = self.tokenize(operand, ctl)
        key = ("unop", opname, self._key(operand))
        nid = self._cse_cache.get(key)
        if nid is None:
            nid = self.add(
                "unop", [self.as_input(operand)], opname=opname, tag=tag
            )
            self._cse_cache[key] = nid
        return nid

    def steer(
        self, polarity: bool, dec: int, val: Val, tag: str = "", **attrs
    ) -> int:
        key = ("steer", polarity, dec, self._key(val))
        nid = self._steer_cache.get(key)
        if nid is None:
            nid = self.add(
                "steer",
                [PortRef(dec), self.as_input(val)],
                polarity=polarity,
                tag=tag,
                **attrs,
            )
            self._steer_cache[key] = nid
        return nid

    def control(self, polarity: bool, dec: int, tag: str):
        """The ``ctl`` of a region entered now: its control steer, built
        on first use (maybe in a nested loop) but tagged with this region."""
        loop = self.region()
        return lambda: self.steer(polarity, dec, dec, tag=tag, loop=loop)

    def fresh_name(self, hint: str) -> str:
        self._fresh += 1
        return f"%{hint}@{self._fresh}"

    # -- main entry --------------------------------------------------------

    def token_vars(self, array: str) -> list[str]:
        """The ordering pseudo-variables for one ordered array."""
        if self.mem_mode == "serialize":
            return [mem_token_var(array)]
        return [store_token_var(array), acc_token_var(array)]

    def all_token_vars(self) -> list[str]:
        out: list[str] = []
        for array in sorted(self.ordered):
            out.extend(self.token_vars(array))
        return out

    def flatten_tokens(self, env: dict[str, Val], ctl) -> None:
        """Collapse pending accumulation tuples into single tokens.

        Called before any region boundary (loop, conditional, parallel
        fork) so the carry/steer/merge machinery only ever sees scalar
        token values.
        """
        if self.mem_mode == "serialize":
            return
        for array in sorted(self.ordered):
            acc = acc_token_var(array)
            value = env.get(acc)
            if isinstance(value, tuple):
                if len(value) == 1:
                    env[acc] = value[0]
                else:
                    env[acc] = self.add(
                        "join",
                        [self.as_input(v) for v in value],
                        tag=f"acc:{array}",
                    )

    def lower(self) -> DFG:
        source = self.add("source", [], tag="launch")
        env: dict[str, Val] = {
            p: ImmRef("param", p) for p in self.kernel.params
        }
        for token in self.all_token_vars():
            env[token] = source
        self.lower_block(self.kernel.body, env, lambda: source)
        eliminate_dead(self.dfg)
        self.dfg.validate()
        return self.dfg

    # -- expressions -------------------------------------------------------

    def lower_expr(self, expr: Expr, env: dict[str, Val], ctl) -> Val:
        if isinstance(expr, Const):
            return ImmRef("const", expr.value)
        if isinstance(expr, Var):
            try:
                return env[expr.name]
            except KeyError:
                raise LoweringError(
                    f"undefined variable {expr.name!r} during lowering"
                ) from None
        if isinstance(expr, BinOp):
            lhs = self.lower_expr(expr.lhs, env, ctl)
            rhs = self.lower_expr(expr.rhs, env, ctl)
            return self.binop(expr.op, lhs, rhs, ctl)
        if isinstance(expr, UnOp):
            operand = self.lower_expr(expr.operand, env, ctl)
            return self.unop(expr.op, operand, ctl)
        if isinstance(expr, Select):
            return self._lower_select(expr, env, ctl)
        raise LoweringError(f"unknown expression {expr!r}")

    def _lower_select(self, expr: Select, env: dict[str, Val], ctl) -> Val:
        cond = self.lower_expr(expr.cond, env, ctl)
        on_true = self.lower_expr(expr.on_true, env, ctl)
        on_false = self.lower_expr(expr.on_false, env, ctl)
        if isinstance(cond, ImmRef) and cond.kind == "const":
            return on_true if cond.value else on_false
        dec = self.tokenize(cond, ctl)
        key = ("select", dec, self._key(on_true), self._key(on_false))
        nid = self._cse_cache.get(key)
        if nid is None:
            nid = self.add(
                "select",
                [
                    PortRef(dec),
                    self.as_input(on_true),
                    self.as_input(on_false),
                ],
                tag="select",
            )
            self._cse_cache[key] = nid
        return nid

    # -- statements --------------------------------------------------------

    def lower_block(self, body: list[Stmt], env: dict[str, Val], ctl) -> None:
        for stmt in body:
            self.lower_stmt(stmt, env, ctl)

    def lower_stmt(self, stmt: Stmt, env: dict[str, Val], ctl) -> None:
        if isinstance(stmt, Assign):
            env[stmt.var] = self.lower_expr(stmt.expr, env, ctl)
        elif isinstance(stmt, Load):
            self._lower_load(stmt, env, ctl)
        elif isinstance(stmt, Store):
            self._lower_store(stmt, env, ctl)
        elif isinstance(stmt, If):
            self._lower_if(stmt, env, ctl)
        elif isinstance(stmt, While):
            self._lower_while(stmt, env, ctl)
        elif isinstance(stmt, (For, ParFor)):
            self._lower_for(stmt, env, ctl)
        elif isinstance(stmt, Par):
            self._lower_par(stmt, env, ctl)
        else:
            raise LoweringError(
                f"unknown statement type {type(stmt).__name__}"
            )

    def _lower_load(self, stmt: Load, env: dict[str, Val], ctl) -> None:
        index = self.lower_expr(stmt.index, env, ctl)
        inputs = [self.as_input(index)]
        has_ord = stmt.array in self.ordered
        if has_ord:
            if self.mem_mode == "serialize":
                token = env[mem_token_var(stmt.array)]
            else:
                token = env[store_token_var(stmt.array)]
            inputs.append(PortRef(self.tokenize(token, ctl)))
        elif isinstance(index, ImmRef):
            inputs = [PortRef(self.tokenize(index, ctl))]
        nid = self.add(
            "load",
            inputs,
            array=stmt.array,
            has_ord=has_ord,
            ord_count=1 if has_ord else 0,
            tag=stmt.var,
        )
        env[stmt.var] = nid
        if has_ord:
            if self.mem_mode == "serialize":
                env[mem_token_var(stmt.array)] = nid
            else:
                # Record the load in the accumulation token so a later
                # store waits for it (write-after-read). Pending tokens
                # stay as a tuple until a store or region boundary
                # consumes them, avoiding per-load join nodes.
                acc = acc_token_var(stmt.array)
                current = env[acc]
                if isinstance(current, tuple):
                    env[acc] = current + (nid,)
                else:
                    env[acc] = (current, nid)

    def _lower_store(self, stmt: Store, env: dict[str, Val], ctl) -> None:
        index = self.lower_expr(stmt.index, env, ctl)
        value = self.lower_expr(stmt.value, env, ctl)
        inputs = [self.as_input(index), self.as_input(value)]
        has_ord = stmt.array in self.ordered
        ord_count = 0
        if has_ord:
            if self.mem_mode == "serialize":
                tokens: tuple = (env[mem_token_var(stmt.array)],)
            else:
                pending = env[acc_token_var(stmt.array)]
                tokens = pending if isinstance(pending, tuple) else (pending,)
            for token in tokens:
                inputs.append(PortRef(self.tokenize(token, ctl)))
            ord_count = len(tokens)
        elif isinstance(index, ImmRef) and isinstance(value, ImmRef):
            inputs[0] = PortRef(self.tokenize(index, ctl))
        nid = self.add(
            "store",
            inputs,
            array=stmt.array,
            has_ord=has_ord,
            ord_count=ord_count,
            tag=f"st:{stmt.array}",
        )
        if has_ord:
            for token in self.token_vars(stmt.array):
                env[token] = nid

    # -- conditionals ------------------------------------------------------

    def _lower_if(self, stmt: If, env: dict[str, Val], ctl) -> None:
        cond = self.lower_expr(stmt.cond, env, ctl)
        if isinstance(cond, ImmRef) and cond.kind == "const":
            taken = stmt.then_body if cond.value else stmt.else_body
            self.lower_block(taken, env, ctl)
            return
        self.flatten_tokens(env, ctl)
        dec = self.tokenize(cond, ctl)
        then_reads, then_writes = self._reads_writes(stmt.then_body)
        else_reads, else_writes = self._reads_writes(stmt.else_body)

        env_t = dict(env)
        for var in [v for v in env if v in then_reads]:
            if isinstance(env[var], int):
                env_t[var] = self.steer(True, dec, env[var], tag=f"gateT:{var}")
        env_f = dict(env)
        for var in [v for v in env if v in else_reads]:
            if isinstance(env[var], int):
                env_f[var] = self.steer(False, dec, env[var], tag=f"gateF:{var}")

        ctl_t = self.control(True, dec, "ctlT")
        ctl_f = self.control(False, dec, "ctlF")
        self.lower_block(stmt.then_body, env_t, ctl_t)
        self.flatten_tokens(env_t, ctl_t)
        self.lower_block(stmt.else_body, env_f, ctl_f)
        self.flatten_tokens(env_f, ctl_f)

        for var in self._merge_vars(env, env_t, env_f, then_writes, else_writes):
            tv = self._arm_value(var, env, env_t, then_writes, True, dec)
            fv = self._arm_value(var, env, env_f, else_writes, False, dec)
            if (
                isinstance(tv, ImmRef)
                and isinstance(fv, ImmRef)
                and tv == fv
            ):
                env[var] = tv
                continue
            env[var] = self.add(
                "merge",
                [PortRef(dec), self.as_input(tv), self.as_input(fv)],
                tag=f"phi:{var}",
            )

    def _merge_vars(self, env, env_t, env_f, then_writes, else_writes):
        ordered: list[str] = []
        for var in env:
            if (var in then_writes or var in else_writes) and (
                var in env_t and var in env_f
            ):
                ordered.append(var)
        for var in env_t:
            if var not in env and var in env_f and var not in ordered:
                ordered.append(var)
        return ordered

    def _arm_value(self, var, env, arm_env, arm_writes, polarity, dec) -> Val:
        value = arm_env[var] if var in arm_env else env[var]
        if var in arm_writes or var not in env:
            return value
        # Unmodified in this arm: the merge needs an arm-gated copy of the
        # incoming value (immediates are always available, so pass through).
        incoming = env[var]
        if isinstance(incoming, ImmRef):
            return incoming
        return self.steer(polarity, dec, incoming, tag=f"gate:{var}")

    # -- loops ---------------------------------------------------------

    def _lower_while(self, stmt: While, env: dict[str, Val], ctl) -> None:
        self.flatten_tokens(env, ctl)
        body_reads, body_writes = self._reads_writes(stmt.body)
        cond_reads = expr_vars(stmt.cond)

        carried_rw = [v for v in env if v in body_writes]
        cond_ro = [
            v
            for v in env
            if v in cond_reads
            and v not in body_writes
            and isinstance(env[v], int)
        ]
        body_ro = [
            v
            for v in env
            if v in body_reads
            and v not in body_writes
            and v not in cond_ro
            and isinstance(env[v], int)
        ]

        if not cond_reads & body_writes:
            raise LoweringError(
                "while condition is loop-invariant (nothing it reads is "
                "modified by the body), so the loop runs zero or infinite "
                "iterations"
            )

        loop_id = self._push_loop()
        placeholder = PortRef(-1)
        carries: dict[str, int] = {}
        for var in carried_rw + cond_ro:
            init = env[var]
            init_input = (
                PortRef(init)
                if isinstance(init, int)
                else PortRef(self.tokenize(init, ctl))
            )
            carries[var] = self.add(
                "carry",
                [init_input, placeholder, placeholder],
                tag=f"carry:{var}",
            )

        hdr_env = dict(env)
        hdr_env.update(carries)
        first_carry = carries[(carried_rw + cond_ro)[0]]
        cond = self.lower_expr(stmt.cond, hdr_env, lambda: first_carry)
        if isinstance(cond, ImmRef):
            raise LoweringError("while condition lowered to a constant")

        body_env = dict(env)
        for var in carried_rw:
            # Always gate, even when the body never reads the variable:
            # nested regions consume the binding (e.g. as a carry init),
            # and an ungated carry output has header cadence, not
            # iteration cadence.
            body_env[var] = self.steer(
                True, cond, carries[var], tag=f"into:{var}"
            )
        for var in cond_ro:
            if var in body_reads:
                body_env[var] = self.steer(
                    True, cond, carries[var], tag=f"into:{var}"
                )
        for var in body_ro:
            body_env[var] = self.add(
                "invariant",
                [self.as_input(env[var]), PortRef(cond)],
                tag=f"inv:{var}",
            )

        body_ctl = self.control(True, cond, "ctlL")
        self.depth += 1
        self.lower_block(stmt.body, body_env, body_ctl)
        self.flatten_tokens(body_env, body_ctl)
        self.depth -= 1

        for var in carried_rw:
            back = body_env[var]
            if isinstance(back, ImmRef):
                back = self.tokenize(back, body_ctl)
            node = self.dfg.nodes[carries[var]]
            node.inputs[1] = PortRef(back)
            node.inputs[2] = PortRef(cond)
        for var in cond_ro:
            back = self.steer(True, cond, carries[var], tag=f"into:{var}")
            node = self.dfg.nodes[carries[var]]
            node.inputs[1] = PortRef(back)
            node.inputs[2] = PortRef(cond)

        for var in carried_rw:
            env[var] = self.steer(
                False, cond, carries[var], tag=f"exit:{var}"
            )
        self._pop_loop(loop_id)

    def _lower_for(self, stmt: For | ParFor, env: dict[str, Val], ctl) -> None:
        # Desugar to a while loop with bounds hoisted so they are evaluated
        # once (matching the IR interpreter's semantics). A shadowed outer
        # binding (possible in unvalidated probe kernels) is restored.
        shadowed = env.get(stmt.var)
        env[stmt.var] = self.lower_expr(stmt.lo, env, ctl)
        hi_name = self.fresh_name(f"hi_{stmt.var}")
        env[hi_name] = self.lower_expr(stmt.hi, env, ctl)
        step_name = self.fresh_name(f"step_{stmt.var}")
        env[step_name] = self.lower_expr(stmt.step, env, ctl)
        bump = Assign(
            stmt.var, BinOp("+", Var(stmt.var), Var(step_name))
        )
        loop = While(
            BinOp("<", Var(stmt.var), Var(hi_name)), list(stmt.body) + [bump]
        )
        self._lower_while(loop, env, ctl)
        if shadowed is None:
            del env[stmt.var]
        else:
            env[stmt.var] = shadowed
        del env[hi_name]
        del env[step_name]

    def _lower_par(self, stmt: Par, env: dict[str, Val], ctl) -> None:
        self.flatten_tokens(env, ctl)
        finals: dict[str, list[Val]] = {}
        for block in stmt.blocks:
            block_env = dict(env)
            self.lower_block(block, block_env, ctl)
            self.flatten_tokens(block_env, ctl)
            for token in self.all_token_vars():
                if block_env.get(token) != env.get(token):
                    finals.setdefault(token, []).append(block_env[token])
        for token, parts in finals.items():
            if len(parts) == 1:
                env[token] = parts[0]
            else:
                env[token] = self.add(
                    "join",
                    [self.as_input(p) for p in parts],
                    tag=f"join:{token}",
                )

    # -- bookkeeping -------------------------------------------------------

    def _push_loop(self) -> int:
        self._loop_counter += 1
        loop_id = self._loop_counter
        self.dfg.loops_parent[loop_id] = self.region()
        self._loop_stack.append(loop_id)
        return loop_id

    def _pop_loop(self, loop_id: int) -> None:
        popped = self._loop_stack.pop()
        assert popped == loop_id

    def _reads_writes(self, body: list[Stmt]) -> tuple[set[str], set[str]]:
        """Over-approximate variable reads/writes of ``body``.

        Memory-ordering pseudo-variables are included according to the
        ordering mode: loads read the array's token; stores read and write
        it; in ``serialize`` mode loads also write it.

        A variable *written inside a nested loop* also counts as a read of
        the enclosing block: lowering turns it into a loop-carried value
        whose carry node consumes the incoming binding as its init, so the
        surrounding region (an ``If`` arm, say) must gate that binding to
        region cadence exactly as it would any read. Without this, a loop
        under an untaken branch still receives the ungated init token,
        which then wedges in the loop's ``exit:`` steer — a token leak.

        Likewise a variable *written in exactly one arm of a nested*
        ``If`` counts as a read of the enclosing block: on the other arm
        the binding that leaves the nested ``If`` is the incoming one —
        through the nested merge's ``gate:`` steer, or as is when the
        condition folds — so the enclosing arm must gate it to region
        cadence like any read. Without this, an enclosing arm that does
        not otherwise read the variable passes the ungated binding to
        that ``gate:`` steer or to its own ``phi:`` merge, whose token
        then leaks on every activation that skips the arm.
        """
        reads: set[str] = set()
        writes: set[str] = set()
        for stmt in walk_stmts(body):
            if isinstance(stmt, Assign):
                reads |= expr_vars(stmt.expr)
                writes.add(stmt.var)
            elif isinstance(stmt, Load):
                reads |= expr_vars(stmt.index)
                writes.add(stmt.var)
                if stmt.array in self.ordered:
                    if self.mem_mode == "serialize":
                        reads.add(mem_token_var(stmt.array))
                        writes.add(mem_token_var(stmt.array))
                    else:
                        reads.add(store_token_var(stmt.array))
                        reads.add(acc_token_var(stmt.array))
                        writes.add(acc_token_var(stmt.array))
            elif isinstance(stmt, Store):
                reads |= expr_vars(stmt.index) | expr_vars(stmt.value)
                if stmt.array in self.ordered:
                    for token in self.token_vars(stmt.array):
                        reads.add(token)
                        writes.add(token)
            elif isinstance(stmt, If):
                reads |= expr_vars(stmt.cond)
                # A one-armed write merges with the incoming binding.
                reads |= (
                    self._reads_writes(stmt.then_body)[1]
                    ^ self._reads_writes(stmt.else_body)[1]
                )
            elif isinstance(stmt, While):
                reads |= expr_vars(stmt.cond)
                # Loop-carried writes consume their init (see docstring).
                reads |= self._reads_writes(stmt.body)[1]
            elif isinstance(stmt, (For, ParFor)):
                reads |= (
                    expr_vars(stmt.lo)
                    | expr_vars(stmt.hi)
                    | expr_vars(stmt.step)
                )
                writes.add(stmt.var)
                reads |= self._reads_writes(stmt.body)[1]
        return reads, writes


def eliminate_dead(dfg: DFG) -> int:
    """Remove nodes with no path to a store; returns the removal count.

    Stores are the only observable effects, so everything else is live only
    if a store transitively depends on it. Kernels without stores are left
    untouched (nothing is observable; keep the graph for inspection).
    """
    stores = [n.nid for n in dfg.nodes.values() if n.op == "store"]
    if not stores:
        return 0
    live: set[int] = set()
    stack = list(stores)
    while stack:
        nid = stack.pop()
        if nid in live:
            continue
        live.add(nid)
        for inp in dfg.nodes[nid].inputs:
            if isinstance(inp, PortRef) and inp.src not in live:
                stack.append(inp.src)
    dead = [nid for nid in dfg.nodes if nid not in live]
    for nid in dead:
        del dfg.nodes[nid]
    return len(dead)
