"""Runtime invariant checkers (``repro.check.invariants``).

Two layers of coverage:

* **system** — every Table 1 workload simulates to quiescence with the
  checker armed, with cycle skipping on *and* off, and the results are
  bit-identical to an unchecked run (the checker only reads the tick
  records), and a checker replaying a run's records alone agrees;
* **unit** — every rule in the catalog is driven to a violation through
  the checker's rule methods (and ``on_tick``, the tick record they run
  from) with hand-built histories, pinning both the trigger condition
  and the diagnostic text.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams, SimParams
from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.core.policy import EFFCC
from repro.dfg.graph import PortRef
from repro.dfg.lower import lower_kernel
from repro.errors import SimulationError
from repro.pnr.flow import compile_once
from repro.sim.engine import simulate
from repro.sim.memsys import MemStats
from repro.workloads.registry import ALL_WORKLOADS, make_workload

from kernels import dot_kernel

FABRIC = monaco(12, 12)
PLAIN = ArchParams()
CHECKED = ArchParams(sim=SimParams(check=True))

_COMPILED: dict[str, object] = {}


def _compiled(name):
    if name not in _COMPILED:
        instance = make_workload(name, scale="tiny")
        _COMPILED[name] = (
            instance,
            compile_once(
                instance.kernel, FABRIC, PLAIN, EFFCC, parallelism=1
            ),
        )
    return _COMPILED[name]


def _run(name, arch):
    instance, compiled = _compiled(name)
    arrays = {k: list(v) for k, v in instance.arrays.items()}
    return simulate(compiled, instance.params, arrays, arch)


# -- system: checker armed on the full registry -----------------------------


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_checked_run_is_bit_identical_and_skip_invariant(name, request):
    """Every workload passes every invariant, under the skipping
    scheduler and the per-cycle loop, and the checker perturbs nothing:
    stats and memory equal the unchecked run."""
    plain = _run(name, PLAIN)
    checked = _run(name, CHECKED)
    request.getfixturevalue("per_cycle_loop")
    checked_noskip = _run(name, CHECKED)
    assert checked.stats == plain.stats
    assert checked.memory == plain.memory
    # SimStats equality already excludes executed/skipped by design;
    # pin the invariant ledger across the two loops explicitly.
    assert checked_noskip.stats == checked.stats
    assert checked_noskip.memory == checked.memory
    assert checked_noskip.stats.skipped_cycles == 0
    assert (
        checked_noskip.stats.executed_cycles
        == checked.stats.executed_cycles + checked.stats.skipped_cycles
    )
    instance, _ = _compiled(name)
    instance.check(checked.memory)


def test_checker_is_a_function_of_the_tick_records(monkeypatch):
    """A fresh checker fed only a checked run's tick records ends with
    the live checker's ledgers and passes the same quiescence audit: the
    rules need no engine state before ``finish``."""
    from test_cycle_skip import _simulate

    records, audited = [], []
    real_tick = InvariantChecker.on_tick
    real_finish = InvariantChecker.finish

    def recorded(checker, now, emitted, fired, changes, pushes):
        records.append((now, list(emitted), list(fired), list(pushes)))
        real_tick(checker, now, emitted, fired, changes, pushes)

    def finish(checker, stats, engine):
        audited.append(engine)
        real_finish(checker, stats, engine)

    monkeypatch.setattr(InvariantChecker, "on_tick", recorded)
    monkeypatch.setattr(InvariantChecker, "finish", finish)
    run = _simulate("spmspv", "upea2", "latency-bound", sim=dict(check=True))
    monkeypatch.undo()
    live = run.obs.check
    assert live.issues > 0 and len(audited) == 1

    replay = InvariantChecker(live.dfg, live.capacity, live.max_outstanding)
    for now, emitted, fired, pushes in records:
        replay.on_tick(now, emitted, fired, (), pushes)
    for ledger in ("fired", "issues", "responses", "pushed", "popped"):
        assert getattr(replay, ledger) == getattr(live, ledger), ledger
    replay.finish(run.stats, audited[0])


def test_violation_is_a_simulation_error():
    assert issubclass(InvariantViolation, SimulationError)


# -- unit: every rule fires --------------------------------------------------


def make_checker(capacity=2, max_outstanding=2):
    dfg = lower_kernel(dot_kernel())
    return InvariantChecker(dfg, capacity, max_outstanding), dfg


def edge_key(checker):
    return next(iter(checker.shadow))


def mem_nid(dfg, op="load"):
    return next(n.nid for n in dfg.nodes.values() if n.op == op)


def test_pop_from_empty_shadow_is_token_conservation():
    checker, _dfg = make_checker()
    consumer, port = edge_key(checker)
    with pytest.raises(InvariantViolation, match="token-conservation"):
        checker.fire(5, consumer, (port,))


def test_tick_record_drives_the_rules():
    """``on_tick`` runs the rules over a hand-built record: a firing
    that pops an empty shadow FIFO, and an issue past the limit by the
    checker's own in-flight count."""
    checker, _dfg = make_checker()
    consumer, port = edge_key(checker)
    with pytest.raises(InvariantViolation, match="token-conservation"):
        checker.on_tick(5, [], [(consumer, (port,), False, True)], (), [])

    checker, dfg = make_checker(max_outstanding=2)
    issue = [(mem_nid(dfg), (), True, False)]
    checker.on_tick(3, [], issue, (), [])
    checker.on_tick(4, [], issue, (), [])
    with pytest.raises(InvariantViolation, match="max-outstanding"):
        checker.on_tick(5, [], issue, (), [])


def test_same_tick_consume_is_token_cadence():
    checker, dfg = make_checker()
    consumer, port = edge_key(checker)
    producer = dfg.nodes[consumer].inputs[port].src
    checker.commit(7, [(producer, 1)])
    with pytest.raises(InvariantViolation, match="token-cadence"):
        checker.fire(7, consumer, (port,))  # pushed at 7, popped at 7
    # ...but the next tick is fine.
    checker.commit(7, [(producer, 1)])
    checker.fire(8, consumer, (port,))


def test_overfull_fifo_is_fifo_capacity():
    checker, dfg = make_checker(capacity=2)
    consumer, port = edge_key(checker)
    producer = dfg.nodes[consumer].inputs[port].src
    checker.commit(1, [(producer, 1)])
    checker.commit(2, [(producer, 1)])
    with pytest.raises(InvariantViolation, match="fifo-capacity"):
        checker.commit(3, [(producer, 1)])


def test_issue_over_limit_is_max_outstanding():
    checker, dfg = make_checker(max_outstanding=2)
    nid = mem_nid(dfg)
    checker.issue(3, nid)
    checker.issue(4, nid)  # two in flight by the checker's own count
    reply = SimpleNamespace(seq=1, issue_cycle=3, arrived_cycle=5)
    checker.response(5, nid, reply)
    checker.issue(6, nid)  # a response freed a slot: fine
    with pytest.raises(InvariantViolation, match="max-outstanding"):
        checker.issue(7, nid)


def test_issue_before_predecessor_response_is_memory_ordering():
    # A RAW hazard on A[0] makes the lowering chain the load behind the
    # store with an ordering token.
    from repro.ir.ast import ArraySpec, Const, Kernel, Load, Store, Var

    kernel = Kernel(
        "raw_chain",
        [],
        [ArraySpec("A", 2, "i"), ArraySpec("B", 2, "i")],
        [
            Store("A", Const(0), Const(7)),
            Load("v", "A", Const(0)),
            Store("B", Const(0), Var("v")),
        ],
    )
    dfg = lower_kernel(kernel)
    checker = InvariantChecker(dfg, 2, 2)
    assert checker._mem_preds, "expected an ordering chain for the RAW pair"
    nid, (pred, *_rest) = next(iter(checker._mem_preds.items()))
    with pytest.raises(InvariantViolation, match="memory-ordering"):
        checker.issue(9, nid)
    checker = InvariantChecker(dfg, 2, 2)
    # Predecessor responds at 9 -> issuing *at* 9 is still too early...
    record = SimpleNamespace(seq=0, issue_cycle=1, arrived_cycle=8)
    checker.response(9, pred, record)
    with pytest.raises(InvariantViolation, match="memory-ordering"):
        checker.issue(9, nid)
    # ...strictly after is legal.
    checker = InvariantChecker(dfg, 2, 2)
    checker.response(9, pred, record)
    checker.issue(10, nid)


def test_response_timing_and_order_rules():
    checker, dfg = make_checker()
    nid = mem_nid(dfg)
    bad = SimpleNamespace(seq=0, issue_cycle=5, arrived_cycle=3)
    with pytest.raises(InvariantViolation, match="response-timing"):
        checker.response(6, nid, bad)  # arrived before issue

    checker2, dfg2 = make_checker()
    nid2 = mem_nid(dfg2)
    checker2.response(
        6, nid2, SimpleNamespace(seq=1, issue_cycle=1, arrived_cycle=5)
    )
    with pytest.raises(InvariantViolation, match="response-order"):
        checker2.response(
            7, nid2, SimpleNamespace(seq=1, issue_cycle=2, arrived_cycle=6)
        )


def _quiescent_stats():
    """A stats/engine pair that satisfies every finish() identity."""
    stats = SimpleNamespace(
        executed_cycles=6,
        skipped_cycles=5,
        system_cycles=10,
        mem=MemStats(),
        firings={},
    )
    frontend = SimpleNamespace(audit=lambda: 0, in_network=0)
    engine = SimpleNamespace(tokens=0, mem_inflight=0, frontend=frontend)
    return stats, engine


def test_finish_accepts_a_consistent_ledger():
    checker, _dfg = make_checker()
    stats, engine = _quiescent_stats()
    checker.finish(stats, engine)  # must not raise


@pytest.mark.parametrize(
    "rule,mutate",
    [
        ("cycle-ledger", lambda s, e: setattr(s, "skipped_cycles", 99)),
        ("cache-ledger", lambda s, e: setattr(s.mem, "hits", 1)),
        (
            "service-ledger",
            lambda s, e: (
                setattr(s.mem, "loads", 1),
                setattr(s.mem, "hits", 1),
            ),
        ),
        ("quiescence", lambda s, e: setattr(e, "tokens", 3)),
        (
            "firing-ledger",
            lambda s, e: setattr(s, "firings", {"binop": 1}),
        ),
        (
            "frontend-audit",
            lambda s, e: setattr(
                e, "frontend", SimpleNamespace(audit=lambda: 2, in_network=2)
            ),
        ),
    ],
)
def test_finish_rejects_each_broken_ledger(rule, mutate):
    checker, _dfg = make_checker()
    stats, engine = _quiescent_stats()
    mutate(stats, engine)
    with pytest.raises(InvariantViolation, match=rule):
        checker.finish(stats, engine)


def test_finish_arrival_and_completion_ledgers():
    checker, _dfg = make_checker()
    stats, engine = _quiescent_stats()
    # A load was served but its response never arrived at a PE.
    stats.mem.loads = 1
    stats.mem.misses = 1
    stats.firings = {"load": 1}
    checker.fired = {"load": 1}
    with pytest.raises(InvariantViolation, match="arrival-ledger"):
        checker.finish(stats, engine)
    stats.mem.responses = 1
    # Arrivals now balance, but the checker saw an issue with no
    # delivered response.
    checker.issues = 1
    with pytest.raises(InvariantViolation, match="completion-ledger"):
        checker.finish(stats, engine)
    checker.responses = 1
    checker.finish(stats, engine)


def test_finish_flags_leftover_tokens_per_edge():
    checker, dfg = make_checker()
    consumer, port = edge_key(checker)
    producer = dfg.nodes[consumer].inputs[port].src
    checker.commit(1, [(producer, 1)])
    stats, engine = _quiescent_stats()
    with pytest.raises(InvariantViolation, match="token-conservation"):
        checker.finish(stats, engine)


def test_shadow_mirrors_every_edge():
    checker, dfg = make_checker()
    edges = {
        (node.nid, index)
        for node in dfg.nodes.values()
        for index, inp in enumerate(node.inputs)
        if isinstance(inp, PortRef)
    }
    assert set(checker.shadow) == edges
