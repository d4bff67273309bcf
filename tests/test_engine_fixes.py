"""Regression tests for engine correctness fixes.

1. Intra-tick FIFO overflow: a producer pushes at most once per fabric
   tick, after its one capacity check, and ``commit_pushes`` must reject
   any commit that would exceed ``fifo_capacity``.
2. Deadlock detector: requests advancing through the fabric-memory NoC
   (Monaco's arbiter chain, a fixed-delay frontend's hand-over to memory)
   are forward progress — a long trip with a small ``deadlock_cycles``
   must not false-trip.
3. ``RequestRecord.enqueue_cycle`` replaces the ``id(record)``-keyed side
   dict in the memory system (robust under pickling and object reuse).
"""

import pytest

from repro.arch.fabric import monaco
from repro.arch.memory import AddressMap
from repro.arch.params import ArchParams, FaultParams, MemoryParams, SimParams
from repro.core.policy import DOMAIN_UNAWARE, EFFCC
from repro.dfg.ops import MemRequest
from repro.errors import SimulationError
from repro.exp.configs import MONACO, numa, upea
from repro.exp.runner import run_point
from repro.exp.spec import RunSpec
from repro.pnr.flow import compile_once
from repro.sim.engine import _Engine, simulate
from repro.sim.fmnoc_sim import MonacoFrontend
from repro.sim.memsys import MemorySystem, RequestRecord
from repro.workloads.registry import ALL_WORKLOADS, make_workload

from kernels import zoo_instance
from test_engine_hot import compiled_for

ARCH = ArchParams()
FABRIC = monaco(12, 12)


def make_engine(name="join", arch=ARCH):
    kernel, params, arrays = zoo_instance(name)
    ck = compile_once(kernel, FABRIC, arch, EFFCC, parallelism=1)
    memory = {}
    for array, size in ck.dfg.arrays.items():
        memory[array] = list(arrays.get(array, [0] * size))
    amap = AddressMap(ck.dfg.arrays, arch.memory)
    memsys = MemorySystem(arch.memory, amap, memory)
    frontend = MonacoFrontend(ck.fabric)
    return _Engine(
        ck, dict(params), arch, ck.timing.clock_divider, memsys, frontend,
        amap,
    )


class TestIntraTickFifoCapacity:
    def _producer_consumer(self, engine):
        """Pick any routed producer -> consumer FIFO edge."""
        for nid, edges in enumerate(engine.consumer_edges):
            if edges:
                return nid, edges[0][0]
        raise AssertionError("no edges")

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_no_producer_pushes_twice_in_one_tick(self, name, monkeypatch):
        """The capacity checks count no uncommitted pushes, which is sound
        because a producer pushes at most once per fabric tick: each loop
        visits a node once, the emit loop pushes only memory responses
        and the fire loop only non-memory tokens. Every tick's push batch
        names each producer once, on every config and under PE stalls
        and delayed responses."""
        original = _Engine.commit_pushes
        batches = []

        def checked(self, pushes):
            producers = [nid for nid, _value in pushes]
            assert len(set(producers)) == len(producers), producers
            batches.append(len(producers))
            original(self, pushes)

        monkeypatch.setattr(_Engine, "commit_pushes", checked)
        instance, compiled = compiled_for(name)
        runs = [(config, SimParams()) for config in (MONACO, upea(2), numa(2))]
        if name == "spmspv":
            faults = FaultParams(
                seed=3, mem_delay_prob=0.3, mem_delay_cycles=4,
                pe_stall_prob=0.2,
            )
            runs.append((MONACO, SimParams(faults=faults)))
        for config, sim in runs:
            spec = RunSpec(
                name, config, scale="tiny", arch=ArchParams(sim=sim)
            )
            run_point(spec, instance, compiled)
        assert max(batches) > 1

    def test_commit_rejects_overflow(self):
        """commit_pushes enforces len(queue) <= capacity at every commit."""
        engine = make_engine()
        producer, queue = self._producer_consumer(engine)
        for _ in range(engine.capacity):
            queue.append(0)
        with pytest.raises(SimulationError, match="FIFO overflow"):
            engine.commit_pushes([(producer, 1)])

    @pytest.mark.parametrize("name", ["spmspv", "mergesort", "fft"])
    def test_capacity_invariant_across_workloads(self, name):
        """End to end: no commit ever exceeds capacity (shallow FIFOs)."""
        from repro.sim import engine as engine_mod

        arch = ArchParams(sim=SimParams(fifo_capacity=2, max_outstanding=2))
        instance = make_workload(name, scale="tiny")
        ck = compile_once(
            instance.kernel, FABRIC, arch, EFFCC, parallelism=1
        )
        original = engine_mod._Engine.commit_pushes
        occupancies = []

        def checked(self, pushes):
            original(self, pushes)
            occupancies.append(
                max(len(q) for row in self.fifos for q in row if q is not None)
            )

        engine_mod._Engine.commit_pushes = checked
        try:
            result = simulate(ck, instance.params, instance.arrays, arch)
        finally:
            engine_mod._Engine.commit_pushes = original
        instance.check(result.memory)
        assert occupancies and max(occupancies) <= arch.sim.fifo_capacity


class TestDeadlockDetectorSeesFrontendProgress:
    def test_monaco_tick_reports_movement(self):
        """tick() is True exactly while a request is moving."""
        fabric = FABRIC
        frontend = MonacoFrontend(fabric)
        # An idle network does nothing.
        assert frontend.tick(0, lambda r: None) is False
        # Inject from the farthest-domain LS PE: the request crosses one
        # arbiter stage per cycle, and every stage must read as progress.
        far_pe = max(fabric.ls_pes(), key=lambda pe: pe.domain)
        record = RequestRecord(
            nid=0, seq=1, request=MemRequest("load", "a", 0),
            address=0, pe_coord=far_pe.coord, issue_cycle=0,
        )
        frontend.inject(record, 0)
        delivered = []
        ticks = 0
        while not delivered:
            assert frontend.tick(ticks, delivered.append) is True
            ticks += 1
        # One cycle per arbitration stage plus the port hop.
        assert ticks == far_pe.domain + 1
        assert frontend.in_network == 0
        assert frontend.tick(ticks, delivered.append) is False

    def test_small_deadlock_window_survives_arbiter_chain(self):
        """deadlock_cycles=8 is smaller than the request's end-to-end trip
        through the arbiter chain (~10 cycles issue-to-completion on this
        placement); pre-fix the detector saw that whole trip as silence
        and raised DeadlockError. With frontend progress counted, the run
        completes and validates.
        """
        instance = make_workload("spmspv", scale="tiny")
        arch = ArchParams(sim=SimParams(deadlock_cycles=8))
        ck = compile_once(
            instance.kernel, FABRIC, arch, DOMAIN_UNAWARE, parallelism=1
        )
        result = simulate(ck, instance.params, instance.arrays, arch)
        instance.check(result.memory)

    @pytest.mark.parametrize("config", ["upea", "numa"])
    def test_fixed_delay_delivery_counts_as_progress(self, config):
        """A fixed delay exactly as long as the deadlock window: the last
        request of a quiet stretch reaches memory ``deadlock_cycles``
        after its issue, and its response arrives some cycles later. The
        run completes only if that hand-over to memory counts as
        progress; otherwise the detector trips in between."""
        from repro.sim.upea import NumaFrontend, UniformFrontend

        window = 24
        if config == "upea":
            factory = lambda fabric, amap: UniformFrontend(window)
        else:
            factory = lambda fabric, amap: NumaFrontend(window, fabric, amap)
        instance = make_workload("spmspv", scale="tiny")
        arch = ArchParams(sim=SimParams(deadlock_cycles=window))
        ck = compile_once(
            instance.kernel, FABRIC, arch, DOMAIN_UNAWARE, parallelism=1
        )
        result = simulate(
            ck, instance.params, instance.arrays, arch,
            frontend_factory=factory,
        )
        instance.check(result.memory)


class TestEnqueueCycleField:
    def make_memsys(self):
        amap = AddressMap({"a": 64}, MemoryParams())
        memsys = MemorySystem(MemoryParams(), amap, {"a": list(range(64))})
        memsys.schedule = lambda cycle, kind, record: None  # no engine
        return memsys

    def make_record(self, seq=1, index=0):
        return RequestRecord(
            nid=7, seq=seq, request=MemRequest("load", "a", index),
            address=index, pe_coord=(0, 0), issue_cycle=0,
        )

    def test_enqueue_cycle_lives_on_the_record(self):
        memsys = self.make_memsys()
        record = self.make_record()
        assert record.enqueue_cycle == -1
        memsys.enqueue(record, 11)
        assert record.enqueue_cycle == 11
        # No id()-keyed side table anywhere on the memory system.
        assert not any(
            isinstance(v, dict) and record.enqueue_cycle in v
            for k, v in vars(memsys).items()
            if k.startswith("_enqueue")
        )
        assert "_enqueue_cycle" not in vars(memsys)

    def test_bank_wait_accounted_from_field(self):
        memsys = self.make_memsys()
        first = self.make_record(seq=1, index=0)
        second = self.make_record(seq=2, index=0)  # same bank: queues
        memsys.enqueue(first, 5)
        memsys.enqueue(second, 5)
        memsys.tick(5)  # serves first (throughput 1/bank/cycle)
        memsys.tick(6)  # serves second, one cycle late
        assert first.serve_cycle == 5 and second.serve_cycle == 6
        assert memsys.stats.bank_wait_cycles == 0 + 1

    def test_records_survive_pickling(self):
        import pickle

        record = self.make_record()
        memsys = self.make_memsys()
        memsys.enqueue(record, 4)
        clone = pickle.loads(pickle.dumps(record))
        assert clone.enqueue_cycle == 4
