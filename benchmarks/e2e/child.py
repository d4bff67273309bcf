"""The measuring process: one workload, one seed, in a fresh interpreter.

``run.py`` spawns this file once per set-up sample and once to measure;
it prints a single JSON object as its last stdout line. The program
under test only ever sees generated ``WorkloadInstance`` s — the seed is
an argument of the benchmark, not of the program.

Isolation: nothing here imports ``benchmarks/conftest.py`` or the older
``bench_*.py`` files (they enable a persistent ``GLOBAL_CACHE`` disk
layer); in-process workloads call ``compile_kernel`` directly and assert
the disk layer is off, and the sweep's cache lives in a scratch
directory under ``out/`` that is removed after every rep.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
try:
    from repro.arch.fabric import monaco
    from repro.arch.params import ArchParams
    from repro.core.policy import EFFCC
    from repro.errors import PnRError, ReproError
    from repro.exp.cache import GLOBAL_CACHE, CompileCache
    from repro.exp.configs import MONACO, numa, upea
    import repro.exp.resilient as resilient
    import repro.exp.runner as runner
    from repro.exp.runner import PAPER_DIVIDER, compile_cached, run_parallel
    from repro.obs.manifest import read_manifest, stable_view
    from repro.pnr.flow import compile_kernel, compile_once
    from repro.sim.energy import estimate_energy
    from repro.sim.engine import simulate
    from repro.workloads.registry import make_workload
except ImportError as error:  # no program to measure: fail, print nothing
    sys.exit(f"benchmarks/e2e: cannot import repro from {SRC}: {error}")

import layers
from digests import pnr_digest, run_digest, stats_digest
from spec import (
    CLI_CONFIGS, CONFIG_NAMES, KERNELS, MIN_REPS, PER_LAYER, PROBED_KERNELS,
    PROBES,
)

CONFIGS = {"upea2": upea(2), "numa-upea2": numa(2), "monaco": MONACO}
assert tuple(CONFIGS) == CONFIG_NAMES


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def calibrate(rounds: int = 3) -> float:
    """Fixed pure-Python loop timing this machine's interpreter (the
    loop of ``bench_engine_hot.calibrate``), so recorded walls can be
    compared across hosts as ``wall / calib``."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        d: dict[int, int] = {}
        for i in range(1_500_000):
            total += i * i
            if i & 1023 == 0:
                d[i] = total
        best = min(best, time.perf_counter() - start)
    return best


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Context:
    """Everything one run shares: inputs, the op ledger, the pins."""

    def __init__(self, args):
        self.scale = args.scale
        self.seed = args.seed
        self.corrupt = args.corrupt_reference
        self.fabric = monaco(12, 12)
        self.arch = ArchParams()
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.drifted: set[str] = set()
        self.instances: dict = {}
        self.build_s = 0.0
        pins = json.loads((HERE / "expected.json").read_text())
        #: Pinned digests and cycles exist for seed 0 only; every other
        #: seed is held-back data, checked but never pinned.
        self.pins = pins.get(self.scale) if self.seed == 0 else None

    def build(self, kernels) -> None:
        start = time.perf_counter()
        for name in kernels:
            instance = make_workload(name, scale=self.scale, seed=self.seed)
            if name == self.corrupt:
                out = instance.outputs[0]
                instance.reference[out] = [
                    v + 1 for v in instance.reference[out]
                ]
            self.instances[name] = instance
        self.build_s = time.perf_counter() - start

    def count(self, op: str, problem: str | None) -> None:
        """Close one op (a compile, or a simulate plus its checks)."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.messages.append(f"{op}: {problem}")
            print(f"FAILED {op}: {problem}", file=sys.stderr)

    def pin(self, group: str, key: str, got: dict) -> None:
        """Compare one result with ``expected.json``; a mismatch is model
        drift — reported loudly, never counted as a failed op."""
        if self.pins is None:
            return
        want = self.pins[group].get(key)
        for field, value in got.items():
            if want is None or want.get(field) != value:
                self.drifted.add(f"{group}:{key}")
                print(
                    f"MODEL DRIFT {group} {key} {field}: expected "
                    f"{None if want is None else want.get(field)}, got "
                    f"{value}",
                    file=sys.stderr,
                )

    def compile(self, name: str, seed: int | None = None):
        # Cold by construction: no compile cache is consulted.
        return compile_kernel(
            self.instances[name].kernel, self.fabric, self.arch, EFFCC,
            parallelism=None, seed=self.seed if seed is None else seed,
        )

    def simulate(self, name: str, compiled, config: str, arch=None):
        instance = self.instances[name]
        return simulate(
            compiled, instance.params, instance.arrays, arch or self.arch,
            frontend_factory=CONFIGS[config].frontend_factory(PAPER_DIVIDER),
            divider=PAPER_DIVIDER,
        )

    def output_error(self, name: str, result) -> str | None:
        """Why ``result`` disagrees with the reference output, if it does."""
        try:
            self.instances[name].check(result.memory)
        except ReproError as error:
            return str(error)
        return None


class Workload:
    """A timed region made of named ops, repeated; then verification."""

    kernels = KERNELS
    #: Whose peak RSS is the workload's: this process, or its children.
    rusage_who = resource.RUSAGE_SELF

    def __init__(self, ctx: Context):
        self.ctx = ctx
        #: op name -> wall of each rep, in rep order.
        self.samples: dict[str, list[float]] = {}
        #: "kernel/config" -> cycles of every simulated point of one rep.
        self.cycles: dict[str, int] = {}
        #: (kernel, config, wall_s, SimStats) of the last rep's sims.
        self.sim_records: list = []
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        self.ctx.build(self.kernels)
        # Holds for the sweep too: its disk cache belongs to the CLI
        # subprocesses, never to this process.
        if GLOBAL_CACHE.disk_dir is not None:
            raise SystemExit("GLOBAL_CACHE has a disk layer: not isolated")

    def rep(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed work after the reps (verification, model metrics)."""

    def trace(self, spans: layers.Spans, per_layer: dict) -> float:
        """The traced pass; returns its wall for ``trace.overhead_x``."""
        raise NotImplementedError

    # -- shared pieces -------------------------------------------------

    def sample(self, op: str, wall: float) -> None:
        self.samples.setdefault(op, []).append(wall)

    def rep_drift(self, key: str, digest: str) -> str | None:
        """A digest that differs between reps is a failed op."""
        first = self.digests.setdefault(key, digest)
        if first != digest:
            return f"digest {digest} differs from rep 0's {first}"
        return None

    def wall_s(self) -> float:
        """Sum over ops of the op's median wall across reps: a spike
        that hits one op in one rep is filtered where it happened."""
        return sum(statistics.median(w) for w in self.samples.values())

    def model_cycles(self) -> int:
        return sum(self.cycles.values())

    def nupea_speedup(self) -> float:
        ratios = [
            self.cycles[f"{k}/upea2"] / self.cycles[f"{k}/monaco"]
            for k in self.kernels
            if f"{k}/upea2" in self.cycles and f"{k}/monaco" in self.cycles
        ]
        return geomean(ratios) if ratios else 0.0

    def sim_point(self, op, name, compiled, config, arch=None):
        """Time one simulate and check it. Returns ``(result, digest,
        problem)``; the caller closes the op with ``ctx.count``."""
        wall, result = timed(self.ctx.simulate, name, compiled, config, arch)
        self.sample(op, wall)
        self.sim_records.append((name, config, wall, result.stats))
        digest = run_digest(result.stats.to_dict(), result.memory)
        problem = self.ctx.output_error(name, result) or self.rep_drift(
            op, digest
        )
        return result, digest, problem

    def trace_compiles(self, spans, artifacts: dict, per_layer: dict) -> float:
        """Stage-by-stage replica of each real artifact's winning
        compile, which must reproduce the artifact's PnR digest; fills
        the compile-side metrics and returns the replicas' wall.

        Host speed drifts by several percent between seconds on a shared
        box, so the wall the spans are checked against
        (``trace.span_cover``) is a direct ``compile_once`` at the same
        degree run back to back with each replica."""
        anneal_stats: list[dict] = []
        direct_s = wall = 0.0
        for name, real in artifacts.items():
            kernel = self.ctx.instances[name].kernel
            flow = (self.ctx.fabric, self.ctx.arch, EFFCC, real.parallelism)
            direct = compile_once(kernel, *flow, seed=self.ctx.seed)
            direct_s += direct.pnr.total_wall_s
            replica_s, (replica, stats) = timed(
                layers.traced_compile_once, spans, name, kernel, *flow,
                self.ctx.seed,
            )
            wall += replica_s
            anneal_stats.extend(stats)
            self.ctx.count(
                f"trace/{name}",
                None
                if pnr_digest(replica) == pnr_digest(real) == pnr_digest(direct)
                else "replica PnR digest differs from the real artifact's",
            )
        per_layer.update(
            layers.compile_metrics(
                spans, list(artifacts.values()), anneal_stats, direct_s
            )
        )
        return wall

    def profile(self, calls, per_layer: dict) -> float:
        """Self-time shares of ``ctx.simulate(*args)`` for each ``args``
        of ``calls``; returns the profiled wall."""
        shares, wall = layers.profile_shares(self.ctx.simulate, calls)
        per_layer.update(shares)
        return wall

    def pin_artifacts(self, artifacts: dict) -> None:
        for name, compiled in artifacts.items():
            self.ctx.pin("pnr", name, {"digest": pnr_digest(compiled)})

    def pin_point(self, name, config, result, digest) -> None:
        key = f"{name}/{config}"
        self.cycles[key] = result.stats.system_cycles
        self.ctx.pin(
            "points", key,
            {
                "cycles": result.stats.system_cycles,
                "digest": digest,
                "stats_digest": stats_digest(result.stats.to_dict()),
            },
        )


class CompileCold(Workload):
    """PnR does all the timed work; the simulator none.

    Rep r compiles at placement seed S + (r mod 3): three seeds per
    point, as in the Structured-ASIC knob-grid method. How many
    mem-scale candidates a compile evaluates depends on the placement
    seed and moves a single-seed total by +-12 %; an op's median over
    reps is then a median over seeds, which halves that."""

    SEEDS = 3

    def setup(self) -> None:
        super().setup()
        self.artifacts: dict = {}

    def rep(self, index: int) -> None:
        offset = index % self.SEEDS
        for name in self.kernels:
            op = f"compile/{name}"
            try:
                wall, compiled = timed(
                    self.ctx.compile, name, self.ctx.seed + offset
                )
            except PnRError as error:
                self.ctx.count(op, str(error))
                continue
            self.sample(op, wall)
            self.ctx.count(
                op, self.rep_drift(f"{op}@{offset}", pnr_digest(compiled))
            )
            if offset == 0:
                self.artifacts.setdefault(name, compiled)

    def finish(self) -> None:
        # Compile speed is always reported beside the run time of what
        # it generated: simulate each artifact once, untimed.
        self.pin_artifacts(self.artifacts)
        self.verify_calls = []
        for name, compiled in self.artifacts.items():
            for config in ("monaco", "upea2"):
                wall, result = timed(self.ctx.simulate, name, compiled, config)
                self.ctx.count(
                    f"verify/{name}/{config}",
                    self.ctx.output_error(name, result),
                )
                digest = run_digest(result.stats.to_dict(), result.memory)
                self.pin_point(name, config, result, digest)
                self.sim_records.append((name, config, wall, result.stats))
                self.verify_calls.append((name, compiled, config))

    def trace(self, spans, per_layer) -> float:
        wall = self.trace_compiles(spans, self.artifacts, per_layer)
        # QoR spread across the three placement seeds, not a best-of.
        by_seed = [list(self.artifacts.values())] + [
            [self.ctx.compile(name, self.ctx.seed + d) for name in self.artifacts]
            for d in range(1, self.SEEDS)
        ]
        per_layer["pnr.flow.seed_spread"] = layers.seed_spread(by_seed)
        per_layer.update(layers.sim_metrics(self.sim_records))
        self.profile(self.verify_calls, per_layer)
        return self.wall_s() + wall


class SimPlain(Workload):
    """The engine's executed tick does all the timed work."""

    configs = CONFIG_NAMES

    def setup(self) -> None:
        super().setup()
        self.artifacts = {name: self.ctx.compile(name) for name in self.kernels}

    def rep(self, index: int) -> None:
        self.sim_records = []
        for name, compiled in self.artifacts.items():
            for config in self.configs:
                op = f"sim/{name}/{config}"
                result, digest, problem = self.sim_point(
                    op, name, compiled, config
                )
                self.ctx.count(op, problem)
                if index == 0:
                    self.pin_point(name, config, result, digest)

    def finish(self) -> None:
        self.pin_artifacts(self.artifacts)

    def trace(self, spans, per_layer) -> float:
        self.trace_compiles(spans, self.artifacts, per_layer)
        per_layer.update(layers.sim_metrics(self.sim_records))
        return self.profile(
            [
                (name, compiled, config)
                for name, compiled in self.artifacts.items()
                for config in self.configs
            ],
            per_layer,
        )


class SimProbed(SimPlain):
    """Same engine, every probe hook live."""

    kernels = PROBED_KERNELS
    configs = ("monaco", "upea2")

    def setup(self) -> None:
        super().setup()
        sim = self.ctx.arch.sim
        # Each probe is the SimParams switch of the same name.
        self.probe_arch = {
            probe: replace(self.ctx.arch, sim=replace(sim, **{probe: True}))
            for probe in PROBES
        }
        # Plain runs of the same points: the digest every probed run
        # must reproduce and the base of the overhead ratios.
        self.plain_wall: dict[str, float] = {}
        self.plain_digest: dict[str, str] = {}
        for name, compiled in self.artifacts.items():
            for config in self.configs:
                wall, result = timed(self.ctx.simulate, name, compiled, config)
                key = f"{name}/{config}"
                self.plain_wall[key] = wall
                self.plain_digest[key] = run_digest(
                    result.stats.to_dict(), result.memory
                )

    def rep(self, index: int) -> None:
        self.sim_records = []
        for name, compiled in self.artifacts.items():
            for config in self.configs:
                key = f"{name}/{config}"
                for probe, arch in self.probe_arch.items():
                    op = f"{probe}/{key}"
                    result, digest, problem = self.sim_point(
                        op, name, compiled, config, arch
                    )
                    if problem is None and digest != self.plain_digest[key]:
                        problem = "digest differs from the plain run's"
                    blame = result.stats.critpath.get("categories", {})
                    if (
                        problem is None
                        and probe == "critpath"
                        and sum(blame.values()) != result.stats.system_cycles
                    ):
                        problem = "critpath categories do not sum to system_cycles"
                    self.ctx.count(op, problem)
                    if index == 0 and probe == "trace":
                        self.pin_point(name, config, result, digest)

    def model_cycles(self) -> int:
        # Every simulated point of a rep: each (kernel, config) runs
        # once per probe set, with identical cycles.
        return len(PROBES) * super().model_cycles()

    def probe_overheads(self) -> dict:
        plain = sum(self.plain_wall.values())
        names = {
            "trace": "obs.trace.overhead_x",
            "critpath": "obs.critpath.overhead_x",
            "check": "check.invariants.overhead_x",
        }
        return {
            metric: sum(
                statistics.median(walls)
                for op, walls in self.samples.items()
                if op.startswith(f"{probe}/")
            )
            / plain
            for probe, metric in names.items()
        }

    def trace(self, spans, per_layer) -> float:
        self.trace_compiles(spans, self.artifacts, per_layer)
        per_layer.update(layers.sim_metrics(self.sim_records))
        per_layer.update(self.probe_overheads())
        return self.profile(
            [
                (name, compiled, config, arch)
                for name, compiled in self.artifacts.items()
                for config in self.configs
                for arch in self.probe_arch.values()
            ],
            per_layer,
        )


class SweepColdWarm(Workload):
    """The wall a user waits on: ``repro sweep``, cold cache then warm."""

    phases = ("cold", "warm")
    rusage_who = resource.RUSAGE_CHILDREN

    def setup(self) -> None:
        super().setup()
        self.scratch = OUT / f"sweep-{os.getpid()}"
        self.cpu = {phase: [] for phase in self.phases}
        self.env = {
            k: v for k, v in os.environ.items() if k != "REPRO_COMPILE_CACHE"
        }
        self.env["PYTHONPATH"] = str(SRC)

    def sweep_argv(self, root: pathlib.Path, phase: str) -> list[str]:
        return [
            sys.executable, "-m", "repro", "sweep",
            "--workloads", *self.kernels,
            "--configs", *CLI_CONFIGS,
            "--scale", self.ctx.scale,
            "--seeds", str(self.ctx.seed),
            "--jobs", "2",
            "--cache-dir", str(root / "cache"),
            "--manifest", str(root / f"{phase}.jsonl"),
            "--stats-json", str(root / f"{phase}.json"),
        ]

    def rep(self, index: int) -> None:
        root = self.scratch / f"rep{index}"
        root.mkdir(parents=True)
        env = dict(self.env, XDG_CACHE_HOME=str(root / "xdg"))
        views = {}
        try:
            for phase in self.phases:
                before = resource.getrusage(resource.RUSAGE_CHILDREN)
                wall, done = timed(
                    subprocess.run, self.sweep_argv(root, phase), env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True,
                )
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                self.sample(f"sweep/{phase}", wall)
                self.cpu[phase].append(
                    after.ru_utime + after.ru_stime
                    - before.ru_utime - before.ru_stime
                )
                records = []
                if done.returncode == 0:
                    records = read_manifest(root / f"{phase}.jsonl")
                else:
                    print(done.stderr[-2000:], file=sys.stderr)
                views[phase] = self.check_records(phase, records)
            self.ctx.count(
                "sweep/cold-vs-warm",
                None
                if views["cold"] == views["warm"]
                else "stable views of the two manifests differ",
            )
            self.cache_bytes = sum(
                p.stat().st_size for p in (root / "cache").glob("*.pkl")
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def check_records(self, phase, records) -> list:
        """One op per expected manifest record: present, ok, and the
        same on every rep."""
        by_key = {
            f"{r.get('workload')}/{r.get('config')}": r for r in records
        }
        views = []
        for name in self.kernels:
            for config in CONFIG_NAMES:
                key = f"{name}/{config}"
                op = f"sweep/{phase}/{key}"
                record = by_key.get(key)
                if record is None or record.get("status") != "ok":
                    self.ctx.count(op, "no ok manifest record")
                    continue
                views.append(stable_view(record))
                digest = stats_digest(record["stats"])
                self.ctx.count(op, self.rep_drift(op, digest))
                if key not in self.cycles:
                    self.cycles[key] = record["cycles"]
                    # Same pins as sim_plain: a sweep point's cycles and
                    # stats equal the in-process run of the same point.
                    self.ctx.pin(
                        "points", key,
                        {"cycles": record["cycles"], "stats_digest": digest},
                    )
        return views

    def finish(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def trace(self, spans, per_layer) -> float:
        root = self.scratch / "trace"
        root.mkdir(parents=True)
        targets = [
            (GLOBAL_CACHE, "get_or_compile", "exp.cache.get_or_compile"),
            (runner, "simulate", "sim.engine.simulate"),
            (resilient, "build_manifest", "obs.manifest.build"),
            (resilient, "append_manifest", "obs.manifest.append"),
        ]
        walls, counters, results = {}, {}, {}
        try:
            with layers.patched_spans(spans, targets):
                for phase in self.phases:
                    GLOBAL_CACHE.clear()  # a new process starts empty
                    with spans.span(f"exp.sweep.{phase}", phase):
                        walls[phase], results[phase] = timed(
                            run_parallel, list(self.kernels),
                            list(CONFIGS.values()), scale=self.ctx.scale,
                            seeds=(self.ctx.seed,), max_workers=1,
                            cache_dir=root / "cache",
                            manifest_path=root / f"{phase}.jsonl",
                        )
                    counters[phase] = GLOBAL_CACHE.info()
            artifacts = {
                name: compile_cached(
                    self.ctx.instances[name], self.ctx.fabric, self.ctx.arch,
                    seed=self.ctx.seed,
                )
                for name in self.kernels
            }
            per_layer.update(self.cache_metrics(root, artifacts))
        finally:
            GLOBAL_CACHE.clear()
            GLOBAL_CACHE.disable_disk()
            shutil.rmtree(root, ignore_errors=True)

        runs = list(results["cold"].values())
        self.trace_compiles(spans, artifacts, per_layer)
        self.sim_records = [
            (r.workload, r.config, r.wall_time, r.stats) for r in runs
        ]
        per_layer.update(layers.sim_metrics(self.sim_records))
        serial_compile_s = sum(
            c.pnr.search_wall_s for c in artifacts.values()
        )
        to_dict_s, _ = timed(lambda: [r.stats.to_dict() for r in runs])
        energy_s, _ = timed(lambda: [estimate_energy(r.stats) for r in runs])
        per_layer.update(
            {
                "exp.sweep.cold_s": statistics.median(self.samples["sweep/cold"]),
                "exp.sweep.warm_s": statistics.median(self.samples["sweep/warm"]),
                "exp.cache.misses": counters["cold"]["misses"],
                "exp.cache.disk_hits": counters["warm"]["disk_hits"],
                "exp.cache.hits": counters["cold"]["hits"]
                + counters["warm"]["hits"],
                "exp.cache.bytes": self.cache_bytes,
                # > 1: the two CLI workers raced and compiled a key twice.
                "exp.cache.compile_cpu_ratio": (
                    statistics.median(self.cpu["cold"])
                    - statistics.median(self.cpu["warm"])
                )
                / serial_compile_s,
                # Cold in-process sweep wall that no cache, simulate or
                # manifest span covers.
                "exp.runner.overhead_s": spans.self_total("exp.sweep.cold"),
                "obs.manifest.record_s": spans.total("obs.manifest.build")
                + spans.total("obs.manifest.append"),
                "sim.stats.to_dict_s": to_dict_s,
                "sim.energy.estimate_s": energy_s,
            }
        )
        return walls["cold"] + walls["warm"]

    def cache_metrics(self, root: pathlib.Path, artifacts: dict) -> dict:
        """Disk-layer cost alone: pickle every artifact into a fresh
        cache, then load each from a second, empty-memory cache."""

        def unreachable():
            raise AssertionError("disk layer missed an entry it just stored")

        writer = CompileCache(root / "probe")
        store_s, _ = timed(
            lambda: [
                writer.get_or_compile((name,), lambda c=c: c)
                for name, c in artifacts.items()
            ]
        )
        reader = CompileCache(root / "probe")
        load_s, _ = timed(
            lambda: [
                reader.get_or_compile((name,), unreachable) for name in artifacts
            ]
        )
        return {"exp.cache.store_s": store_s, "exp.cache.load_s": load_s}


WORKLOADS = {
    "compile_cold": CompileCold,
    "sim_plain": SimPlain,
    "sim_probed": SimProbed,
    "sweep_cold_warm": SweepColdWarm,
}


def measure(workload: Workload, seconds: float, reps: int | None) -> int:
    """Closed loop, one generator: rep after rep until the next would
    overrun ``seconds`` (never fewer than MIN_REPS), or exactly ``reps``."""
    start = time.perf_counter()
    done = 0
    while True:
        workload.rep(done)
        done += 1
        elapsed = time.perf_counter() - start
        if reps is not None:
            if done >= reps:
                return done
        elif done >= MIN_REPS and elapsed + elapsed / done > seconds:
            return done


def import_seconds(samples: int = 3) -> float:
    """``python -c "import repro.cli"`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return statistics.median(
        timed(
            subprocess.run, [sys.executable, "-c", "import repro.cli"],
            env=env, check=True,
        )[0]
        for _ in range(samples)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", default="tiny")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-reference", default=None)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    ctx = Context(args)
    if args.write_expected:
        ctx.pins = None
    workload = WORKLOADS[args.workload](ctx)
    workload.setup()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "setup_s": time.time() - spawned_at,
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    reps = measure(workload, args.seconds, 1 if args.trace else args.reps)
    workload.finish()
    usage = resource.getrusage(workload.rusage_who)
    wall_s = workload.wall_s()
    report.update(
        {
            "reps": reps,
            "ops": workload.samples,
            "wall_s": wall_s,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "model_cycles": workload.model_cycles(),
            "nupea_speedup": workload.nupea_speedup(),
            "calib_s": calibrate(),
        }
    )
    if args.write_expected:
        write_expected(ctx, workload)

    if args.trace:
        spans = layers.Spans()
        per_layer = {name: 0.0 for name, _, _ in PER_LAYER}
        traced_wall = workload.trace(spans, per_layer)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        per_layer.update(
            {
                "workloads.build_s": ctx.build_s,
                "cli.import_s": import_seconds(),
                "host.cpu_s": time.process_time()
                + children.ru_utime + children.ru_stime,
                "host.calib_s": report["calib_s"],
                "host.wall_norm": wall_s / report["calib_s"],
                "model.digest_drift": len(ctx.drifted),
                "trace.overhead_x": traced_wall / wall_s,
            }
        )
        report["per_layer"] = per_layer
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}.json").write_text(
            json.dumps({"report": report, "spans": spans.records}, indent=1)
        )

    report.update(
        {
            "attempted": ctx.attempted,
            "failed": ctx.failed,
            "messages": ctx.messages[:20],
            "drift": sorted(ctx.drifted),
        }
    )
    print(json.dumps(report))
    return 1 if ctx.failed else 0


def write_expected(ctx: Context, workload: Workload) -> None:
    """Re-pin ``expected.json`` for this scale (``sim_plain``, seed 0)."""
    if ctx.seed != 0 or type(workload) is not SimPlain or ctx.failed:
        raise SystemExit("--write-expected needs a clean sim_plain run at seed 0")
    path = HERE / "expected.json"
    pins = json.loads(path.read_text())
    records = {f"{r[0]}/{r[1]}": r for r in workload.sim_records}
    pins[ctx.scale] = {
        "pnr": {
            name: {"digest": pnr_digest(c)}
            for name, c in workload.artifacts.items()
        },
        "points": {
            key: {
                "cycles": workload.cycles[key],
                "digest": workload.digests[f"sim/{key}"],
                "stats_digest": stats_digest(records[key][3].to_dict()),
            }
            for key in sorted(workload.cycles)
        },
    }
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
