"""Engine hot-path benchmark and CI regression guard.

Times end-to-end simulation of the firing-dense Table 1 subset — the
workloads that execute nearly every fabric tick, where cycle skipping
cannot help and per-executed-tick cost is everything. Each workload is
compiled once (through the persistent compile cache) and simulated
best-of-``--rounds``; the stable stats+memory digest is asserted equal
across rounds, so the benchmark never reports a number for a
non-deterministic build.

The committed baseline holds absolute numbers only (``current_s`` per
workload plus the calibration constant of the host that measured them);
before/after ratios come from ``benchmarks/e2e/run.py --compare`` on two
checkouts, which anyone can re-run. Raw walls are machine-dependent, so
the CI guard normalizes by a fixed pure-Python calibration loop timed in
the same process:

    PYTHONPATH=src python benchmarks/bench_engine_hot.py \
        --check benchmarks/results/BENCH_engine_hot.json --tolerance 0.25

fails when the calibration-normalized suite wall rises more than 25%
above the committed baseline's. ``--update-baseline`` re-measures
``current_s`` (and the calibration) after an intentional change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time

from conftest import RESULTS_DIR, record_bench

from repro.arch.fabric import monaco
from repro.arch.params import ArchParams
from repro.core.policy import EFFCC
from repro.exp.runner import compile_cached
from repro.sim.engine import simulate
from repro.workloads.registry import make_workload

BASELINE_PATH = RESULTS_DIR / "BENCH_engine_hot.json"

#: The firing-dense subset: dense linear algebra, the FFT butterfly and
#: the NN stacks fire on nearly every fabric tick, so cycle skipping is
#: structurally useless and executed-tick cost dominates wall clock.
FIRING_DENSE = ("dmv", "fft", "ad", "ic", "vww")


def run_digest(result) -> str:
    """Stable stats+memory digest (same scheme as tests/test_engine_hot)."""
    stats = result.stats.to_dict()
    stats.pop("executed_cycles", None)
    stats.pop("skipped_cycles", None)
    stats.pop("critpath", None)
    blob = json.dumps(
        {"stats": stats, "memory": result.memory}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def calibrate(rounds: int = 3) -> float:
    """Fixed pure-Python workload timing this machine's interpreter.

    The guard compares *normalized* walls (suite seconds per calibration
    second), so a faster or slower CI runner shifts both sides equally.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        d: dict[int, int] = {}
        for i in range(1_500_000):
            total += i * i
            if i & 1023 == 0:
                d[i] = total
        assert total > 0 and d
        best = min(best, time.perf_counter() - start)
    return best


def run_suite(workloads, scale: str, rounds: int) -> dict:
    fabric = monaco(12, 12)
    arch = ArchParams()
    per_workload: dict[str, dict] = {}
    for name in workloads:
        instance = make_workload(name, scale=scale, seed=0)
        compiled = compile_cached(
            instance, fabric, arch, EFFCC, parallelism=1, seed=0
        )
        entry: dict = {}
        for _ in range(rounds):
            arrays = {k: list(v) for k, v in instance.arrays.items()}
            start = time.perf_counter()
            result = simulate(compiled, instance.params, arrays, arch)
            elapsed = time.perf_counter() - start
            digest = run_digest(result)
            entry["current_s"] = round(
                min(entry.get("current_s", elapsed), elapsed), 4
            )
            entry["cycles"] = result.stats.system_cycles
            entry["firings"] = result.stats.total_firings
            if entry.setdefault("digest", digest) != digest:
                raise SystemExit(
                    f"FAIL: {name} digest diverged between rounds: "
                    f"{digest} != {entry['digest']} — the engine is "
                    "non-deterministic; refusing to report a timing"
                )
        instance.check(result.memory)
        per_workload[name] = entry
    return {
        "scale": scale,
        "rounds": rounds,
        "calib_s": round(calibrate(), 4),
        "workloads": per_workload,
        "total_current_s": round(
            sum(e["current_s"] for e in per_workload.values()), 4
        ),
    }


def render(results: dict) -> str:
    lines = [
        f"Engine hot-path benchmark — scale={results['scale']}, "
        f"best of {results['rounds']} round(s), "
        f"calibration {results['calib_s']:.3f}s",
        f"{'workload':<12}{'cycles':>10}{'firings':>10}{'current':>9}  digest",
    ]
    for name, e in results["workloads"].items():
        lines.append(
            f"{name:<12}{e['cycles']:>10}{e['firings']:>10}"
            f"{e['current_s']:>8.3f}s  {e['digest']}"
        )
    lines.append(
        f"{'TOTAL':<12}{'':>20}{results['total_current_s']:>8.3f}s"
    )
    return "\n".join(lines)


def check_against(results: dict, baseline_path: str, tolerance: float) -> int:
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    status = 0
    for name, entry in results["workloads"].items():
        want = baseline["workloads"].get(name, {}).get("digest")
        got = entry["digest"]
        if want is not None and got != want:
            print(
                f"check {name}: digest {got} != baseline {want} — "
                "semantics changed; rerun --update-baseline if intended"
            )
            status = 1
    measured = results["total_current_s"] / results["calib_s"]
    want = baseline["total_current_s"] / baseline["calib_s"]
    ceiling = want * (1.0 + tolerance)
    verdict = "ok" if measured <= ceiling else "REGRESSION"
    print(
        f"check wall (calibration-normalized): measured {measured:.2f} vs "
        f"baseline {want:.2f} (ceiling {ceiling:.2f}) — {verdict}"
    )
    if measured > ceiling:
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small", help="workload scale")
    parser.add_argument(
        "--workloads", nargs="*", default=list(FIRING_DENSE),
        help="firing-dense subset to time",
    )
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="timing rounds per workload; best-of is reported",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare normalized wall against a committed baseline JSON",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional normalized-wall rise vs the baseline",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help=f"rewrite {BASELINE_PATH} (current_s and calib_s)",
    )
    args = parser.parse_args(argv)

    if args.check and not pathlib.Path(args.check).is_file():
        parser.error(f"baseline not found: {args.check}")

    results = run_suite(args.workloads, args.scale, max(1, args.rounds))
    print(render(results))

    if args.update_baseline:
        record_bench(
            "engine_hot",
            wall_s=results["total_current_s"],
            workload=",".join(results["workloads"]),
            cycles=sum(e["cycles"] for e in results["workloads"].values()),
            config={
                "scale": results["scale"],
                "rounds": results["rounds"],
                "workloads": list(results["workloads"]),
            },
            extra=results,
        )
        print(f"baseline updated: {BASELINE_PATH}")
    if args.check:
        return check_against(results, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
