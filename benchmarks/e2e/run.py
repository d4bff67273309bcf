"""End-to-end benchmark: four workloads, six metrics, a per-layer trace.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload sim_plain --seed 3 --seconds 12
    python3 benchmarks/e2e/run.py --workload sim_plain --trace 1
    python3 benchmarks/e2e/run.py --runs 5 --out A.json [--record]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every workload runs in fresh child processes (``child.py``): two that
only set up, then one that sets up and measures, so ``setup_s`` is a
median of three cold starts. With ``--trace 1`` a single child takes one
untraced rep as the base and then a traced pass; its numbers are the
per-layer metrics and are never mixed into the end-to-end ones. The last
stdout line of a single-workload run is the JSON object the driver's
contract asks for (see ``/BENCHMARK.json``); README.md has the tables.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from spec import (  # noqa: E402
    END_TO_END, PAPER_NUPEA_SPEEDUP, PER_LAYER, SCALES, SETUPS,
    WORKLOAD_NAMES,
)

OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"


def spawn(workload: str, args, extra: list[str]) -> dict | None:
    """Run ``child.py`` once; returns its report, or None if it died
    without one. Cache variables that could warm a cold compile are
    scrubbed or pointed inside ``out/``."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_COMPILE_CACHE"}
    env["XDG_CACHE_HOME"] = str(OUT / "xdg-cache")
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(time.time()),
        *extra,
    ]
    if args.reps is not None:
        argv += ["--reps", str(args.reps)]
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    report["exit"] = done.returncode
    return report


def run_workload(workload: str, args) -> dict | None:
    """All children of one workload run; returns the result record."""
    setups = []
    if not args.trace:
        for _ in range(args.setups - 1):
            sample = spawn(workload, args, ["--setup-only"])
            if sample is None:
                return None
            setups.append(sample["setup_s"])
    extra = []
    if args.corrupt_reference:
        extra += ["--corrupt-reference", args.corrupt_reference]
    report = spawn(workload, args, extra)
    if report is None:
        return None
    setups.append(report["setup_s"])
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        values = report["per_layer"]
        table = PER_LAYER
    else:
        values = {
            **{
                name: report[name]
                for name in (
                    "wall_s", "peak_rss_mb", "model_cycles", "nupea_speedup"
                )
            },
            "setup_s": statistics.median(setups),
            "verified_share": (attempted - failed) / attempted,
        }
        table = [row[:3] for row in END_TO_END]
    return {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "correct": failed == 0 and report["exit"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in table
        },
        "setup_samples": setups,
        "calib_s": report["calib_s"],
        "reps": report["reps"],
        "ops": report["ops"],
        "drift": report["drift"],
        "messages": report["messages"],
    }


def describe(result: dict) -> str:
    """Every metric by name with its unit, one per line."""
    name = result["workload"]
    lines = [
        f"== {name}  seed={result['seed']} scale={result['scale']} "
        f"reps={result['reps']} "
        f"ops={result['attempted']} failed={result['failed']}"
        + ("  [traced pass]" if result["trace"] else "")
    ]
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        line = f"  {metric:38s} {text:>14s} {entry['unit']}"
        if metric == "wall_s":
            # Whole-rep totals, for the spread; the reported value is
            # the sum of per-op medians.
            totals = [sum(walls) for walls in zip(*result["ops"].values())]
            line += (
                f"   (n={len(totals)} reps: min {min(totals):.4g} max "
                f"{max(totals):.4g} IQR {compare.iqr(totals):.3g}; n < 11, "
                "no tail percentile)"
            )
        elif metric == "setup_s":
            samples = result["setup_samples"]
            line += f"   (median of {len(samples)} cold starts)"
        elif metric == "nupea_speedup" and value:
            error = value / PAPER_NUPEA_SPEEDUP - 1.0
            line += (
                f"   (paper {PAPER_NUPEA_SPEEDUP}: {error:+.1%}; simulated, "
                "geomean upea2/monaco cycles)"
            )
        lines.append(line)
    if result["drift"]:
        lines.append(
            f"  MODEL DRIFT vs expected.json: {len(result['drift'])} pin(s): "
            + ", ".join(result["drift"][:6])
        )
    lines += [f"  FAILED {message}" for message in result["messages"]]
    return "\n".join(lines)


def contract_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload-input and placement seed; 0 is pinned in "
        "expected.json, every other seed is held-back data",
    )
    parser.add_argument(
        "--seconds", type=float, default=12.0,
        help="measure rep after rep for this long (never fewer than 3 reps)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced pass (per-layer metrics) instead of the "
        "end-to-end measurement",
    )
    parser.add_argument(
        "--scale", default="tiny", choices=SCALES,
        help="input scale; tiny fits the driver's time cap, small is the "
        "paper-evaluation scale (use --seconds 60 or more)",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="exact rep count instead of --seconds (1 = smoke only)",
    )
    parser.add_argument(
        "--setups", type=int, default=SETUPS,
        help="cold starts timed for setup_s (1 = smoke only)",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="repeat the chosen workloads this many times (for --compare)",
    )
    parser.add_argument("--out", help="write every result to this JSON file")
    parser.add_argument(
        "--record", action="store_true",
        help=f"append a summary of this invocation to {HISTORY.name}",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two --out files; exit 1 on any regressed metric",
    )
    parser.add_argument(
        "--corrupt-reference", metavar="KERNEL",
        help="self-test only: corrupt one kernel's reference output",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)

    workloads = args.workload or list(WORKLOAD_NAMES)
    results = []
    for _ in range(args.runs):
        for workload in workloads:
            result = run_workload(workload, args)
            if result is None:
                print(f"{workload}: child produced no result", file=sys.stderr)
                return 2
            results.append(result)
            print(describe(result), flush=True)
    document = {
        "schema": 1,
        "git_rev": git_rev(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": args.scale,
        "results": results,
    }
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    if args.record:
        with HISTORY.open("a") as handle:
            handle.write(json.dumps(compare.summary(document)) + "\n")
    for result in results:
        print(contract_line(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
