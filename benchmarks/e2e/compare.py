"""Compare two result files; summarise one for the history log.

A result file (``run.py --out``) holds one record per (workload, run).
``--compare A.json B.json`` prints one row per (workload, end-to-end
metric) with both medians, both IQRs, the ratio B/A (base: A) and a
verdict against the metric's bound:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — better by more than the bound;
* ``unchanged`` — within the bound;
* ``unresolved`` — the run-to-run spread (the wider side's IQR) exceeds
  the bound *and* the two sides' runs interleave, so neither of the
  above can be told from noise. Take more runs (``--runs``).

The bound is a share of A's median; ``setup_s`` also gets an absolute
slack (``spec.ABSOLUTE_SLACK``).
"""

from __future__ import annotations

import json
import pathlib
import statistics

from spec import ABSOLUTE_SLACK, END_TO_END


def table_of(document: dict) -> dict:
    """{workload: {metric: [value of each untraced run]}}."""
    table: dict = {}
    for result in document["results"]:
        if result["trace"]:
            continue
        per_metric = table.setdefault(result["workload"], {})
        for name, entry in result["metrics"].items():
            per_metric.setdefault(name, []).append(entry["value"])
    return table


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(
    a: list, b: list, better: str, bound: float, slack: float = 0.0
) -> str:
    """Classify B against base A for one (workload, metric) pair.

    ``bound`` is relative to A's median; ``slack`` is an absolute
    allowance in the metric's unit, and the larger of the two applies.
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    allowed = max(bound * abs(med_a), slack)
    worse_by = sign * (med_b - med_a)
    spread = max(iqr(a), iqr(b))
    # Every run of one side beats every run of the other: resolved,
    # however wide the spread.
    separated = (
        max(sign * v for v in b) < min(sign * v for v in a)
        or min(sign * v for v in b) > max(sign * v for v in a)
    )
    if spread > allowed and not separated:
        return "unresolved"
    if worse_by > allowed:
        return "regressed"
    if worse_by < -allowed:
        return "improved"
    return "unchanged"


def rows(table_a: dict, table_b: dict) -> list[dict]:
    out = []
    for workload in table_a:
        if workload not in table_b:
            continue
        for name, unit, better, bound in END_TO_END:
            a = table_a[workload].get(name)
            b = table_b[workload].get(name)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            out.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "a": med_a,
                    "a_iqr": iqr(a),
                    "a_n": len(a),
                    "b": med_b,
                    "b_iqr": iqr(b),
                    "b_n": len(b),
                    "ratio": med_b / med_a if med_a else float("nan"),
                    "bound": bound,
                    "verdict": verdict(
                        a, b, better, bound, ABSOLUTE_SLACK.get(name, 0.0)
                    ),
                }
            )
    return out


def load(path: str) -> dict:
    return table_of(json.loads(pathlib.Path(path).read_text()))


def main(path_a: str, path_b: str) -> int:
    table = rows(load(path_a), load(path_b))
    print(
        f"{'workload':16s} {'metric':15s} {'A median':>12s} {'A IQR':>9s} "
        f"{'B median':>12s} {'B IQR':>9s} {'B/A':>7s} {'bound':>6s}  verdict"
    )
    for row in table:
        print(
            f"{row['workload']:16s} {row['metric']:15s} {row['a']:12.6g} "
            f"{row['a_iqr']:9.3g} {row['b']:12.6g} {row['b_iqr']:9.3g} "
            f"{row['ratio']:7.4f} {row['bound']:6.2f}  {row['verdict']}"
            f"  (n={row['a_n']}/{row['b_n']}, base A)"
        )
    return 1 if any(row["verdict"] == "regressed" for row in table) else 0


def summary(document: dict) -> dict:
    """One ``history.jsonl`` line: absolute medians, plus every time
    divided by the host's calibration constant so hosts compare."""
    calib = statistics.median(r["calib_s"] for r in document["results"])
    workloads = {
        workload: {
            name: statistics.median(values)
            for name, values in per_metric.items()
        }
        for workload, per_metric in table_of(document).items()
    }
    for medians in workloads.values():
        medians["wall_norm"] = medians["wall_s"] / calib
        medians["setup_norm"] = medians["setup_s"] / calib
    return {
        key: document[key]
        for key in ("git_rev", "recorded_at", "python", "nproc", "seed", "scale")
    } | {"host.calib_s": calib, "workloads": workloads}
