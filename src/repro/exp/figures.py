"""Every reproduced table of the paper's evaluation, in one registry.

:data:`FIGURES` maps a name to an :class:`Entry`: the paper's Fig. 6c /
11 / 12 / 14-17, Table 1 and the LS-PE placement DSE, the supplementary
stall / jitter / blame / FDO tables, the ablations DESIGN.md calls out,
the energy breakdown and the hybrid NUMA+NUPEA extension. An entry
declares its table's cells as :class:`~repro.exp.spec.RunSpec` points
and builds the table from their results.

:func:`run_figures` is the job graph ``repro figure NAME|all`` runs: in
rounds, the union of the selected entries' points, deduplicated by
``RunSpec`` equality, goes once through
:func:`~repro.exp.resilient.run_resilient` on ``Grid.jobs`` workers,
until no entry asks for more; then every entry reduces. Entries share
every point they have in common, and the tables are bit-identical for
every ``jobs``. Nothing else in the repository builds a reproduced
number.

Each entry carries the paper's claims about its table as data
(:class:`Claim`: statement, paper value, measured value, holds).
Absolute cycle counts differ from the paper (scaled inputs,
Python-simulated substrate); the claims under test are the *shapes* —
who wins, by roughly what factor, where the crossovers fall — and their
thresholds were calibrated on the full default grid (``small``, every
workload, seed 0), the only grid :func:`run_figures` checks them on.
"""

from __future__ import annotations

import contextlib
import math
import tempfile
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace

from repro.arch.params import ArchParams, FaultParams, SimParams
from repro.core.policy import DOMAIN_AWARE, DOMAIN_UNAWARE, EFFCC, EFFCC_FLAT
from repro.errors import ExperimentError
from repro.exp import tables
from repro.exp.cache import GLOBAL_CACHE
from repro.exp.configs import (
    MONACO,
    hybrid,
    ideal,
    numa,
    primary_configs,
    upea,
)
from repro.exp.runner import RunResult, compile_point
from repro.exp.spec import RunSpec
from repro.workloads.registry import ALL_WORKLOADS


@dataclass(frozen=True)
class Claim:
    """One statement the paper (or DESIGN.md) makes about a table."""

    statement: str
    #: The paper's own number where it gives one (None: shape only).
    paper: float | None
    measured: float
    #: None = not checked: the run was not the calibrated grid.
    holds: bool | None


@dataclass(frozen=True)
class Grid:
    """What a caller of ``repro figure`` may vary; every entry takes one."""

    scale: str = "small"
    seed: int = 0
    #: Workloads to run instead of the entry's own list (None = that
    #: list). Tables about one fixed workload (Fig. 16/17) ignore it.
    workloads: tuple[str, ...] | None = None
    #: Worker processes the job graph's points run on (``<= 1``:
    #: in-process).
    jobs: int = 1

    def names(self, default=ALL_WORKLOADS) -> list[str]:
        return list(self.workloads or default)

    @property
    def calibrated(self) -> bool:
        """Whether this is the grid the claim thresholds were set on."""
        return (self.scale, self.seed, self.workloads) == ("small", 0, None)


@dataclass
class FigureResult:
    """Rows of one regenerated table, and the claims made about them."""

    figure: str
    title: str
    columns: list[str]
    #: row label -> column -> value (exec time normalized unless noted).
    rows: dict[str, dict[str, float]] = field(default_factory=dict)
    #: row label -> column -> raw system-cycle count (when applicable).
    raw: dict[str, dict[str, float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)
    #: Decimals the table renders its cells with.
    precision: int = 3
    #: The rendered table, for the one entry whose cells are text
    #: (Table 1); ``rows`` then holds its numeric columns only.
    body: str | None = None

    def geomean(self, column: str) -> float:
        """Geometric mean over the column's finite positive values."""
        return _geomean(
            row[column] for row in self.rows.values() if column in row
        )

    def claim(
        self, statement: str, measured: float, holds: bool,
        paper: float | None = None,
    ) -> None:
        self.claims.append(
            Claim(statement, paper, float(measured), bool(holds))
        )


#: Each point that ran: its result, or None where its PnR failed.
Results = Mapping[RunSpec, "RunResult | None"]
#: row -> column -> the point that measures the cell; None while it
#: depends on a point that has not run.
Layout = dict[str, dict[str, "RunSpec | None"]]
#: The same table with each cell's result (None where PnR failed).
Cells = dict[str, dict[str, "RunResult | None"]]


@dataclass(frozen=True)
class Entry:
    """One registry entry: a table's layout, and its build.

    ``layout(grid, done)`` receives the results so far, so an entry can
    ask for points that depend on others (a compile at the degree a
    searched compile chose) once those ran. ``build(grid, cells)``
    receives each cell's result: probe outputs travel on the
    :class:`~repro.exp.runner.RunResult`, and what only the compiled
    artifact knows is read back from the compile cache (:func:`_artifact`).
    """

    layout: Callable[[Grid, Results], Layout]
    build: Callable[[Grid, Cells], FigureResult]

    def points(self, grid: Grid, done: Results) -> list[RunSpec]:
        """The points the table needs, as far as ``done`` tells."""
        return [
            spec
            for row in self.layout(grid, done).values()
            for spec in row.values()
            if spec is not None
        ]

    def reduce(self, grid: Grid, results: Results) -> FigureResult:
        """The table, once every point it needs is in ``results``."""
        return self.build(
            grid,
            {
                label: {c: results.get(spec) for c, spec in row.items()}
                for label, row in self.layout(grid, results).items()
            },
        )


def _point(name: str, grid: Grid, config=MONACO, **fields) -> RunSpec:
    """``name`` at the grid's scale and seed on ``config``; ``fields``
    are the other :class:`RunSpec` fields (defaults: effcc, searched
    parallelism, 12x12 Monaco, the paper's divider)."""
    return RunSpec(name, config, scale=grid.scale, seed=grid.seed, **fields)


def _rows(names, grid: Grid, columns: dict[str, dict]) -> Layout:
    """One row per workload; ``columns`` maps a column to the
    :class:`RunSpec` fields of its point."""
    return {
        name: {c: _point(name, grid, **fields) for c, fields in columns.items()}
        for name in names
    }


def _configs(configs) -> dict[str, dict]:
    """One column per machine config."""
    return {c.name: {"config": c} for c in configs}


def _at_degree(done: Results, searched: RunSpec, **fields) -> RunSpec | None:
    """``searched`` compiled at the parallelism degree its search chose,
    with ``fields`` changed (None until it ran, or when it failed)."""
    run = done.get(searched)
    if run is None:
        return None
    return replace(searched, parallelism=run.parallelism, **fields)


def _cycles(run: RunResult | None) -> float:
    """A cell's system cycles; ``inf`` where its PnR failed."""
    return float("inf") if run is None else float(run.cycles)


def _cycle_rows(result: FigureResult, cells: Cells) -> None:
    """Every cell's system cycles as the table's rows."""
    for label, row in cells.items():
        result.rows[label] = {c: _cycles(run) for c, run in row.items()}


def _normalized(result: FigureResult, cells: Cells, over: str) -> None:
    """Each row's cycles into ``raw`` and, divided by its ``over``
    column, its table columns into ``rows``."""
    for label, row in cells.items():
        raw = {c: _cycles(run) for c, run in row.items()}
        result.raw[label] = raw
        result.rows[label] = {c: raw[c] / raw[over] for c in result.columns}


def _artifact(spec: RunSpec):
    """The kernel a point that ran was compiled to: a compile-cache hit
    (the graph runs with the cache attached, see :func:`run_figures`)."""
    return compile_point(spec)[1]


def _sim_arch(**sim) -> ArchParams:
    return ArchParams(sim=SimParams(**sim))


def _geomean(values) -> float:
    """Geometric mean of the finite positive ``values`` (0.0 if none)."""
    logs = [math.log(v) for v in values if math.isfinite(v) and v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def _ratios(result: FigureResult, over: str, under: str) -> list[float]:
    """``row[over] / row[under]`` for every row that has both."""
    return [
        row[over] / row[under]
        for row in result.rows.values()
        if over in row and under in row
    ]


# -- the paper's figures -----------------------------------------------------


def _fig6c_layout(grid: Grid, done: Results) -> Layout:
    columns = {
        "upea0": {"config": ideal()},
        "upea2": {"config": upea(2)},
        "nupea": {"config": MONACO},
    }
    return _rows(grid.names(("spmspv",)), grid, columns)


def fig6c(grid: Grid, cells: Cells) -> FigureResult:
    """spmspv: NUPEA vs idealized UPEA0 and practical UPEA2 (Fig. 6c)."""
    result = FigureResult(
        "fig6c",
        "spmspv execution time (normalized to NUPEA/Monaco)",
        ["upea0", "upea2", "nupea"],
    )
    _normalized(result, cells, "nupea")
    row = next(iter(result.rows.values()))
    result.claim(
        "a practical 2-cycle UPEA loses to NUPEA (upea2/nupea > 1.05)",
        row["upea2"], row["upea2"] > 1.05, paper=1.32,
    )
    result.claim(
        "NUPEA is within 5% of the idealized 0-cycle UPEA "
        "(0.95 <= upea0/nupea <= 1.05)",
        row["upea0"], 0.95 <= row["upea0"] <= 1.05, paper=1.0,
    )
    slowdown = row["upea2"] / row["upea0"]
    result.claim(
        "UPEA2 is slower than the 0-cycle ideal (upea2/upea0 > 1.05; "
        "the paper reads 1.24-1.32 on spmspv)",
        slowdown, slowdown > 1.05, paper=1.32,
    )
    return result


def _fig11_layout(grid: Grid, done: Results) -> Layout:
    return _rows(grid.names(), grid, _configs(primary_configs()))


def fig11(grid: Grid, cells: Cells) -> FigureResult:
    """Monaco vs Ideal / UPEA2 / NUMA-UPEA2 across workloads (Fig. 11)."""
    result = FigureResult(
        "fig11",
        "Execution time normalized to Monaco (shorter is faster)",
        [c.name for c in primary_configs()],
    )
    _normalized(result, cells, "monaco")
    upea2, numa2, ideal0 = (
        result.geomean(c) for c in ("upea2", "numa-upea2", "ideal")
    )
    result.claim(
        "all 13 Table 1 workloads are measured",
        len(result.rows), len(result.rows) == 13, paper=13,
    )
    result.claim(
        "Monaco beats realistic UPEA (geomean upea2/monaco > 1.05)",
        upea2, upea2 > 1.05, paper=1.28,
    )
    result.claim(
        "Monaco beats NUMA-UPEA (geomean numa-upea2/monaco > 1.03)",
        numa2, numa2 > 1.03, paper=1.20,
    )
    result.claim(
        "NUMA recovers part of UPEA's loss, not all of it "
        "(geomean upea2 / geomean numa-upea2 >= 1)",
        upea2 / numa2, upea2 >= numa2, paper=1.28 / 1.20,
    )
    result.claim(
        "Monaco is near Ideal (geomean ideal/monaco <= 1.01; the paper "
        "has Monaco within 21% of Ideal)",
        ideal0, ideal0 <= 1.01, paper=1 / 1.21,
    )
    return result


def _at_searched_degree(names, grid: Grid, done: Results, policies) -> Layout:
    """Per workload, ``policies`` compiled at the degree the workload's
    searched compile chose (and that compile itself)."""
    layout = {}
    for name in names:
        searched = _point(name, grid)
        layout[name] = {"searched": searched} | {
            p.name: _at_degree(done, searched, policy=p.name)
            for p in policies
        }
    return layout


#: Fig. 12's placement policies, all at the degree effcc's search chose.
FIG12_POLICIES = (DOMAIN_UNAWARE, DOMAIN_AWARE, EFFCC)


def _fig12_layout(grid: Grid, done: Results) -> Layout:
    return _at_searched_degree(grid.names(), grid, done, FIG12_POLICIES)


def fig12(grid: Grid, cells: Cells) -> FigureResult:
    """Speedup from NUPEA-aware PnR heuristics on Monaco (Fig. 12).

    All three policies compile at the parallelism degree effcc's search
    chose, isolating the placement heuristic itself.
    """
    result = FigureResult(
        "fig12",
        "Speedup over Domain-Unaware PnR on Monaco (taller is better)",
        [p.name for p in FIG12_POLICIES],
    )
    for name, row in cells.items():
        cycles = {c: _cycles(row[c]) for c in result.columns}
        result.raw[name] = cycles
        result.rows[name] = {
            k: cycles[DOMAIN_UNAWARE.name] / v for k, v in cycles.items()
        }
    aware = result.geomean(DOMAIN_AWARE.name)
    effcc = result.geomean(EFFCC.name)
    result.claim(
        "domain awareness alone pays (geomean only-domain-aware > 1.05)",
        aware, aware > 1.05, paper=1.16,
    )
    result.claim(
        "fusing criticality pays more (geomean effcc > geomean "
        "only-domain-aware)",
        effcc, effcc > aware, paper=1.25,
    )
    spmspv = result.rows.get("spmspv")
    if spmspv is not None:
        gain = spmspv[EFFCC.name] / spmspv[DOMAIN_AWARE.name]
        result.claim(
            "criticality matters most on the stream-join workload "
            "(spmspv effcc / only-domain-aware > 1)",
            gain, gain > 1.0,
        )
    return result


def _sweep(config_for) -> list:
    """``config_for(0..4)`` and Monaco: a latency sweep's columns."""
    return [config_for(n) for n in range(5)] + [MONACO]


def _latency_sweep(figure, title, config_for, cells):
    """The sweep per workload, normalized to Monaco. Returns the result
    and the five geomeans."""
    sweep = _sweep(config_for)
    result = FigureResult(figure, title, [c.name for c in sweep])
    _normalized(result, cells, "monaco")
    geomeans = [result.geomean(c.name) for c in sweep[:-1]]
    for config, geomean in zip(sweep, geomeans):
        result.notes.append(f"geomean {config.name}/monaco = {geomean:.3f}")
    result.claim(
        "performance degrades monotonically with the access delay "
        "(smallest step between consecutive geomeans >= 0)",
        min(b - a for a, b in zip(geomeans, geomeans[1:])),
        geomeans == sorted(geomeans),
    )
    return result, geomeans


def _fig14_layout(grid: Grid, done: Results) -> Layout:
    return _rows(grid.names(), grid, _configs(_sweep(upea)))


def fig14(grid: Grid, cells: Cells) -> FigureResult:
    """UPEA access-latency sweep, 0-4 fabric cycles, vs Monaco (Fig. 14)."""
    result, geomeans = _latency_sweep(
        "fig14",
        "Execution time normalized to Monaco under a UPEA latency sweep",
        upea,
        cells,
    )
    result.claim(
        "Monaco is increasingly better than UPEA2-4 "
        "(geomean upea4 / geomean upea2 > 1, geomean upea2 > 1)",
        geomeans[4] / geomeans[2], geomeans[4] > geomeans[2] > 1.0,
    )
    return result


def _fig15_layout(grid: Grid, done: Results) -> Layout:
    # Fig. 14's last column rides along, for the claim.
    return _rows(grid.names(), grid, _configs(_sweep(numa) + [upea(4)]))


def fig15(grid: Grid, cells: Cells) -> FigureResult:
    """NUMA-UPEA remote-latency sweep vs Monaco (Fig. 15)."""
    result, geomeans = _latency_sweep(
        "fig15",
        "Execution time normalized to Monaco under a NUMA-UPEA sweep",
        numa,
        cells,
    )
    upea4 = _geomean(
        raw["upea4"] / raw["monaco"] for raw in result.raw.values()
    )
    result.claim(
        "NUMA recovers some of UPEA's loss at the same delay "
        "(geomean numa-upea4 / geomean upea4 <= 1)",
        geomeans[4] / upea4, geomeans[4] <= upea4 + 1e-9,
    )
    return result


#: Fabric sizes and NoC track counts evaluated in Fig. 16/17.
SCALABILITY_SIZES = (8, 16, 24)
SCALABILITY_TRACKS = (2, 7)
SCALABILITY_TOPOLOGIES = (
    "monaco",
    "clustered-single",
    "clustered-double",
)


def _scalability_layout(sizes, tracks, topologies):
    """spmspv on every (topology, size, tracks) point, one row per
    topology, each at the clock divider its routed design achieved — the
    mechanism by which congested clustered topologies lose fabric
    frequency. Fig. 16 and 17 share these points."""

    def layout(grid: Grid, done: Results) -> Layout:
        return {
            topology: {
                f"{s}x{s}/{t}trk": _point(
                    "spmspv", grid, fabric=(topology, s, s),
                    arch=ArchParams(noc_tracks=t), divider=None,
                )
                for t in tracks
                for s in sizes
            }
            for topology in topologies
        }

    return layout


def _scalability(figure, title, precision, cells, measure) -> FigureResult:
    """``measure(topology, column, run)`` -> ``(cell, raw cell)`` per
    point; an unroutable point is ``inf``."""
    columns = list(next(iter(cells.values())))
    result = FigureResult(figure, title, columns, precision=precision)
    for topology, row in cells.items():
        values, raw = {}, {}
        for column, run in row.items():
            if run is None:
                values[column] = float("inf")
            else:
                values[column], raw[column] = measure(topology, column, run)
        result.rows[topology], result.raw[topology] = values, raw
    return result


def fig16(
    sizes=SCALABILITY_SIZES,
    tracks=SCALABILITY_TRACKS,
    topologies=SCALABILITY_TOPOLOGIES,
) -> Entry:
    """spmspv execution time across topologies/sizes/tracks (Fig. 16)."""

    def build(grid: Grid, cells: Cells) -> FigureResult:
        result = _scalability(
            "fig16",
            "spmspv execution time (system cycles) by topology and fabric "
            "size",
            0, cells, lambda topology, column, run: (_cycles(run),) * 2,
        )
        result.notes.append(
            "values are raw system cycles; paper claim: Monaco wins at 2 "
            "tracks on large fabrics, all topologies competitive at 7 "
            "tracks"
        )
        tracks_help = max(
            _ratios(result, "24x24/7trk", "24x24/2trk"), default=0
        )
        result.claim(
            "more tracks never hurt at the largest fabric (worst "
            "24x24/7trk / 24x24/2trk over the topologies <= 1)",
            tracks_help, 0 < tracks_help <= 1.0,
        )
        scaling_helps = max(
            _ratios(result, "24x24/7trk", "8x8/7trk"), default=0
        )
        result.claim(
            "scaling the fabric up helps when tracks are plentiful (worst "
            "24x24/7trk / 8x8/7trk over the topologies <= 1)",
            scaling_helps, 0 < scaling_helps <= 1.0,
        )
        return result

    return Entry(_scalability_layout(sizes, tracks, topologies), build)


def fig17(
    sizes=SCALABILITY_SIZES,
    tracks=SCALABILITY_TRACKS,
    topologies=SCALABILITY_TOPOLOGIES,
) -> Entry:
    """Max routed path delay from PnR, on Fig. 16's points (Fig. 17)."""
    layout = _scalability_layout(sizes, tracks, topologies)

    def build(grid: Grid, cells: Cells) -> FigureResult:
        specs = layout(grid, {})
        result = _scalability(
            "fig17",
            "Maximum routed path delay (delay units) by topology and size",
            1, cells,
            lambda topology, column, run: (
                _artifact(specs[topology][column])
                .timing.max_path_delay_units,
                float(run.parallelism),
            ),
        )
        result.notes.append(
            "raw table holds the PnR-chosen parallelism degree per point"
        )
        growth = max(_ratios(result, "8x8/7trk", "24x24/7trk"), default=0)
        result.claim(
            "the maximum path delay grows with fabric size (worst "
            "8x8/7trk / 24x24/7trk over the topologies <= 1)",
            growth, 0 < growth <= 1.0,
        )
        shortest = min(
            (v for row in result.rows.values() for v in row.values()),
            default=0.0,
        )
        result.claim(
            "every point has a positive path delay (smallest > 0)",
            shortest, shortest > 0,
        )
        return result

    return Entry(layout, build)


def _no_points(grid: Grid, done: Results) -> Layout:
    return {}


def table1(grid: Grid, cells: Cells) -> FigureResult:
    """Table 1: the application inventory, paper vs reproduced inputs.

    (That every instantiated workload computes its reference output is
    tier-1's: ``tests/test_workloads.py``.)
    """
    inventory = tables.table1(scale=grid.scale, seed=grid.seed)
    result = FigureResult(
        "table1", "applications", ["arrays", "words"], precision=0,
        body=tables.format_table1(inventory),
    )
    for row in inventory:
        result.rows[row["application"]] = {
            "arrays": float(row["arrays"]),
            "words": float(row["words"]),
        }
    result.claim(
        "all 13 applications of Table 1 are instantiated",
        len(inventory), len(inventory) == 13, paper=13,
    )
    return result


#: Domain widths swept (columns per NUPEA domain = D0 ports per LS row).
DSE_WIDTHS = (1, 2, 3, 4)
#: LS-row strides swept (2 = Monaco's alternating rows).
DSE_STRIDES = (2, 3)


def dse_ls_placement(widths=DSE_WIDTHS, strides=DSE_STRIDES) -> Entry:
    """Design-space exploration of LS-PE placement (contribution 4).

    The paper explores where to put load-store PEs and ships Monaco with
    three-column NUPEA domains on alternating LS rows. This sweeps the
    two placement axes on Monaco-style 12x12 fabrics — how many columns
    each NUPEA domain spans (= direct D0 ports per row) and how densely
    LS rows are interleaved; values are system cycles, each at the
    divider its routed design achieved.
    """
    columns = {
        f"w{w}/s{s}": {"fabric": ("monaco", 12, 12, w, s), "divider": None}
        for s in strides
        for w in widths
    }

    def layout(grid: Grid, done: Results) -> Layout:
        return _rows(grid.names(("spmspv", "dmv")), grid, columns)

    def build(grid: Grid, cells: Cells) -> FigureResult:
        result = FigureResult(
            "dse-ls",
            "LS-PE placement DSE: execution time (system cycles) per "
            "variant",
            list(columns),
            precision=0,
        )
        _cycle_rows(result, cells)
        result.raw = {
            name: {
                c: float(run.parallelism)
                for c, run in row.items()
                if run is not None
            }
            for name, row in cells.items()
        }
        result.notes.append(
            "w = columns per NUPEA domain (= direct D0 ports per LS row); "
            "s = LS row stride (2 = Monaco's alternating rows). Monaco "
            "ships w3/s2. Raw table holds the PnR-chosen parallelism."
        )
        routable = min(
            sum(math.isfinite(v) for v in row.values())
            for row in result.rows.values()
        )
        result.claim(
            "every workload routes on a variant (fewest routable > 0)",
            routable, routable > 0,
        )
        shipped = max(
            (
                row["w3/s2"] / min(row.values())
                for row in result.rows.values()
                if "w3/s2" in row
            ),
            default=0,
        )
        result.claim(
            "Monaco's shipping point is competitive (worst w3/s2 / best "
            "variant over the workloads <= 1.25)",
            shipped, 0 < shipped <= 1.25,
        )
        return result

    return Entry(layout, build)


# -- supplementary: where the cycles go --------------------------------------


def _stalls_layout(grid: Grid, done: Results) -> Layout:
    traced = {"run": {"arch": _sim_arch(trace=True)}}
    return _rows(grid.names(), grid, traced)


def fig_stalls(grid: Grid, cells: Cells) -> FigureResult:
    """Supplementary: where cycles go, per workload (stall taxonomy).

    Runs each workload on Monaco with cycle-attribution tracing on and
    reports the machine-wide share of node-cycles in each bucket of
    :data:`repro.obs.events.STALL_KINDS` (+ ``fire``). This is the
    attribution behind the paper's Sec. 5 argument: on Monaco the
    critical recurrences wait on memory round-trips
    (``memory-outstanding``), not on fabric compute.
    """
    from repro.obs.events import FIRE, STALL_KINDS

    kinds = [FIRE] + list(STALL_KINDS)
    result = FigureResult(
        "fig_stalls",
        "Cycle attribution on monaco "
        "(share of node-cycles per stall bucket)",
        kinds,
    )
    for name, row in cells.items():
        run = row["run"]
        fractions = run.obs.attribution.fractions()
        result.rows[name] = {kind: fractions[kind] for kind in kinds}
        result.raw[name] = {"cycles": float(run.cycles)}
    result.notes.append(
        "rows sum to 1.0; divider-gap is a global machine state, "
        "the rest attribute fabric ticks per node "
        "(repro profile <workload> breaks these down per node/PE)"
    )
    return result


def _critblame_layout(grid: Grid, done: Results) -> Layout:
    return {
        f"{name}/{config.name}": {
            "run": _point(name, grid, config, arch=_sim_arch(critpath=True))
        }
        for name in grid.names()
        for config in (MONACO, upea(2))
    }


def fig_critblame(grid: Grid, cells: Cells) -> FigureResult:
    """Supplementary: critical-path blame, NUPEA vs UPEA (stacked bars).

    Runs each workload under Monaco and UPEA2 with the dynamic
    critical-path profiler (:mod:`repro.obs.critpath`) and reports each
    coarse category's share of the makespan. This explains the
    NUPEA-vs-UPEA speedups *causally*: under UPEA the extra cycles land
    in ``fmnoc-arbitration`` (the uniform access delay) on the critical
    recurrences, which is precisely what NUPEA's D0 placement removes.
    """
    from repro.obs.critpath import ROLLUP_ORDER

    result = FigureResult(
        "fig_critblame",
        "Critical-path blame attribution, NUPEA vs UPEA "
        "(share of system cycles per category)",
        list(ROLLUP_ORDER),
    )
    for label, row in cells.items():
        run = row["run"]
        rollup = run.stats.critpath["rollup"]
        result.rows[label] = {
            bucket: rollup[bucket] / max(1, run.cycles)
            for bucket in ROLLUP_ORDER
        }
        result.raw[label] = {"cycles": float(run.cycles)}
    result.notes.append(
        "rows sum to 1.0 (profiler invariant: blamed cycles == "
        "system_cycles); repro critpath <workload> breaks these down "
        "per load with slack histograms"
    )
    return result


#: Feedback rounds ``fig_fdo`` bounds each workload's loop at.
FDO_ROUNDS = 3


def _fdo_layout(grid: Grid, done: Results) -> Layout:
    layout = {}
    for name in grid.names():
        static = _point(name, grid, divider=None)
        layout[name] = {
            "static": static,
            "profile-guided": _at_degree(done, static, profile_guided=True),
            "upea2": replace(static, config=upea(2)),
        }
    return layout


def fig_fdo(grid: Grid, cells: Cells) -> FigureResult:
    """Supplementary: static EFFCC vs profile-guided vs FDO placement.

    For each workload, three Monaco compiles — plain static EFFCC,
    profile-guided criticality refinement
    (:func:`repro.core.profile.analyze_with_profile`), and the
    feedback-directed loop's best round (:func:`repro.exp.fdo.run_fdo`)
    — are each reported as speedup over the *same* UPEA2 baseline run.
    The static and guided compiles share a parallelism degree, so the
    columns isolate what the placement knows about criticality, not the
    lowering. Where the static class-A/B prediction matches the measured
    critical path, the three columns tie; the interesting rows are the
    recall misses, where measured blame finds critical loads the static
    heuristic did not.

    The one build that does work of its own: the feedback loop is a
    driver over rounds whose compiles depend on the previous round's
    blame, so it runs here, in the parent, where its round 0 is a
    compile-cache hit on the static point.
    """
    from repro.exp.fdo import run_fdo

    result = FigureResult(
        "fig_fdo",
        "Speedup over UPEA2 by placement-criticality source "
        "(taller is better)",
        ["static", "profile-guided", "fdo"],
    )
    for name, row in cells.items():
        raw = {c: _cycles(run) for c, run in row.items()}
        raw["fdo"] = float(
            run_fdo(
                name, rounds=FDO_ROUNDS, scale=grid.scale, seed=grid.seed
            ).best_cycles
        )
        result.raw[name] = raw
        result.rows[name] = {c: raw["upea2"] / raw[c] for c in result.columns}
    result.notes.append(
        "fdo column is each workload's best feedback round "
        f"(bounded at {FDO_ROUNDS} rounds; repro fdo <workload> shows "
        "the per-round trajectory)"
    )
    static, fdo = result.geomean("static"), result.geomean("fdo")
    result.claim(
        "feedback never loses to the static placement it starts from "
        "(geomean fdo / geomean static >= 1)",
        fdo / static, fdo >= static,
    )
    return result


#: ``fig_jitter``: per-response delay probabilities, the delay in system
#: cycles, and the fault layer's seed.
JITTER_PROBS = (0.01, 0.05)
JITTER_CYCLES = 8
JITTER_SEED = 0


def _jitter_layout(grid: Grid, done: Results) -> Layout:
    """Monaco and UPEA2, clean and at each jitter probability."""
    columns = {}
    for config in (MONACO, upea(2)):
        columns[f"{config.name}@clean"] = {"config": config}
        for p in JITTER_PROBS:
            faults = FaultParams(
                seed=JITTER_SEED,
                mem_delay_prob=p,
                mem_delay_cycles=JITTER_CYCLES,
            )
            columns[f"{config.name}@p{p}"] = {
                "config": config, "arch": _sim_arch(faults=faults),
            }
    return _rows(grid.names(), grid, columns)


def fig_jitter(grid: Grid, cells: Cells) -> FigureResult:
    """Supplementary: NUPEA vs UPEA2 under injected memory jitter.

    Uses the deterministic fault layer (:mod:`repro.sim.faults`) to add
    ``JITTER_CYCLES`` system cycles to each memory response with
    probability ``p``, then reports each configuration's slowdown
    relative to its own clean run. The question this answers: does
    NUPEA's advantage survive a memory system with realistic latency
    noise, or is it an artifact of perfectly predictable service times?
    Every faulted run still validates its output — jitter moves
    responses in time, never corrupts them.
    """
    result = FigureResult(
        "fig_jitter",
        f"Slowdown under memory-response jitter (+{JITTER_CYCLES} system "
        "cycles w.p. p), each config normalized to its own clean run",
        [f"{c}@p{p}" for c in ("monaco", "upea2") for p in JITTER_PROBS],
    )
    for name, row in cells.items():
        raw = {c: _cycles(run) for c, run in row.items()}
        result.raw[name] = raw
        result.rows[name] = {
            c: raw[c] / raw[c.split("@")[0] + "@clean"]
            for c in result.columns
        }
    result.notes.append(
        "faulted runs reuse the clean compile and still validate their "
        "outputs; fault draws are per-event, so results are independent "
        "of the scheduler's jumps"
    )
    for p in JITTER_PROBS:
        # upea2/monaco under jitter = the clean ratio x the slowdowns'.
        advantage = _geomean(
            raw[f"upea2@p{p}"] / raw[f"monaco@p{p}"]
            for raw in result.raw.values()
        )
        result.claim(
            f"NUPEA's advantage survives jitter at p={p} (geomean "
            "jittered upea2 / jittered monaco > 1.05)",
            advantage, advantage > 1.05,
        )
    return result


# -- ablations, energy, extension --------------------------------------------

#: The buffering ablation's (FIFO depth, outstanding loads per LS PE).
BUFFERING_POINTS = ((2, 1), (2, 2), (4, 2), (4, 4))


def _buffering_layout(grid: Grid, done: Results) -> Layout:
    columns = {
        f"fifo={f}/outstanding={o}": {
            "arch": _sim_arch(fifo_capacity=f, max_outstanding=o)
        }
        for f, o in BUFFERING_POINTS
    }
    return _rows(grid.names(("spmspv",)), grid, columns)


def ablation_buffering(grid: Grid, cells: Cells) -> FigureResult:
    """Token-buffer depth / memory-level parallelism (PE pipelining)."""
    result = FigureResult(
        "ablation-buffering",
        "token-buffer depth / outstanding loads (system cycles)",
        [f"fifo={f}/outstanding={o}" for f, o in BUFFERING_POINTS],
        precision=0,
    )
    _cycle_rows(result, cells)
    ratio = max(_ratios(result, result.columns[-1], result.columns[0]))
    result.claim(
        "deeper buffering does not hurt (deepest / shallowest <= 1)",
        ratio, 0 < ratio <= 1.0,
    )
    return result


def _memorder_layout(grid: Grid, done: Results) -> Layout:
    """Per memory-ordering lowering: at parallelism 1, and searched."""
    return {
        f"{name}/{mode}": {
            "iso-parallelism": _point(
                name, grid, mem_mode=mode, parallelism=1
            ),
            "searched": _point(name, grid, mem_mode=mode),
        }
        for name in grid.names(("fft",))
        for mode in ("raw", "serialize")
    }


def ablation_memorder(grid: Grid, cells: Cells) -> FigureResult:
    """Sound RAW/WAR fences vs full serialization (ordering-heavy fft).

    Two effects pull in opposite directions: at equal parallelism the raw
    fences win (loads overlap), but the fence plumbing costs DFG nodes, so
    full serialization sometimes fits one more parallel worker. The table
    reports both the iso-parallelism comparison (the mechanism) and the
    end-to-end searched result (the area tradeoff).
    """
    result = FigureResult(
        "ablation-memorder",
        "memory-ordering mode (system cycles; DFG nodes; searched degree)",
        ["iso-parallelism", "searched", "nodes", "best-parallelism"],
        precision=0,
    )
    for label, specs in _memorder_layout(grid, {}).items():
        row = cells[label]
        result.rows[label] = {
            "iso-parallelism": _cycles(row["iso-parallelism"]),
            "searched": _cycles(row["searched"]),
            "nodes": float(len(_artifact(specs["iso-parallelism"]).dfg)),
            "best-parallelism": float(row["searched"].parallelism),
        }
    ratio = max(
        result.rows[f"{name}/raw"]["iso-parallelism"]
        / result.rows[f"{name}/serialize"]["iso-parallelism"]
        for name in grid.names(("fft",))
    )
    result.claim(
        "at equal parallelism, parallel loads beat full serialization "
        "(raw / serialize iso-parallelism cycles <= 1)",
        ratio, 0 < ratio <= 1.0,
    )
    return result


def _noc_model_layout(grid: Grid, done: Results) -> Layout:
    return {
        f"{name}/{model}": {
            "run": _point(
                name, grid, arch=ArchParams(noc_model=model), divider=None
            )
        }
        for name in grid.names(("spmspv",))
        for model in ("simple", "monaco-tracks")
    }


def ablation_noc_model(grid: Grid, cells: Cells) -> FigureResult:
    """Uniform mesh vs cardinal/diagonal/skip track model (Sec. 4.1)."""
    result = FigureResult(
        "ablation-noc-model",
        "data NoC channel model (system cycles; max routed hops; divider)",
        ["cycles", "max-path", "divider"],
        precision=0,
    )
    for label, specs in _noc_model_layout(grid, {}).items():
        run = cells[label]["run"]
        result.rows[label] = {
            "cycles": float(run.cycles),
            "max-path": float(_artifact(specs["run"]).timing.max_hops),
            "divider": float(run.stats.clock_divider),
        }
    fewest = min(row["cycles"] for row in result.rows.values())
    result.claim(
        "both channel models route and run the kernel (fewest cycles > 0)",
        fewest, fewest > 0,
    )
    return result


def _column_pref_layout(grid: Grid, done: Results) -> Layout:
    columns = {
        "column-aware": {"policy": EFFCC.name},
        "flat": {"policy": EFFCC_FLAT.name},
    }
    return _rows(grid.names(("spmspm",)), grid, columns)


def ablation_column_pref(grid: Grid, cells: Cells) -> FigureResult:
    """Column-aware preference within a domain (``D0.c0 <= D0.c1 <=
    ...``) vs a domain-only ranking: effcc against the policy that
    differs from it in ``column_step`` alone."""
    result = FigureResult(
        "ablation-column-pref",
        "intra-domain column preference (system cycles)",
        ["column-aware", "flat"],
        precision=0,
    )
    _cycle_rows(result, cells)
    ratio = max(_ratios(result, "column-aware", "flat"))
    result.claim(
        "the column preference does not hurt (column-aware / flat <= 1)",
        ratio, 0 < ratio <= 1.0,
    )
    return result


#: The energy breakdown's placement policies.
ENERGY_POLICIES = (EFFCC, DOMAIN_UNAWARE)


def _energy_layout(grid: Grid, done: Results) -> Layout:
    names = grid.names(("spmspv", "jacobi2d", "tc"))
    return _at_searched_degree(names, grid, done, ENERGY_POLICIES)


def energy(grid: Grid, cells: Cells) -> FigureResult:
    """Energy breakdown on Monaco, effcc vs domain-unaware placement.

    Data movement is "the dominant energy, performance, and scalability
    bottleneck" (Sec. 1). Criticality-aware placement removes
    fabric-memory arbitration traversals for the hottest loads, so the
    FM-NoC energy component collapses. Both policies compile at the
    parallelism degree effcc's search chose.
    """
    from repro.sim.energy import estimate_energy

    result = FigureResult(
        "energy",
        "energy breakdown by placement policy (pJ; data movement also in %)",
        [],
        precision=0,
    )
    for name, runs in cells.items():
        for policy in ENERGY_POLICIES:
            block = estimate_energy(runs[policy.name].stats).to_dict()
            share = block.pop("data_movement_share")
            row = {k.removesuffix("_pj"): v for k, v in block.items()}
            row["data_movement_%"] = 100.0 * share
            result.rows[f"{name}/{policy.name}"] = row
    result.columns = list(row)
    fmnoc = max(
        result.rows[f"{name}/effcc"]["fabric_memory_noc"]
        / result.rows[f"{name}/domain-unaware"]["fabric_memory_noc"]
        for name in cells
    )
    result.claim(
        "criticality-aware placement cuts FM-NoC energy (worst effcc / "
        "domain-unaware over the workloads < 1)",
        fmnoc, 0 < fmnoc < 1.0,
    )
    share = min(result.rows[f"{name}/effcc"]["data_movement_%"] for name in cells)
    result.claim(
        "data movement dominates energy under effcc (smallest share "
        "over the workloads > 50%)",
        share, share > 50.0,
    )
    return result


#: The hybrid extension's configs: pure NUPEA, hybrid, NUMA-UPEA.
HYBRID_CONFIGS = (MONACO, hybrid(1), numa(2))


def _hybrid_layout(grid: Grid, done: Results) -> Layout:
    names = grid.names(("spmspv", "dmv", "fft"))
    return _rows(names, grid, _configs(HYBRID_CONFIGS))


def extension_hybrid(grid: Grid, cells: Cells) -> FigureResult:
    """Extension: non-uniformity in both memory and PE access (Sec. 3).

    "One could design SDAs with non-uniformity in both memory and PE
    access to further scale data movement." Runs the hybrid NUMA+NUPEA
    interconnect — Monaco's arbiter hierarchy with spatially partitioned
    memory regions behind the ports — against pure Monaco and the
    NUMA-UPEA baseline. At this scale the hybrid pays partition-crossing
    penalties the centralized-memory Monaco doesn't, so pure NUPEA stays
    ahead — consistent with the paper's framing that data-centric
    non-uniformity becomes necessary only "to scale to truly huge
    fabrics" — yet its NUPEA placement keeps it near the NUMA-UPEA
    baseline.
    """
    result = FigureResult(
        "extension-hybrid",
        "hybrid NUMA+NUPEA vs pure NUPEA vs NUMA-UPEA (system cycles)",
        [c.name for c in HYBRID_CONFIGS],
        precision=0,
    )
    _cycle_rows(result, cells)
    pure, mixed, baseline = result.columns
    penalty = min(_ratios(result, mixed, pure))
    result.claim(
        "the hybrid pays remote-region penalties pure Monaco does not "
        "(smallest hybrid / monaco over the workloads >= 1)",
        penalty, penalty >= 1.0,
    )
    bound = max(_ratios(result, mixed, baseline))
    result.claim(
        "NUPEA placement keeps the hybrid within 10% of NUMA-UPEA "
        "(worst hybrid / numa-upea2 over the workloads < 1.1)",
        bound, 0 < bound < 1.1,
    )
    return result


#: Every reproduced table: the name ``repro figure`` takes, which is also
#: the stem of its file under ``benchmarks/results/``.
FIGURES = {
    "fig6c": Entry(_fig6c_layout, fig6c),
    "fig11": Entry(_fig11_layout, fig11),
    "fig12": Entry(_fig12_layout, fig12),
    "fig14": Entry(_fig14_layout, fig14),
    "fig15": Entry(_fig15_layout, fig15),
    "fig16": fig16(),
    "fig17": fig17(),
    "table1": Entry(_no_points, table1),
    "dse_ls_placement": dse_ls_placement(),
    "stalls": Entry(_stalls_layout, fig_stalls),
    "jitter": Entry(_jitter_layout, fig_jitter),
    "critblame": Entry(_critblame_layout, fig_critblame),
    "fdo": Entry(_fdo_layout, fig_fdo),
    "ablation_buffering": Entry(_buffering_layout, ablation_buffering),
    "ablation_memorder": Entry(_memorder_layout, ablation_memorder),
    "ablation_noc_model": Entry(_noc_model_layout, ablation_noc_model),
    "ablation_column_pref": Entry(_column_pref_layout, ablation_column_pref),
    "energy": Entry(_energy_layout, energy),
    "extension_hybrid": Entry(_hybrid_layout, extension_hybrid),
}


@contextlib.contextmanager
def _shared_cache(jobs: int):
    """Workers share artifacts only through a disk cache, and the
    parent's artifact reads (and fdo's round 0) must find them there:
    without a disk layer, a pooled graph attaches a temporary one."""
    if jobs <= 1 or GLOBAL_CACHE.disk_dir is not None:
        yield
        return
    with tempfile.TemporaryDirectory(prefix="repro-figure-cache-") as tmp:
        GLOBAL_CACHE.enable_disk(tmp)
        try:
            yield
        finally:
            GLOBAL_CACHE.disable_disk()


def run_figures(
    entries: Mapping[str, Entry], grid: Grid = Grid()
) -> dict[str, FigureResult]:
    """Build ``entries`` through one job graph (see the module docstring).

    A point whose PnR fails is recorded as ``None`` (rendered ``inf``);
    any other failing point — a wrong answer, a deadlock — raises
    :class:`~repro.errors.ExperimentError` naming it. Off the calibrated
    grid every claim is reported unchecked (``holds=None``).
    """
    from repro.exp.resilient import PNR_KINDS, SweepPolicy, run_resilient

    done: dict[RunSpec, RunResult | None] = {}
    with _shared_cache(grid.jobs):
        while wanted := list(
            dict.fromkeys(
                spec
                for entry in entries.values()
                for spec in entry.points(grid, done)
                if spec not in done
            )
        ):
            outcome = run_resilient(
                wanted,
                max_workers=grid.jobs,
                cache_dir=GLOBAL_CACHE.disk_dir,
                sweep_policy=SweepPolicy(on_failure="skip"),
            )
            broken = [
                f.describe() for f in outcome.failures
                if f.kind not in PNR_KINDS
            ]
            if broken:
                raise ExperimentError(
                    "figure point(s) failed: " + "; ".join(broken)
                )
            done.update((spec, outcome.results.get(spec)) for spec in wanted)
        figures = {
            name: entry.reduce(grid, done) for name, entry in entries.items()
        }
    if not grid.calibrated:
        for result in figures.values():
            result.claims = [replace(c, holds=None) for c in result.claims]
    return figures


def run_figure(name: str, grid: Grid = Grid()) -> FigureResult:
    """Build the registry entry ``name`` (:func:`run_figures` of one)."""
    return run_figures({name: FIGURES[name]}, grid)[name]
