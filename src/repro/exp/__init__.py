"""Experiment harness: regenerate every table and figure of the paper."""

from repro.exp.cache import GLOBAL_CACHE, CompileCache
from repro.exp.configs import (
    MONACO,
    MachineConfig,
    hybrid,
    ideal,
    numa,
    primary_configs,
    upea,
)
from repro.exp.fdo import (
    FdoResult,
    FdoRound,
    blame_to_weights,
    run_fdo,
)
from repro.exp.figures import (
    FIGURES,
    Claim,
    FigureResult,
    Grid,
    run_figure,
    run_figures,
)
from repro.exp.report import format_figure
from repro.exp.runner import (
    PAPER_DIVIDER,
    RunResult,
    compile_cached,
    run_point,
)

__all__ = [
    "Claim",
    "CompileCache",
    "FIGURES",
    "FdoResult",
    "FdoRound",
    "FigureResult",
    "GLOBAL_CACHE",
    "Grid",
    "blame_to_weights",
    "run_fdo",
    "MONACO",
    "MachineConfig",
    "PAPER_DIVIDER",
    "RunResult",
    "compile_cached",
    "format_figure",
    "hybrid",
    "ideal",
    "numa",
    "primary_configs",
    "run_figure",
    "run_figures",
    "run_point",
    "upea",
]
