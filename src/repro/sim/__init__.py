"""Cycle-level simulation: engine, memory system, interconnect frontends."""

from repro.sim.energy import EnergyParams, EnergyReport, estimate_energy
from repro.sim.engine import SimResult, default_frontend, simulate
from repro.sim.fmnoc_sim import MonacoFrontend
from repro.sim.hybrid import HybridFrontend
from repro.sim.memsys import MemorySystem, MemStats, RequestRecord, SharedCache
from repro.sim.stats import LatencyAccumulator, SimStats
from repro.sim.upea import NumaFrontend, UniformFrontend

__all__ = [
    "EnergyParams",
    "EnergyReport",
    "HybridFrontend",
    "LatencyAccumulator",
    "MemStats",
    "MemorySystem",
    "MonacoFrontend",
    "NumaFrontend",
    "RequestRecord",
    "SharedCache",
    "SimResult",
    "SimStats",
    "UniformFrontend",
    "default_frontend",
    "estimate_energy",
    "simulate",
]
