"""Place-and-route: netlist, annealing placement, routing, timing, flow."""

from repro.pnr.flow import compile_kernel, compile_once
from repro.pnr.netlist import Net, Netlist, build_netlist
from repro.pnr.place import Placement, anneal, initial_placement
from repro.pnr.result import CompiledKernel
from repro.pnr.route import RoutingResult, route_design
from repro.pnr.timing import TimingReport, analyze_timing
from repro.pnr.viz import fabric_map, placement_map

__all__ = [
    "CompiledKernel",
    "Net",
    "Netlist",
    "Placement",
    "RoutingResult",
    "TimingReport",
    "analyze_timing",
    "anneal",
    "build_netlist",
    "compile_kernel",
    "compile_once",
    "fabric_map",
    "initial_placement",
    "placement_map",
    "route_design",
]
