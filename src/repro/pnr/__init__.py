"""Place-and-route: netlist, annealing placement, routing, timing, flow."""
