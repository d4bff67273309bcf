"""Cycle-level simulation: engine, memory system, interconnect frontends."""
