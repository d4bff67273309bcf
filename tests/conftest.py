"""Fixtures shared by the tier-1 suite."""

import pytest

from repro.sim.engine import _Engine


@pytest.fixture
def per_cycle_loop(monkeypatch):
    """Run the engine's per-cycle reference loop: the scheduler never
    jumps (``_skip_target`` answers "now"), so every system cycle is
    executed. There is no option for this outside the tests — nothing a
    run reports may depend on it (``tests/test_cycle_skip.py``)."""
    monkeypatch.setattr(
        _Engine, "_skip_target", lambda engine, now, *_clamps: now
    )
