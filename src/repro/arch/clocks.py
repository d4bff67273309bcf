"""Clock-divider rules (paper Sec. 4.2, "Clock divider").

Monaco's data NoC is bufferless: a token must cross its entire statically
routed path within one fabric clock. PnR's static timing therefore sets
the fabric clock divider from the longest routed path; the rest of the
system (memory, fabric-memory NoC) always runs at the system clock.
"""

from __future__ import annotations

import math

from repro.arch.params import TimingParams

#: The paper's evaluated fabric clock divider (Sec. 6).
PAPER_DIVIDER = 2


def path_delay_units(hops: int, timing: TimingParams) -> float:
    """Delay units of a routed net with ``hops`` channel hops."""
    return timing.pe_logic_units + timing.hop_units * hops


def divider_for_max_hops(max_hops: int, timing: TimingParams) -> int:
    """Smallest clock divider covering the longest routed path."""
    units = path_delay_units(max_hops, timing)
    return max(1, math.ceil(units / timing.system_period_units))
