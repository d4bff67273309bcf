"""The two stable digest schemes the repo pins results with.

Copied (not imported) from ``benchmarks/bench_pnr_compile.py`` and
``benchmarks/bench_engine_hot.py``: importing either drags in
``benchmarks/conftest.py``, which switches on a persistent
``GLOBAL_CACHE`` disk layer and would silently turn cold compiles warm.
"""

from __future__ import annotations

import hashlib
import json


def _sha16(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def pnr_digest(compiled) -> str:
    """Stable digest of everything PnR decides for a compiled kernel."""
    return _sha16(
        {
            "placement": sorted(
                (str(n), list(c)) for n, c in compiled.placement.items()
            ),
            "trees": sorted(
                (str(i), sorted(str(k) for k in chans))
                for i, chans in compiled.routing.net_channels.items()
            ),
            "sink_hops": sorted(
                (str(i), sorted((str(s), h) for s, h in hops.items()))
                for i, hops in compiled.routing.sink_hops.items()
            ),
            "divider": compiled.timing.clock_divider,
            "max_hops": float(compiled.timing.max_hops),
            "place_cost": round(compiled.place_cost, 3),
        }
    )


def stable_stats(stats_dict: dict) -> dict:
    """``SimStats.to_dict()`` minus scheduler telemetry and probe output.

    ``executed_cycles``/``skipped_cycles`` depend on cycle skipping and
    ``critpath`` on the profiler being attached; every variant of one
    point must digest identically.
    """
    return {
        k: v
        for k, v in stats_dict.items()
        if k not in ("executed_cycles", "skipped_cycles", "critpath")
    }


def run_digest(stats_dict: dict, memory: dict) -> str:
    """Stable stats + final memory image digest of one simulated run."""
    return _sha16({"stats": stable_stats(stats_dict), "memory": memory})


def stats_digest(stats_dict: dict) -> str:
    """Stats-only digest, for runs known only through a manifest record
    (which carries ``stats`` but not the memory image)."""
    return _sha16(stable_stats(stats_dict))
