"""The paper's 13 evaluation workloads (Table 1), as kernel-IR programs."""

from repro.workloads.base import SCALES, WorkloadInstance
from repro.workloads.registry import ALL_WORKLOADS, BUILDERS, make_workload

__all__ = [
    "ALL_WORKLOADS",
    "BUILDERS",
    "SCALES",
    "WorkloadInstance",
    "make_workload",
]
