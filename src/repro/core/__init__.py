"""The paper's primary contribution: NUPEA domains, criticality, policies."""

from repro.core.criticality import (
    CriticalityReport,
    analyze_criticality,
    dependence_graph,
    format_report,
    leaf_loops,
)
from repro.core.domains import NUPEADomain, validate_domain_order
from repro.core.policy import (
    DOMAIN_AWARE,
    DOMAIN_UNAWARE,
    EFFCC,
    POLICIES,
    PlacementPolicy,
    get_policy,
)
from repro.core.profile import (
    ProfileReport,
    analyze_with_profile,
    profile_dfg,
)

__all__ = [
    "CriticalityReport",
    "DOMAIN_AWARE",
    "DOMAIN_UNAWARE",
    "EFFCC",
    "NUPEADomain",
    "POLICIES",
    "PlacementPolicy",
    "ProfileReport",
    "analyze_criticality",
    "analyze_with_profile",
    "dependence_graph",
    "format_report",
    "get_policy",
    "leaf_loops",
    "profile_dfg",
    "validate_domain_order",
]
