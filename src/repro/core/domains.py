"""NUPEA domains: groups of LS PEs sharing memory latency and bandwidth.

A spatial NUPEA architecture abstracts fabric-to-memory communication as an
*ordered set* of domains, D0 <= D1 <= ... sorted by proximity to memory
(paper Sec. 3). Domain 0 is fastest: its LS PEs connect directly to memory
ports with no arbitration; each further domain adds one arbitration hop
(one system-clock cycle) on both the request and response path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ArchError


@dataclass(frozen=True)
class NUPEADomain:
    """One NUPEA domain.

    ``index`` orders domains by proximity to memory (0 = closest).
    ``arbiter_hops`` is the number of arbitration stages a request from
    this domain traverses before reaching a memory port (0 for D0).
    ``columns`` lists the fabric columns whose LS PEs belong to the domain,
    ordered closest-to-memory first.
    """

    index: int
    arbiter_hops: int
    columns: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.index < 0:
            raise ArchError("domain index must be non-negative")
        if self.arbiter_hops < 0:
            raise ArchError("arbiter hops must be non-negative")

    @property
    def name(self) -> str:
        return f"D{self.index}"

    def column_rank(self, column: int) -> int:
        """Preference rank of ``column`` within the domain (0 = closest)."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise ArchError(
                f"column {column} is not part of domain {self.name}"
            ) from None


def validate_domain_order(domains: list[NUPEADomain]) -> None:
    """Check domains form the ordered set NUPEA requires."""
    if not domains:
        raise ArchError("a NUPEA fabric needs at least one domain")
    for i, domain in enumerate(domains):
        if domain.index != i:
            raise ArchError(
                f"domain at position {i} has index {domain.index}"
            )
    hops = [d.arbiter_hops for d in domains]
    if hops != sorted(hops):
        raise ArchError(
            "domains must be ordered by non-decreasing arbiter hops"
        )
