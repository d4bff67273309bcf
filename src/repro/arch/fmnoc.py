"""Fabric-memory NoC structure (paper Fig. 9).

The fabric-memory NoC is disaggregated across LS rows: each row owns a
slice with one arbiter per NUPEA domain except D0. Arbiters form an
imbalanced tree with fanout 4: the arbiter of domain ``d`` collects the
row's domain-``d`` LS PEs plus the output of the domain ``d+1`` arbiter,
and feeds the domain ``d-1`` arbiter — or, for D1, the row's shared memory
port (combinationally arbitrated against one D0 LS PE). D0 LS PEs bypass
arbitration entirely through their direct ports.

Each arbitration stage is flopped, adding one *system* cycle per hop; the
request and response networks have identical topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.fabric import Fabric
from repro.arch.pe import PE
from repro.errors import ArchError


@dataclass(frozen=True)
class ArbiterId:
    """Identifies one arbiter: the LS row it serves and its domain."""

    row: int
    domain: int

    def __repr__(self):
        return f"Arb(row={self.row}, D{self.domain})"


class FMNoC:
    """Structural view of the fabric-memory network for one fabric."""

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self.max_domain = len(fabric.domains) - 1
        self._arbiters: list[ArbiterId] = []
        self._inputs: dict[ArbiterId, list] = {}
        if self.max_domain >= 1:
            ls_pes = fabric.ls_pes()
            for row in fabric.ls_rows():
                if row not in fabric.row_shared_port:
                    raise ArchError(
                        f"LS row {row} has arbitrated domains but no "
                        "shared port"
                    )
                for domain in range(1, self.max_domain + 1):
                    arb = ArbiterId(row, domain)
                    self._arbiters.append(arb)
                    members = [
                        pe
                        for pe in ls_pes
                        if pe.y == row and pe.domain == domain
                    ]
                    inputs: list = sorted(members, key=lambda p: p.column_rank)
                    if domain < self.max_domain:
                        inputs.append(ArbiterId(row, domain + 1))
                    self._inputs[arb] = inputs

    def arbiters(self) -> list[ArbiterId]:
        return list(self._arbiters)

    def arbiter_inputs(self, arb: ArbiterId) -> list:
        """Upstream sources (PEs and/or the next-farther arbiter)."""
        return list(self._inputs[arb])

    def entry(self, pe: PE) -> ArbiterId | int:
        """Where a request from ``pe`` enters: an arbiter or a port id."""
        if not pe.is_ls:
            raise ArchError(f"PE at {pe.coord} has no memory FU")
        if pe.domain == 0:
            return pe.direct_port
        return ArbiterId(pe.y, pe.domain)

    def path(self, pe: PE) -> tuple[list[ArbiterId], int]:
        """(arbiter chain, memory port) a request from ``pe`` traverses."""
        if pe.domain == 0:
            return [], pe.direct_port
        chain = [ArbiterId(pe.y, d) for d in range(pe.domain, 0, -1)]
        return chain, self.fabric.row_shared_port[pe.y]

    def request_hops(self, pe: PE) -> int:
        """Arbitration stages (one system cycle each) for ``pe``."""
        return pe.domain or 0

    def downstream(self, arb: ArbiterId) -> ArbiterId | int:
        """Where an arbiter forwards: the next arbiter or the shared port."""
        if arb.domain > 1:
            return ArbiterId(arb.row, arb.domain - 1)
        return self.fabric.row_shared_port[arb.row]
