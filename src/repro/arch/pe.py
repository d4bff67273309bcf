"""Processing elements.

Monaco's fabric is heterogeneous: half its PEs are load-store (LS) PEs with
a memory FU (plus simple integer FUs), the other half are arithmetic-only
(Sec. 4.2). Any DFG node can run on an arithmetic PE except loads and
stores, which require an LS PE; LS PEs can also host arithmetic and control
nodes when memory work does not claim them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa import MEMORY_OPS

ARITH = "arith"
LS = "ls"


@dataclass(frozen=True)
class PE:
    """One processing element at fabric coordinates (x, y).

    ``x`` is the column (column ``cols - 1`` is adjacent to memory),
    ``y`` the row. LS PEs additionally carry their NUPEA-domain index,
    their column rank within the domain (0 = closest to memory), and —
    for domain-0 PEs — the id of the memory port they connect to
    directly.
    """

    x: int
    y: int
    kind: str
    domain: int | None = None
    column_rank: int | None = None
    direct_port: int | None = None

    @property
    def is_ls(self) -> bool:
        return self.kind == LS

    @property
    def coord(self) -> tuple[int, int]:
        return (self.x, self.y)

    def supports(self, op: str) -> bool:
        """Whether this PE can execute a DFG node of operation ``op``."""
        if op in MEMORY_OPS:
            return self.is_ls
        return True

    def label(self) -> str:
        if self.is_ls:
            return f"LS({self.x},{self.y})D{self.domain}"
        return f"A({self.x},{self.y})"


def manhattan(a: PE | tuple[int, int], b: PE | tuple[int, int]) -> int:
    """Manhattan distance between two PEs or coordinates."""
    ax, ay = (a.x, a.y) if isinstance(a, PE) else a
    bx, by = (b.x, b.y) if isinstance(b, PE) else b
    return abs(ax - bx) + abs(ay - by)
