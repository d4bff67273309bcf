"""Fabric topologies: Monaco and the clustered alternatives of Fig. 13.

Coordinates: ``x`` is the column and grows toward memory (column
``cols - 1`` is adjacent to the memory ports on the right of Fig. 8);
``y`` is the row.

* :func:`monaco` — alternating rows of fully-arithmetic and fully-LS PEs;
  NUPEA domains partition the *columns* of LS PEs in groups of three,
  closest-to-memory first. Every LS row owns a slice of the fabric-memory
  NoC with three memory ports: each D0 LS PE connects directly to a port,
  and the third port of each row is shared with the row's D1 arbiter
  (Sec. 4.2). A 12x12 Monaco has 72 LS PEs and 18 memory ports.
* :func:`clustered_single` (CS) — every row places its LS PEs in the
  columns closest to memory; D0 is a single column with one direct port
  per row (12 ports at 12x12).
* :func:`clustered_double` (CD) — like CS but D0 spans two columns with
  two direct ports per row (24 ports at 12x12).
"""

from __future__ import annotations

from repro.arch.pe import ARITH, LS, PE
from repro.core.domains import NUPEADomain, validate_domain_order
from repro.errors import ArchError


class Fabric:
    """A fabric: a grid of PEs plus NUPEA-domain and port structure."""

    #: Anneal tables derived from the grid
    #: (:class:`repro.pnr.place.FabricTables`), built by the first anneal
    #: on this fabric and shared by every later one; never pickled (a
    #: ``CompiledKernel`` carries its fabric into the compile cache).
    place_tables = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("place_tables", None)
        return state

    def __init__(
        self,
        name: str,
        rows: int,
        cols: int,
        pes: dict[tuple[int, int], PE],
        domains: list[NUPEADomain],
        n_ports: int,
        row_shared_port: dict[int, int],
    ):
        self.name = name
        self.rows = rows
        self.cols = cols
        self.pes = pes
        self.domains = domains
        self.n_ports = n_ports
        #: For each LS row, the memory port shared between a D0 PE and the
        #: row's D1 arbiter (absent when the row has no arbitrated domains).
        self.row_shared_port = row_shared_port
        validate_domain_order(domains)
        self._check()

    def _check(self) -> None:
        if len(self.pes) != self.rows * self.cols:
            raise ArchError("fabric grid is incomplete")
        ports = [
            pe.direct_port for pe in self.pes.values()
            if pe.direct_port is not None
        ]
        if sorted(ports) != list(range(self.n_ports)):
            raise ArchError(
                f"direct ports must cover 0..{self.n_ports - 1}; "
                f"got {sorted(ports)}"
            )

    # -- queries ----------------------------------------------------------

    def pe_at(self, x: int, y: int) -> PE:
        try:
            return self.pes[(x, y)]
        except KeyError:
            raise ArchError(f"no PE at ({x}, {y})") from None

    def ls_pes(self) -> list[PE]:
        return [pe for pe in self.pes.values() if pe.is_ls]

    def arith_pes(self) -> list[PE]:
        return [pe for pe in self.pes.values() if not pe.is_ls]

    def ls_rows(self) -> list[int]:
        return sorted({pe.y for pe in self.ls_pes()})

    def domain(self, index: int) -> NUPEADomain:
        return self.domains[index]

    def size(self) -> int:
        return self.rows * self.cols

    def preferred_ls_slots(self) -> list[PE]:
        """LS PEs ordered by the paper's NUPEA placement preference.

        ``D0.c0 <= D0.c1 <= ... <= D1.c0 <= ...``; ties broken by row so
        consecutive picks land on different rows (each row has its own
        fabric-memory NoC slice, spreading arbitration load).
        """
        def key(pe: PE) -> tuple:
            return (pe.domain, pe.column_rank, pe.y, pe.x)

        return sorted(self.ls_pes(), key=key)

    def describe(self) -> str:
        ls = len(self.ls_pes())
        doms = ", ".join(
            f"{d.name}(hops={d.arbiter_hops}, cols={len(d.columns)})"
            for d in self.domains
        )
        return (
            f"{self.name}: {self.rows}x{self.cols}, {ls} LS PEs, "
            f"{self.n_ports} memory ports, domains: {doms}"
        )


def _domains_from_groups(groups: list[list[int]]) -> list[NUPEADomain]:
    return [
        NUPEADomain(index=i, arbiter_hops=i, columns=tuple(cols))
        for i, cols in enumerate(groups)
    ]


def _group_columns(columns: list[int], first: int, rest: int) -> list[list[int]]:
    """Split ``columns`` (closest-to-memory first) into domain groups."""
    groups: list[list[int]] = []
    if first >= len(columns):
        return [list(columns)]
    groups.append(list(columns[:first]))
    index = first
    while index < len(columns):
        groups.append(list(columns[index:index + rest]))
        index += rest
    return groups


def monaco_variant(
    rows: int,
    cols: int,
    domain_width: int = 3,
    ls_row_stride: int = 2,
    name: str | None = None,
) -> Fabric:
    """A Monaco-style fabric with configurable LS-PE placement.

    This is the axis of the paper's design-space exploration of load-store
    PE placement (contribution 4): ``domain_width`` sets how many columns
    each NUPEA domain spans (and therefore how many direct D0 ports each
    LS row gets), and ``ls_row_stride`` sets LS-row density (2 = Monaco's
    alternating rows; 3 = one LS row in three; 1 = every row LS).
    """
    if rows % ls_row_stride != 0:
        raise ArchError("rows must be a multiple of the LS row stride")
    if rows < ls_row_stride or cols < 1:
        raise ArchError("fabric too small")
    if domain_width < 1:
        raise ArchError("domain width must be >= 1")
    columns_near_first = list(range(cols - 1, -1, -1))
    groups = _group_columns(
        columns_near_first, first=domain_width, rest=domain_width
    )
    domains = _domains_from_groups(groups)
    d0_cols = groups[0]

    pes: dict[tuple[int, int], PE] = {}
    row_shared_port: dict[int, int] = {}
    port = 0
    ls_rows = [
        y for y in range(rows) if y % ls_row_stride == ls_row_stride - 1
    ]
    col_domain = {
        c: (d.index, d.column_rank(c)) for d in domains for c in d.columns
    }
    for y in range(rows):
        if y not in ls_rows:
            for x in range(cols):
                pes[(x, y)] = PE(x, y, ARITH)
            continue
        row_ports: list[int] = []
        for rank in range(len(d0_cols)):
            row_ports.append(port)
            port += 1
        if len(domains) > 1 and row_ports:
            row_shared_port[y] = row_ports[-1]
        for x in range(cols):
            domain, rank = col_domain[x]
            direct = row_ports[rank] if domain == 0 else None
            pes[(x, y)] = PE(x, y, LS, domain, rank, direct)
    label = name or (
        f"monaco-{rows}x{cols}-w{domain_width}-s{ls_row_stride}"
    )
    return Fabric(
        label, rows, cols, pes, domains, port, row_shared_port
    )


def monaco(rows: int = 12, cols: int = 12) -> Fabric:
    """The Monaco topology (paper Fig. 8), at any even size."""
    return monaco_variant(
        rows, cols, domain_width=3, ls_row_stride=2,
        name=f"monaco-{rows}x{cols}",
    )


def _clustered(rows: int, cols: int, d0_width: int, name: str) -> Fabric:
    if cols < 2:
        raise ArchError("fabric too small")
    ls_width = cols // 2
    if ls_width < d0_width:
        raise ArchError(f"{name} needs at least {2 * d0_width} columns")
    ls_columns = list(range(cols - 1, cols - 1 - ls_width, -1))
    groups = _group_columns(ls_columns, first=d0_width, rest=3)
    domains = _domains_from_groups(groups)
    col_domain = {
        c: (d.index, d.column_rank(c)) for d in domains for c in d.columns
    }
    ls_set = set(ls_columns)

    pes: dict[tuple[int, int], PE] = {}
    row_shared_port: dict[int, int] = {}
    port = 0
    for y in range(rows):
        row_ports = []
        for rank in range(d0_width):
            row_ports.append(port)
            port += 1
        if len(domains) > 1 and row_ports:
            row_shared_port[y] = row_ports[-1]
        for x in range(cols):
            if x in ls_set:
                domain, rank = col_domain[x]
                direct = row_ports[rank] if domain == 0 else None
                pes[(x, y)] = PE(x, y, LS, domain, rank, direct)
            else:
                pes[(x, y)] = PE(x, y, ARITH)
    return Fabric(
        f"{name}-{rows}x{cols}", rows, cols, pes, domains, port,
        row_shared_port,
    )


def clustered_single(rows: int = 12, cols: int = 12) -> Fabric:
    """Clustered-Single (CS): all LS PEs hug memory; one port per row."""
    return _clustered(rows, cols, d0_width=1, name="clustered-single")


def clustered_double(rows: int = 12, cols: int = 12) -> Fabric:
    """Clustered-Double (CD): like CS with a double-width direct domain."""
    return _clustered(rows, cols, d0_width=2, name="clustered-double")


TOPOLOGIES = {
    "monaco": monaco,
    "clustered-single": clustered_single,
    "clustered-double": clustered_double,
}


def build_fabric(topology: str, rows: int, cols: int, *variant) -> Fabric:
    """``variant``: Monaco's ``(domain_width, ls_row_stride)`` axes, for
    a :func:`monaco_variant` (``monaco`` only)."""
    try:
        builder = TOPOLOGIES[topology]
    except KeyError:
        raise ArchError(
            f"unknown topology {topology!r}; available: {sorted(TOPOLOGIES)}"
        ) from None
    if variant:
        if topology != "monaco":
            raise ArchError(f"{topology} has no LS-placement axes")
        return monaco_variant(rows, cols, *variant)
    return builder(rows, cols)
