"""Data NoC models: channel graphs the router operates over.

Monaco's data NoC gives each tile three 32-bit tracks through
Wilton-topology routers: one *cardinal* track, one *diagonal* track, and
one *skip* track — diagonal and skip tracks only go through a router every
other hop (Sec. 4.1).

Two models are provided:

* :class:`ChannelGraph` ("simple") — a uniform mesh of unit channels with
  a per-channel track capacity. This is the default model and the one the
  Fig. 16/17 track sweep (2 vs 7 tracks) parameterizes.
* :class:`MonacoTrackGraph` ("monaco-tracks") — heterogeneous segments:
  unit cardinal channels plus two-cell diagonal and skip segments that
  bypass the intermediate router. Segments carry per-type capacities and
  wire lengths (a two-cell segment costs two delay units but only one
  switch traversal), so diagonal/skip tracks shorten routed *delay* for
  long nets exactly as they do in the silicon.

Both are one build (:class:`_TrackGraph`) over a list of track kinds,
into the flat tables the router's search reads: a cell is the integer
``x * rows + y`` (so ``(cost, cell)`` heap entries order exactly as
``(cost, (x, y))`` would), a channel is its position in ``keys`` (the
``((x, y), (x, y), kind)`` key a routed design names it by),
``cells[cell]`` is the row of ``(neighbour cell, channel id, wire)``,
``cap[channel id]`` the number of nets the channel may carry,
``cardinal[cell]`` maps a neighbour cell to the row entry of the cardinal
channel reaching it, and ``lower_x[tx][cell] + lower_y[ty][cell]`` is the
admissible distance from ``cell`` to a target at ``(tx, ty)`` the search
prunes with (``unit`` wire per Manhattan cell: 1.0 on the mesh, 0.5 where
a diagonal covers four cells with two units of wire).
"""

from __future__ import annotations

from repro.arch.fabric import Fabric
from repro.errors import ArchError

Coord = tuple[int, int]
#: (src, dst, kind) — kind distinguishes track types sharing endpoints.
ChannelKey = tuple[Coord, Coord, str]

_CARDINAL_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAGONAL_STEPS = ((2, 2), (2, -2), (-2, 2), (-2, -2))
_SKIP_STEPS = ((2, 0), (-2, 0), (0, 2), (0, -2))


class _TrackGraph:
    """Channels of some track kinds over a fabric's full grid of cells."""

    def _build(self, fabric: Fabric, kinds) -> None:
        """``kinds``: ``(kind, steps, wire, capacity)`` rows; a kind of
        capacity 0 has no channels."""
        rows, cols = fabric.rows, fabric.cols
        kinds = [row for row in kinds if row[3] > 0]
        self.fabric = fabric
        self.unit = min(
            wire / (abs(dx) + abs(dy))
            for _, steps, wire, _ in kinds
            for dx, dy in steps
        )
        # The router compares sums of wire, congestion and history terms
        # against a bound, ties kept; short binary fractions add exactly.
        if not all(
            (value * 1024.0).is_integer()
            for value in (self.unit, *(wire for _, _, wire, _ in kinds))
        ):
            raise ArchError("wire lengths must be short binary fractions")
        self.keys: list[ChannelKey] = []
        self.cap: list[int] = []
        self.cells: list[tuple] = [()] * (rows * cols)
        self.cardinal: list[dict[int, tuple]] = [{} for _ in self.cells]
        # No channel covers a Manhattan cell for less than ``unit`` wire,
        # so no path from a cell to a target in column ``tx`` and row
        # ``ty`` is cheaper than ``lower_x[tx][cell] + lower_y[ty][cell]``.
        least = [self.unit * d for d in range(max(rows, cols))]
        self.lower_x = [
            [least[abs(x - tx)] for x in range(cols) for _ in range(rows)]
            for tx in range(cols)
        ]
        self.lower_y = [
            [least[abs(y - ty)] for _ in range(cols) for y in range(rows)]
            for ty in range(rows)
        ]
        for y in range(rows):
            for x in range(cols):
                here = (x, y)
                row = []
                for kind, steps, wire, capacity in kinds:
                    for dx, dy in steps:
                        nx_, ny_ = x + dx, y + dy
                        if 0 <= nx_ < cols and 0 <= ny_ < rows:
                            entry = (nx_ * rows + ny_, len(self.keys), wire)
                            self.keys.append((here, (nx_, ny_), kind))
                            self.cap.append(capacity)
                            row.append(entry)
                            if kind == "cardinal":
                                self.cardinal[x * rows + y][entry[0]] = entry
                self.cells[x * rows + y] = tuple(row)


class ChannelGraph(_TrackGraph):
    """Uniform mesh: unit channels, one capacity for all of them."""

    name = "simple"

    def __init__(self, fabric: Fabric, tracks: int):
        if tracks < 1:
            raise ArchError("need at least one track")
        self._build(fabric, [("cardinal", _CARDINAL_STEPS, 1.0, tracks)])


class MonacoTrackGraph(_TrackGraph):
    """Heterogeneous tracks: cardinal + diagonal + skip segments."""

    name = "monaco-tracks"

    def __init__(
        self,
        fabric: Fabric,
        cardinal: int = 1,
        diagonal: int = 1,
        skip: int = 1,
    ):
        if min(cardinal, diagonal, skip) < 0 or cardinal < 1:
            raise ArchError("need at least one cardinal track")
        self._build(
            fabric,
            [
                ("cardinal", _CARDINAL_STEPS, 1.0, cardinal),
                ("diagonal", _DIAGONAL_STEPS, 2.0, diagonal),
                ("skip", _SKIP_STEPS, 2.0, skip),
            ],
        )


def build_channel_graph(fabric: Fabric, tracks: int, model: str):
    """Construct the channel graph for an ``ArchParams.noc_model``."""
    if model == "simple":
        return ChannelGraph(fabric, tracks)
    if model == "monaco-tracks":
        per_type = max(1, round(tracks / 3))
        return MonacoTrackGraph(
            fabric, cardinal=per_type, diagonal=per_type, skip=per_type
        )
    raise ArchError(f"unknown NoC model {model!r}")
