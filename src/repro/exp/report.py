"""Plain-text and JSON rendering of figure/table results."""

from __future__ import annotations

from repro.exp.figures import Claim, FigureResult

_STATUS = {True: "holds", False: "FAILS", None: "unchecked"}


def _number(value: float) -> str:
    return f"{value:.3f}".rstrip("0").rstrip(".")


def format_claim(claim: Claim) -> str:
    paper = "" if claim.paper is None else f", paper {_number(claim.paper)}"
    return (
        f"claim [{_STATUS[claim.holds]}] {claim.statement}: "
        f"measured {_number(claim.measured)}{paper}"
    )


def format_figure(result: FigureResult) -> str:
    """Render a FigureResult as an aligned text table, then its notes
    and claims."""
    if result.body is not None:
        lines = [result.body]
    else:
        lines = _table_lines(result)
    lines += [f"  note: {note}" for note in result.notes]
    lines += [f"  {format_claim(claim)}" for claim in result.claims]
    return "\n".join(lines)


def _table_lines(result: FigureResult) -> list[str]:
    precision = result.precision
    label_width = max(
        [len(r) for r in result.rows] + [len(result.figure), 8]
    )
    col_width = max([len(c) for c in result.columns] + [9]) + 2
    lines = [f"{result.figure}: {result.title}"]
    header = " " * label_width + "".join(
        c.rjust(col_width) for c in result.columns
    )
    lines.append(header)
    for name, row in result.rows.items():
        cells = []
        for column in result.columns:
            value = row.get(column)
            if value is None:
                cells.append("-".rjust(col_width))
            elif value == float("inf"):
                cells.append("unroutable".rjust(col_width))
            else:
                cells.append(f"{value:.{precision}f}".rjust(col_width))
        lines.append(name.ljust(label_width) + "".join(cells))
    geo = [result.geomean(c) for c in result.columns]
    if result.geomean_row and len(result.rows) > 1 and any(geo):
        lines.append(
            "geomean".ljust(label_width)
            + "".join(f"{g:.{precision}f}".rjust(col_width) for g in geo)
        )
    return lines


def fidelity_record(result: FigureResult) -> dict:
    """One entry of ``fidelity.json``: the table's claims as data. No
    timestamp or wall clock, so two runs of one grid write equal files."""
    return {
        "title": result.title,
        "claims": [
            {
                "statement": claim.statement,
                "paper": claim.paper,
                "measured": round(claim.measured, 6),
                "holds": claim.holds,
            }
            for claim in result.claims
        ],
    }
