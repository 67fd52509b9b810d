"""Young-diagram renderings of staircase bases.

English convention: rows are indexed by the exponent of the second
variable, the class of 1 sits in the top-left cell, and the first-variable
exponent grows to the right.  Outside corners get a visible mark.  Output
is deterministic: same module, same bytes.
"""

from __future__ import annotations

from .quotient import QuotientModule
from .ring import AlgebraError, ExponentVector, monomial_str, total_degree
from .reduced import outside_corners

CELL = 40  # svg cell edge in pixels


def _panels(module: QuotientModule, dual: bool) -> list[tuple[str, ...]]:
    """Label names per panel: the primal staircase, then its dual if asked."""
    panels = [module.variables.names]
    if dual:
        panels.append(module.variables.dual_names())
    return panels


def diagram_cells(module: QuotientModule, dual: bool) -> dict:
    """Cell lists for any number of variables (the JSON form): "cells", and
    "dual_cells" with dual labels when `dual` is set."""
    corners = set(outside_corners(module))
    keys = ("cells", "dual_cells")
    return {
        key: [
            {
                "exps": list(e),
                "label": monomial_str(names, e),
                "degree": total_degree(e),
                "corner": e in corners,
            }
            for e in module.basis
        ]
        for key, names in zip(keys, _panels(module, dual))
    }


def check_drawable(n: int) -> None:
    """Refuse the graphical formats for more than two variables, which the
    CLI does from the parsed ring before any module is built."""
    if n > 2:
        raise AlgebraError("graphical formats need at most two variables")


def _grid(module: QuotientModule) -> list[list[ExponentVector]]:
    """Rows of staircase cells for one- or two-variable modules."""
    check_drawable(module.n)
    if module.n == 1:
        return [list(module.basis)]
    rows = [[] for _ in range(max(e[1] for e in module.basis) + 1)]
    # in grlex order each row comes out sorted by the first exponent
    for e in module.basis:
        rows[e[1]].append(e)
    return rows


def diagram_ascii(module: QuotientModule, dual: bool) -> str:
    """The staircase as a box grid, then its dual below when `dual` is set."""
    corners = set(outside_corners(module))
    rows = _grid(module)
    return "\n\n".join(
        _ascii_grid(rows, names, corners) for names in _panels(module, dual)
    )


def _ascii_grid(rows, names, corners) -> str:
    def text(e):
        label = monomial_str(names, e)
        return f"{label} [*]" if e in corners else label

    width = max(len(text(e)) for row in rows for e in row) + 2
    lines = []
    prev_cells = 0
    for row in rows:
        ncells = len(row)
        border_cells = max(ncells, prev_cells)
        lines.append("+" + ("-" * width + "+") * border_cells)
        lines.append(
            "".join(f"| {text(e):<{width - 1}}" for e in row) + "|"
        )
        prev_cells = ncells
    lines.append("+" + ("-" * width + "+") * prev_cells)
    return "\n".join(lines)


def diagram_svg(module: QuotientModule, dual: bool) -> str:
    """One rect per staircase cell, corner cells with a distinct stroke; the
    dual staircase is stacked below when `dual` is set, one blank row
    between the copies."""
    panels = _panels(module, dual)
    corners = set(outside_corners(module))
    rows = _grid(module)
    ncols = max(len(r) for r in rows)
    step = len(rows) * CELL + CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{ncols * CELL}" height="{len(panels) * step - CELL}" '
        f'font-family="monospace" font-size="10">'
    ]
    for k, names in enumerate(panels):
        parts.extend(_svg_cells(module, names, corners, k * step))
    parts.append("</svg>")
    return "\n".join(parts)


def _svg_cells(module, names, corners, y_offset: int) -> list[str]:
    parts = []
    for e in module.basis:
        cx = e[0]
        cy = e[1] if module.n == 2 else 0
        x, y = cx * CELL, cy * CELL + y_offset
        if e in corners:
            stroke = 'stroke="#c0392b" stroke-width="2"'
        else:
            stroke = 'stroke="#000000" stroke-width="1"'
        parts.append(
            f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
            f'fill="none" {stroke}/>'
        )
        label = monomial_str(names, e)
        parts.append(
            f'<text x="{x + 4}" y="{y + 24}">{label}</text>'
        )
    return parts

