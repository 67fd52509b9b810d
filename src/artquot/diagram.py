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


def diagram_cells(module: QuotientModule, dual: bool = False) -> list[dict]:
    """Cell list for any number of variables (the JSON form)."""
    corners = set(outside_corners(module).corners)
    names = (
        module.variables.dual_names() if dual else module.variables.names
    )
    return [
        {
            "exps": list(e),
            "label": monomial_str(names, e),
            "degree": total_degree(e),
            "corner": e in corners,
        }
        for e in module.basis
    ]


def _grid(module: QuotientModule) -> list[list[ExponentVector]]:
    """Rows of staircase cells for one- or two-variable modules."""
    if module.n > 2:
        raise AlgebraError("graphical formats need at most two variables")
    if module.n == 1:
        return [[e for e in module.basis]]
    nrows = max(e[1] for e in module.basis) + 1
    rows = []
    for b in range(nrows):
        row = sorted(
            (e for e in module.basis if e[1] == b), key=lambda e: e[0]
        )
        rows.append(row)
    return rows


def diagram_ascii(module: QuotientModule, dual: bool = False) -> str:
    corners = set(outside_corners(module).corners)
    names = (
        module.variables.dual_names() if dual else module.variables.names
    )

    def text(e):
        label = monomial_str(names, e)
        return f"{label} [*]" if e in corners else label

    rows = _grid(module)
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


def diagram_svg(module: QuotientModule) -> str:
    """One rect per staircase cell; corner cells get a distinct stroke."""
    return _svg(module, [module.variables.names])


def diagram_svg_pair(module: QuotientModule) -> str:
    """Primal and dual staircases stacked in one document, primal on top."""
    return _svg(module, [module.variables.names, module.variables.dual_names()])


def _svg(module: QuotientModule, panels: list[tuple[str, ...]]) -> str:
    """One copy of the staircase per panel of labels, stacked top to bottom
    with one blank row between copies."""
    corners = set(outside_corners(module).corners)
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

