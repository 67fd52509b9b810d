import pytest

from artquot.diagram import (
    diagram_ascii,
    diagram_cells,
    diagram_svg,
)
from artquot.quotient import QuotientModule
from artquot.ring import AlgebraError, parse_input

STAIR11 = "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5"
FLAT7 = "ring x,y; ideal x^4, x^3*y, y^2"


def module_from(text):
    return QuotientModule(*parse_input(text))


def test_ascii_staircase_shape_and_marks():
    art = diagram_ascii(module_from(STAIR11), dual=False)
    assert art.count("[*]") == 4
    for label in ("x^3", "x^2*y", "x*y^2", "y^4"):
        assert f"{label} [*]" in art
    # 11 cells: count the label row entries
    rows = [ln for ln in art.splitlines() if ln.startswith("|")]
    assert sum(ln.count("|") - 1 for ln in rows) == 11
    # top row starts with the class of 1
    assert rows[0].lstrip("|").strip().startswith("1")


def test_ascii_single_cell():
    art = diagram_ascii(module_from("ring x,y; ideal x, y"), dual=False)
    assert "1 [*]" in art
    assert art.count("|") == 2


def test_ascii_one_variable_is_a_single_row():
    art = diagram_ascii(module_from("ring x; ideal x^3"), dual=False)
    rows = [ln for ln in art.splitlines() if ln.startswith("|")]
    assert len(rows) == 1
    assert "x^2 [*]" in rows[0]


def test_dual_labels():
    art = diagram_ascii(module_from(FLAT7), dual=True).split("\n\n")[1]
    assert "X^3 [*]" in art and "X^2*Y [*]" in art
    assert "x^3" not in art


def test_three_variables_rejected_graphically():
    m = module_from("ring x,y,z; ideal x, y, z^2")
    with pytest.raises(AlgebraError):
        diagram_ascii(m, dual=False)
    with pytest.raises(AlgebraError):
        diagram_svg(m, dual=False)
    assert len(diagram_cells(m, dual=False)["cells"]) == 2  # json form still works


def test_svg_structure():
    svg = diagram_svg(module_from(FLAT7), dual=False)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<rect") == 7
    assert svg.count('stroke="#c0392b"') == 2
    assert svg.count("<text") == 7
    assert 'width="40" height="40"' in svg


def test_svg_pair_doubles_everything():
    pair = diagram_svg(module_from(FLAT7), dual=True)
    assert pair.count("<svg") == 1 and pair.count("</svg>") == 1
    assert pair.count("<rect") == 14
    assert pair.count('stroke="#c0392b"') == 4
    assert ">X^3<" in pair and ">x^3<" in pair


def test_dual_panels_follow_the_primal_ones():
    m = module_from(FLAT7)
    primal, dual = diagram_ascii(m, dual=True).split("\n\n")
    assert primal == diagram_ascii(m, dual=False)
    assert dual == primal.replace("x", "X").replace("y", "Y")
    cells = diagram_cells(m, dual=True)
    assert list(cells) == ["cells", "dual_cells"]
    assert cells["cells"] == diagram_cells(m, dual=False)["cells"]
    dual_labels = [c["label"] for c in cells["dual_cells"]]
    assert dual_labels == [label.upper() for label in m.labels()]


def test_cells_json_any_dimension():
    cells = diagram_cells(module_from(STAIR11), dual=False)["cells"]
    assert len(cells) == 11
    marked = [c for c in cells if c["corner"]]
    assert sorted(c["label"] for c in marked) == sorted(
        ["x^3", "x^2*y", "x*y^2", "y^4"]
    )
    assert all(set(c) == {"exps", "label", "degree", "corner"} for c in cells)


def test_renderings_are_deterministic():
    m = module_from(STAIR11)
    assert diagram_ascii(m, dual=False) == diagram_ascii(m, dual=False)
    assert diagram_svg(m, dual=False) == diagram_svg(m, dual=False)
    assert diagram_cells(m, dual=False)["cells"] == diagram_cells(m, dual=False)["cells"]
