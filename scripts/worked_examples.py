"""Walk the three bundled examples end to end and print what each shows.

Usage: python3 scripts/worked_examples.py
"""

import sys

from artquot import (
    QuotientModule,
    diagram_ascii,
    hilbert,
    hilbert_duality_check,
    inverse_system,
    outside_corners,
    parse_input,
    socle,
)
from artquot.cli import main as cli_main

EXAMPLES = [
    ("staircase with four corners", "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5"),
    ("flat staircase, mirrored dual", "ring x,y; ideal x^4, x^3*y, y^2"),
    ("smallest interesting dual", "ring x1,x2; ideal x1^2, x1*x2, x2^3"),
]


def show(title, text):
    variables, ideal = parse_input(text)
    module = QuotientModule(variables, ideal)
    print(f"== {title}")
    print(f"   input: {text}")
    print(f"   dim {module.dim}, hilbert {hilbert(module)}")
    if len(variables.names) == 2:
        print(diagram_ascii(module, dual=False))
    corners = outside_corners(module)
    soc = socle(module)
    print(f"   corners: {', '.join(module.label(e) for e in corners)}")
    print(f"   socle dim {soc.dim}")
    system = inverse_system(module)
    print(f"   dual basis: {', '.join(system.labels())}")
    print(f"   m acting on the dual spans {system.inner.dim} of them")
    duals = ", ".join(system.label(e) for e in system.corners)
    print(f"   reduced-part duals: {duals}")
    assert system.corners == corners
    hs_m, hs_d, hs_r, hs_rd = hilbert_duality_check(module, system, corners)
    print(f"   series: module {hs_m} = dual {hs_d}; socle {hs_r} = {hs_rd}")
    print()


def run():
    import io

    for title, text in EXAMPLES:
        show(title, text)
    print("== full correspondence table for the flat staircase")
    sys.stdin = io.StringIO(EXAMPLES[1][1])
    return cli_main(["report"])


if __name__ == "__main__":
    sys.exit(run())
