"""Exact structure theory for Artinian monomial quotients.

Everything is computed over the rationals with exact arithmetic: staircase
bases, socles and largest reduced submodules, Macaulay inverse systems
under the apolarity action, torsion/completion functors with their Matlis
duals, and radical-formula quantities.
"""

from .diagram import (
    diagram_ascii,
    diagram_cells,
    diagram_svg,
)
from .inverse import (
    InverseSystem,
    hilbert_duality_check,
    inverse_system,
    perp_of_submodule,
    truncated_dual,
    truncated_dual_report,
)
from .linalg import Subspace, rref
from .quotient import (
    HilbertSeries,
    QuotientModule,
    hilbert,
    monomial_span,
    socle,
    staircase,
)
from .radical import (
    envelope_zero,
    jacobson_radical,
    satisfies_radical_formula,
    semiprime_bruteforce,
)
from .ring import (
    AlgebraError,
    InternalCheckError,
    MonomialIdeal,
    NotArtinianError,
    ParseError,
    Polynomial,
    VariableSet,
    minimalize,
    parse_input,
    render,
)
from .reduced import (
    is_coreduced_subspace,
    largest_reduced_submodule,
    outside_corners,
    reduced_membership_oracle,
)
from .suites import SUITE_NAMES, run_suite
from .torsion import (
    FiniteModule,
    TtfTag,
    classify,
    matlis_dual,
    verify_ttf_duality,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "FiniteModule",
    "HilbertSeries",
    "InternalCheckError",
    "InverseSystem",
    "MonomialIdeal",
    "NotArtinianError",
    "ParseError",
    "Polynomial",
    "QuotientModule",
    "SUITE_NAMES",
    "Subspace",
    "TtfTag",
    "VariableSet",
    "classify",
    "diagram_ascii",
    "diagram_cells",
    "diagram_svg",
    "envelope_zero",
    "hilbert",
    "hilbert_duality_check",
    "inverse_system",
    "is_coreduced_subspace",
    "jacobson_radical",
    "largest_reduced_submodule",
    "matlis_dual",
    "minimalize",
    "monomial_span",
    "outside_corners",
    "parse_input",
    "perp_of_submodule",
    "reduced_membership_oracle",
    "render",
    "rref",
    "run_suite",
    "satisfies_radical_formula",
    "semiprime_bruteforce",
    "socle",
    "staircase",
    "truncated_dual",
    "truncated_dual_report",
    "verify_ttf_duality",
]
