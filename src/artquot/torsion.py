"""Finite modules over k[x_1..x_n]: action, annihilators, torsion, duality.

A FiniteModule is n pairwise-commuting sparse operators over the
rationals, one per variable; a staircase quotient R/I is one (see
quotient.QuotientModule).  The action, the annihilator (0 : J), the image
J M and J-(co)reducedness live here once for every module.  The torsion
functor stabilizes the ascending chain of annihilators of ideal powers;
the completion functor quotients by the stabilized image chain.  Matlis
duality is the linear dual: transpose every operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import (
    Operator,
    Subspace,
    Vector,
    dense,
    kernel,
    op_apply,
    op_mul,
    op_transpose,
    operator_from_rows,
    operator_rows,
    sparse_apply,
)
from .ring import AlgebraError, InternalCheckError, Polynomial


@dataclass(frozen=True, eq=False)
class FiniteModule:
    """A finite-dimensional module over k[x_1..x_n] given by commuting operators."""

    nvars: int
    dim: int
    action: tuple[Operator, ...]

    def __post_init__(self):
        if len(self.action) != self.nvars:
            raise AlgebraError("need one action matrix per variable")
        for op in self.action:
            if len(op) != self.dim or not all(
                0 <= i < self.dim and x for col in op for i, x in col.items()
            ):
                raise AlgebraError(
                    "action operator has the wrong shape or a stored zero"
                )
        for i in range(self.nvars):
            for j in range(i + 1, self.nvars):
                ab = op_mul(self.action[i], self.action[j])
                ba = op_mul(self.action[j], self.action[i])
                if ab != ba:
                    raise AlgebraError(
                        f"action matrices {i} and {j} do not commute"
                    )

    def poly_matrix(self, poly: Polynomial) -> Operator:
        """Evaluate a polynomial at the action operators."""
        one = Fraction(1)
        return tuple(self._act(poly, {j: one}) for j in range(self.dim))

    def act(self, poly: Polynomial, vec: Sequence) -> Vector:
        """Multiply the element `vec` by the polynomial `poly`."""
        if len(vec) != self.dim:
            raise AlgebraError("element has wrong length")
        start = {j: c for j, c in enumerate(vec) if c}
        return dense(self._act(poly, start), self.dim)

    def _act(self, poly: Polynomial, vec: dict) -> dict:
        out: dict = {}
        for exps, coeff in poly.terms.items():
            if len(exps) != self.nvars:
                raise AlgebraError("polynomial arity does not match the module")
            img = vec if coeff == 1 else {j: coeff * c for j, c in vec.items()}
            for op, e in zip(self.action, exps):
                for _ in range(e):
                    img = sparse_apply(op, img)
            for i, c in img.items():
                out[i] = out[i] + c if i in out else c
        return {i: c for i, c in out.items() if c}


def _gen_matrices(module: FiniteModule, gens: Iterable[Polynomial]) -> list[Operator]:
    return [module.poly_matrix(g) for g in gens]


def _pairwise_products(gens: list[Polynomial]) -> list[Polynomial]:
    """Generators of J^2 from generators of J."""
    return [
        gens[i] * gens[j] for i in range(len(gens)) for j in range(i, len(gens))
    ]


def annihilator_of(module: FiniteModule, gens: Iterable[Polynomial]) -> Subspace:
    """(0 : J) = joint kernel of the generator actions."""
    stacked = [
        row for op in _gen_matrices(module, gens) for row in operator_rows(op)
    ]
    if not stacked:
        return Subspace.full(module.dim)
    return kernel(stacked, module.dim)


def image_of(module: FiniteModule, gens: Iterable[Polynomial]) -> Subspace:
    """J M = sum of the generator images."""
    d = module.dim
    return Subspace(
        d, [dense(col, d) for op in _gen_matrices(module, gens) for col in op]
    )


def is_j_reduced(module: FiniteModule, gens: Iterable[Polynomial]) -> bool:
    """Whether (0 : J) = (0 : J^2)."""
    gens = list(gens)
    return annihilator_of(module, gens) == annihilator_of(
        module, _pairwise_products(gens)
    )


def is_j_coreduced(module: FiniteModule, gens: Iterable[Polynomial]) -> bool:
    """Whether J M = J^2 M."""
    gens = list(gens)
    return image_of(module, gens) == image_of(module, _pairwise_products(gens))


def torsion_part(module: FiniteModule, gens: Iterable[Polynomial]) -> Subspace:
    """Stabilized union of (0 : J^k); elements killed by some power of J."""
    space, _ = torsion_part_with_exponent(module, gens)
    return space


def torsion_part_with_exponent(
    module: FiniteModule, gens: Iterable[Polynomial]
) -> tuple[Subspace, int]:
    mats = _gen_matrices(module, gens)
    current = Subspace.zero(module.dim)
    exponent = 0
    for k in range(1, module.dim + 2):
        res = operator_from_rows(current.residual_matrix())
        stacked = [row for op in mats for row in operator_rows(op_mul(res, op))]
        nxt = kernel(stacked, module.dim) if stacked else Subspace.full(module.dim)
        if nxt == current:
            break
        current = nxt
        exponent = k
    if exponent > module.dim:
        raise InternalCheckError("torsion chain failed to stabilize in dim steps")
    return current, exponent


def quotient_module(module: FiniteModule, space: Subspace) -> FiniteModule:
    """Induced action on M / N via the free coordinates of N's echelon form."""
    for op in module.action:
        for r in space.rows:
            if not space.contains(op_apply(op, r)):
                raise AlgebraError("subspace is not a submodule")
    d = module.dim
    free = [c for c in range(d) if c not in set(space.pivots)]
    mats = []
    for op in module.action:
        cols = []
        for c in free:
            red = space.reduce(dense(op[c], d))
            cols.append({k: red[f] for k, f in enumerate(free) if red[f]})
        mats.append(tuple(cols))
    return FiniteModule(module.nvars, len(free), tuple(mats))


def adic_completion(
    module: FiniteModule, gens: Iterable[Polynomial]
) -> tuple[FiniteModule, int]:
    """(M / J^inf M, stabilization exponent of the descending chain J^k M)."""
    mats = _gen_matrices(module, gens)
    current = Subspace.full(module.dim)
    exponent = 0
    for k in range(1, module.dim + 2):
        vecs = [op_apply(op, r) for op in mats for r in current.rows]
        nxt = Subspace(module.dim, vecs)
        if nxt == current:
            break
        current = nxt
        exponent = k
    if exponent > module.dim:
        raise InternalCheckError("image chain failed to stabilize in dim steps")
    return quotient_module(module, current), exponent


def matlis_dual(module: FiniteModule) -> FiniteModule:
    """Linear dual: every action operator transposed."""
    return FiniteModule(
        module.nvars,
        module.dim,
        tuple(op_transpose(op) for op in module.action),
    )


@dataclass(frozen=True)
class TtfTag:
    """Torsion-theory classification of a module relative to an ideal."""

    tag: str  # "T_I" | "F_I" | "FrakT_I" | "none"
    j_reduced: bool
    j_coreduced: bool
    gamma_dim: int
    lambda_dim: int

    def __post_init__(self):
        if self.tag not in ("T_I", "F_I", "FrakT_I", "none"):
            raise AlgebraError(f"unknown tag {self.tag!r}")
        if self.tag in ("T_I", "F_I") and not self.j_reduced:
            raise AlgebraError("torsion/torsion-free tags require reducedness")
        if self.tag == "FrakT_I" and not self.j_coreduced:
            raise AlgebraError("the coreduced torsion class requires coreducedness")


def classify(module: FiniteModule, gens: Iterable[Polynomial]) -> TtfTag:
    """Place M in the torsion / coreduced-torsion / torsion-free trichotomy.

    A module can satisfy the torsion-free and coreduced-torsion definitions
    at once (the whole-ring ideal on a one-dimensional module does); the
    coreduced tag wins in that case, and the predicate bits carry the rest.
    """
    gens = list(gens)
    reduced = is_j_reduced(module, gens)
    coreduced = is_j_coreduced(module, gens)
    gamma = torsion_part(module, gens)
    lam, _ = adic_completion(module, gens)
    image = image_of(module, gens)
    if reduced and gamma.dim == module.dim:
        tag = "T_I"
    elif coreduced and image.dim == module.dim:
        tag = "FrakT_I"
    elif reduced and gamma.dim == 0:
        tag = "F_I"
    else:
        tag = "none"
    return TtfTag(
        tag=tag,
        j_reduced=reduced,
        j_coreduced=coreduced,
        gamma_dim=gamma.dim,
        lambda_dim=lam.dim,
    )


@dataclass(frozen=True)
class DualityReport:
    """Outcome of the three torsion-theory duality equivalences."""

    hypothesis_met: bool
    items: tuple[str, str, str]  # each "pass" | "fail" | "skipped"

    @property
    def ok(self) -> bool:
        return all(s != "fail" for s in self.items)


def verify_ttf_duality(
    module: FiniteModule, gens: Iterable[Polynomial]
) -> DualityReport:
    """Check that Matlis duality swaps the torsion classes as predicted.

    Requires M to be both reduced and coreduced relative to the ideal;
    otherwise every item is reported as skipped.
    """
    gens = list(gens)
    mine = classify(module, gens)
    if not (mine.j_reduced and mine.j_coreduced):
        return DualityReport(False, ("skipped", "skipped", "skipped"))
    dual = matlis_dual(module)
    theirs = classify(dual, gens)
    in_t = mine.j_reduced and mine.gamma_dim == module.dim
    dual_in_t = theirs.j_reduced and theirs.gamma_dim == dual.dim
    in_f = mine.j_reduced and mine.gamma_dim == 0
    dual_in_f = theirs.j_reduced and theirs.gamma_dim == 0
    image = image_of(module, gens)
    dual_image = image_of(dual, gens)
    in_frak = mine.j_coreduced and image.dim == module.dim
    dual_in_frak = theirs.j_coreduced and dual_image.dim == dual.dim
    items = (
        "pass" if in_t == dual_in_t else "fail",
        "pass" if in_f == dual_in_frak else "fail",
        "pass" if in_frak == dual_in_f else "fail",
    )
    return DualityReport(True, items)


@dataclass(frozen=True)
class LevelCollapseReport:
    """Dimensions of the filtration levels that merge under (co)reducedness."""

    j_reduced: bool
    j_coreduced: bool
    semisimple_case: bool
    gamma_dim: int
    socle_level_dim: int  # dim (0 : J)
    lambda_dim: int
    top_level_dim: int  # dim M / J M
    collapses: tuple[str, ...]


def level_collapse_check(
    module: FiniteModule, gens: Iterable[Polynomial]
) -> LevelCollapseReport:
    """When M is reduced the whole torsion part is already killed by J;
    when M is coreduced the completion is just M / J M; when every variable
    acts by zero (and the ideal sits inside the variables' span) all the
    left-hand levels coincide with M itself."""
    gens = list(gens)
    reduced = is_j_reduced(module, gens)
    coreduced = is_j_coreduced(module, gens)
    gamma = torsion_part(module, gens)
    ann = annihilator_of(module, gens)
    lam, _ = adic_completion(module, gens)
    image = image_of(module, gens)
    top_level = module.dim - image.dim
    collapses = []
    if reduced:
        if gamma.dim != ann.dim:
            raise InternalCheckError("reduced module with a deeper torsion part")
        collapses.append("torsion-part == annihilator")
    if coreduced:
        if lam.dim != top_level:
            raise InternalCheckError("coreduced module with a deeper completion")
        collapses.append("completion == top quotient")
    semisimple = all(not col for op in module.action for col in op) and all(
        g.constant_term() == 0 for g in gens
    )
    if semisimple:
        if not (gamma.dim == ann.dim == module.dim):
            raise InternalCheckError("semisimple module with proper torsion levels")
        collapses.append("all torsion levels == M")
    return LevelCollapseReport(
        j_reduced=reduced,
        j_coreduced=coreduced,
        semisimple_case=semisimple,
        gamma_dim=gamma.dim,
        socle_level_dim=ann.dim,
        lambda_dim=lam.dim,
        top_level_dim=top_level,
        collapses=tuple(collapses),
    )


def conjugate(module: FiniteModule, p: Operator, p_inv: Operator) -> FiniteModule:
    """Change of basis: every action operator A becomes P A P^{-1}."""
    mats = tuple(op_mul(op_mul(p, op), p_inv) for op in module.action)
    return FiniteModule(module.nvars, module.dim, mats)
