"""Finite modules over k[x_1..x_n]: action, annihilators, torsion, duality.

A FiniteModule is n pairwise-commuting sparse operators over the
rationals, one per variable, with entries in the value form `linalg`
states (ints where integral); a staircase quotient R/I is one (see
quotient.QuotientModule).  The joint kernel and the image span of a list
of operators live here once: on the generator operators of J they are
(0 : J) and J M, on `module.action` they are (0 : m) and m M.  The torsion
part Gamma_J M and the completion M / J^inf M come from Fitting's lemma:
the joint kernel and the image span of the d-th powers of the generator
operators.  `classify` reads them with J-(co)reducedness off one
evaluation of the generators.  Matlis duality is the linear dual:
transpose every operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .linalg import (
    Operator,
    Subspace,
    kernel,
    op_mul,
    op_power,
    op_transpose,
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
        return tuple(self.act(poly, {j: 1}) for j in range(self.dim))

    def act(self, poly: Polynomial, vec: dict) -> dict:
        """Multiply the sparse element `vec` by the polynomial `poly`."""
        if vec and (min(vec) < 0 or max(vec) >= self.dim):
            raise AlgebraError(f"element index out of range({self.dim})")
        out: dict = {}
        for exps, coeff in poly.terms.items():
            if len(exps) != self.nvars:
                raise AlgebraError("polynomial arity does not match the module")
            img = vec if coeff == 1 else {j: coeff * c for j, c in vec.items()}
            for op, e in zip(self.action, exps):
                for _ in range(e):
                    if not img:
                        break
                    img = sparse_apply(op, img)
            for i, c in img.items():
                out[i] = out[i] + c if i in out else c
        return {i: c for i, c in out.items() if c}


# Zero rows and columns change no kernel or span; they stay out of rref.
def joint_kernel(ops: Sequence[Operator], d: int) -> Subspace:
    """The elements every operator kills: (0 : J) for J's generator operators."""
    return kernel([row for op in ops for row in op_transpose(op) if row], d)


def image_span(ops: Sequence[Operator], d: int) -> Subspace:
    """The sum of the operators' images: J M for J's generator operators."""
    return Subspace(d, [col for op in ops for col in op if col])


def _products(ops: list[Operator]) -> list[Operator]:
    """Operators of the generators of J^2 from those of J."""
    n = len(ops)
    return [op_mul(ops[i], ops[j]) for i in range(n) for j in range(i, n)]


def _fitting(ops: list[Operator], d: int) -> tuple[Subspace, Subspace]:
    """(Gamma_J M, J^inf M) as (joint kernel, image span) of the d-th powers.

    Fitting's lemma: on a space of dimension d an operator G splits it as
    ker G^d (+) im G^d, both invariant under every operator commuting with
    G.  Intersecting the kernels gives the elements killed by a power of J,
    summing the images gives the intersection of the J^k M, and the two
    must split M.
    """
    powers = [op_power(op, d) for op in ops]
    gamma = joint_kernel(powers, d)
    tail = image_span(powers, d)
    if gamma.dim + tail.dim != d or gamma.sum(tail).dim != d:
        raise InternalCheckError(
            "M is not the direct sum of its torsion part and J^inf M"
        )
    return gamma, tail


def _levels(module: FiniteModule, gens: Iterable[Polynomial]):
    """(0 : J), J M, J-reducedness, J-coreducedness, Gamma_J M and J^inf M,
    from one evaluation of the generators."""
    ops = [module.poly_matrix(g) for g in gens]
    d = module.dim
    squares = _products(ops)
    ann = joint_kernel(ops, d)
    image = image_span(ops, d)
    gamma, tail = _fitting(ops, d)
    reduced = ann == joint_kernel(squares, d)
    coreduced = image == image_span(squares, d)
    return ann, image, reduced, coreduced, gamma, tail


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

    Checked on the way: Gamma_J M = (0 : J) = M when every variable acts by
    zero and no generator has a constant term; Gamma_J M = (0 : J) when M
    is reduced; J^inf M = J M when M is coreduced.
    """
    gens = list(gens)
    ann, image, reduced, coreduced, gamma, tail = _levels(module, gens)
    semisimple = all(not col for op in module.action for col in op) and all(
        g.constant_term() == 0 for g in gens
    )
    if semisimple and not gamma.dim == ann.dim == module.dim:
        raise InternalCheckError("semisimple module with proper torsion levels")
    if reduced and gamma.dim != ann.dim:
        raise InternalCheckError("reduced module with a deeper torsion part")
    if coreduced and tail.dim != image.dim:
        raise InternalCheckError("coreduced module with a deeper completion")
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
        lambda_dim=module.dim - tail.dim,
    )


@dataclass(frozen=True)
class DualityReport:
    """Outcome of the three torsion-theory duality equivalences."""

    hypothesis_met: bool
    items: tuple[str, str, str]  # each "pass" | "fail" | "skipped"
    tag: TtfTag  # the classification of M itself

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
        return DualityReport(False, ("skipped", "skipped", "skipped"), mine)
    dual = matlis_dual(module)
    theirs = classify(dual, gens)
    in_t = mine.j_reduced and mine.gamma_dim == module.dim
    dual_in_t = theirs.j_reduced and theirs.gamma_dim == dual.dim
    in_f = mine.j_reduced and mine.gamma_dim == 0
    dual_in_f = theirs.j_reduced and theirs.gamma_dim == 0
    # J M = M exactly when J^inf M = M, that is when the completion is 0
    in_frak = mine.j_coreduced and mine.lambda_dim == 0
    dual_in_frak = theirs.j_coreduced and theirs.lambda_dim == 0
    items = (
        "pass" if in_t == dual_in_t else "fail",
        "pass" if in_f == dual_in_frak else "fail",
        "pass" if in_frak == dual_in_f else "fail",
    )
    return DualityReport(True, items, mine)


def conjugate(module: FiniteModule, p: Operator, p_inv: Operator) -> FiniteModule:
    """Change of basis: every action operator A becomes P A P^{-1}."""
    mats = tuple(op_mul(op_mul(p, op), p_inv) for op in module.action)
    return FiniteModule(module.nvars, module.dim, mats)
