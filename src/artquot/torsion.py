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
evaluation of the generators, and reads dimensions only: (0 : J) lies in
(0 : J^2) and J^2 M in J M, so J-(co)reducedness is an equality of ranks,
and the split M = Gamma_J M (+) J^inf M is a rank too, of Gamma's kernel
basis beside the image columns.  Matlis duality is the linear dual:
transpose every operator.

Two paths take the single-entry form `linalg` states, read off each
operator once (`slot_maps`).  The commutation check composes slot maps
when both operators of a pair have at most one entry per column, and
multiplies them otherwise (sampler draws, conjugates).  When every
operator has one, x^e is the product of their powers (`monomial_map`) and
`poly_matrix` sums coefficient times slot map over the terms; otherwise
it acts on each unit column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Sequence

from .linalg import (
    Operator,
    SlotMap,
    Subspace,
    kernel,
    null_basis,
    op_mul,
    op_power,
    op_transpose,
    rank,
    slot_compose,
    slot_map,
    slot_maps_commute,
    slot_power,
    slot_sum,
    sparse_apply,
)
from .ring import AlgebraError, InternalCheckError, Polynomial


@dataclass(frozen=True, eq=False)
class FiniteModule:
    """A finite-dimensional module over k[x_1..x_n] given by commuting operators."""

    nvars: int
    dim: int
    action: tuple[Operator, ...]
    slot_maps: tuple[SlotMap | None, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.action) != self.nvars:
            raise AlgebraError("need one action matrix per variable")
        for op in self.action:
            if (
                len(op) != self.dim
                or not all(chain.from_iterable(map(dict.values, op)))
                or min(chain.from_iterable(op), default=0) < 0
                or max(chain.from_iterable(op), default=-1) >= self.dim
            ):
                raise AlgebraError(
                    "action operator has the wrong shape or a stored zero"
                )
        maps = tuple(map(slot_map, self.action))
        object.__setattr__(self, "slot_maps", maps)
        for i, j in combinations(range(self.nvars), 2):
            if maps[i] is not None and maps[j] is not None:
                same = slot_maps_commute(maps[i], maps[j])
            else:
                ab = op_mul(self.action[i], self.action[j])
                ba = op_mul(self.action[j], self.action[i])
                same = ab == ba
            if not same:
                raise AlgebraError(f"action matrices {i} and {j} do not commute")

    def monomial_map(self, exps) -> SlotMap | None:
        """x^exps as a slot map, the product of the variables' slot maps
        raised to their exponents; None if some operator has none."""
        if None in self.slot_maps:
            return None
        out = None
        for m, k in zip(self.slot_maps, exps):
            if k:
                p = slot_power(m, k)
                out = p if out is None else slot_compose(out, p)
        return SlotMap(tuple(range(self.dim)), (1,) * self.dim) if out is None else out

    def poly_matrix(self, poly: Polynomial) -> Operator:
        """Evaluate a polynomial at the action operators: the sum of
        coefficient * slot map over the terms where every monomial has a
        slot map, else one `act` per unit column."""
        for exps in poly.terms:
            if len(exps) != self.nvars:
                raise AlgebraError("polynomial arity does not match the module")
        terms = [(c, self.monomial_map(e)) for e, c in poly.terms.items()]
        if all(m is not None for _, m in terms):
            return slot_sum(terms, self.dim)
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


# Zero rows and columns change no kernel, span or rank; they stay out of rref.
def _rows(ops: Sequence[Operator]) -> list[dict]:
    """The operators' nonzero rows, stacked: the matrix whose kernel is
    their joint kernel."""
    return [row for op in ops for row in op_transpose(op) if row]


def _columns(ops: Sequence[Operator]) -> list[dict]:
    """The operators' nonzero columns, which span the sum of their images."""
    return [col for op in ops for col in op if col]


def joint_kernel(ops: Sequence[Operator], d: int) -> Subspace:
    """The elements every operator kills: (0 : J) for J's generator operators."""
    return kernel(_rows(ops), d)


def image_span(ops: Sequence[Operator], d: int) -> Subspace:
    """The sum of the operators' images: J M for J's generator operators."""
    return Subspace(d, _columns(ops))


def _products(ops: list[Operator]) -> list[Operator]:
    """Operators of the generators of J^2 from those of J."""
    n = len(ops)
    return [op_mul(ops[i], ops[j]) for i in range(n) for j in range(i, n)]


def _fitting(ops: list[Operator], d: int) -> tuple[list[dict], int]:
    """(a basis of Gamma_J M, dim J^inf M), Gamma_J M the joint kernel and
    J^inf M the image span of the d-th powers.

    Fitting's lemma: on a space of dimension d an operator G splits it as
    ker G^d (+) im G^d, both invariant under every operator commuting with
    G.  Intersecting the kernels gives the elements killed by a power of J,
    summing the images gives the intersection of the J^k M, and the two
    must split M: their dimensions add up to d, and Gamma's basis with the
    image columns spans M.
    """
    powers = [op_power(op, d) for op in ops]
    gamma = null_basis(_rows(powers), d)
    tail = _columns(powers)
    tail_dim = rank(tail, d)
    if len(gamma) + tail_dim != d or rank(gamma + tail, d) != d:
        raise InternalCheckError(
            "M is not the direct sum of its torsion part and J^inf M"
        )
    return gamma, tail_dim


def _levels(module: FiniteModule, gens: Iterable[Polynomial]):
    """dim (0 : J), dim J M, J-reducedness, J-coreducedness, a basis of
    Gamma_J M and dim J^inf M, from one evaluation of the generators.

    (0 : J) lies in (0 : J^2) and J^2 M in J M, so each pair is equal
    exactly when the two dimensions are."""
    ops = [module.poly_matrix(g) for g in gens]
    d = module.dim
    squares = _products(ops)
    ann_dim = d - rank(_rows(ops), d)
    image_dim = rank(_columns(ops), d)
    gamma, tail_dim = _fitting(ops, d)
    reduced = ann_dim == d - rank(_rows(squares), d)
    coreduced = image_dim == rank(_columns(squares), d)
    return ann_dim, image_dim, reduced, coreduced, gamma, tail_dim


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
    is reduced; J^inf M = J M when M is coreduced.  Each is compared by
    dimension, as (0 : J) lies in Gamma_J M and J^inf M in J M.
    """
    gens = list(gens)
    ann_dim, image_dim, reduced, coreduced, gamma, tail_dim = _levels(module, gens)
    gamma_dim = len(gamma)
    semisimple = all(not col for op in module.action for col in op) and all(
        g.constant_term() == 0 for g in gens
    )
    if semisimple and not gamma_dim == ann_dim == module.dim:
        raise InternalCheckError("semisimple module with proper torsion levels")
    if reduced and gamma_dim != ann_dim:
        raise InternalCheckError("reduced module with a deeper torsion part")
    if coreduced and tail_dim != image_dim:
        raise InternalCheckError("coreduced module with a deeper completion")
    if reduced and gamma_dim == module.dim:
        tag = "T_I"
    elif coreduced and image_dim == module.dim:
        tag = "FrakT_I"
    elif reduced and gamma_dim == 0:
        tag = "F_I"
    else:
        tag = "none"
    return TtfTag(
        tag=tag,
        j_reduced=reduced,
        j_coreduced=coreduced,
        gamma_dim=gamma_dim,
        lambda_dim=module.dim - tail_dim,
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
