"""Finite modules over k[x_1..x_n]: action, annihilators, torsion, duality.

A FiniteModule holds n pairwise-commuting operators over the rationals,
one per variable, with entries in the value form `linalg` states (ints
where integral).  It is built from whichever form the caller has: dict
columns (sampler draws, conjugates, duals) or slot maps (a staircase
quotient R/I and its inverse system, see quotient.QuotientModule).  The
other form is derived: slot maps are read off the columns, and the
columns of a module built from slot maps only when a general path reads
`action`.  The joint kernel and the image span of a family of operators
live here once: on the generator operators of J they are (0 : J) and
J M, on the variables' operators (0 : m) and m M.  The form a family is
read in is decided once, by `_form`: slot maps when each operator is one
injective on its live slots, whose kernels, images and ranks are unit
spans and counts read off the slots, else dict columns, which go to rref.
Products and powers stay in the family's form.  The torsion part
Gamma_J M and the completion M / J^inf M come from Fitting's lemma: the
joint kernel and the image span of the d-th powers of the generator
operators, or of any higher powers, here G^(2^j) for the least 2^j >= d,
squared up from the squares G^2 that the J^2 level already computed and
stopped at the zero map.  `classify` reads them with J-(co)reducedness off
one evaluation of the generators, a one-term generator as a slot map, and
reads dimensions only: (0 : J) lies in (0 : J^2) and J^2 M in J M, so
J-(co)reducedness is an equality of ranks, and the split
M = Gamma_J M (+) J^inf M is a rank too, of Gamma's kernel basis beside
the image columns.  A level whose family is one operator on dict columns,
as for a single generator such as x+y, is one elimination of its
columns: row rank equals column rank, so rank-nullity gives the kernel's
dimension from the image's.  Matlis duality is the linear dual: transpose
every operator; `verify_ttf_duality` hands the dual it built back in its
report.

The commutation check composes slot maps when both operators of a pair
have at most one entry per column, and multiplies them otherwise.  When
every operator has a slot map, x^e is the product of their powers
(`monomial_map`); `monomial_operator` gives x^e as dict columns, those of
that slot map or else the product of the operators' powers, x_i its
operator itself and x^0 the identity, and `poly_matrix` sums coefficient
times `monomial_operator` over the terms.  `act` multiplies one element,
one pass over each term's variables that stops at a zero image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, compress, islice, repeat
from operator import is_not
from typing import Iterable, Sequence

from .linalg import (
    Operator,
    SlotMap,
    Subspace,
    echelon_rows,
    live_columns,
    null_basis,
    op_conjugate,
    op_mul,
    op_power,
    op_sum,
    op_transpose,
    rank,
    slot_apply,
    slot_columns,
    slot_compose,
    slot_map,
    slot_maps_commute,
    slot_power,
    slot_targets,
    sparse_apply,
    unit_entries,
    unit_map,
)
from .ring import AlgebraError, InternalCheckError, Polynomial


def _monomial(ops: Sequence, exps, power, mul):
    """The product of power(op, k) over the operators and exponents, in
    the operators' form; None for x^0."""
    out = None
    for op, k in zip(ops, exps):
        if k:
            p = power(op, k)
            out = p if out is None else mul(out, p)
    return out


class FiniteModule:
    """A finite-dimensional module over k[x_1..x_n] given by commuting
    operators, one per variable: as dict columns (`action`) or as slot
    maps (`slot_maps`), whichever the caller has.  Given the columns, the
    slot maps are read off them, None for an operator with a column of two
    entries or more; given the slot maps, the columns are built only when
    `action` is first read."""

    def __init__(
        self,
        nvars: int,
        dim: int,
        action: tuple[Operator, ...] | None = None,
        slot_maps: tuple[SlotMap, ...] | None = None,
    ):
        self.nvars = nvars
        self.dim = dim
        self._action = action
        self.slot_maps = slot_maps
        self.__post_init__()

    def __post_init__(self):
        """The one construction check: shape, range and stored zeros of the
        form given, then every pair of operators commutes."""
        if (self._action is None) == (self.slot_maps is None):
            raise AlgebraError("give the action operators or their slot maps")
        given = self.slot_maps if self._action is None else self._action
        if len(given) != self.nvars:
            raise AlgebraError("need one action matrix per variable")
        if self._action is not None:
            for op in self._action:
                if (
                    len(op) != self.dim
                    or not all(chain.from_iterable(map(dict.values, op)))
                    or min(chain.from_iterable(op), default=0) < 0
                    or max(chain.from_iterable(op), default=-1) >= self.dim
                ):
                    raise AlgebraError(
                        "action operator has the wrong shape or a stored zero"
                    )
            self.slot_maps = tuple(map(slot_map, self._action))
        else:
            for slots, coeffs in self.slot_maps:
                live = list(compress(slots, map(is_not, slots, repeat(None))))
                # with as many zeros as empty columns and none on a filled
                # one, every empty column holds 0
                if (
                    len(slots) != self.dim
                    or len(coeffs) != self.dim
                    or slots.count(None) != coeffs.count(0)
                    or not all(compress(coeffs, map(is_not, slots, repeat(None))))
                    or min(live, default=0) < 0
                    or max(live, default=-1) >= self.dim
                ):
                    raise AlgebraError(
                        "action operator has the wrong shape or a stored zero"
                    )
        maps = self.slot_maps
        # read once per operator, not once per pair
        ones = [m is not None and unit_entries(m) for m in maps]
        for i, j in combinations(range(self.nvars), 2):
            if maps[i] is not None and maps[j] is not None:
                same = slot_maps_commute(maps[i], maps[j], ones[i] and ones[j])
            else:
                ab = op_mul(self.action[i], self.action[j])
                ba = op_mul(self.action[j], self.action[i])
                same = ab == ba
            if not same:
                raise AlgebraError(f"action matrices {i} and {j} do not commute")

    @property
    def action(self) -> tuple[Operator, ...]:
        """The operators as dict columns, built from the slot maps on first
        read when the module was given those."""
        if self._action is None:
            self._action = tuple(map(slot_columns, self.slot_maps))
        return self._action

    def monomial_map(self, exps) -> SlotMap | None:
        """x^exps as a slot map, the product of the variables' slot maps
        raised to their exponents; None if some operator has none."""
        if None in self.slot_maps:
            return None
        out = _monomial(self.slot_maps, exps, slot_power, slot_compose)
        return unit_map(tuple(range(self.dim))) if out is None else out

    def monomial_operator(self, exps) -> Operator:
        """x^exps as dict columns: the columns of its slot map when every
        operator has one, else the product of the variables' operators
        raised to their exponents, x_i its operator itself and x^0 the
        identity."""
        m = self.monomial_map(exps)
        if m is not None:
            return slot_columns(m)
        out = _monomial(self.action, exps, op_power, op_mul)
        return tuple({j: 1} for j in range(self.dim)) if out is None else out

    def term_map(self, poly: Polynomial) -> SlotMap | None:
        """A one-term polynomial c*x^e as a slot map, c times x^e's; None
        for any other polynomial, or when x^e has no slot map."""
        for exps in poly.terms:
            if len(exps) != self.nvars:
                raise AlgebraError("polynomial arity does not match the module")
        if len(poly.terms) != 1:
            return None
        ((exps, c),) = poly.terms.items()
        m = self.monomial_map(exps)
        if m is None or c == 1:
            return m
        return SlotMap(m.slots, tuple(c * x for x in m.coeffs))

    def poly_matrix(self, poly: Polynomial) -> Operator:
        """Evaluate a polynomial at the action operators: the sum of
        coefficient * x^e over the terms, x^e as `monomial_operator`
        gives it."""
        for exps in poly.terms:
            if len(exps) != self.nvars:
                raise AlgebraError("polynomial arity does not match the module")
        terms = [(c, self.monomial_operator(e)) for e, c in poly.terms.items()]
        return op_sum(terms, self.dim)

    def apply(self, i: int, vec: dict) -> dict:
        """x_i * vec, through x_i's slot map where it has one."""
        m = self.slot_maps[i]
        return sparse_apply(self.action[i], vec) if m is None else slot_apply(m, vec)

    def act(self, poly: Polynomial, vec: dict) -> dict:
        """Multiply the sparse element `vec`, which stores no zeros, by the
        polynomial `poly`.  Each term's image is one pass over its variables
        that stops at the first zero image."""
        if vec and (min(vec) < 0 or max(vec) >= self.dim):
            raise AlgebraError(f"element index out of range({self.dim})")
        maps = self.slot_maps
        out = None
        summed = False
        for exps, coeff in poly.terms.items():
            if len(exps) != self.nvars:
                raise AlgebraError("polynomial arity does not match the module")
            img = vec if coeff == 1 else {j: coeff * c for j, c in vec.items()}
            for i, e in enumerate(exps):
                if not img:
                    break
                if e:
                    m = maps[i]
                    step, op = (
                        (sparse_apply, self.action[i]) if m is None else (slot_apply, m)
                    )
                    for _ in range(e):
                        img = step(op, img)
                        if not img:
                            break
            if not img:
                continue
            if out is None:
                # vec itself when the term is the constant 1: the caller's
                out = dict(img) if img is vec else img
                continue
            for i, c in img.items():
                if i in out:
                    out[i] += c
                    summed = True
                else:
                    out[i] = c
        if out is None:
            return {}
        # a product of nonzeros is nonzero; only a sum can cancel
        return {i: c for i, c in out.items() if c} if summed else out


# ---------------------------------------------------------------------------
# joint kernels and image spans
#
# An operator here is an Operator (dict columns) or a SlotMap.  `_form`
# makes the one decision per family: slot maps when each operator is one
# injective on its live slots, else dict columns; products and powers stay
# in that form.  `_read` gives a family's kernel and image parts.  A slot
# map injective on its live slots kills exactly the vectors on its dead
# columns and has the unit vectors at its targets as image, so a family of
# them is read as the columns dead in every map and the targets, and every
# rank is a count.  Dict columns give their nonzero rows, stacked, and
# their nonzero columns, and rref reads the ranks, kernels and spans.


def _form(ops: Sequence) -> tuple[bool, list]:
    """(True, the slot maps) when each operator is a slot map injective on
    its live slots, else (False, the dict columns).  A zero operator adds
    nothing to a kernel, an image, a product or a power, and is dropped."""
    maps = []
    for op in ops:
        m = op if isinstance(op, SlotMap) else slot_map(op)
        t = None if m is None else slot_targets(m)
        if t is None:
            cols = (slot_columns(op) if isinstance(op, SlotMap) else op for op in ops)
            return False, [op for op in cols if any(op)]
        # a map with no target is the zero map
        if t:
            maps.append(m)
    return True, maps


def _read(slot: bool, family: Iterable, d: int) -> tuple:
    """A family's kernel and image parts, each operator read and dropped in
    turn: the columns dead in every map and the targets, as sets, for slot
    maps; the nonzero rows, whose null space is the joint kernel, and the
    nonzero columns, as lists, for dict columns."""
    if slot:
        dead, seen = set(range(d)), set()
        for m in family:
            dead.difference_update(live_columns(m))
            seen.update(m.slots)
        seen.discard(None)
        return dead, seen
    rows, cols = [], []
    for op in family:
        rows += filter(None, op_transpose(op))
        cols += filter(None, op)
    return rows, cols


def _dims(slot: bool, family: Iterable, d: int) -> tuple[int, int]:
    """The dimensions of a family's joint kernel and image span.  A family
    of one dict-column operator G is read once, by its columns: its row
    rank is its column rank r, so rank-nullity gives (d - r, r).  The
    family is peeked at two operators at most, the rest chained back."""
    if not slot:
        family = iter(family)
        head = list(islice(family, 2))
        if len(head) == 1:
            r = rank(filter(None, head[0]), d)
            return d - r, r
        family = chain(head, family)
    ker, im = _read(slot, family, d)
    return (len(ker), len(im)) if slot else (d - rank(ker, d), rank(im, d))


def joint_kernel(ops: Sequence, d: int) -> Subspace:
    """The elements every operator kills: (0 : J) for J's generator operators."""
    slot, family = _form(ops)
    ker, _ = _read(slot, family, d)
    return Subspace.units(d, ker) if slot else Subspace(d, null_basis(ker, d))


def image_span(ops: Sequence, d: int) -> Subspace:
    """The sum of the operators' images: J M for J's generator operators."""
    slot, family = _form(ops)
    _, im = _read(slot, family, d)
    return Subspace.units(d, im) if slot else Subspace(d, im)


def _nonzero(slot: bool, op) -> bool:
    """Whether an operator in its family's form is not the zero map."""
    return any(op.coeffs if slot else op)


def _square_up(slot: bool, power, d: int):
    """G^(2^j) for the least j >= 1 with 2^j >= d, squared up from G's
    square G^2 in its form.  A power that is the zero map stops it: every
    higher power is zero too."""
    mul = slot_compose if slot else op_mul
    k = 2
    while k < d and _nonzero(slot, power):
        power, k = mul(power, power), 2 * k
    return power


def _fitting(slot: bool, squares: list, d: int) -> tuple[list[dict], int]:
    """(a basis of Gamma_J M, dim J^inf M), Gamma_J M the joint kernel and
    J^inf M the image span of high enough powers of a family in its form,
    given the square G^2 of each of its operators G.

    Fitting's lemma: on a space of dimension d an operator G splits it as
    ker G^d (+) im G^d, both invariant under every operator commuting with
    G, and every power from the d-th on has that kernel and image, so
    G^(2^j) for the least 2^j >= d, squared up from G^2, serves for G^d.
    Intersecting the kernels gives the elements killed by a power of J,
    summing the images gives the intersection of the J^k M, and the two
    must split M: their dimensions add up to d, and Gamma's basis with the
    image columns spans M.  A power of a slot map injective on its live
    slots is another, so for slot maps Gamma is spanned by the columns dead
    in every power, and the two span M when the dead columns and the
    targets together cover every slot.  For dict columns the image columns
    are eliminated once: their echelon rows count dim J^inf M, and Gamma's
    basis is eliminated against those rows for the split.
    """
    ker, tail = _read(slot, (_square_up(slot, g, d) for g in squares), d)
    if slot:
        gamma = [{j: 1} for j in sorted(ker)]
        tail_dim, spanned = len(tail), len(tail | ker)
    else:
        gamma = null_basis(ker, d)
        tail = echelon_rows(tail, d)
        tail_dim, spanned = len(tail), rank(tail + gamma, d)
    if len(gamma) + tail_dim != d or spanned != d:
        raise InternalCheckError(
            "M is not the direct sum of its torsion part and J^inf M"
        )
    return gamma, tail_dim


def _levels(module: FiniteModule, gens: Sequence[Polynomial]):
    """dim (0 : J), dim J M, J-reducedness, J-coreducedness, a basis of
    Gamma_J M and dim J^inf M, from one evaluation of the generators.

    (0 : J) lies in (0 : J^2) and J^2 M in J M, so each pair is equal
    exactly when the two dimensions are.  A one-term generator is
    evaluated as a slot map, and the family's form holds for the products
    of two and the powers, each read and dropped in turn but for the
    squares G^2 of the generators, which `_fitting` squares up.
    """
    d = module.dim
    slot, family = _form([
        module.poly_matrix(g) if m is None else m
        for g, m in zip(gens, map(module.term_map, gens))
    ])
    mul = slot_compose if slot else op_mul
    ann_dim, image_dim = _dims(slot, family, d)
    # a zero square adds nothing to J^2's levels or to the split; the
    # others are kept for `_fitting`, as many as the family holds
    diagonal = [g for g in map(mul, family, family) if _nonzero(slot, g)]
    others = (mul(a, b) for i, a in enumerate(family) for b in family[i + 1:])
    square_ann_dim, square_image_dim = _dims(slot, chain(diagonal, others), d)
    gamma, tail_dim = _fitting(slot, diagonal, d)
    reduced = ann_dim == square_ann_dim
    coreduced = image_dim == square_image_dim
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
    semisimple = all(
        m is not None and m.slots.count(None) == module.dim for m in module.slot_maps
    ) and all(g.constant_term() == 0 for g in gens)
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
    # the Matlis dual the check built, None when the hypothesis failed
    dual: FiniteModule | None = field(default=None, compare=False, repr=False)

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
    return DualityReport(True, items, mine, dual)


def conjugate(module: FiniteModule, p: Operator, p_inv: Operator) -> FiniteModule:
    """Change of basis: every action operator A becomes P A P^{-1}."""
    mats = tuple(op_conjugate(op, p, p_inv) for op in module.action)
    return FiniteModule(module.nvars, module.dim, mats)
