"""Variables, exponent vectors, exact-rational polynomials, and monomial ideals.

Exponent vectors are plain tuples of nonnegative ints, one entry per
variable; they are the atom everything else is built from.  Coefficients
are exact rationals in the value form `linalg` states: an int when
integral, else a `fractions.Fraction` -- no floating point anywhere.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import le, neg


class AlgebraError(Exception):
    """Invalid input to a domain operation."""


class ParseError(AlgebraError):
    """Malformed input text; `pos` is a 0-based offset when known."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class NotArtinianError(AlgebraError):
    """The quotient is infinite dimensional; `variable` lacks a pure power."""

    def __init__(self, variable: str):
        super().__init__(
            f"quotient is not finite dimensional: no pure power of {variable!r} "
            "among the ideal generators"
        )
        self.variable = variable


class InternalCheckError(RuntimeError):
    """A theorem-level identity failed.  Signals a bug, never bad input."""


# ---------------------------------------------------------------------------
# exponent vectors

ExponentVector = tuple  # tuple[int, ...]


def total_degree(exps: ExponentVector) -> int:
    return sum(exps)


def divides(a: ExponentVector, b: ExponentVector) -> bool:
    """Componentwise a <= b, i.e. x^a divides x^b."""
    return all(map(le, a, b))


def grlex_key(exps: ExponentVector):
    """Canonical sort key: ascending total degree, then descending lex
    with the first variable largest (so x^2 before x*y before y^2)."""
    return (sum(exps), tuple(map(neg, exps)))


def monomial_str(names: tuple[str, ...], exps: ExponentVector) -> str:
    if not any(exps):
        return "1"
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# variables

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# short aliases accepted on input whenever there are at most three variables
_ALIAS = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class VariableSet:
    """Ordered variable names; the order fixes the monomial order."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise AlgebraError("need at least one variable")
        seen = set()
        for name in self.names:
            if not _NAME_RE.fullmatch(name):
                raise AlgebraError(f"bad variable name {name!r}")
            if name in seen:
                raise AlgebraError(f"duplicate variable name {name!r}")
            seen.add(name)

    @property
    def n(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        if self.n <= 3 and name in _ALIAS and _ALIAS[name] < self.n:
            return _ALIAS[name]
        raise AlgebraError(f"unknown variable {name!r}")

    def dual_names(self) -> tuple[str, ...]:
        """Dual-side names, first letter upper-cased; AlgebraError on a clash."""
        duals: dict[str, str] = {}
        for nm in self.names:
            other = duals.setdefault(nm[0].upper() + nm[1:], nm)
            if other != nm:
                raise AlgebraError(f"variables {other!r} and {nm!r} share a dual name")
        return tuple(duals)


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Sparse polynomial: exponent vector -> nonzero coefficient.

    A coefficient that is not an int goes through Fraction(...), which
    decides what is accepted; an integral coefficient is stored as an int.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for exps, coeff in items:
            key = tuple(map(int, exps))
            if min(key, default=0) < 0:
                raise AlgebraError("negative exponent in polynomial term")
            if type(coeff) is not int:
                coeff = Fraction(coeff)
            acc[key] = acc.get(key, 0) + coeff
        self.terms = {
            k: v.numerator if v.denominator == 1 else v for k, v in acc.items() if v
        }

    def constant_term(self) -> int | Fraction:
        for exps, coeff in self.terms.items():
            if not any(exps):
                return coeff
        return 0

    def sorted_terms(self) -> list[tuple[ExponentVector, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_str(self, names: tuple[str, ...]) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            mono = monomial_str(names, exps)
            if coeff == 1 and mono != "1":
                body = mono
            elif coeff == -1 and mono != "1":
                body = f"-{mono}"
            elif mono == "1":
                body = str(coeff)
            else:
                body = f"{coeff}*{mono}"
            chunks.append(body)
        out = chunks[0]
        for body in chunks[1:]:
            out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
        return out

    def __repr__(self):
        return f"Polynomial({self.terms!r})"


def poly_monomial(exps: ExponentVector, coeff=1) -> Polynomial:
    return Polynomial({tuple(exps): coeff})


# ---------------------------------------------------------------------------
# monomial ideals

@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators, stored as a canonically sorted antichain.

    Construction checks that every generator has the same length and no
    negative exponent, that no generator divides another one (a repeated
    generator divides its copy), and then that they are sorted.  The
    antichain test runs along the grlex order, each generator against the
    ones before it only: a proper divisor has the smaller degree.
    """

    min_gens: tuple[ExponentVector, ...]

    def __post_init__(self):
        gens = self.min_gens
        if not gens:
            raise AlgebraError("empty generator set")
        n = len(gens[0])
        for g in gens:
            if len(g) != n:
                raise AlgebraError("generators have mixed lengths")
            if min(g, default=0) < 0:
                raise AlgebraError("negative exponent in generator")
        order = sorted(gens, key=grlex_key)
        for k, g in enumerate(order):
            if any(divides(h, g) for h in order[:k]):
                raise AlgebraError("generators are not minimal")
        if list(gens) != order:
            raise AlgebraError("generators are not canonically sorted")

    @property
    def n(self) -> int:
        return len(self.min_gens[0])


def minimalize(gens: Iterable[ExponentVector]) -> MonomialIdeal:
    """Drop repeats and every generator divisible by another one; sort
    canonically.  Generators of mixed lengths are refused before any is
    compared.  The pool is sorted in grlex order once, and a generator is
    kept unless an already kept one divides it: a proper divisor has the
    smaller degree, so it comes first."""
    pool = sorted({tuple(map(int, g)) for g in gens}, key=grlex_key)
    if not pool:
        raise AlgebraError("empty generator set")
    if len(set(map(len, pool))) > 1:
        raise AlgebraError("generators have mixed lengths")
    keep: list = []
    for g in pool:
        for h in keep:
            if divides(h, g):
                break
        else:
            keep.append(g)
    return MonomialIdeal(tuple(keep))


def pure_power_bounds(variables: VariableSet, ideal: MonomialIdeal) -> tuple[int, ...]:
    """Least pure-power exponent of each variable in the ideal.

    The staircase lies in the box they bound.  Raises NotArtinianError
    when some variable has no pure power among the generators.
    """
    n = variables.n
    if ideal.n != n:
        raise AlgebraError("ideal and variable set have different arities")
    # an antichain holds at most one pure power of each variable, and the
    # unit monomial, a pure power of every variable, only alone
    bounds = [None] * n
    for g in ideal.min_gens:
        zeros = g.count(0)
        if zeros == n:
            return g
        if zeros == n - 1:
            e = max(g)
            bounds[g.index(e)] = e
    if None in bounds:
        raise NotArtinianError(variables.names[bounds.index(None)])
    return tuple(bounds)


def render(variables: VariableSet, ideal: MonomialIdeal) -> str:
    """Canonical text form; parse_input round-trips it exactly."""
    gens = ", ".join(monomial_str(variables.names, g) for g in ideal.min_gens)
    return f"ring {','.join(variables.names)}; ideal {gens}"


# ---------------------------------------------------------------------------
# parsing

# ASCII only: str.isdigit and \d also accept other scripts' digits
_DIGITS_RE = re.compile(r"[0-9]+")

# Input budget: minimalizing and checking generators compares each with the
# ones before it in grlex order, quadratic in their number, every module
# checks that each pair of variable operators commutes, and `classify`
# composes each pair of the generators of its --ideal for J^2.
MAX_VARIABLES = 32
MAX_GENERATORS = 256


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def try_char(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect_char(self, ch: str):
        if not self.try_char(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def ident(self) -> str:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected an identifier", self.pos)
        self.pos = m.end()
        return m.group()

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        m = _DIGITS_RE.match(self.text, start)
        if not m:
            raise ParseError("expected an integer", start)
        self.pos = m.end()
        try:
            return int(m.group())
        except ValueError:
            # past sys.get_int_max_str_digits() digits
            raise ParseError(
                f"integer literal of {m.end() - start} digits is too long", start
            ) from None


def _parse_monomial(cur: _Cursor, variables: VariableSet) -> ExponentVector:
    """One monomial: `1` or a '*'-separated product of name(^int)? factors."""
    exps = [0] * variables.n
    first = True
    while True:
        cur.skip_ws()
        start = cur.pos
        ch = cur.peek()
        if "0" <= ch <= "9":
            value = cur.integer()
            if not first or value != 1:
                raise ParseError(
                    f"non-monomial generator: coefficient {value}", start
                )
            nxt = cur.peek()
            if nxt and nxt in "*^":
                raise ParseError(
                    "non-monomial generator: coefficient 1 cannot carry factors",
                    cur.pos,
                )
            # the unit monomial
        elif ch.isalpha():
            name = cur.ident()
            try:
                idx = variables.index_of(name)
            except AlgebraError:
                raise ParseError(f"unknown variable {name!r}", start) from None
            power = 1
            if cur.try_char("^"):
                ppos = cur.pos
                power = cur.integer()
                if power < 1:
                    raise ParseError("exponent must be a positive integer", ppos)
            exps[idx] += power
        else:
            raise ParseError("expected a monomial", cur.pos)
        first = False
        if not cur.try_char("*"):
            break
    tail = cur.peek()
    if tail and tail in "+-":
        raise ParseError(
            "non-monomial generator: only single monomials are allowed", cur.pos
        )
    return tuple(exps)


def _parse_json_input(text: str) -> tuple[VariableSet, MonomialIdeal]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON input: {exc.msg}", exc.pos) from None
    except RecursionError:
        raise ParseError("JSON input is nested too deeply") from None
    except ValueError:
        # past sys.get_int_max_str_digits() digits
        raise ParseError("JSON input has a number literal that is too long") from None
    if not isinstance(obj, dict) or set(obj) != {"ring", "ideal"}:
        raise ParseError('JSON input needs exactly the keys "ring" and "ideal"')
    ring = obj["ring"]
    gens_raw = obj["ideal"]
    if not isinstance(ring, list) or not all(isinstance(s, str) for s in ring):
        raise ParseError('"ring" must be a list of variable names')
    if not isinstance(gens_raw, list) or not all(isinstance(s, str) for s in gens_raw):
        raise ParseError('"ideal" must be a list of monomial strings')
    if not gens_raw:
        raise ParseError("empty generator set")
    variables = _variable_set(ring)
    gens = []
    for s in gens_raw:
        cur = _Cursor(s)
        gens.append(_parse_monomial(cur, variables))
        if not cur.eof():
            raise ParseError(f"trailing input in generator {s!r}", cur.pos)
    return variables, _ideal_of(gens)


def _variable_set(names: list) -> VariableSet:
    if len(names) > MAX_VARIABLES:
        raise ParseError(f"more than {MAX_VARIABLES} variables: input too large")
    try:
        return VariableSet(tuple(names))
    except AlgebraError as exc:
        raise ParseError(str(exc)) from None


def _check_generator_count(gens: list) -> None:
    if len(gens) > MAX_GENERATORS:
        raise ParseError(f"more than {MAX_GENERATORS} generators: input too large")


def _ideal_of(gens: list) -> MonomialIdeal:
    _check_generator_count(gens)
    return minimalize(gens)


def parse_input(text: str) -> tuple[VariableSet, MonomialIdeal]:
    """Parse `ring x,y; ideal x^4, x^3*y` or the equivalent JSON object.

    Whitespace is insignificant.  Generators are minimalized.  In rings of
    at most three variables the names x, y, z are accepted as aliases for
    the first, second, and third declared variable.
    """
    if text.lstrip().startswith("{"):
        return _parse_json_input(text)
    cur = _Cursor(text)
    cur.skip_ws()
    kwpos = cur.pos
    if cur.ident() != "ring":
        raise ParseError("input must start with 'ring'", kwpos)
    names = [cur.ident()]
    while cur.try_char(","):
        names.append(cur.ident())
    cur.expect_char(";")
    kwpos = cur.pos
    if cur.ident() != "ideal":
        raise ParseError("expected 'ideal' after the ring declaration", kwpos)
    variables = _variable_set(names)
    if cur.eof():
        raise ParseError("empty generator set", cur.pos)
    gens = [_parse_monomial(cur, variables)]
    while cur.try_char(","):
        gens.append(_parse_monomial(cur, variables))
    if not cur.eof():
        raise ParseError("trailing input", cur.pos)
    return variables, _ideal_of(gens)


def _parse_poly_term(cur: _Cursor, variables: VariableSet):
    coeff = 1
    exps = [0] * variables.n
    while True:
        cur.skip_ws()
        start = cur.pos
        ch = cur.peek()
        if "0" <= ch <= "9":
            num = cur.integer()
            if cur.try_char("/"):
                den = cur.integer()
                if den == 0:
                    raise ParseError("zero denominator", start)
                coeff *= Fraction(num, den)
            else:
                coeff *= num
        elif ch.isalpha():
            name = cur.ident()
            try:
                idx = variables.index_of(name)
            except AlgebraError:
                raise ParseError(f"unknown variable {name!r}", start) from None
            power = 1
            if cur.try_char("^"):
                power = cur.integer()
            exps[idx] += power
        else:
            raise ParseError("expected a coefficient or a variable", cur.pos)
        if not cur.try_char("*"):
            break
    return tuple(exps), coeff


def _parse_polynomial(cur: _Cursor, variables: VariableSet) -> Polynomial:
    terms = []
    sign = -1 if cur.try_char("-") else 1
    while True:
        exps, coeff = _parse_poly_term(cur, variables)
        terms.append((exps, sign * coeff))
        if cur.try_char("+"):
            sign = 1
        elif cur.try_char("-"):
            sign = -1
        else:
            break
    return Polynomial(terms)


def parse_polynomial_list(text: str, variables: VariableSet) -> tuple[Polynomial, ...]:
    """Comma-separated polynomials, e.g. ideal generators for torsion
    predicates; error positions count from the start of `text`."""
    if not text.replace(",", " ").strip():
        raise ParseError("empty generator set")
    cur = _Cursor(text)
    polys = [_parse_polynomial(cur, variables)]
    while cur.try_char(","):
        polys.append(_parse_polynomial(cur, variables))
    if not cur.eof():
        raise ParseError("trailing input", cur.pos)
    _check_generator_count(polys)
    return tuple(polys)
