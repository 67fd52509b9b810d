"""Staircase quotients against brute-force oracles.

The census oracle enumerates a whole coordinate box and filters by ideal
membership; the action oracle multiplies in the polynomial ring and drops
terms lying in the ideal.  Both avoid the shift operators used by the
module itself.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from artquot import instances, quotient
from artquot.instances import SamplerConfig, sample_ideals, sample_modules
from artquot.linalg import op_mul
from artquot.quotient import (
    HilbertSeries,
    QuotientModule,
    hilbert,
    minimal_outside,
    monomial_span,
    positive_degree_span,
    socle,
    staircase,
)
from artquot.torsion import image_span, joint_kernel
from artquot.ring import (
    AlgebraError,
    NotArtinianError,
    Polynomial,
    VariableSet,
    grlex_key,
    minimalize,
    parse_input,
    parse_polynomial_list,
    poly_monomial,
)
from dense_reference import contains, ev_add

STAIR11 = "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5"
FLAT7 = "ring x,y; ideal x^4, x^3*y, y^2"


def module_from(text):
    return QuotientModule(*parse_input(text))


def gen_ops(module, gens):
    return [module.poly_matrix(g) for g in gens]


def gen_maps(module, gens):
    """The slot maps of monomial generators, as `classify` reads them."""
    return [module.term_map(g) for g in gens]


def slot_monomials(module, slots):
    """The standard monomials at the slots of a span, in basis order."""
    return [module.basis[b] for b in slots]


def census_staircase(variables, ideal):
    bounds = [
        max(g[i] for g in ideal.min_gens) for i in range(variables.n)
    ]
    cells = [
        e
        for e in product(*(range(b + 1) for b in bounds))
        if not contains(ideal, e)
    ]
    return sorted(cells, key=grlex_key)


def act_oracle(module, poly, vec):
    out = {}
    for b, c_b in vec.items():
        for e_p, c_p in poly.sorted_terms():
            prod = ev_add(e_p, module.basis[b])
            if contains(module.ideal, prod):
                continue
            k = module.index[prod]
            out[k] = out.get(k, 0) + c_p * c_b
    return {k: c for k, c in out.items() if c}


def test_known_staircase_and_hilbert():
    m = module_from(STAIR11)
    assert m.dim == 11
    assert m.labels() == [
        "1", "x", "y", "x^2", "x*y", "y^2",
        "x^3", "x^2*y", "x*y^2", "y^3", "y^4",
    ]
    assert hilbert(m).coeffs == (1, 2, 3, 4, 1)
    assert sum(hilbert(m).coeffs) == 11


def test_second_known_staircase():
    m = module_from(FLAT7)
    assert m.dim == 7
    assert hilbert(m).coeffs == (1, 2, 2, 2)


@pytest.mark.parametrize("dim_bound", [60, 14])
def test_a_sampled_instance_walks_its_staircase_once_per_draw(dim_bound, monkeypatch):
    # every draw the sampler makes, accepted or not, walks its staircase
    # once; the accepted walk is the module's basis, and QuotientModule
    # walks none
    walks, draws = [], []
    walk, minimalize_draw = instances.staircase, instances.minimalize

    def counted_walk(variables, ideal):
        walks.append(ideal)
        return walk(variables, ideal)

    def no_walk(variables, ideal):
        raise AssertionError("QuotientModule walked a staircase")

    monkeypatch.setattr(instances, "staircase", counted_walk)
    monkeypatch.setattr(instances, "minimalize", lambda g: draws.append(g) or minimalize_draw(g))
    monkeypatch.setattr(quotient, "staircase", no_walk)
    assert len(list(sample_modules(40, 3, SamplerConfig(dim_bound)))) == 40
    assert len(walks) == len(draws) >= 40
    if dim_bound == 14:
        assert len(draws) > 40  # some draws were rejected


def test_staircase_matches_census_on_samples():
    for _, variables, ideal in sample_ideals(60, seed=11):
        assert staircase(variables, ideal) == census_staircase(variables, ideal)


# The largest pure power per arity, so that the census box stays small.
_CAPS = (40, 40, 8, 5)


@st.composite
def artinian_ideals(draw):
    """A pure power of each of n <= 4 variables, plus mixed generators
    anywhere in the box and thin ones with every exponent at most 1."""
    n = draw(st.integers(1, 4))
    cap = _CAPS[n - 1]
    powers = draw(st.lists(st.integers(1, cap), min_size=n, max_size=n))
    gens = [tuple(p * int(j == i) for j in range(n)) for i, p in enumerate(powers)]
    mixed = st.tuples(*[st.integers(0, cap)] * n)
    thin = st.tuples(*[st.integers(0, 1)] * n)
    extra = draw(st.lists(st.one_of(mixed, thin), max_size=2 * n))
    gens += [e for e in extra if any(e)]
    return VariableSet(("x", "y", "z", "w")[:n]), minimalize(gens)


@given(artinian_ideals())
def test_staircase_matches_census_on_drawn_ideals(drawn):
    variables, ideal = drawn
    cells = staircase(variables, ideal)
    assert cells == census_staircase(variables, ideal)
    # the minimal monomials outside a staircase generate its ideal
    assert minimal_outside(set(cells), variables.n) == list(ideal.min_gens)


def test_the_32_variable_row_walks_within_three_seconds():
    # x1^2..x16^2 with x17..x32 as generators, the worst admitted input
    # found: 2^16 cells, each padded by 16 columns of height one.  A walk
    # that carries a generator list with every prefix takes 8-9 s on a
    # shared 2-core host.
    names = tuple(f"x{i}" for i in range(1, 33))
    gens = [tuple(2 * int(j == i) for j in range(32)) for i in range(16)]
    gens += [tuple(int(j == i) for j in range(32)) for i in range(16, 32)]
    variables, ideal = VariableSet(names), minimalize(gens)
    start = time.perf_counter()
    cells = staircase(variables, ideal)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0
    assert len(cells) == 2**16
    assert cells[1] == (1,) + (0,) * 31 and cells[-1] == (1,) * 16 + (0,) * 16
    degrees = HilbertSeries.from_degrees(map(sum, cells))
    assert degrees.coeffs == tuple(comb(16, k) for k in range(17))


def test_var_action_tables_match_ring_multiplication():
    for _, variables, ideal in sample_ideals(30, seed=12):
        m = QuotientModule(variables, ideal)
        for i in range(m.n):
            step = tuple(int(j == i) for j in range(m.n))
            for b, e in enumerate(m.basis):
                target = ev_add(e, step)
                column = m.action[i][b]
                if contains(ideal, target):
                    assert column == {}
                else:
                    assert column == {m.index[target]: 1}


def random_poly(rng, n, terms=4):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        out[e] = out.get(e, 0) + rng.randint(-2, 2)
    return Polynomial(out)


def test_act_matches_oracle_on_random_elements():
    rng = random.Random(3)
    for _, variables, ideal in sample_ideals(25, seed=13):
        m = QuotientModule(variables, ideal)
        for _ in range(4):
            poly = random_poly(rng, m.n)
            vec = {
                j: Fraction(c)
                for j in range(m.dim)
                if (c := rng.randint(-2, 2))
            }
            assert m.act(poly, vec) == act_oracle(m, poly, vec)


def test_action_matrix_columns_are_basis_images():
    m = module_from(FLAT7)
    poly = parse_polynomial_list("x*y + 2", m.variables)[0]
    mat = m.poly_matrix(poly)
    for b, e in enumerate(m.basis):
        assert mat[b] == m.act(poly, m.basis_element(e))


def test_action_matrices_commute():
    m = module_from(STAIR11)
    xs = gen_ops(m, [poly_monomial((1, 0)), poly_monomial((0, 1))])
    assert xs == list(m.action)
    assert op_mul(xs[0], xs[1]) == op_mul(xs[1], xs[0])


def test_annihilator_of_defining_ideal_is_everything():
    m = module_from(FLAT7)
    gens = [poly_monomial(g) for g in m.ideal.min_gens]
    assert joint_kernel(gen_maps(m, gens), m.dim) == tuple(range(m.dim))


def test_socle_of_known_modules():
    m = module_from(STAIR11)
    s = socle(m)
    assert len(s) == 4
    assert slot_monomials(m, s) == [(3, 0), (2, 1), (1, 2), (0, 4)]
    assert socle(module_from("ring x,y; ideal x^2, y^2")) == (3,)


def test_ideal_times_module_known_value():
    m = module_from(STAIR11)
    gens = [poly_monomial((3, 0)), poly_monomial((0, 4))]
    space = image_span(gen_maps(m, gens), m.dim)
    assert slot_monomials(m, space) == [(3, 0), (0, 4)]


def test_positive_degree_span_counts_everything_but_one():
    for _, variables, ideal in sample_ideals(20, seed=14):
        m = QuotientModule(variables, ideal)
        assert positive_degree_span(m) == tuple(range(1, m.dim))


def test_monomial_span_round_trip():
    m = module_from(FLAT7)
    exps = [(3, 0), (1, 1)]
    span = monomial_span(m, exps)
    assert slot_monomials(m, span) == sorted(exps, key=grlex_key)


def test_element_helpers():
    m = module_from(FLAT7)
    assert m.basis_element((1, 0)) == {1: Fraction(1)}
    assert m.basis_element((0, 1)) == {2: Fraction(1)}
    with pytest.raises(AlgebraError):
        m.basis_element((9, 9))


def test_unit_ideal_is_rejected():
    with pytest.raises(AlgebraError):
        module_from("ring x,y; ideal 1")


def test_non_artinian_ideal_is_rejected():
    variables, ideal = parse_input("ring x,y; ideal x^2")
    with pytest.raises(NotArtinianError):
        QuotientModule(variables, ideal)


def test_arity_mismatch_is_rejected():
    _, ideal = parse_input("ring x,y; ideal x^2, y^2")
    with pytest.raises(AlgebraError):
        QuotientModule(VariableSet(("x",)), ideal)


def test_hilbert_series_formatting():
    assert str(HilbertSeries((1, 2, 3, 4, 1))) == "1 + 2t + 3t^2 + 4t^3 + t^4"
    assert str(HilbertSeries((0, 0, 0, 2))) == "2t^3"
    assert str(HilbertSeries(())) == "0"
    with pytest.raises(AlgebraError):
        HilbertSeries((1, 0))
    with pytest.raises(AlgebraError):
        HilbertSeries((-1,))


def test_hilbert_from_degrees():
    hs = HilbertSeries.from_degrees([0, 1, 1, 3])
    assert hs.coeffs == (1, 2, 0, 1)
    assert HilbertSeries.from_degrees([]).coeffs == ()
