import pytest
from hypothesis import given, strategies as st

from artquot.ring import (
    AlgebraError,
    MonomialIdeal,
    NotArtinianError,
    ParseError,
    Polynomial,
    VariableSet,
    divides,
    grlex_key,
    minimalize,
    monomial_str,
    parse_input,
    parse_polynomial_list,
    poly_monomial,
    pure_power_bounds,
    render,
    total_degree,
)
from dense_reference import contains, poly_mul

exps2 = st.tuples(st.integers(0, 6), st.integers(0, 6))
exps3 = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))


def test_parse_text_input():
    variables, ideal = parse_input("ring x,y; ideal x^4, x^3*y")
    assert variables.names == ("x", "y")
    assert ideal.min_gens == ((4, 0), (3, 1))


def test_parse_is_whitespace_insensitive():
    a = parse_input("ring x,y; ideal x^4, x^3*y")
    b = parse_input("  ring  x , y ;\n ideal\n x^4 ,\n x^3 * y\n")
    assert a == b


def test_parse_json_input():
    variables, ideal = parse_input(
        '{"ring": ["x1", "x2"], "ideal": ["x1^2", "x1*x2", "x2^3"]}'
    )
    assert variables.names == ("x1", "x2")
    assert ideal.min_gens == ((2, 0), (1, 1), (0, 3))


def test_parse_minimalizes():
    _, ideal = parse_input("ring x,y; ideal x^2, x^3, x^2*y")
    assert ideal.min_gens == ((2, 0),)


def test_parse_repeated_variable_factors_accumulate():
    _, ideal = parse_input("ring x,y; ideal x*x*y")
    assert ideal.min_gens == ((2, 1),)


def test_parse_unit_generator():
    _, ideal = parse_input("ring x,y; ideal 1")
    assert ideal.min_gens == ((0, 0),)


def test_alias_names_in_small_rings():
    variables, ideal = parse_input("ring u,v; ideal x^2, y^3")
    assert variables.names == ("u", "v")
    assert ideal.min_gens == ((2, 0), (0, 3))


def test_no_alias_above_three_variables():
    with pytest.raises(ParseError):
        parse_input("ring a,b,c,d; ideal x^2")


@pytest.mark.parametrize(
    "text",
    [
        "ring x,y; ideal 2*x",
        "ring x,y; ideal x + y",
        "ring x,y; ideal x - y",
        "ring x,y; ideal z^2",
        "ring x,y; ideal x^0",
        "ring x,y; ideal x^-1",
        "ring x,y; ideal",
        "ring x,x; ideal x",
        "ring x,y; ideal x^2 extra",
        "ideal x^2",
        '{"ring": ["x"], "ideal": ["x^2"], "extra": 1}',
        '{"ring": ["x"]}',
        '{"ring": "x", "ideal": ["x"]}',
        '{"ring": ["x"], "ideal": []}',
        "{not json",
        # digits are ASCII only: Arabic-Indic three, superscript three
        "ring x,y; ideal x^\u0663, y^2",
        "ring x,y; ideal x^\u00b3, y^2",
        "ring x,y; ideal x\u00b3, y^2",
        "ring x; ideal \u0661",
        '{"ring": ["x"], "ideal": ["x^\u0663"]}',
    ],
)
def test_parse_rejects_bad_input(text):
    with pytest.raises(ParseError):
        parse_input(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_input("ring x,y; ideal x^4, 2*y")
    assert err.value.pos == 21


def test_render_is_canonical_and_round_trips():
    variables, ideal = parse_input("ring x,y; ideal y^5, x^4, x*y^3, x^3*y, x^2*y^2")
    text = render(variables, ideal)
    assert text == "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5"
    assert parse_input(text) == (variables, ideal)


@given(st.lists(exps2, min_size=1, max_size=8))
def test_minimalize_yields_antichain_with_same_membership(gens):
    ideal = minimalize(gens)
    for g in ideal.min_gens:
        for h in ideal.min_gens:
            assert g == h or not divides(h, g)
    # membership agrees with the raw generating set on a box of candidates
    for cand in [(i, j) for i in range(8) for j in range(8)]:
        raw = any(divides(g, cand) for g in gens)
        assert contains(ideal, cand) == raw


def test_repeated_generators_are_not_minimal():
    # a repeated generator divides its copy; accepted, this ideal would
    # render as `ring x,y; ideal x, x, y^2`
    with pytest.raises(AlgebraError, match="generators are not minimal"):
        MonomialIdeal(((1, 0), (1, 0), (0, 2)))
    with pytest.raises(AlgebraError, match="generators are not minimal"):
        MonomialIdeal(((0, 2), (0, 2)))
    # minimalize drops repeats before it checks
    assert minimalize([(1, 0), (1, 0), (0, 2)]).min_gens == ((1, 0), (0, 2))


def test_minimalize_refuses_mixed_lengths():
    # compared on their common prefix, (1,) divides (2, 0), and a generator
    # of the other length would be dropped without a word
    for gens in ([(1,), (2, 0)], [(2, 0), (1,)], [(1,), (1, 0)]):
        with pytest.raises(AlgebraError, match="generators have mixed lengths"):
            minimalize(gens)


@given(st.lists(exps3, min_size=1, max_size=6))
def test_minimalize_is_idempotent(gens):
    ideal = minimalize(gens)
    assert minimalize(ideal.min_gens) == ideal


@given(st.lists(exps2, min_size=1, max_size=6))
def test_render_parse_round_trip(gens):
    variables = VariableSet(("x", "y"))
    ideal = minimalize(gens)
    assert parse_input(render(variables, ideal)) == (variables, ideal)


def test_grlex_order_degree_first_then_lex():
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert sorted(monos, key=grlex_key) == monos


def test_divides_and_degree():
    assert divides((1, 0), (3, 2))
    assert not divides((1, 3), (3, 2))
    assert total_degree((3, 2)) == 5


def test_monomial_str_forms():
    names = ("x", "y")
    assert monomial_str(names, (0, 0)) == "1"
    assert monomial_str(names, (1, 0)) == "x"
    assert monomial_str(names, (2, 3)) == "x^2*y^3"


def test_artinian_detection():
    variables = VariableSet(("x", "y"))
    assert pure_power_bounds(variables, minimalize([(4, 0), (3, 1), (0, 2)])) == (4, 2)
    with pytest.raises(NotArtinianError) as err:
        pure_power_bounds(variables, minimalize([(4, 0), (3, 1)]))
    assert "y" in str(err.value)


def test_mixed_generators_need_every_pure_power():
    variables = VariableSet(("x", "y"))
    assert pure_power_bounds(variables, minimalize([(2, 0), (1, 1), (0, 2)])) == (2, 2)
    with pytest.raises(NotArtinianError):
        pure_power_bounds(variables, minimalize([(2, 0), (1, 1)]))


def test_ideal_rejects_non_antichain_and_unsorted():
    with pytest.raises(AlgebraError):
        MonomialIdeal(((2, 0), (3, 0)))
    with pytest.raises(AlgebraError):
        MonomialIdeal(((0, 3), (2, 0)))


def test_variable_set_validation():
    with pytest.raises(AlgebraError):
        VariableSet(())
    with pytest.raises(AlgebraError):
        VariableSet(("x", "x"))
    with pytest.raises(AlgebraError):
        VariableSet(("2bad",))


def test_dual_names_upper_case_first_letter():
    assert VariableSet(("x", "y")).dual_names() == ("X", "Y")
    assert VariableSet(("x1", "x2")).dual_names() == ("X1", "X2")


def test_dual_names_refuse_two_names_that_coincide():
    # x and X would both be written X on the dual side
    with pytest.raises(AlgebraError, match="^variables 'x' and 'X' share a dual name$"):
        VariableSet(("x", "y", "X")).dual_names()
    with pytest.raises(AlgebraError, match="'ab' and 'Ab'"):
        VariableSet(("ab", "Ab")).dual_names()
    assert VariableSet(("x", "Y")).dual_names() == ("X", "Y")


def test_polynomial_arithmetic():
    variables = VariableSet(("x", "y"))
    x_plus_y = Polynomial({(1, 0): 1, (0, 1): 1})
    x_minus_y = Polynomial([((1, 0), 1), ((0, 1), -1)])
    assert x_plus_y == parse_polynomial_list("x + y", variables)[0]
    p = poly_mul(x_plus_y, x_minus_y)
    assert p == parse_polynomial_list("x^2 - y^2", variables)[0]
    # equal exponents merge and cancelling terms drop out
    assert not Polynomial([*p.terms.items(), *((e, -c) for e, c in p.terms.items())]).terms
    assert max(total_degree(e) for e in p.terms) == 2
    assert not Polynomial().terms


def test_polynomial_parse_fractions_and_signs():
    variables = VariableSet(("x",))
    p = parse_polynomial_list("-x^2 + 1/2*x - 3", variables)[0]
    # terms render in ascending degree, matching the basis ordering
    assert p.to_str(variables.names) == "-3 + 1/2*x - x^2"
    with pytest.raises(ParseError):
        parse_polynomial_list("1/0*x", variables)
    with pytest.raises(ParseError):
        parse_polynomial_list("x +", variables)
    for text in ("x^\u0663", "\u0663*x", "x^\u00b2", "1/\u0662*x"):
        with pytest.raises(ParseError):
            parse_polynomial_list(text, variables)


def test_polynomial_list_parsing():
    variables = VariableSet(("x", "y"))
    polys = parse_polynomial_list("x^2, x*y - y", variables)
    assert len(polys) == 2
    assert polys[0] == poly_monomial((2, 0))
    with pytest.raises(ParseError):
        parse_polynomial_list(" , ", variables)


@given(exps2, exps2)
def test_poly_monomial_product_adds_exponents(a, b):
    assert poly_mul(poly_monomial(a), poly_monomial(b)) == poly_monomial(
        tuple(x + y for x, y in zip(a, b))
    )


# valid inputs that the mutation strategy below edits character by character
_INPUT_SEEDS = (
    "ring x,y; ideal x^4, x^3*y, y^2",
    "ring x1,x2,x3; ideal x1^2, x2*x3, x3^3, 1",
    '{"ring": ["x1","x2"], "ideal": ["x1^2", "x1*x2", "x2^3"]}',
)
_POLY_SEEDS = ("x^2 - 2*x*y + 1, 1/2*y", "-x + 3/4, y^3*x^2 - y")
_ALPHABET = 'xyzX12309^*,;+-/ {}[]":\n\u0663\u00b3ringideal'


@st.composite
def _mutated(draw, seeds):
    """A seed input after a few random inserts, deletions and replacements."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(0, 6))):
        pos = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        ch = draw(st.sampled_from(_ALPHABET))
        tail = text[pos + 1:] if edit != "insert" else text[pos:]
        text = text[:pos] + ("" if edit == "delete" else ch) + tail
    return text


@given(st.one_of(_mutated(_INPUT_SEEDS), st.text(_ALPHABET, max_size=40)))
def test_parse_input_raises_only_parse_errors(text):
    try:
        parse_input(text)
    except ParseError:
        pass


@given(st.one_of(_mutated(_POLY_SEEDS), st.text(_ALPHABET, max_size=40)))
def test_parse_polynomial_list_raises_only_parse_errors(text):
    try:
        parse_polynomial_list(text, VariableSet(("x", "y")))
    except ParseError:
        pass
