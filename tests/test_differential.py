"""The sparse module and linear-algebra layers against the dense reference.

Every comparison is exact: operators as dense rows, subspaces as canonical
RREF rows, tags field by field.  The torsion part, computed by Fitting's
lemma, is compared with the reference's stabilization chain, the
completion's dimension through the `classify` fields, and the sparse `rref`
with the dense one on the rows and columns the torsion core reduces.  On
staircases, their inverse systems and their Matlis duals, `poly_matrix` (a
sum of coefficient times slot map) is compared with one `act` per unit
column; on sampler draws and their duals, the sum of coefficient times a
product of operator powers is compared with the dense products and with
one `act` per unit column, and `act` itself with the dense products on
all three kinds of module.  The set-up passes are compared with the code
they replaced: the grouped staircase walk with the walk that carried a
generator list per prefix, `minimalize` and the `MonomialIdeal` check with
the all-pairs antichain test, and the outside check's slot reading with
`minimal_outside` on exponent vectors.  The sampler is held to its earlier
draws: a module drawn with its staircase to the module built from the
drawn ideal, the rng stream to the loop that walked each staircase twice,
and the commuting families to their evaluation on a one-variable module.
`minimalize`, the `MonomialIdeal` check and the `Polynomial` constructor
are held to the same checks made one exponent at a time, result for result
and error for error.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import dense_reference as ref
from artquot import instances
from artquot.instances import (
    SamplerConfig,
    random_artinian_ideal,
    random_finite_module,
    random_monomial_ideal_polys,
    sample_ideals,
    sample_modules,
)
from artquot.inverse import _minimal_outside, inverse_system
from artquot.linalg import Subspace, op_mul, op_power, op_transpose, rref
from artquot.quotient import MAX_DIM, QuotientModule, minimal_outside, staircase
from artquot.ring import (
    AlgebraError,
    MonomialIdeal,
    Polynomial,
    VariableSet,
    minimalize,
    parse_input,
    poly_monomial,
)
from artquot.torsion import (
    _levels,
    classify,
    image_span,
    joint_kernel,
    matlis_dual,
)

# The benchmark ladder's staircases up to dim 27: the pure-power boxes and
# the three worked examples.
LADDER = (
    "ring x,y; ideal x^2, y^2",
    "ring x,y; ideal x^4, y^4",
    "ring x,y,z; ideal x^2, y^2, z^2",
    "ring x,y,z; ideal x^3, y^3, z^3",
    "ring x,y; ideal x^4, x^3*y, x^2*y^2, x*y^3, y^5",
    "ring x,y; ideal x^4, x^3*y, y^2",
    "ring x1,x2; ideal x1^2, x1*x2, x2^3",
)


def variable_polys(n):
    return [poly_monomial(tuple(int(j == i) for j in range(n))) for i in range(n)]


def random_poly(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        terms[e] = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
    return Polynomial(terms)


def assert_matches_reference(module, gens, rng):
    dense = ref.DenseModule.of(module)
    for _ in range(2):
        poly = random_poly(rng, module.nvars)
        assert ref.operator_rows(module.poly_matrix(poly)) == dense.poly_matrix(poly)
    ops = [module.poly_matrix(g) for g in gens]
    assert joint_kernel(ops, module.dim) == ref.annihilator_of(dense, gens)
    assert image_span(ops, module.dim) == ref.image_of(dense, gens)
    gamma, _ = ref.torsion_part_with_exponent(dense, gens)
    assert Subspace(module.dim, _levels(module, gens)[4]) == gamma
    assert_classify_matches_reference(module, gens)


def assert_classify_matches_reference(module, gens):
    tag = classify(module, gens)
    assert (
        tag.tag, tag.j_reduced, tag.j_coreduced, tag.gamma_dim, tag.lambda_dim
    ) == ref.classify_fields(ref.DenseModule.of(module), gens)


def assert_rref_matches_reference(module, gens):
    """The torsion core reduces the stacked transposed rows (joint kernels)
    and the columns (image spans) of the generator operators, of their
    pairwise products and of their d-th powers."""
    d = module.dim
    ops = [module.poly_matrix(g) for g in gens]
    squares = [op_mul(a, b) for i, a in enumerate(ops) for b in ops[i:]]
    for family in (ops, squares, [op_power(op, d) for op in ops]):
        stacked = [row for op in family for row in op_transpose(op) if row]
        columns = [col for op in family for col in op if col]
        for vectors in (stacked, columns):
            rows, pivots = rref(vectors, d)
            want_rows, want_pivots = ref.rref([ref.dense(v, d) for v in vectors], d)
            assert pivots == want_pivots
            assert tuple(ref.dense(r, d) for r in rows) == want_rows
            assert all(all(r.values()) for r in rows)  # no stored zeros


def test_rref_matches_dense_reference_on_torsion_inputs():
    for seed in range(200):
        rng = random.Random(seed)
        module = random_finite_module(rng)
        gens = random_monomial_ideal_polys(rng, module.nvars)
        assert_rref_matches_reference(module, gens)
    for text in LADDER:
        module = QuotientModule(*parse_input(text))
        xs = variable_polys(module.n)
        for gens in (
            [poly_monomial(g) for g in module.ideal.min_gens],
            [Polynomial({**xs[0].terms, **xs[1].terms})],  # x_1 + x_2
            list(xs),
        ):
            assert_rref_matches_reference(module, gens)


def test_random_modules_match_dense_reference():
    for seed in range(200):
        rng = random.Random(seed)
        module = random_finite_module(rng)
        gens = random_monomial_ideal_polys(rng, module.nvars)
        assert_matches_reference(module, gens, rng)
        # the draw is conjugated by a random change of basis; classify
        # reads ranks only, and must read them right on its dual as well
        assert_classify_matches_reference(matlis_dual(module), gens)


@pytest.mark.parametrize("text", LADDER)
def test_ladder_staircases_match_dense_reference(text):
    module = QuotientModule(*parse_input(text))
    rng = random.Random(text)
    xs = variable_polys(module.n)
    # the maximal ideal read straight off the action: (0 : m) and m M
    dense = ref.DenseModule.of(module)
    assert joint_kernel(module.action, module.dim) == ref.annihilator_of(dense, xs)
    assert image_span(module.action, module.dim) == ref.image_of(dense, xs)
    for gens in (
        [poly_monomial(g) for g in module.ideal.min_gens],
        [Polynomial({**xs[0].terms, **xs[1].terms})],  # x_1 + x_2
        list(xs),
    ):
        assert_matches_reference(module, gens, rng)


def test_slot_map_poly_matrix_matches_act_reference():
    # polynomials with a constant term, a term inside I, a staircase term
    # and a random one, with Fraction coefficients, on staircases, their
    # inverse systems (where x^e acts by contraction) and their Matlis duals
    # (transposed shifts, a plain FiniteModule)
    sampled = [m for _, m in sample_modules(25, seed=71, config=SamplerConfig(dim_bound=40))]
    modules = [QuotientModule(*parse_input(t)) for t in LADDER] + sampled
    rng = random.Random(71)

    def coeff():
        return Fraction(rng.choice((-3, -1, 2, 7)), rng.choice((1, 2, 3)))

    for m in modules:
        for module in (m, inverse_system(m), matlis_dual(m)):
            for _ in range(4):
                terms = {(0,) * m.n: coeff()}
                for e in (rng.choice(m.ideal.min_gens), rng.choice(m.basis),
                          tuple(rng.randint(0, 3) for _ in range(m.n))):
                    terms[e] = terms.get(e, 0) + coeff()
                poly = Polynomial(terms)
                assert all(module.monomial_map(e) is not None for e in poly.terms)
                assert module.poly_matrix(poly) == ref.act_poly_matrix(module, poly)


def operator_polys(rng, n, dim):
    """A constant, the zero polynomial, a variable, a Fraction-coefficient
    multi-term polynomial, a high power and a multi-term one with high
    powers and a constant."""
    zero = (0,) * n
    high = tuple(rng.randint(dim, dim + 5) if i == 0 else 0 for i in range(n))
    return [
        Polynomial({zero: Fraction(-5, 3)}),
        Polynomial({}),
        poly_monomial(tuple(int(i == n - 1) for i in range(n))),
        random_poly(rng, n),
        poly_monomial(high),
        Polynomial({
            zero: 2,
            high: Fraction(1, 2),
            tuple(rng.randint(1, dim + 2) for _ in range(n)): -3,
            tuple(rng.randint(0, 2) for _ in range(n)): Fraction(7, 4),
        }),
    ]


def test_operator_poly_matrix_matches_dense_reference_and_act():
    # modules with a multi-entry column evaluate each term as a product of
    # operator powers; the dense products and one `act` per unit column
    # are the references
    dense_path = 0
    for seed in range(40):
        rng = random.Random(seed)
        module = random_finite_module(rng)
        for mod in (module, matlis_dual(module)):
            dense_path += None in mod.slot_maps
            dense = ref.DenseModule.of(mod)
            for poly in operator_polys(rng, mod.nvars, mod.dim):
                op = mod.poly_matrix(poly)
                assert ref.operator_rows(op) == dense.poly_matrix(poly), seed
                assert op == ref.act_poly_matrix(mod, poly), seed
                assert all(all(col.values()) for col in op)  # no stored zeros
    assert dense_path >= 60


def random_element(rng, d):
    return {
        j: rng.choice((1, -2, 3, Fraction(1, 2), Fraction(-4, 3)))
        for j in range(d)
        if rng.random() < 0.6
    }


def test_act_matches_the_dense_reference():
    rng = random.Random(83)
    modules = []
    # the ladder but its dim-27 box, whose dense powers dominate the time
    for text in LADDER[:3] + LADDER[4:]:
        m = QuotientModule(*parse_input(text))
        modules += [m, inverse_system(m), matlis_dual(m)]
    for seed in range(30):
        modules.append(random_finite_module(random.Random(seed)))
    for module in modules:
        d, n = module.dim, module.nvars
        dense = ref.DenseModule.of(module)
        for poly in operator_polys(rng, n, d) + [Polynomial({(0,) * n: 1})]:
            mat = dense.poly_matrix(poly)
            for vec in ({}, {0: 1}, {d - 1: Fraction(2, 3)}, random_element(rng, d)):
                got = module.act(poly, vec)
                assert got == ref.sparse(ref.mat_vec(mat, ref.dense(vec, d)))
                assert all(got.values()) and got is not vec


def test_act_errors_keep_their_text():
    for module in (
        QuotientModule(*parse_input(LADDER[5])),
        inverse_system(QuotientModule(*parse_input(LADDER[5]))),
        random_finite_module(random.Random(4)),
    ):
        d, n = module.dim, module.nvars
        x = poly_monomial((1,) + (0,) * (n - 1))
        out_of_range = rf"^element index out of range\({d}\)$"
        arity = "^polynomial arity does not match the module$"
        for vec in ({d: 1}, {-1: 1}, {0: 1, d + 3: 2}):
            with pytest.raises(AlgebraError, match=out_of_range):
                module.act(x, vec)
        # a term of the wrong arity is refused after a high power, which
        # kills the element on the staircases, and on the empty element
        high = (d + 1,) + (0,) * (n - 1)
        for poly in (
            poly_monomial((1,) * (n + 1)),
            Polynomial({high: 1, (1,) * (n + 1): 1}),
        ):
            for vec in ({}, {0: 1}):
                with pytest.raises(AlgebraError, match=arity):
                    module.act(poly, vec)


def test_unimodular_draws_match_dense_reference():
    # P from sparse columns and P^-1 from rref([P | 1]), against the dense
    # factors and triangular solves, on the same random draws
    for seed in range(300):
        rng, old = random.Random(seed), random.Random(seed)
        assert instances._random_unimodular(rng, 8) == ref.random_unimodular(old, 8)
        assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("conjugated", [False, True])
def test_sampler_draws_match_dense_reference(conjugated, monkeypatch):
    drawn = []
    for seed in range(600):
        rng = random.Random(seed)
        drawn.append((random_finite_module(rng, conjugated).action, rng.getstate()))
    monkeypatch.setattr(instances, "_random_base_matrix", ref.random_base_matrix)
    monkeypatch.setattr(instances, "_random_unimodular", ref.random_unimodular)
    for seed, (action, state) in enumerate(drawn):
        rng = random.Random(seed)
        assert random_finite_module(rng, conjugated).action == action, seed
        assert rng.getstate() == state, seed


@pytest.mark.parametrize("conjugated", [False, True])
def test_commuting_families_match_the_line_module_reference(conjugated):
    # powers of the base matrix summed by op_sum, against poly_matrix on a
    # one-variable module: the same operators and the same rng stream
    for seed in range(3000):
        rng, old = random.Random(seed), random.Random(seed)
        got = random_finite_module(rng, conjugated)
        want = ref.random_finite_module_by_line_module(old, conjugated)
        assert (got.nvars, got.action) == (want.nvars, want.action), seed
        assert rng.getstate() == old.getstate(), seed


SAMPLER_CONFIGS = [SamplerConfig(), SamplerConfig(dim_bound=14)]


@pytest.mark.parametrize("config", SAMPLER_CONFIGS)
def test_a_sampled_module_is_the_module_of_its_sampled_ideal(config):
    # the staircase walked to accept the draw is the basis QuotientModule
    # walks for itself
    for seed in range(500):
        ((s, got),) = sample_modules(1, seed, config)
        ((t, variables, ideal),) = sample_ideals(1, seed, config)
        want = QuotientModule(variables, ideal)
        assert (s, got.variables, got.ideal) == (t, variables, ideal), seed
        assert (got.basis, got.index) == (want.basis, want.index), seed
        assert got.slot_maps == want.slot_maps, seed


@pytest.mark.parametrize("config", SAMPLER_CONFIGS)
def test_the_sampler_keeps_the_rng_stream_of_the_loop_that_walked_twice(config):
    for seed in range(500):
        rng, old = random.Random(seed), random.Random(seed)
        for _ in range(2):
            variables, ideal, cells = instances._draw(rng, config)
            assert (variables, ideal) == ref.random_artinian_ideal_by_rejection(old, config)
            assert cells == staircase(variables, ideal)
            assert rng.getstate() == old.getstate(), seed
        want = ref.random_artinian_ideal_by_rejection(old, config)
        assert random_artinian_ideal(rng, config) == want
        assert rng.getstate() == old.getstate(), seed


# ---------------------------------------------------------------------------
# the set-up passes against the code they replaced


def row_shaped(squares, singles):
    """x1^2..xk^2 with x(k+1)..x(k+m) as generators: a box of side 2 padded
    by variables whose column has height one."""
    n = squares + singles
    gens = [tuple(2 * int(j == i) for j in range(n)) for i in range(squares)]
    gens += [tuple(int(j == i) for j in range(n)) for i in range(squares, n)]
    return VariableSet(tuple(f"x{i}" for i in range(1, n + 1))), minimalize(gens)


def setup_cases():
    """Sampler draws (n <= 3), the census draws of test_quotient, the unit
    ideal, generators with trailing zero exponents, 4-variable ideals and
    small row-shaped ideals."""
    cases = [(v, i) for _, v, i in sample_ideals(60, seed=11)]
    cases += [(v, i) for _, v, i in sample_ideals(80, seed=5, config=SamplerConfig(dim_bound=200))]
    xyzw = VariableSet(("x", "y", "z", "w"))
    cases += [
        (VariableSet(("x",)), minimalize([(0,)])),
        (xyzw, minimalize([(0, 0, 0, 0)])),
        (xyzw, minimalize([(3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 4, 0), (0, 0, 0, 2),
                           (2, 1, 0, 0), (1, 0, 2, 0), (0, 1, 1, 1)])),
        (xyzw, minimalize([(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3),
                           (1, 2, 0, 0), (1, 1, 0, 2)])),
    ]
    cases += [row_shaped(k, m) for k in range(4) for m in range(4) if k + m]
    return cases


@st.composite
def artinian_ideals(draw):
    """A pure power of each of n <= 4 variables, plus generators anywhere
    in the box, thin ones with every exponent at most 1, and ones that
    end in zeros."""
    n = draw(st.integers(1, 4))
    cap = (12, 8, 5, 3)[n - 1]
    powers = draw(st.lists(st.integers(1, cap), min_size=n, max_size=n))
    gens = [tuple(p * int(j == i) for j in range(n)) for i, p in enumerate(powers)]
    mixed = st.tuples(*[st.integers(0, cap)] * n)
    thin = st.tuples(*[st.integers(0, 1)] * n)
    extra = draw(st.lists(st.one_of(mixed, thin), max_size=2 * n))
    return VariableSet(("x", "y", "z", "w")[:n]), minimalize(gens + extra)


def test_staircase_matches_the_prefix_walk_reference():
    for variables, ideal in setup_cases():
        assert staircase(variables, ideal) == ref.staircase_by_prefixes(variables, ideal)


@given(artinian_ideals())
def test_staircase_matches_the_prefix_walk_on_drawn_ideals(drawn):
    assert staircase(*drawn) == ref.staircase_by_prefixes(*drawn)


def test_staircase_errors_match_the_prefix_walk_reference():
    xy = VariableSet(("x", "y"))
    for variables, ideal in (
        (xy, minimalize([(2, 0), (1, 1)])),  # no pure power of y
        (xy, minimalize([(0, 3), (1, 1)])),  # none of x
        (VariableSet(("x",)), minimalize([(2, 0), (0, 2)])),
        (xy, minimalize([(400, 0), (0, 400)])),  # past MAX_DIM
    ):
        with pytest.raises(AlgebraError) as want:
            ref.staircase_by_prefixes(variables, ideal)
        with pytest.raises(AlgebraError) as got:
            staircase(variables, ideal)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("text", [
    # 10^10 cells: the refusal fires at the second column, while the walk
    # holds the 10^5 one-exponent prefixes of the first (about 10 MB)
    "ring x,y; ideal x^100000, y^100000",
    # 10^9 cells: the refusal fires at the second of three columns, before
    # its 10^6 prefixes (about 64 MB) are built
    "ring x,y,z; ideal x^1000, y^1000, z^1000",
])
def test_a_huge_box_is_refused_before_its_cells_are_built(text):
    variables, ideal = parse_input(text)
    tracemalloc.start()
    try:
        with pytest.raises(AlgebraError, match=f"more than {MAX_DIM} standard monomials"):
            staircase(variables, ideal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


exponent_lists = st.lists(
    st.lists(st.integers(-1, 3), min_size=1, max_size=3).map(tuple), max_size=7
)


def outcome(f, gens):
    try:
        return f(gens)
    except AlgebraError as exc:
        return str(exc)


@given(exponent_lists)
def test_minimalize_matches_the_all_pairs_reference(gens):
    got = outcome(lambda g: minimalize(g).min_gens, gens)
    want = outcome(ref.minimalize_all_pairs, gens)
    if len(set(map(len, gens))) > 1:
        # mixed lengths are refused up front; the reference compared
        # generators of different lengths on their common prefix, so it
        # could drop the odd ones and accept the rest
        assert got == "generators have mixed lengths"
        if not isinstance(want, str):
            assert len(want) < len(set(gens))
    else:
        assert got == want


@given(exponent_lists)
def test_the_ideal_check_matches_the_all_pairs_reference(gens):
    gens = tuple(gens)
    got = outcome(lambda g: MonomialIdeal(g).min_gens, gens)
    want = outcome(lambda g: ref.check_antichain_all_pairs(g) or g, gens)
    repeated = len(set(gens)) < len(gens)
    if repeated and want in (gens, "generators are not canonically sorted"):
        # the one intended difference: a repeated generator divides its
        # copy, so the list is not minimal
        assert got == "generators are not minimal"
    else:
        assert got == want


def test_the_ideal_check_orders_its_errors():
    # unsorted and not minimal: minimality is reported first
    for gens in (((2, 0), (1, 0)), ((1, 1), (0, 2), (1, 0)), ((3,), (1,), (2,))):
        with pytest.raises(AlgebraError, match="generators are not minimal"):
            MonomialIdeal(gens)
    with pytest.raises(AlgebraError, match="not canonically sorted"):
        MonomialIdeal(((0, 2), (1, 0)))
    with pytest.raises(AlgebraError, match="mixed lengths"):
        MonomialIdeal(((1, 0), (1,), (1,)))
    with pytest.raises(AlgebraError, match="negative exponent"):
        MonomialIdeal(((1, 0), (-1, 2), (1, 0)))
    with pytest.raises(AlgebraError, match="empty generator set"):
        MonomialIdeal(())


def test_slot_read_outside_set_matches_minimal_outside():
    for variables, ideal in setup_cases():
        if not any(map(any, ideal.min_gens)):
            continue  # the unit ideal has no quotient module
        module = QuotientModule(variables, ideal)
        outside = _minimal_outside(module, inverse_system(module))
        assert outside == minimal_outside(module.index, module.n)
        assert outside == list(ideal.min_gens)


@given(artinian_ideals())
def test_slot_read_outside_set_matches_minimal_outside_on_drawn_ideals(drawn):
    if not 0 < len(ref.staircase_by_prefixes(*drawn)) <= 400:
        return  # the unit ideal, or a large box
    module = QuotientModule(*drawn)
    outside = _minimal_outside(module, inverse_system(module))
    assert outside == minimal_outside(module.index, module.n)


# ---------------------------------------------------------------------------
# the exponent-vector checks against the same checks one entry at a time

# mostly nonnegative, so that many draws get past the sign check
entries = st.sampled_from((0, 0, 1, 1, 2, 3, -1))


@st.composite
def generator_tuples(draw):
    """Empty or not; one length or mixed lengths, the empty vector among
    them; negative exponents, repeats and multiples; in any order, or
    deduplicated and in canonical order."""
    n = draw(st.integers(0, 3))
    same = st.lists(entries, min_size=n, max_size=n).map(tuple)
    free = st.lists(entries, max_size=3).map(tuple)
    gens = draw(st.lists(st.one_of(same, free) if draw(st.booleans()) else same, max_size=7))
    if draw(st.booleans()):
        gens = sorted(set(gens), key=ref.grlex_key_per_entry)
    return tuple(gens)


def result(f, *args):
    try:
        return "value", f(*args)
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return type(exc), str(exc)


@given(generator_tuples())
def test_minimalize_matches_the_per_entry_reference(gens):
    got = result(lambda: minimalize(gens).min_gens)
    assert got == result(ref.minimalize_per_entry, gens)


@given(generator_tuples())
def test_the_ideal_check_matches_the_per_entry_reference(gens):
    got = result(lambda: MonomialIdeal(gens).min_gens)
    assert got == result(lambda: ref.check_ideal_per_entry(gens) or gens)


@st.composite
def polynomial_terms(draw):
    """(exponents, coefficient) pairs, as a list or a dict: exponents of any
    length with negative ones, repeated keys, zero and cancelling
    coefficients, Fractions, and coefficients Fraction refuses."""
    exps = st.lists(entries, max_size=3).map(tuple)
    coeffs = st.one_of(
        st.integers(-2, 2), st.fractions(max_denominator=3), st.sampled_from(("1/2", "x"))
    )
    terms = draw(st.lists(st.tuples(exps, coeffs), max_size=5))
    return dict(terms) if draw(st.booleans()) else terms


def typed_terms(terms: dict) -> list:
    return [(k, type(v), v) for k, v in terms.items()]


@given(polynomial_terms())
def test_polynomials_match_the_per_entry_reference(terms):
    got = result(lambda: typed_terms(Polynomial(terms).terms))
    assert got == result(lambda: typed_terms(ref.polynomial_terms_per_entry(terms)))
