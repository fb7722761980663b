import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
import sympy

from dulac.errors import BudgetExceededError, DimensionMismatchError
from dulac.poly import (
    DEFAULT_TUPLE_BUDGET,
    PolyScalar,
    PolyVectorField,
    Spectrum,
    _monomial_chain,
    apply_derivation,
    enumerate_monomials,
    enumerate_monomials_upto,
    format_monomial,
    format_poly,
    grlex_key,
    lie_bracket,
    linear_field,
    restrict_to_axis,
)
from dulac.scalars import GaussianRational, I, ONE, ZERO, as_scalar

from oracle import (
    field_to_sympy,
    poly_to_sympy,
    random_field,
    random_poly,
    spectrum_dot,
    sympy_bracket,
    sympy_to_poly,
    syms,
)
from test_properties import assert_canonical, read_poly, read_substitute


def V(dim, order, i):
    return PolyScalar.variable(dim, order, i)


def test_monomial_enumeration_counts():
    # dimension 3, degree d: C(d+2, 2) monomials
    for d in range(6):
        mons = list(enumerate_monomials(3, d))
        assert len(mons) == (d + 2) * (d + 1) // 2
        assert all(sum(m) == d for m in mons)
        assert len(set(mons)) == len(mons)
    upto = list(enumerate_monomials_upto(2, 4, min_degree=2))
    assert all(2 <= sum(m) <= 4 for m in upto)
    assert len(upto) == 3 + 4 + 5


def test_monomial_enumeration_matches_a_naive_reference():
    for dim in range(1, 7):
        for degree in range(9):
            naive = sorted(m for m in itertools.product(range(degree + 1),
                                                        repeat=dim)
                           if sum(m) == degree)
            assert list(enumerate_monomials(dim, degree)) == naive


def test_monomial_scan_budget_counts_pairs_through_the_top_degree():
    # dim * C(dim + D, dim) pairs: 9,995,082 at D = 3160, 10,001,406 at 3161
    assert 2 * math.comb(3162, 2) <= DEFAULT_TUPLE_BUDGET
    enumerate_monomials_upto(2, 3160, 3160)
    with pytest.raises(BudgetExceededError):
        enumerate_monomials_upto(2, 3161, 3161)


def test_grlex_orders_by_degree_first():
    keys = [grlex_key(m) for m in [(0, 2), (1, 0), (3, 0), (0, 1)]]
    ordered = sorted(keys)
    assert ordered == [grlex_key((0, 1)), grlex_key((1, 0)),
                       grlex_key((0, 2)), grlex_key((3, 0))]


def test_polyscalar_truncates_on_construction():
    p = PolyScalar(2, 3, {(5, 0): ONE, (1, 1): as_scalar(2), (0, 0): ONE})
    assert p.coefficient((5, 0)) == ZERO
    assert p.coefficient((1, 1)) == 2
    assert p.max_degree() == 2
    assert not p.is_zero()


def test_polyscalar_arithmetic_matches_sympy():
    rng = random.Random(101)
    x = syms(2)
    for _ in range(25):
        a = random_poly(rng, 2, 6, 4, 5)
        b = random_poly(rng, 2, 6, 4, 5)
        sa, sb = poly_to_sympy(a, x), poly_to_sympy(b, x)
        assert poly_to_sympy(a + b, x) == sympy.expand(sa + sb)
        assert poly_to_sympy(a - b, x) == sympy.expand(sa - sb)
        product = a * b
        truncated = sympy_to_poly(sa * sb, x, 2, 6)
        assert product == truncated


@pytest.mark.parametrize("operand", [2.5, "3", None])
def test_unsupported_operands_raise_type_error(operand):
    # NotImplemented from both sides, so Python raises the TypeError
    # rather than an AttributeError from inside the arithmetic
    p = V(2, 3, 0)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(p, operand)
        with pytest.raises(TypeError):
            op(operand, p)


def test_product_truncation_drops_high_degrees():
    x1 = V(2, 3, 0)
    p = (x1 * x1) * (x1 * x1)
    assert p.is_zero()
    q = x1 * x1 * x1
    assert q.coefficient((3, 0)) == ONE
    assert (q * x1).is_zero()


def test_pow_and_substitute():
    x1, x2 = V(2, 5, 0), V(2, 5, 1)
    p = (x1 + x2) * (x1 + x2) * (x1 + x2)
    assert p.coefficient((2, 1)) == 3
    # substitute x1 -> x1 + x2^2, x2 -> x2
    shifted = p.substitute([x1 + x2 * x2, x2])
    x = syms(2)
    expect = sympy_to_poly(
        sympy.expand((x[0] + x[1] ** 2 + x[1]) ** 3), x, 2, 5)
    assert shifted == expect


def test_substitute_refuses_a_table_of_another_order():
    x1, x2 = V(2, 5, 0), V(2, 5, 1)
    values = [x1 + x2 * x2, x2]
    table = {}
    (x1 * x2).substitute(values, table)
    assert set(table) == {(1, 0), (1, 1)}
    with pytest.raises(DimensionMismatchError):
        V(2, 3, 0).substitute(values, table)
    # as many values, at the same order, of another dimension
    with pytest.raises(DimensionMismatchError):
        V(2, 5, 0).substitute([V(3, 5, 0), V(3, 5, 1)], table)


def P(dim, order, terms):
    return PolyScalar(dim, order, {exps: as_scalar(c) for exps, c in
                                   terms.items()})


def assert_exact_substitution(p, values, expected):
    """``p.substitute(values)`` has exactly the terms ``expected``, which
    certify's term-by-term expansion gives too, and is canonical."""
    got = p.substitute(values)
    assert got.terms == expected.terms
    assert read_poly(got) == read_substitute([p], values, got.order)[0]
    assert_canonical(got)


def test_substitute_cancels_a_kept_term_and_stores_no_zero():
    # x -> x + x^2 fixes x^3 through order 3, so -2x^3 is kept and meets
    # the 2x^3 of (x + x^2)^2 = x^2 + 2x^3
    x = V(1, 3, 0)
    f = P(1, 3, {(2,): 1, (3,): -2})
    assert_exact_substitution(f, [x + x * x], P(1, 3, {(2,): 1}))


def test_substitute_sums_over_distinct_denominators():
    # values x_i + w_i with w_i of degree 2, so the degree-3 terms of f are
    # kept: at x1^2, 1/2 * i/3 from x2 meets 1/3 from x1^2; at x1*x2^2 the
    # kept -1/3 cancels 1/3 from x1^2; at x1^2*x2 the kept i/2 meets
    # 2/3 * 2i/3 from x2^2
    x1, x2 = V(2, 3, 0), V(2, 3, 1)
    values = [x1 + Fraction(1, 2) * (x2 * x2), x2 + (I / 3) * (x1 * x1)]
    f = P(2, 3, {(1, 0): 1, (0, 1): Fraction(1, 2), (2, 0): Fraction(1, 3),
                 (0, 2): Fraction(2, 3), (1, 2): Fraction(-1, 3),
                 (2, 1): I / 2})
    expected = P(2, 3, {(1, 0): 1, (0, 1): Fraction(1, 2),
                        (0, 2): Fraction(7, 6),
                        (2, 0): Fraction(1, 3) + I / 6,
                        (2, 1): I * Fraction(17, 18)})
    assert_exact_substitution(f, values, expected)


def test_substitute_builds_a_monomial_chain_of_any_depth():
    # x^1500 at 2x builds x, x^2, ..., x^1500 along one chain 1500 links
    # deep, lowest first, which a walk recursing once per link could not
    assert _monomial_chain([(1500,)], {}) == [
        ((k,), (k - 1,), 0) for k in range(1, 1501)]
    table = {}
    got = P(1, 1500, {(1500,): 1}).substitute([P(1, 1500, {(1,): 2})], table)
    assert got == P(1, 1500, {(1500,): 2 ** 1500})
    assert len(table) == 1500


def test_partial_derivative():
    x1, x2 = V(2, 4, 0), V(2, 4, 1)
    p = x1 * x1 * x2 + 2 * x2
    # differentiation loses one order of trusted truncation
    assert p.partial(0).order == 3
    assert p.partial(0) == (2 * (x1 * x2)).truncated(3)
    assert p.partial(1) == (x1 * x1 + PolyScalar.constant(2, 4, 2)).truncated(3)


def test_restrict_to_axis():
    x1, x2 = V(2, 4, 0), V(2, 4, 1)
    p = x1 + 2 * (x1 * x1) + x1 * x2 + 5 * (x1 * x1 * x1)
    coeffs = restrict_to_axis(p, 0)
    assert coeffs == [ZERO, ONE, as_scalar(2), as_scalar(5), ZERO]


def test_format_poly_ordering_and_names():
    p = PolyScalar(2, 4, {(2, 0): -ONE, (0, 1): ONE})
    assert format_poly(p) == "x2 + -1*x1^2"
    assert format_poly(PolyScalar.zero(2, 4)) == "0"
    mixed = PolyScalar(2, 4, {(1, 1): GaussianRational(1, 2)})
    assert format_poly(mixed) == "(1+2*i)*x1*x2"
    assert format_poly(PolyScalar.constant(2, 4, 3) + p) == "3 + x2 + -1*x1^2"


def test_format_monomial():
    assert format_monomial((2, 0, 1)) == "x1^2*x3"
    assert format_monomial((0, 1)) == "x2"
    assert format_monomial((0, 0)) == "1"


def test_spectrum_gap_resonance():
    spec = Spectrum([as_scalar(1), as_scalar(-1)])
    assert spectrum_dot(spec, (2, 1)) == 1
    assert spec.gap((2, 1), 0) == ZERO
    assert spec.gap((2, 1), 1) == 2
    assert len(spec) == 2


def test_vector_field_construction_and_linear_matrix():
    f = PolyVectorField.from_terms(2, 4, [
        (0, (1, 0), 1), (1, (0, 1), -2), (0, (1, 1), 3)])
    assert f.linear_matrix()[0][0] == ONE
    assert f.linear_matrix()[1][1] == -2
    assert f.min_degree() == 1
    assert f.max_degree() == 2
    assert f.spectrum == Spectrum([as_scalar(1), as_scalar(-2)])


def test_component_count_must_match_dimension():
    with pytest.raises(DimensionMismatchError):
        PolyVectorField([PolyScalar.zero(2, 4)])


def test_linear_field_and_monomial_field():
    spec = Spectrum([as_scalar(2), I])
    lin = linear_field(spec, 5)
    assert lin.components[0].coefficient((1, 0)) == 2
    assert lin.components[1].coefficient((0, 1)) == I
    assert lin.spectrum == spec
    mono = PolyVectorField.from_terms(2, 5, [(0, (2, 1), 1)])
    assert mono.components[0].coefficient((2, 1)) == ONE
    assert mono.components[1].is_zero()
    assert mono.spectrum == Spectrum([ZERO, ZERO])


def test_lie_bracket_matches_sympy_oracle():
    rng = random.Random(77)
    for dim in (2, 3):
        x = syms(dim)
        for _ in range(12):
            f = random_field(rng, dim, 6, 3, 4, min_degree=1)
            g = random_field(rng, dim, 6, 3, 4, min_degree=1)
            bracket = lie_bracket(f, g)
            expect = sympy_bracket(field_to_sympy(f, x),
                                   field_to_sympy(g, x), x)
            for i in range(dim):
                assert bracket.components[i] == sympy_to_poly(
                    expect[i], x, dim, bracket.order)


def test_lie_bracket_antisymmetry_and_bilinearity():
    rng = random.Random(99)
    f = random_field(rng, 2, 6, 3, 4, min_degree=1)
    g = random_field(rng, 2, 6, 3, 4, min_degree=1)
    h = random_field(rng, 2, 6, 3, 4, min_degree=1)
    assert lie_bracket(f, g) == -lie_bracket(g, f)
    assert lie_bracket(f + g, h) == lie_bracket(f, h) + lie_bracket(g, h)
    assert lie_bracket(f * 3, h) == lie_bracket(f, h) * 3


def test_lie_bracket_diagonal_linear_with_monomial():
    # [Ax, x^m e_j] = (<m, L> - lambda_j) x^m e_j
    spec = Spectrum([as_scalar(1), as_scalar(-3)])
    A = linear_field(spec, 6)
    mono = PolyVectorField.from_terms(2, 6, [(0, (2, 1), 1)])
    bracket = lie_bracket(A, mono)
    gap = spectrum_dot(spec, (2, 1)) - spec[0]
    assert bracket == mono * gap


def test_apply_derivation_matches_sympy():
    rng = random.Random(55)
    x = syms(2)
    for _ in range(10):
        f = random_field(rng, 2, 6, 3, 4, min_degree=1)
        phi = random_poly(rng, 2, 6, 3, 4, min_degree=1)
        derived = apply_derivation(f, phi)
        sf = field_to_sympy(f, x)
        expect = sympy.expand(sum(sf[j] * sympy.diff(poly_to_sympy(phi, x),
                                                     x[j])
                                  for j in range(2)))
        assert derived == sympy_to_poly(expect, x, 2, derived.order)


def test_degree_parts_and_truncation():
    f = PolyVectorField.from_terms(2, 5, [
        (0, (1, 0), 1), (0, (2, 0), 2), (0, (3, 0), 3)])
    assert f.degree_part(2).components[0].coefficient((2, 0)) == 2
    assert f.nonlinear_part().components[0].coefficient((1, 0)) == ZERO
    cut = f.truncated(2)
    assert cut.order == 2
    assert cut.components[0].coefficient((3, 0)) == ZERO


def test_spectrum_survives_truncation():
    spec = Spectrum([as_scalar(1), as_scalar(2)])
    f = linear_field(spec, 5)
    assert f.truncated(3).spectrum == spec
