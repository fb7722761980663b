import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac.errors import BudgetExceededError
from dulac.poly import DEFAULT_TUPLE_BUDGET, Spectrum
from dulac.resonance import (
    ResonanceRelation,
    common_denominator,
    kernel_dimension_at_degree,
    omega_condition,
    poincare_domain,
    resonant_monomials,
    resonant_pairs,
)
from dulac.scalars import GaussianRational, I, as_scalar


def spec(*values):
    return Spectrum([as_scalar(v) if not isinstance(v, GaussianRational)
                     else v for v in values])


def test_resonant_monomials_saddle():
    relations = resonant_monomials(spec(1, -1), 4)
    assert [(r.exps, r.component) for r in relations] == [
        ((1, 2), 1), ((2, 1), 0)]
    assert all(r.degree == 3 for r in relations)


def test_resonant_monomials_deeper_saddle():
    relations = resonant_monomials(spec(1, -1), 5)
    assert [(r.exps, r.component) for r in relations] == [
        ((1, 2), 1), ((2, 1), 0), ((2, 3), 1), ((3, 2), 0)]


def test_resonant_monomials_1_minus3_9():
    relations = resonant_monomials(spec(1, -3, 9), 5)
    assert [(r.exps, r.component + 1) for r in relations] == [
        ((0, 3, 2), 3), ((0, 4, 1), 2), ((1, 3, 1), 1),
        ((3, 1, 1), 3), ((3, 2, 0), 2), ((4, 1, 0), 1)]
    assert resonant_monomials(spec(1, -3, 9), 4) == []


def test_resonant_monomials_1_minus2_4():
    relations = resonant_monomials(spec(1, -2, 4), 5)
    assert [(r.exps, r.component + 1) for r in relations] == [
        ((0, 2, 2), 3), ((0, 3, 1), 2), ((1, 2, 1), 1),
        ((2, 1, 1), 3), ((2, 2, 0), 2), ((3, 1, 0), 1), ((4, 0, 0), 3)]


def test_poincare_domain_excludes_resonances():
    # eigenvalues (1, 2): the only resonance is x1^2 in component 2
    relations = resonant_monomials(spec(1, 2), 6)
    assert [(r.exps, r.component) for r in relations] == [((2, 0), 1)]
    assert poincare_domain(spec(1, 2))


def test_kernel_dimension_at_degree():
    saddle = spec(1, -1)
    assert kernel_dimension_at_degree(saddle, 2) == 0
    assert kernel_dimension_at_degree(saddle, 3) == 2
    assert kernel_dimension_at_degree(saddle, 5) == 2
    assert kernel_dimension_at_degree(spec(0, 1), 2) == 2  # x1^2 e1, x1 x2 e2


@pytest.mark.parametrize("values", [(1, -1), (0, 1), (1, -3, 9), (0, 0, 0),
                                    (1, 1, -2), (2, I, -I)])
@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_kernel_dimension_counts_the_resonant_pairs(values, degree):
    spectrum = spec(*values)
    assert kernel_dimension_at_degree(spectrum, degree) == \
        len(resonant_pairs([spectrum], degree, degree))


def test_kernel_dimension_counts_without_listing():
    # under a zero spectrum every one of the 5050 * 100 pairs resonates
    zero = spec(*[0] * 100)
    tracemalloc.start()
    try:
        assert kernel_dimension_at_degree(zero, 2) == 5050 * 100
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_relation_str_is_one_based():
    rel = ResonanceRelation((4, 1, 0), 0)
    assert str(rel) == "(4, 1, 0) -> comp 1"
    assert rel.degree == 5


def test_poincare_domain_exact_hull():
    assert poincare_domain(spec(1, 2))
    assert poincare_domain(spec(1, 2, 3))
    assert not poincare_domain(spec(1, -1))
    assert not poincare_domain(spec(0, 1))  # origin is a vertex
    assert not poincare_domain(spec(I, -I))
    assert poincare_domain(spec(I, as_scalar(1)))
    assert poincare_domain(Spectrum([GaussianRational(1, 1),
                                     GaussianRational(1, -1)]))
    # origin strictly inside a triangle
    assert not poincare_domain(Spectrum([GaussianRational(1, 0),
                                         GaussianRational(-1, 1),
                                         GaussianRational(-1, -1)]))


def test_common_denominator():
    assert common_denominator(spec(1, -3, 9)) == 1
    assert common_denominator(Spectrum([GaussianRational(Fraction(1, 2)),
                                        GaussianRational(Fraction(-3, 4))])) == 4


def test_omega_condition_integer_spectrum():
    report = omega_condition(spec(1, -1), 3)
    assert report.verdict == "holds-by-rational-bound"
    assert report.rational_bound_sq == Fraction(1)
    by_k = {rec.k: rec for rec in report.records}
    # omega_1 compares degrees below 2^1 = 2: vacuous
    assert by_k[1].omega_sq is None
    assert by_k[2].omega_sq == Fraction(1)
    assert by_k[3].omega_sq == Fraction(1)
    assert report.omega_floor() is not None


def test_omega_condition_zero_eigenvalue():
    report = omega_condition(spec(0, 1), 3)
    assert report.verdict == "holds-by-rational-bound"
    by_k = {rec.k: rec for rec in report.records}
    assert by_k[2].omega_sq == Fraction(1)
    assert by_k[3].omega_sq == Fraction(1)


def test_omega_condition_fractional_bound():
    half = Spectrum([GaussianRational(Fraction(1, 2)),
                     GaussianRational(Fraction(-1, 3))])
    report = omega_condition(half, 2)
    assert report.rational_bound_sq == Fraction(1, 36)
    assert report.verdict == "holds-by-rational-bound"
    # the realized minimum can be larger than the a priori bound
    by_k = {rec.k: rec for rec in report.records}
    assert by_k[2].omega_sq >= report.rational_bound_sq


def test_omega_condition_budget():
    with pytest.raises(BudgetExceededError):
        omega_condition(spec(1, -1, 2, -2), 9)


def test_omega_tuples_scanned_reported():
    report = omega_condition(spec(1, -1), 3)
    assert report.tuples_scanned > 0
    assert report.tuples_scanned <= DEFAULT_TUPLE_BUDGET


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3),
                          st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(1, 4))
def test_omega_records_are_brute_force_minima(parts, max_k):
    # omega_k^2 is the least nonzero |<Q, L> - lambda_j|^2 over
    # 2 <= |Q| <= 2**k - 1, found here over a whole box of exponents
    spectrum = spec(*[GaussianRational(Fraction(re, den), Fraction(im, den))
                      for re, im, den in parts])
    report = omega_condition(spectrum, max_k)
    n = len(spectrum)
    for rec in report.records:
        divisors = [(spectrum.dot(q) - lam).abs2()
                    for q in itertools.product(range(2 ** rec.k), repeat=n)
                    if 2 <= sum(q) < 2 ** rec.k
                    for lam in spectrum]
        nonzero = [d for d in divisors if d]
        assert rec.omega_sq == (min(nonzero) if nonzero else None)
    assert [rec.k for rec in report.records] == list(range(1, max_k + 1))
    assert report.tuples_scanned == sum(
        1 for q in itertools.product(range(2 ** max_k), repeat=n)
        if 2 <= sum(q) < 2 ** max_k)
