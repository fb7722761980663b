import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac.errors import BudgetExceededError
from dulac.poly import DEFAULT_TUPLE_BUDGET, Spectrum
from dulac.resonance import (
    ResonanceRelation,
    kernel_dimension_at_degree,
    omega_condition,
    poincare_domain,
    resonant_monomials,
    resonant_pairs,
)
from dulac.scalars import GaussianRational, I, as_scalar

from oracle import spectrum_dot

ROOT = Path(__file__).resolve().parent.parent


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


def test_resonant_pairs_are_relations_that_read_as_tuples():
    pairs = resonant_pairs([spec(1, -1)], 2, 3)
    assert pairs == [((1, 2), 1), ((2, 1), 0)]
    assert all(isinstance(rel, ResonanceRelation) for rel in pairs)
    exps, j = pairs[0]
    assert (exps, j) == (pairs[0].exps, pairs[0].component)


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


def test_spectrum_scale():
    assert spec(1, -3, 9).scale == 1
    assert spec(1, -3, 9).integral == ((1, 0), (-3, 0), (9, 0))
    quarters = Spectrum([GaussianRational(Fraction(1, 2)),
                         GaussianRational(Fraction(-3, 4))])
    assert quarters.scale == 4
    assert quarters.integral == ((2, 0), (-3, 0))
    mixed = Spectrum([GaussianRational(Fraction(1, 2), Fraction(1, 3))])
    assert mixed.scale == 6
    assert mixed.integral == ((3, 2),)
    assert Spectrum([]).scale == 1


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
# general, real, purely imaginary and zero eigenvalues
eigenvalues = st.one_of(
    st.tuples(rationals, rationals),
    st.tuples(rationals, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), rationals),
    st.just((Fraction(0), Fraction(0))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(eigenvalues, min_size=1, max_size=3),
       st.builds(Fraction, st.integers(1, 7), st.integers(1, 7)))
def test_integer_form_matches_the_gaussian_rationals(parts, c):
    spectrum = Spectrum([GaussianRational(re, im) for re, im in parts])
    q = spectrum.scale
    assert q == math.lcm(*[x.denominator for pair in parts for x in pair])
    for (re, im), pair in zip(parts, spectrum.integral):
        assert all(type(x) is int for x in pair)
        assert pair == (q * re, q * im)

    n, top = len(parts), 3
    box = [exps for exps in itertools.product(range(top + 1), repeat=n)
           if 1 <= sum(exps) <= top]
    dots = {exps: spectrum_dot(spectrum, exps) for exps in box}
    for exps, dot in dots.items():
        for j, lam in enumerate(spectrum):
            assert spectrum.gap(exps, j) == dot - lam
    expected = sorted((sum(exps), exps, j) for exps, dot in dots.items()
                      for j, lam in enumerate(spectrum) if dot == lam)
    assert resonant_pairs([spectrum], 1, top) == [
        (exps, j) for _, exps, j in expected]

    scaled = Spectrum([lam * c for lam in spectrum])
    assert poincare_domain(scaled) == poincare_domain(spectrum)


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


def test_omega_scan_in_dimension_one_is_linear_in_its_degree():
    # each degree of dimension 1 holds one tuple; when every degree copied
    # a pool of its own size, this scan through degree 2**16 - 1 took 54 s
    code = ("from dulac.poly import Spectrum\n"
            "from dulac.resonance import omega_condition\n"
            "print(omega_condition(Spectrum([3]), 16).tuples_scanned)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{2 ** 16 - 2}\n"


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
        divisors = [(spectrum_dot(spectrum, q) - lam).abs2()
                    for q in itertools.product(range(2 ** rec.k), repeat=n)
                    if 2 <= sum(q) < 2 ** rec.k
                    for lam in spectrum]
        nonzero = [d for d in divisors if d]
        assert rec.omega_sq == (min(nonzero) if nonzero else None)
    assert [rec.k for rec in report.records] == list(range(1, max_k + 1))
    assert report.tuples_scanned == sum(
        1 for q in itertools.product(range(2 ** max_k), repeat=n)
        if 2 <= sum(q) < 2 ** max_k)
