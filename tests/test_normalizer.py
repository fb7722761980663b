import random

import pytest

from dulac.errors import NonDiagonalLinearPartError, TruncationOrderError
from dulac.maps import NearIdentityMap, linear_conjugate, pull_back
from dulac.normalizer import check_commute, normalize
from dulac.poly import (
    PolyVectorField,
    Spectrum,
    lie_bracket,
    linear_field,
    restrict_to_axis,
)
from dulac.resonance import resonant_pairs
from dulac.scalars import ZERO, as_scalar

from oracle import random_scalar


def saddle_example(order=6):
    return PolyVectorField.from_terms(2, order, [
        (0, (1, 0), 1), (1, (0, 1), -1),
        (0, (1, 1), 1), (1, (1, 1), -1)])


def horn_conjugated(order=12):
    f = PolyVectorField.from_terms(2, order, [
        (0, (2, 0), 1), (1, (0, 1), 1), (1, (1, 0), -1)])
    return linear_conjugate([[1, 0], [-1, 1]], f)


def test_normalize_requires_spectrum_and_order():
    f = PolyVectorField.from_terms(2, 6, [(0, (0, 1), 1), (1, (1, 0), 1)])
    with pytest.raises(NonDiagonalLinearPartError):
        normalize(f, 4)
    g = saddle_example(6)
    with pytest.raises(TruncationOrderError):
        normalize(g, 1)
    with pytest.raises(TruncationOrderError):
        normalize(g, 8)  # field only known to order 6


def test_saddle_normal_form_frozen():
    result = normalize(saddle_example(6), 6)
    expect = PolyVectorField.from_terms(2, 6, [
        (0, (1, 0), 1), (1, (0, 1), -1),
        (0, (2, 1), -1), (0, (3, 2), -1),
        (1, (1, 2), 1), (1, (2, 3), 1)])
    assert result.normal_form == expect


def test_normal_form_commutes_with_linear_part():
    f = saddle_example(6)
    result = normalize(f, 6)
    A = linear_field(f.spectrum, 6)
    assert lie_bracket(A, result.normal_form).is_zero()


def test_transformation_pushes_input_to_normal_form():
    f = saddle_example(6)
    result = normalize(f, 6)
    phi = result.transformation.invert_to_order()
    assert pull_back(phi, f) == result.normal_form


def test_horn_transformation_coefficients():
    result = normalize(horn_conjugated(6), 6)
    assert result.normal_form == PolyVectorField.from_terms(2, 6, [
        (0, (2, 0), 1), (1, (0, 1), 1)])
    coeffs = restrict_to_axis(
        result.transformation.components[1], 0)
    # y2 = x2 - x1^2 - 2 x1^3 - 6 x1^4 - 24 x1^5 - 120 x1^6
    assert coeffs == [ZERO, ZERO, as_scalar(-1), as_scalar(-2),
                      as_scalar(-6), as_scalar(-24), as_scalar(-120)]


def test_per_degree_records():
    result = normalize(horn_conjugated(6), 6)
    assert [(r.degree, r.kernel_dim, r.removed_dim)
            for r in result.per_degree] == [
        (2, 2, 1), (3, 2, 1), (4, 2, 1), (5, 2, 1), (6, 2, 1)]


def test_distinguished_style_keeps_only_resonant_terms():
    rng = random.Random(2024)
    for _ in range(10):
        spec = Spectrum([as_scalar(rng.randint(-3, 3)) for _ in range(2)])
        terms = [(i, (1 if i == 0 else 0, 1 if i == 1 else 0), spec[i])
                 for i in range(2)]
        for _ in range(4):
            exps = (rng.randint(0, 3), rng.randint(0, 3))
            if sum(exps) < 2:
                continue
            terms.append((rng.randint(0, 1), exps, random_scalar(rng)))
        f = PolyVectorField.from_terms(2, 5, terms)
        result = normalize(f, 5)
        resonant = set(resonant_pairs([spec], 2, 5))
        for comp, exps, coeff in result.normal_form.nonlinear_part().terms():
            assert (exps, comp) in resonant
        A = linear_field(spec, 5)
        assert lie_bracket(A, result.normal_form).is_zero()
        phi = result.transformation.invert_to_order()
        assert pull_back(phi, f) == result.normal_form


def test_already_normal_field_is_untouched():
    f = saddle_example(6)
    result = normalize(f, 6)
    again = normalize(result.normal_form, 6)
    assert again.normal_form == result.normal_form
    assert again.transformation == NearIdentityMap.identity(2, 6)


def test_check_commute_positive():
    spec = Spectrum([as_scalar(1), as_scalar(-1)])
    A = linear_field(spec, 6)
    resonant = PolyVectorField.from_terms(2, 6, [(0, (2, 1), 1)])
    ok, first, residual = check_commute(A, resonant)
    assert ok
    assert first is None
    assert residual.is_zero()


def test_check_commute_reports_first_degree():
    spec = Spectrum([as_scalar(1), as_scalar(-1)])
    A = linear_field(spec, 6)
    non_resonant = PolyVectorField.from_terms(2, 6, [(0, (2, 0), 1)])
    ok, first, residual = check_commute(A, non_resonant)
    assert not ok
    assert first == 2
    assert not residual.is_zero()


def test_check_commute_respects_order_argument():
    spec = Spectrum([as_scalar(1), as_scalar(-1)])
    A = linear_field(spec, 6)
    late = PolyVectorField.from_terms(2, 6, [(0, (5, 0), 1)])
    # the residual carries the smaller order of the two fields
    assert check_commute(A.truncated(4), late.truncated(4))[:2] == (True, None)
    ok, first, residual = check_commute(A, late)
    assert not ok
    assert first == 5
    assert residual.order == 6
    assert residual.truncated(4).is_zero()
