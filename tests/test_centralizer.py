import pytest

from dulac.centralizer import centralizer_basis, kernel_intersection
from dulac.errors import (
    DimensionMismatchError,
    NonDiagonalLinearPartError,
    NotInNormalFormError,
    TruncationOrderError,
)
from dulac.normalizer import check_commute
from dulac.poly import PolyVectorField, Spectrum, lie_bracket, linear_field
from dulac.scalars import GaussianRational, as_scalar


def spec(*values):
    return Spectrum([v if isinstance(v, GaussianRational) else as_scalar(v)
                     for v in values])


def saddle(order=7):
    return linear_field(spec(1, -1), order)


def test_saddle_centralizer_degree_7_frozen():
    basis = centralizer_basis(saddle(7), 7)
    expect = {PolyVectorField.from_terms(2, 7, [(0, (1 + l, l), 1)])
              for l in range(4)}
    expect |= {PolyVectorField.from_terms(2, 7, [(1, (l, 1 + l), 1)])
               for l in range(4)}
    assert basis.dimension == 8
    assert set(basis.elements) == expect
    assert not any(basis.unconfirmed)
    assert basis.restricted


def test_saddle_centralizer_elements_commute():
    f = saddle(7)
    basis = centralizer_basis(f, 7)
    for element in basis.elements:
        assert lie_bracket(f, element).is_zero()


def test_unrestricted_oracle_agrees_on_saddle():
    f = saddle(7)
    restricted = centralizer_basis(f, 7)
    unrestricted = centralizer_basis(f, 7, restrict_to_kernel=False)
    assert restricted.dimension == unrestricted.dimension
    assert set(restricted.elements) == set(unrestricted.elements)
    assert not unrestricted.restricted


def test_resonant_saddle_with_nonlinear_term():
    s = spec(1, -1)
    f = linear_field(s, 5) + PolyVectorField.from_terms(
        2, 5, [(0, (2, 1), 1)])
    basis = centralizer_basis(f, 5)
    assert basis.dimension == 4
    assert sum(basis.unconfirmed) == 2
    confirmed = [e for e, u in zip(basis.elements, basis.unconfirmed)
                 if not u]
    assert PolyVectorField.from_terms(2, 5, [(0, (1, 0), 1),
                                             (1, (0, 1), -1)]) in confirmed
    assert PolyVectorField.from_terms(2, 5, [(0, (2, 1), 1)]) in confirmed
    # every confirmed element commutes with f through the bound
    for element in confirmed:
        assert check_commute(f, element)[:2] == (True, None)
    unrestricted = centralizer_basis(f, 5, restrict_to_kernel=False)
    assert set(unrestricted.elements) == set(basis.elements)


def test_resonant_saddle_shallow_bound():
    s = spec(1, -1)
    f = linear_field(s, 3) + PolyVectorField.from_terms(
        2, 3, [(0, (2, 1), 1)])
    basis = centralizer_basis(f, 3)
    assert basis.dimension == 3
    # the two cubic directions keep constraints beyond degree 3
    assert sum(basis.unconfirmed) == 2
    assert basis.unconfirmed.count(False) == 1


def test_centralizer_requires_normal_form():
    s = spec(1, -1)
    f = linear_field(s, 5) + PolyVectorField.from_terms(
        2, 5, [(0, (2, 0), 1)])  # non-resonant term
    with pytest.raises(NotInNormalFormError):
        centralizer_basis(f, 5)
    rotation = PolyVectorField.from_terms(2, 5, [(0, (0, 1), 1),
                                                 (1, (1, 0), -1)])
    with pytest.raises(NonDiagonalLinearPartError):
        centralizer_basis(rotation, 5)  # no diagonal linear part
    with pytest.raises(TruncationOrderError):
        centralizer_basis(saddle(5), 0)


def test_kernel_intersection_empty_pair():
    assert kernel_intersection(spec(1, -3, 9), spec(1, -2, 4), 10) == []


def test_kernel_intersection_same_spectrum():
    relations = kernel_intersection(spec(1, -1), spec(1, -1), 3)
    assert [(r.exps, r.component) for r in relations] == [
        ((1, 2), 1), ((2, 1), 0)]


def test_kernel_intersection_rejects_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        kernel_intersection(spec(1, -1), spec(1, -1, 2), 4)
