from fractions import Fraction

import pytest

from dulac.centralizer import (
    centralizer_basis,
    common_invariants,
    kernel_intersection,
    rational_decomposition,
    resonance_equivalence_holds,
)
from dulac.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    NotInNormalFormError,
    TruncationOrderError,
)
from dulac.normalizer import check_commute
from dulac.poly import PolyVectorField, Spectrum, lie_bracket, linear_field
from dulac.scalars import GaussianRational, I, as_scalar


def spec(*values):
    return Spectrum([v if isinstance(v, GaussianRational) else as_scalar(v)
                     for v in values])


def saddle(order=7):
    s = spec(1, -1)
    return linear_field(s, order).with_spectrum(s)


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
    f = (linear_field(s, 5) + PolyVectorField.from_terms(
        2, 5, [(0, (2, 1), 1)])).with_spectrum(s)
    basis = centralizer_basis(f, 5)
    assert basis.dimension == 4
    assert sum(basis.unconfirmed) == 2
    confirmed = basis.confirmed_elements()
    assert PolyVectorField.from_terms(2, 5, [(0, (1, 0), 1),
                                             (1, (0, 1), -1)]) in confirmed
    assert PolyVectorField.from_terms(2, 5, [(0, (2, 1), 1)]) in confirmed
    # every confirmed element commutes with f through the bound
    for element in confirmed:
        ok, _, _ = check_commute(f, element, order=5)
        assert ok
    unrestricted = centralizer_basis(f, 5, restrict_to_kernel=False)
    assert set(unrestricted.elements) == set(basis.elements)


def test_resonant_saddle_shallow_bound():
    s = spec(1, -1)
    f = (linear_field(s, 3) + PolyVectorField.from_terms(
        2, 3, [(0, (2, 1), 1)])).with_spectrum(s)
    basis = centralizer_basis(f, 3)
    assert basis.dimension == 3
    # the two cubic directions keep constraints beyond degree 3
    assert sum(basis.unconfirmed) == 2
    assert len(basis.confirmed_elements()) == 1


def test_centralizer_requires_normal_form():
    s = spec(1, -1)
    f = (linear_field(s, 5) + PolyVectorField.from_terms(
        2, 5, [(0, (2, 0), 1)])).with_spectrum(s)  # non-resonant term
    with pytest.raises(NotInNormalFormError):
        centralizer_basis(f, 5)
    plain = PolyVectorField.from_terms(2, 5, [(0, (1, 0), 1),
                                              (1, (0, 1), -1)])
    with pytest.raises(NotInNormalFormError):
        centralizer_basis(plain, 5)  # no spectrum attached
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


def test_rational_decomposition_real_integers():
    decomp = rational_decomposition(spec(1, -3, 9))
    assert decomp.rank == 1
    assert decomp.reconstructed() == spec(1, -3, 9)
    assert decomp.basis_matrices[0] == (Fraction(1), Fraction(-3), Fraction(9))


def test_rational_decomposition_imaginary():
    s = spec(I, -I, 2 * I)
    decomp = rational_decomposition(s)
    assert decomp.rank == 1
    assert decomp.coefficients == (I,)
    assert decomp.basis_matrices[0] == (Fraction(1), Fraction(-1), Fraction(2))
    assert decomp.reconstructed() == s


def test_rational_decomposition_rank_two():
    s = Spectrum([GaussianRational(1, 1), GaussianRational(1, -1)])
    decomp = rational_decomposition(s)
    assert decomp.rank == 2
    assert decomp.reconstructed() == s
    assert resonance_equivalence_holds(decomp, s, 6)


def test_resonance_equivalence_on_rank_one():
    s = spec(1, -1)
    decomp = rational_decomposition(s)
    assert resonance_equivalence_holds(decomp, s, 8)


def test_common_invariants_frozen():
    result = common_invariants([spec(1, 1, -2)], 3)
    assert result == [(0, 2, 1), (1, 1, 1), (2, 0, 1)]


def test_common_invariants_of_pair():
    # <m, (1,1,-2)> = 0 forces m1 = 2m3 - m2, and then <m, (1,-3,9)> = 0
    # gives 4m2 = 11m3 with m1 = -3k < 0: no joint integral at all
    assert common_invariants([spec(1, 1, -2), spec(1, -3, 9)], 8) == []
    # the pair (1,1,-2), (1,-2,4) does keep one through low degrees
    assert common_invariants([spec(1, 1, -2), spec(1, -2, 4)], 3) == [
        (0, 2, 1)]
    # saddle: powers of x1 x2
    assert common_invariants([spec(1, -1)], 4) == [(1, 1), (2, 2)]


def test_common_invariants_past_the_budget_raise():
    # 3 * C(3 + 400, 3) = 32.5 M monomial-vector pairs through degree 400
    with pytest.raises(BudgetExceededError):
        common_invariants([spec(1, 1, -2)], 400)
