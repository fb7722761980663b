import random
from fractions import Fraction

import pytest
import sympy

from dulac.errors import DimensionMismatchError, SingularLinearPartError
from dulac.maps import (
    NearIdentityMap,
    linear_conjugate,
    pull_back,
    push_forward,
)
from dulac.poly import PolyScalar, PolyVectorField, Spectrum, linear_field
from dulac.scalars import ONE, as_scalar

from oracle import field_to_sympy, random_field, sympy_to_poly, syms


def quadratic_shift(order=6):
    # y1 = x1, y2 = x2 + x1^2
    h = PolyVectorField.from_terms(2, order, [(1, (2, 0), 1)])
    return NearIdentityMap.from_generator(h)


def test_identity_map():
    ident = NearIdentityMap.identity(2, 5)
    comps = ident.components
    assert len(comps) == 2
    assert comps[0] == PolyScalar.variable(2, 5, 0)
    assert comps[1] == PolyScalar.variable(2, 5, 1)
    f = random_field(random.Random(1), 2, 5, 3, 4, min_degree=1)
    assert push_forward(ident, f) == f


def test_component_polys_of_generator_map():
    comps = quadratic_shift().components
    assert comps[0] == PolyScalar.variable(2, 6, 0)
    assert comps[1].coefficient((2, 0)) == ONE
    assert comps[1].coefficient((0, 1)) == ONE


def test_from_components_round_trip():
    original = quadratic_shift()
    rebuilt = NearIdentityMap(original.components)
    assert rebuilt == original


def test_from_components_rejects_constant_terms():
    bad = [PolyScalar(2, 4, {(0, 0): ONE, (1, 0): ONE}),
           PolyScalar.variable(2, 4, 1)]
    with pytest.raises(DimensionMismatchError):
        NearIdentityMap(bad)


def test_from_linear_requires_invertible_matrix():
    with pytest.raises(SingularLinearPartError):
        NearIdentityMap.from_linear([[1, 1], [1, 1]], 4)


def test_invert_round_trip():
    rng = random.Random(21)
    for _ in range(8):
        h = random_field(rng, 2, 6, 3, 3, min_degree=2)
        phi = NearIdentityMap.from_generator(h)
        inverse = phi.invert_to_order()
        identity = NearIdentityMap.identity(2, 6)
        assert phi.compose(inverse) == identity
        assert inverse.compose(phi) == identity


@pytest.mark.parametrize("order", [1, 2, 5])
def test_invert_linear_map_is_the_inverse_matrix(order):
    # h = 0: the inversion solves nothing past degree 1
    psi = NearIdentityMap.from_linear([[2, 1], [1, 1]], order)
    assert psi.invert_to_order() == NearIdentityMap.from_linear(
        psi.linear_inverse, order)


def test_invert_order_two_map_solves_one_degree():
    # Psi = (x1 + x2, 3 x2 + x1^2): Phi_1 = Linv y and
    # Phi_2 = -Linv (0, q) = (q/3, -q/3) for q = (y1 - y2/3)^2
    order = 2
    x1, x2 = (PolyScalar.variable(2, order, i) for i in range(2))
    psi = NearIdentityMap([x1 + x2, x2 * 3 + x1 * x1])
    linear = NearIdentityMap.from_linear(psi.linear_inverse, order)
    lin1, lin2 = linear.components
    q = lin1 * lin1
    third = as_scalar(Fraction(1, 3))
    assert psi.invert_to_order() == NearIdentityMap(
        [lin1 + q * third, lin2 - q * third])


def test_compose_is_substitution():
    outer = quadratic_shift()
    inner = NearIdentityMap.from_linear([[1, 0], [-1, 1]], 6)
    composed = outer.compose(inner)
    x = syms(2)
    inner_exprs = [
        sympy_to_poly(e, x, 2, 6) for e in (x[0], -x[0] + x[1])]
    for comp, expect_base in zip(composed.components, outer.components):
        assert comp == expect_base.substitute(inner_exprs)


def test_push_forward_known_example():
    # z = (x1, x2 + x1^2) applied to diag(1, 3) picks up a -x1^2 term
    psi = quadratic_shift()
    spec = Spectrum([as_scalar(1), as_scalar(3)])
    f = linear_field(spec, 6)
    pushed = push_forward(psi, f)
    expect = PolyVectorField.from_terms(2, 6, [
        (0, (1, 0), 1), (1, (0, 1), 3), (1, (2, 0), -1)])
    assert pushed == expect


def test_push_forward_resonant_term_is_invariant():
    # z2 = x2 + x1^2 with doubled first eigenvalue keeps diag(1, 2)
    psi = quadratic_shift()
    spec = Spectrum([as_scalar(1), as_scalar(2)])
    f = linear_field(spec, 6)
    assert push_forward(psi, f) == f


def test_pull_back_inverts_push_forward():
    rng = random.Random(31)
    for _ in range(6):
        h = random_field(rng, 2, 6, 3, 3, min_degree=2)
        phi = NearIdentityMap.from_generator(h)
        f = random_field(rng, 2, 6, 3, 4, min_degree=1)
        assert pull_back(phi, push_forward(phi, f)) == f
        assert push_forward(phi, pull_back(phi, f)) == f
        assert pull_back(phi, f) == push_forward(phi.invert_to_order(), f)


def test_push_forward_chain_rule_against_sympy():
    # verify (D Psi . f) o Psi^{-1} directly on one example
    psi = quadratic_shift()
    f = PolyVectorField.from_terms(2, 6, [
        (0, (1, 0), 1), (1, (0, 1), -1), (0, (1, 1), 1)])
    pushed = push_forward(psi, f)
    x = syms(2)
    psi_exprs = [x[0], x[1] + x[0] ** 2]
    inv_exprs = [x[0], x[1] - x[0] ** 2]
    f_exprs = field_to_sympy(f, x)
    out = []
    for i in range(2):
        total = sum(sympy.diff(psi_exprs[i], x[j]) * f_exprs[j]
                    for j in range(2))
        out.append(sympy.expand(total.subs(list(zip(x, inv_exprs)),
                                           simultaneous=True)))
    for i in range(2):
        assert pushed.components[i] == sympy_to_poly(out[i], x, 2, 6)


def test_linear_conjugate_diagonalizes():
    # y = Tx with T = [[1, 0], [-1, 1]] turns (x1^2, x2 - x1) into
    # (x1^2, x2 - x1^2)
    f = PolyVectorField.from_terms(2, 6, [
        (0, (2, 0), 1), (1, (0, 1), 1), (1, (1, 0), -1)])
    conj = linear_conjugate([[1, 0], [-1, 1]], f)
    expect = PolyVectorField.from_terms(2, 6, [
        (0, (2, 0), 1), (1, (0, 1), 1), (1, (2, 0), -1)])
    assert conj == expect
    assert conj.spectrum == Spectrum(
        [as_scalar(0), as_scalar(1)])


def test_linear_conjugate_round_trip():
    rng = random.Random(41)
    t = [[1, 2], [1, 3]]
    t_inv = [[3, -2], [-1, 1]]
    f = random_field(rng, 2, 6, 3, 4, min_degree=1)
    there = linear_conjugate(t, f)
    back = linear_conjugate(t_inv, there)
    assert back == f

