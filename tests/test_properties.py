"""Property tests for the identities that the normalizing pipeline leans on.

* ``invert_to_order`` is a two-sided inverse through the truncation order,
  also when the linear part is neither the identity nor diagonal, so
  that every graded pass runs under a mixing L^-1.
* ``normalize`` returns both directions of one map: its ``inverse`` is
  the truncated inverse of its ``transformation``, and pulling the input
  back along it gives the normal form.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dulac.linalg import mat_det
from dulac.maps import NearIdentityMap, pull_back
from dulac.normalizer import normalize
from dulac.poly import PolyVectorField, Spectrum, linear_field
from dulac.scalars import GaussianRational

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.too_slow])

small_ints = st.integers(min_value=-2, max_value=2)
scalars = st.builds(
    lambda re, den, im: GaussianRational(Fraction(re, den), im),
    small_ints, st.integers(min_value=1, max_value=3), small_ints)


@st.composite
def terms(draw, dim, min_degree, max_degree, max_terms):
    """(component, exponents, coefficient) triples of the given degrees."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        degree = draw(st.integers(min_value=min_degree, max_value=max_degree))
        exps = [0] * dim
        for var in draw(st.lists(st.integers(0, dim - 1),
                                 min_size=degree, max_size=degree)):
            exps[var] += 1
        out.append((draw(st.integers(0, dim - 1)), tuple(exps), draw(scalars)))
    return out


@st.composite
def near_identity_maps(draw):
    """Lx + h(x) with L invertible, non-diagonal, and h nonzero."""
    dim = draw(st.integers(min_value=2, max_value=4))
    # dense dim-4 maps at order 6 cost seconds per example to compose
    order = draw(st.integers(min_value=2, max_value=6 if dim < 4 else 5))
    linear = [[GaussianRational(draw(small_ints)) for _ in range(dim)]
              for _ in range(dim)]
    assume(any(linear[i][j] for i in range(dim) for j in range(dim) if i != j))
    assume(mat_det(linear))
    h = PolyVectorField.from_terms(dim, order, draw(terms(dim, 2, order, 3)))
    assume(not h.is_zero())
    return NearIdentityMap(linear, h)


@st.composite
def diagonal_fields(draw):
    """Ax + F with an integer spectrum (resonances included), F of degree >= 2."""
    dim = draw(st.integers(min_value=2, max_value=3))
    order = draw(st.integers(min_value=2, max_value=5))
    spectrum = Spectrum(draw(st.lists(st.integers(-3, 3),
                                      min_size=dim, max_size=dim)))
    f = PolyVectorField.from_terms(dim, order, draw(terms(dim, 2, order, 4)))
    return (f + linear_field(spectrum, order)).with_spectrum(spectrum)


@PROPERTY_SETTINGS
@given(near_identity_maps())
def test_invert_to_order_is_a_two_sided_inverse(psi):
    phi = psi.invert_to_order()
    assert psi.compose(phi).is_identity()
    assert phi.compose(psi).is_identity()


@PROPERTY_SETTINGS
@given(diagonal_fields())
def test_normalize_returns_both_directions_of_one_map(f):
    result = normalize(f, f.order)
    assert result.inverse == result.transformation.invert_to_order()
    assert pull_back(result.inverse, f) == result.normal_form
