"""Property tests for the identities that the normalizing pipeline leans on.

Every expected value comes from ``certify.py``, the standard-library
certificate that CI runs on the goldens, so a fault in the package's
arithmetic never sits on both sides of a comparison.  Its scalars are
pairs of ``Fraction`` (``add``, ``neg``, ``mul``, ``inverse``), its
polynomials dicts of such pairs (``product``, ``derivative``,
``derivation``, ``bracket``, ``substitute``), and it has ``rank``,
``kernel_dimension``, ``resonant_pairs``, ``matrix_inverse``,
``origin_in_hull``, ``family_cells`` and the checks
``certify_centralizer`` and ``certify_suspend``.  A polynomial reaches
them through ``read_poly``, which reads its printed term entries
(``fieldfile.component_terms``) back with ``certify.components``, and a
scalar through ``read_scalar``, which parses its printed text.  The one
reference kept here is ``ref_str``, for the printer that certify lacks.

* A ``NearIdentityMap`` is the field of its component polynomials: it
  equals and hashes like that ``PolyVectorField``, rebuilding it from
  them gives the same map, the linear part of its inverse is certify's
  Gauss-Jordan inverse of L, and composition is associative.
* ``invert_to_order`` and ``pull_back`` refuse a singular linear part
  with ``SingularLinearPartError`` before any other work: the map's
  monomial table stays empty.
* ``invert_to_order`` is a two-sided inverse through the truncation order,
  both when L = I, the only linear part ``normalize`` inverts, and when
  the linear part is neither the identity nor diagonal, so that every
  graded pass runs under a mixing L^-1.  Both this property and the
  ``pull_back`` one below check against certify's term-by-term
  substitution, not against ``substitute`` or ``compose``, which share
  their monomial chain with the inversion and feed the pull-back.
* ``pull_back`` solves its defining equation DPhi(y) g(y) = f(Phi(y))
  through the truncation order, checked with certify's derivation and
  substitution alone, for fields with a linear part and sometimes a
  constant one, pulled back along maps with L = I and h over several
  degrees, as in every ``normalize`` step, and along non-diagonal maps.
* A map keeps the monomials that substitutions of its components at its
  own order have built, and ``pull_back`` and ``compose`` share them: a
  step x + h pulled back and then composed gives what two fresh, equal
  maps give, and a pull-back below the step's order neither reads nor
  changes them.
* ``normalize`` returns both directions of one map: its ``inverse`` is
  the truncated inverse of its ``transformation``, and pulling the input
  back along it gives the normal form, whose spectrum is the input's.
* ``PolyVectorField.spectrum`` is None exactly when some printed
  component has a constant term or a degree-1 term off the diagonal, and
  otherwise the diagonal of the linear part, also after ``truncated``.
* ``apply_derivation`` and ``lie_bracket``, which pay only for the
  indices k where f_k and d(phi)/dx_k both have terms, equal certify's
  ``derivation`` and ``bracket``, which sum over every k, on fields with
  zero components, monomial fields x^m e_j and phi zero or constant;
  ``partial`` equals certify's ``derivative``.
* ``centralizer_basis`` builds the column of each unknown x^m e_j from
  the partials d_j(-f_hat_i), taken once per solve, and X_f_hat(x^m); at
  every bound its basis, restricted and unrestricted, is one set that
  ``certify_centralizer`` accepts: elements that commute with the normal
  form, independent, as many as certify's ``kernel_dimension`` finds over
  the resonant unknowns.  ``CentralizerBasis.linear_dimension``, read off
  that system, is the dimension of the linear fields commuting with the
  normal form, which ``kernel_dimension`` finds from the degree-1
  resonant unknowns alone.
* ``condition_a`` returns no witness only when F = alpha * Ax through
  the order, checked with certify's ``product``, which is why it builds
  no residual; on normal forms of the form alpha * Ax, of random
  resonant terms or of both, a witness (m, j, j') with j != j' names
  components whose coefficients at x^(m+e_j) over lambda_j differ, and
  one with j = j' a zero lambda_j under a term or an undivided term.
* ``nullspace`` returns the same basis whatever the order of its rows.
* ``add_scaled``, through which every coefficient sum of the kernel runs,
  is the sum certify's ``accumulate`` builds, zeros dropped, and never
  stores a zero.
* ``GaussianRational`` arithmetic on integer triples agrees with
  certify's pairs of ``Fraction`` parts, also against int and Fraction
  operands, and leaves every result canonical; a factor of exactly 1, on
  either side, gives back an equal canonical value.
* ``resonant_pairs``, the one resonance enumerator, lists each pair that
  certify's scan over all exponent tuples finds, once, in order of
  degree, exponents and component.
* ``kernel_dimension_at_degree``, which sums multisets of eigenvalues
  instead of walking exponent tuples, counts as many pairs at each degree
  1-8 as certify's scan finds, for spectra of 1-4 eigenvalues with
  repeated, zero and non-real ones among them.
* ``poincare_domain``, a half-plane test on integer points, is True
  exactly when certify's ``origin_in_hull`` (Caratheodory's theorem:
  0 is an eigenvalue, on a segment of two, or in a triangle of three)
  finds 0 outside the hull of 1-5 eigenvalues, among them zero,
  repeated, opposite and collinear ones.
* ``PolyScalar.substitute`` with one monomial table shared by several
  polynomials agrees with certify's term-by-term expansion, and every
  monomial in the table is the power product it stands for, also for
  near-identity values with Gaussian coefficients over distinct
  denominators, where the sums on numerators merge with kept terms.  Values
  x_i + w_i with every w_i of degree >= v leave each monomial of degree
  above N - v + 1 as it is through the order N, so such monomials never
  enter the table; values one change away from that form (x_i doubled, a
  cross term, a constant, a zero value, another dimension) still agree
  with the expansion.
* ``PolyScalar.__mul__``, which stops each row at the order, equals
  certify's product of operands of different orders, with terms past the
  smaller order and coefficients 1, -1, i and general complex values.
* Products, substitutions, derivatives, negations and sums, which skip
  the checks of ``PolyScalar.__init__``, are canonical: the public
  constructor gives the same terms back.  A sum or difference of
  operands of different orders is what the public constructor makes of
  the summed terms at the smaller order.  ``degree_part``,
  ``degree_range`` and ``truncated``, which skip them too, give the terms
  and order that the public constructor gives on the same terms.
* ``Series``, the graded storage of the inversion and the pull-back,
  agrees with certify: its product part at every degree, its linear
  combinations with complex coefficients over mixed denominators (also
  when they cancel to nothing), and the round trip from and back to
  terms, with exponents equal to the order.  Every part it returns is
  reduced and holds no cancelled entry.
* A family is held as its suspension: a family document in the form
  ``family_to_dict`` writes, with n 1-3, p 0-2 and order 1-3, comes back
  byte for byte through ``family_from_dict``, and ``certify_suspend``
  accepts the document that ``suspend`` gives.  Its ``eigenvalues`` are
  the constant terms of the diagonal cells that certify's
  ``family_cells`` reads, zero where a cell has none, and the
  coefficients of x_i in component i of the suspension, also with no
  parameters.
"""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import dump_document
from dulac.bifurcation import suspend
from dulac.centralizer import centralizer_basis
from dulac.diagnostics import condition_a
from dulac.errors import SingularLinearPartError
from dulac.fieldfile import (component_terms, family_from_dict,
                             family_to_dict, field_to_dict, term_list)
from dulac.linalg import mat_det, nullspace
from dulac.maps import NearIdentityMap, pull_back
from dulac.normalizer import normalize
from dulac.poly import (
    PolyScalar,
    PolyVectorField,
    Series,
    Spectrum,
    apply_derivation,
    grlex_key,
    lie_bracket,
    linear_field,
)
from dulac.resonance import (kernel_dimension_at_degree, poincare_domain,
                             resonant_pairs)
from dulac.scalars import ONE, ZERO, GaussianRational, add_scaled

import certify
from oracle import step_map

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.too_slow])

small_ints = st.integers(min_value=-2, max_value=2)
scalars = st.builds(
    lambda re, den, im: GaussianRational(Fraction(re, den), im),
    small_ints, st.integers(min_value=1, max_value=3), small_ints)
nonzero_scalars = scalars.filter(bool)


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


def _dim_and_order(draw, dim, max_order):
    dim = dim or draw(st.integers(min_value=2, max_value=4))
    # dense dim-4 maps at order 6 cost seconds per example to compose
    order = draw(st.integers(min_value=2,
                             max_value=max_order or (6 if dim < 4 else 5)))
    return dim, order


@st.composite
def near_identity_maps(draw, dim=None, max_order=None):
    """Lx + h(x) with L invertible, non-diagonal, and h nonzero."""
    dim, order = _dim_and_order(draw, dim, max_order)
    linear = [[GaussianRational(draw(small_ints)) for _ in range(dim)]
              for _ in range(dim)]
    assume(any(linear[i][j] for i in range(dim) for j in range(dim) if i != j))
    assume(mat_det(linear))
    h = PolyVectorField.from_terms(dim, order, draw(terms(dim, 2, order, 3)))
    assume(not h.is_zero())
    return linear_plus(linear, h)


@st.composite
def identity_linear_maps(draw):
    """x + h(x), as every map that ``normalize`` builds, with h nonzero:
    terms of degree 2 and, from order 3, of a higher degree too."""
    dim, order = _dim_and_order(draw, None, None)
    h_terms = draw(terms(dim, 2, 2, 2))
    if order >= 3:
        h_terms += draw(terms(dim, 3, order, 3))
    h = PolyVectorField.from_terms(dim, order, h_terms)
    assume(not h.is_zero())
    return linear_plus([[GaussianRational(int(i == j)) for j in range(dim)]
                        for i in range(dim)], h)


# L = I about one map in three, a non-diagonal L otherwise
mixed_linear_maps = st.integers(0, 2).flatmap(
    lambda k: identity_linear_maps() if k == 0 else near_identity_maps())


def linear_plus(linear, h):
    """The map whose component i is row i of L times x, plus h_i."""
    return NearIdentityMap([
        sum((PolyScalar.variable(h.dim, h.order, j) * c
             for j, c in enumerate(row)), h_i)
        for row, h_i in zip(linear, h.components)])


@st.composite
def diagonal_fields(draw):
    """Ax + F with an integer spectrum (resonances included), F of degree >= 2."""
    dim = draw(st.integers(min_value=2, max_value=3))
    order = draw(st.integers(min_value=2, max_value=5))
    spectrum = Spectrum(draw(st.lists(st.integers(-3, 3),
                                      min_size=dim, max_size=dim)))
    f = PolyVectorField.from_terms(dim, order, draw(terms(dim, 2, order, 4)))
    return f + linear_field(spectrum, order)


@st.composite
def resonant_fields(draw):
    """Ax + F whose spectrum has resonances or repeated eigenvalues.

    Zero eigenvalues make some centralizer elements mix linear and
    nonlinear terms, the case a count by lowest degree gets wrong.
    """
    values = draw(st.sampled_from([(1, 1, -2), (1, -1), (1, 2), (0, 0),
                                   (0, 0, 1), (1, -1, 0)]))
    dim = len(values)
    order = draw(st.integers(min_value=3, max_value=6))
    spectrum = Spectrum(values)
    # terms of degree 2 and 3 meet in the brackets already at bound 3
    f = (PolyVectorField.from_terms(dim, order, draw(terms(dim, 2, 3, 4)))
         + PolyVectorField.from_terms(dim, order,
                                      draw(terms(dim, 2, order, 2))))
    return f + linear_field(spectrum, order)


def read_poly(poly):
    """The polynomial as certify holds it, read from its printed term
    entries; every entry must come through, so a stored zero or a term
    past the order fails here."""
    entries = component_terms(poly, 0)
    out = certify.components(entries, 1, poly.order)[0]
    assert len(out) == len(entries)
    return out


def read_field(field):
    return [read_poly(c) for c in field.components]


def read_scalar(value):
    return certify.parse_scalar(str(value))


def read_matrix(matrix):
    return [[read_scalar(c) for c in row] for row in matrix]


def read_substitute(polys, values, order):
    """certify's ``substitute`` of polynomials into values over a number of
    variables of their own: certify needs as many variables as values, so
    both are padded with unused ones and the results cut back."""
    vdim = values[0].dim
    width = max(len(values), vdim)

    def padded(p):
        return {e + (0,) * (width - len(e)): c
                for e, c in read_poly(p).items()}

    out = certify.substitute([padded(p) for p in polys],
                             [padded(v) for v in values]
                             + [{}] * (width - len(values)), order)
    return [{e[:vdim]: c for e, c in comp.items()} for comp in out]


@PROPERTY_SETTINGS
@given(mixed_linear_maps)
def test_invert_to_order_is_a_two_sided_inverse(psi):
    phi = psi.invert_to_order()
    assert phi.order == psi.order
    identity = [{certify.unit(psi.dim, i): certify.ONE}
                for i in range(psi.dim)]
    for outer, inner in ((psi, phi), (phi, psi)):
        assert certify.substitute(read_field(outer), read_field(inner),
                                  psi.order) == identity


@PROPERTY_SETTINGS
@given(near_identity_maps())
def test_map_is_its_components_with_the_inverse_linear_part(psi):
    assert NearIdentityMap(psi.components) == psi
    assert read_matrix(psi.invert_to_order().linear_matrix()) == \
        certify.matrix_inverse(read_matrix(psi.linear_matrix()))


@PROPERTY_SETTINGS
@given(near_identity_maps())
def test_map_equals_and_hashes_like_the_field_of_its_components(psi):
    field = PolyVectorField(psi.components)
    assert psi == field and field == psi
    assert hash(psi) == hash(field)


@st.composite
def singular_maps(draw):
    """Lx + h(x) with L singular: its last row is a multiple of its first,
    zero included; h of degree >= 2, sometimes zero."""
    dim = draw(st.integers(min_value=2, max_value=3))
    order = draw(st.integers(min_value=2, max_value=4))
    linear = [[GaussianRational(draw(small_ints)) for _ in range(dim)]
              for _ in range(dim - 1)]
    multiple = draw(small_ints)
    linear.append([c * multiple for c in linear[0]])
    h = PolyVectorField.from_terms(dim, order, draw(terms(dim, 2, order, 3)))
    return linear_plus(linear, h)


@PROPERTY_SETTINGS
@given(singular_maps(), st.data())
def test_solves_refuse_a_singular_linear_part_before_any_work(psi, data):
    with pytest.raises(SingularLinearPartError):
        psi.invert_to_order()
    f = data.draw(linear_part_fields(psi.dim, psi.order))
    with pytest.raises(SingularLinearPartError):
        pull_back(psi, f)
    # refused before the substitution: no monomial of the map was built
    assert psi._table == {}


@st.composite
def linear_part_fields(draw, dim, order):
    """A field with a nonzero, generally non-diagonal linear part; about
    one in three also has a constant term."""
    linear = [(i, tuple(int(k == j) for k in range(dim)), draw(small_ints))
              for i in range(dim) for j in range(dim)]
    assume(any(c for _, _, c in linear))
    nonlinear = draw(terms(dim, 2, order, 4)) if order >= 2 else []
    if draw(st.integers(0, 2)) == 0:
        nonlinear.append((draw(st.integers(0, dim - 1)), (0,) * dim,
                          draw(scalars)))
    return PolyVectorField.from_terms(dim, order, linear + nonlinear)


@st.composite
def pull_back_cases(draw):
    """A map, with L = I about one time in three and non-diagonal
    otherwise, and a field with a linear part, of order <= the map's;
    about one field in three also has a constant term."""
    phi = draw(mixed_linear_maps)
    order = draw(st.integers(min_value=1, max_value=phi.order))
    return phi, draw(linear_part_fields(phi.dim, order))


@PROPERTY_SETTINGS
@given(pull_back_cases())
def test_pull_back_solves_its_defining_equation(case):
    phi, f = case
    g = pull_back(phi, f)
    order = min(phi.order, f.order)
    assert (g.dim, g.order) == (f.dim, order)
    # component i of DPhi(y) g(y) is X_g(phi_i); Phi is an exact
    # polynomial, so DPhi is exact at every degree, also where a constant
    # part of g meets it
    comps = read_field(phi)
    assert [certify.derivation(read_field(g), comp, order)
            for comp in comps] == certify.substitute(read_field(f), comps,
                                                     order)


@st.composite
def step_cases(draw):
    """A normalizing step x + h, h nonzero of degree >= 2, as in
    ``normalize``; a map of at most its order to compose with it; a field
    at its order; and an order below it."""
    dim = draw(st.integers(min_value=2, max_value=3))
    order = draw(st.integers(min_value=2, max_value=5))
    h = PolyVectorField.from_terms(dim, order, draw(terms(dim, 2, order, 4)))
    assume(not h.is_zero())
    phi = draw(near_identity_maps(dim, order))
    f = draw(linear_part_fields(dim, order))
    return (step_map(h), phi, f,
            draw(st.integers(min_value=1, max_value=order - 1)))


@PROPERTY_SETTINGS
@given(step_cases())
def test_pull_back_and_compose_share_a_steps_monomials(case):
    # as in normalize: the compose reads the monomials the pull-back built
    step, phi, f, _ = case
    g = pull_back(step, f)
    composed = phi.compose(step)
    assert g == pull_back(NearIdentityMap(step.components), f)
    assert composed == phi.compose(NearIdentityMap(step.components))


@PROPERTY_SETTINGS
@given(step_cases())
def test_pull_back_below_a_steps_order_leaves_its_monomials(case):
    step, _, f, low = case
    pull_back(step, f)
    built = dict(step._table)
    assert built
    g = f.truncated(low)
    assert pull_back(step, g) == pull_back(NearIdentityMap(step.components), g)
    assert step._table == built


@PROPERTY_SETTINGS
@given(st.integers(min_value=2, max_value=3).flatmap(
    lambda dim: st.lists(near_identity_maps(dim, 5), min_size=3, max_size=3)))
def test_compose_is_associative(maps):
    a, b, c = maps
    assert a.compose(b.compose(c)) == a.compose(b).compose(c)


@PROPERTY_SETTINGS
@given(diagonal_fields())
def test_normalize_returns_both_directions_of_one_map(f):
    result = normalize(f, f.order)
    assert result.inverse == result.transformation.invert_to_order()
    assert pull_back(result.inverse, f) == result.normal_form
    # each step x = y + h_k(y) has degree k >= 2: the linear part stays
    assert result.normal_form.spectrum == f.spectrum is not None


@st.composite
def low_degree_fields(draw):
    """Ax + F with F drawn from degree 0 up, so some fields gain a constant
    or a degree-1 term on or off the diagonal; with a cut order from 1 to
    the field's order."""
    dim = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.integers(min_value=1, max_value=4))
    spectrum = Spectrum(draw(st.lists(scalars, min_size=dim, max_size=dim)))
    f = linear_field(spectrum, order) + PolyVectorField.from_terms(
        dim, order, draw(terms(dim, 0, order, 3)))
    return f, draw(st.integers(min_value=1, max_value=order))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(low_degree_fields())
def test_spectrum_is_the_diagonal_of_a_diagonal_linear_part(case):
    f, cut = case
    comps = read_field(f)
    units = [certify.unit(f.dim, i) for i in range(f.dim)]
    diagonal = all(e == units[i] for i, comp in enumerate(comps)
                   for e in comp if sum(e) <= 1)
    expected = ([comp.get(u, certify.ZERO) for comp, u in zip(comps, units)]
                if diagonal else None)
    for field in (f, f.truncated(cut)):
        spectrum = field.spectrum
        assert expected == (None if spectrum is None
                            else [read_scalar(v) for v in spectrum])


@PROPERTY_SETTINGS
@given(resonant_fields())
def test_linear_dimension_is_the_linear_centralizer(f):
    fhat = normalize(f, f.order).normal_form
    for degree_bound in range(1, f.order + 1):
        eigenvalues, work = certify.input_field(field_to_dict(fhat),
                                                degree_bound)
        linear = certify.resonant_pairs([eigenvalues], 1, 1)
        assert centralizer_basis(fhat, degree_bound).linear_dimension == \
            certify.kernel_dimension(work, linear, degree_bound)


@PROPERTY_SETTINGS
@given(resonant_fields())
def test_centralizer_columns_match_whole_brackets(f):
    fhat = normalize(f, f.order).normal_form
    document = field_to_dict(fhat)
    for degree_bound in range(1, f.order + 1):
        restricted = centralizer_basis(fhat, degree_bound).elements
        unrestricted = centralizer_basis(
            fhat, degree_bound, restrict_to_kernel=False).elements
        assert set(restricted) == set(unrestricted)
        report = {"degree": degree_bound, "dimension": len(restricted),
                  "elements": [{"terms": term_list(g.components)}
                               for g in restricted]}
        assert certify.certify_centralizer(document, report) is None


@st.composite
def condition_a_cases(draw):
    """(Ax + F, proportional): a normal form whose F is alpha * Ax for a
    first integral alpha of Ax (proportional), or random resonant terms,
    or the sum of both.  The spectra are those of ``resonant_fields``."""
    values = draw(st.sampled_from([(1, 1, -2), (1, -1), (1, 2), (0, 0),
                                   (0, 0, 1), (1, -1, 0)]))
    dim = len(values)
    order = draw(st.integers(min_value=2, max_value=6))
    resonant = sorted(certify.resonant_pairs(
        [[certify.parse_scalar(v) for v in values]], order))
    # m - e_j of a resonant pair (m, j) with m_j > 0 has weight zero
    integrals = sorted({m[:j - 1] + (m[j - 1] - 1,) + m[j:]
                        for m, j in resonant if m[j - 1]})
    kind = draw(st.sampled_from(["proportional", "resonant", "both"]))
    lin = linear_field(Spectrum(values), order)
    field = lin
    if kind != "resonant" and integrals:
        alpha = PolyScalar(dim, order, {
            m: draw(nonzero_scalars) for m in draw(st.lists(
                st.sampled_from(integrals), min_size=1, max_size=3,
                unique=True))})
        field = field + lin.scalar_mul(alpha)
    if kind != "proportional" and resonant:
        field = field + PolyVectorField.from_terms(dim, order, [
            (j - 1, m, draw(nonzero_scalars)) for m, j in draw(st.lists(
                st.sampled_from(resonant), min_size=1, max_size=3,
                unique=True))])
    return field, kind == "proportional"


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(condition_a_cases())
def test_condition_a_finds_a_witness_or_alpha_times_the_linear_part(case):
    fhat, proportional = case
    result = condition_a(fhat)
    order, dim = fhat.order, fhat.dim
    lam = [read_scalar(v) for v in fhat.spectrum]
    nonlinear = read_field(fhat.nonlinear_part())
    if result.witness is None:
        # F = alpha * Ax through the order, term by term
        assert result.satisfied
        alpha = read_poly(result.alpha)
        assert nonlinear == [
            certify.product(alpha, {certify.unit(dim, j): lam[j]}, order)
            for j in range(dim)]
        return
    assert not result.satisfied and not proportional
    m, j, k = result.witness

    def coefficient(comp):
        target = tuple(e + (i == comp - 1) for i, e in enumerate(m))
        return nonlinear[comp - 1].get(target, certify.ZERO)

    if j != k:
        # the named components need different alpha_m
        assert (certify.mul(coefficient(j), certify.inverse(lam[j - 1]))
                != certify.mul(coefficient(k), certify.inverse(lam[k - 1])))
    elif m[j - 1] == 0 and m in nonlinear[j - 1]:
        pass  # a term of component j without an x_j factor
    else:
        assert lam[j - 1] == certify.ZERO
        assert coefficient(j) != certify.ZERO


@st.composite
def sparse_fields(draw, dim):
    """A field at an order of its own: about half the time a monomial
    field c x^m e_j, else components that are each often zero."""
    order = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        exps = [0] * dim
        for var in draw(st.lists(st.integers(0, dim - 1),
                                 min_size=1, max_size=order)):
            exps[var] += 1
        return PolyVectorField.from_terms(dim, order, [
            (draw(st.integers(0, dim - 1)), tuple(exps),
             draw(nonzero_scalars))])
    zero = PolyScalar.zero(dim, order)
    return PolyVectorField([
        draw(st.one_of(st.just(zero), polys(dim, order, min_degree=1)))
        for _ in range(dim)])


@st.composite
def derivation_cases(draw):
    """Two sparse fields and a phi that is zero, constant or drawn, all
    of one dimension and each at an order of its own."""
    dim = draw(st.integers(min_value=1, max_value=4))
    order = draw(st.integers(min_value=0, max_value=6))
    phi = draw(st.one_of(
        st.just(PolyScalar.zero(dim, order)),
        scalars.map(lambda c: PolyScalar.constant(dim, order, c)),
        polys(dim, order)))
    return draw(sparse_fields(dim)), draw(sparse_fields(dim)), phi


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(derivation_cases())
def test_derivations_match_a_dense_reference(case):
    f, g, phi = case
    for k in range(phi.dim):
        got = phi.partial(k)
        assert got.order == max(phi.order - 1, 0)
        assert read_poly(got) == certify.derivative(read_poly(phi), k)
        assert_canonical(got)
    for field in (f, g):
        got = apply_derivation(field, phi)
        order = min(field.order, phi.order)
        assert got.order == order
        assert read_poly(got) == certify.derivation(read_field(field),
                                                    read_poly(phi), order)
        assert_canonical(got)
    order = min(f.order, g.order)
    bracket = lie_bracket(f, g)
    assert all(c.order == order for c in bracket.components)
    assert read_field(bracket) == certify.bracket(read_field(f), read_field(g),
                                                  order)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda ncols: st.tuples(
    st.just(ncols),
    st.lists(st.dictionaries(st.integers(0, ncols - 1), nonzero_scalars,
                             min_size=1, max_size=3), max_size=6))),
    st.randoms(use_true_random=False))
def test_nullspace_does_not_depend_on_row_order(system, rng):
    ncols, rows = system
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert nullspace(shuffled, ncols) == nullspace(rows, ncols)


# Few keys and values that cancel one another, so that sums often hit zero.
cancelling = st.sampled_from([GaussianRational(v) for v in
                              (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))]
                             + [GaussianRational(0, 1), GaussianRational(0, -1)])
sparse_terms = st.dictionaries(st.sampled_from([(0, 1), (1, 0), (1, 1)]),
                               cancelling, max_size=3)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(sparse_terms,
       st.lists(st.tuples(sparse_terms, st.none() | cancelling), max_size=4))
def test_add_scaled_is_the_sum_without_zeros(start, steps):
    acc = dict(start)
    expected = {key: read_scalar(value) for key, value in start.items()}
    for terms, factor in steps:
        add_scaled(acc, terms, factor)
        for key, value in terms.items():
            scaled = read_scalar(value)
            if factor is not None:
                scaled = certify.mul(read_scalar(factor), scaled)
            certify.accumulate(expected, key, scaled)
    assert {key: read_scalar(value) for key, value in acc.items()} == expected
    assert all(acc.values())


def ref_str(x):
    """The text of a certify pair, as the package prints it."""
    re, im = x
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    return f"{re}+{im}*i" if im > 0 else f"{re}-{-im}*i"


def assert_matches(value, expected):
    """``value`` is the canonical triple of the certify pair ``expected``."""
    assert type(value) is GaussianRational
    re, im, den = value._t
    assert all(type(n) is int for n in (re, im, den))
    assert den > 0 and math.gcd(re, im, den) == 1
    assert (Fraction(re, den), Fraction(im, den)) == expected
    assert (value.real, value.imag) == expected
    assert bool(value) == bool(expected[0] or expected[1])
    assert str(value) == ref_str(expected)


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
# general, purely real, purely imaginary and zero values
pairs = st.one_of(st.tuples(rationals, rationals),
                  st.tuples(rationals, st.just(Fraction(0))),
                  st.tuples(st.just(Fraction(0)), rationals),
                  st.just((Fraction(0), Fraction(0))))
gaussians = pairs.map(lambda p: (GaussianRational(*p), p))
# operands as the kernel meets them: Gaussian rationals, ints, Fractions
operands = st.one_of(
    gaussians,
    st.integers(-6, 6).map(lambda n: (n, (Fraction(n), Fraction(0)))),
    rationals.map(lambda q: (q, (q, Fraction(0)))))


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(gaussians, operands)
def test_gaussian_rational_matches_a_fraction_pair(x, y):
    (gx, rx), (oy, ry) = x, y
    add, mul, neg, inverse = (certify.add, certify.mul, certify.neg,
                              certify.inverse)
    assert_matches(gx, rx)
    assert_matches(gx + oy, add(rx, ry))
    assert_matches(oy + gx, add(rx, ry))
    assert_matches(gx - oy, add(rx, neg(ry)))
    assert_matches(oy - gx, add(ry, neg(rx)))
    assert_matches(gx * oy, mul(rx, ry))
    assert_matches(oy * gx, mul(rx, ry))
    assert_matches(-gx, neg(rx))
    if ry != certify.ZERO:
        assert_matches(gx / oy, mul(rx, inverse(ry)))
    if rx != certify.ZERO:
        assert_matches(gx.inverse(), inverse(rx))
        assert_matches(oy / gx, mul(ry, inverse(rx)))
    else:
        with pytest.raises(ZeroDivisionError):
            gx.inverse()
    assert (gx == oy) == (rx == ry)
    assert (oy == gx) == (rx == ry)
    assert (gx != oy) == (rx != ry)
    if rx == ry:
        assert hash(gx) == hash(oy)


# eigenvalues as (real, imaginary) parts: 0, +-1, +-2, 1/2, +-i
EIGENVALUES = [(Fraction(re), Fraction(im)) for re, im in (
    (0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0), (Fraction(1, 2), 0),
    (0, 1), (0, -1))]
spectrum_lists = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from(EIGENVALUES), min_size=n, max_size=n),
    min_size=1, max_size=2))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(spectrum_lists, st.integers(0, 5), st.integers(0, 5))
def test_resonant_pairs_match_a_naive_scan(spectra, low, high):
    as_spectra = [Spectrum(GaussianRational(*lam) for lam in spec)
                  for spec in spectra]
    got = resonant_pairs(as_spectra, low, high)
    assert got == sorted(set(got), key=lambda pair: (sum(pair[0]), pair))
    assert {(exps, j + 1) for exps, j in got} == \
        certify.resonant_pairs(spectra, high, low)


# repeated, zero and non-real eigenvalues, also with both parts nonzero
COUNTED_EIGENVALUES = EIGENVALUES + [(Fraction(1), Fraction(1)),
                                     (Fraction(1, 2), Fraction(-1))]


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(st.lists(st.sampled_from(COUNTED_EIGENVALUES), min_size=1,
                max_size=4), st.integers(1, 8))
@example([(Fraction(0), Fraction(0))] * 3, 8)     # every pair resonates
@example([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)),
          (Fraction(0), Fraction(1))], 5)
def test_kernel_dimension_at_degree_counts_the_resonant_pairs(values,
                                                              degree):
    spectrum = Spectrum(GaussianRational(*lam) for lam in values)
    assert kernel_dimension_at_degree(spectrum, degree) == \
        len(certify.resonant_pairs([values], degree, degree))


def hull_points(*values):
    return [(Fraction(re), Fraction(im)) for re, im in values]


# zero, opposite values, and values on lines through 0 and off them
HULL_POINTS = hull_points(
    (0, 0), (1, 0), (-1, 0), (2, 0), (Fraction(1, 2), 0), (0, 1), (0, -1),
    (1, 1), (-1, -1), (2, 2), (1, -1), (-2, 1), (1, 2))


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(HULL_POINTS), pairs),
                min_size=1, max_size=5))
@example(hull_points((0, 0)))
@example(hull_points((1, 1), (1, 1)))                   # repeated
@example(hull_points((1, 1), (-1, -1)))                 # opposite
@example(hull_points((2, 1), (4, 2), (Fraction(1, 2), Fraction(1, 4))))
@example(hull_points((1, 1), (1, -1), (1, 2)))          # a line off 0
@example(hull_points((-1, 0), (1, 0), (0, 1)))          # 0 on an edge
def test_poincare_domain_matches_a_caratheodory_test(values):
    spectrum = Spectrum(GaussianRational(*value) for value in values)
    assert poincare_domain(spectrum) is not certify.origin_in_hull(values)


@st.composite
def polys(draw, dim, order, min_degree=0, max_terms=4, coefficients=scalars):
    """A PolyScalar with up to ``max_terms`` terms of degree >= min_degree."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        degree = draw(st.integers(min_value=min_degree, max_value=order))
        exps = [0] * dim
        for var in draw(st.lists(st.integers(0, dim - 1),
                                 min_size=degree, max_size=degree)):
            exps[var] += 1
        terms[tuple(exps)] = draw(coefficients)
    return PolyScalar(dim, order, terms)


# both parts over their own denominators, so products of two such
# coefficients summed at one key seldom share a denominator
gaussian_scalars = st.builds(
    lambda re, re_den, im, im_den: GaussianRational(Fraction(re, re_den),
                                                    Fraction(im, im_den)),
    small_ints, st.integers(1, 6), small_ints, st.integers(1, 6))


@st.composite
def substitutions(draw):
    """Values for ``dim`` variables, each at its own truncation order, and
    several polynomials of one order to substitute them into, the zero
    polynomial last.

    About one draw in three takes near-identity values x_i + w_i, every
    w_i of lowest degree >= 2, and Gaussian coefficients over distinct
    denominators throughout: the monomials above the built degree are then
    kept, and merge with the sums of the built ones.  Otherwise the values
    are general, over a number of variables of their own, and about one in
    three has a constant term.
    """
    dim = draw(st.integers(min_value=1, max_value=3))
    values = []
    if draw(st.integers(0, 2)) == 0:
        coefficients = gaussian_scalars
        for i in range(dim):
            value_order = draw(st.integers(2, 5))
            values.append(PolyScalar.variable(dim, value_order, i) + draw(
                polys(dim, value_order, min_degree=2,
                      coefficients=coefficients)))
    else:
        coefficients = scalars
        vdim = draw(st.integers(min_value=1, max_value=3))
        for _ in range(dim):
            value = draw(polys(vdim, draw(st.integers(1, 5)), min_degree=1))
            if draw(st.integers(0, 2)) == 0:
                value = value + draw(scalars.filter(bool))
            values.append(value)
    order = draw(st.integers(min_value=1, max_value=5))
    targets = draw(st.lists(polys(dim, order, max_terms=6,
                                  coefficients=coefficients),
                            min_size=1, max_size=3))
    return values, targets + [PolyScalar.zero(dim, order)]


def assert_canonical(poly):
    """``poly`` has the terms the public constructor would give it."""
    assert all(type(c) is GaussianRational for c in poly.terms.values())
    assert PolyScalar(poly.dim, poly.order, poly.terms).terms == poly.terms


def assert_shared_table_substitutions(values, targets):
    """Substitute ``values`` into every target through one table, check
    each result and each table entry against certify's expansion, and
    return (order of the results, table)."""
    order = min([targets[0].order] + [v.order for v in values])
    table = {}
    for p, expected in zip(targets, read_substitute(targets, values, order)):
        got = p.substitute(values, table)
        assert (got.dim, got.order) == (values[0].dim, order)
        assert read_poly(got) == expected
        assert_canonical(got)
    powers = [PolyScalar(len(exps), targets[0].order, {exps: 1})
              for exps in table]
    assert [read_poly(m) for m in table.values()] == \
        read_substitute(powers, values, order)
    return order, table


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(substitutions())
def test_substitute_with_a_shared_table_matches_a_naive_expansion(case):
    assert_shared_table_substitutions(*case)


NEAR_MISSES = ("coefficient 2", "cross term", "constant", "zero value",
               "other dimension")


@st.composite
def near_identity_substitutions(draw, kind):
    """Values x_i + w_i with every w_i of degree >= v, for v from 2 to the
    order + 1 (all w_i zero there), and two targets of one order; for a
    ``kind`` in ``NEAR_MISSES``, one value is changed out of that form.

    Returns (v, values, targets).  Each value carries the order or one
    more, so the substitution runs at the smallest order drawn.  The
    second target holds x_k^N for the variable k whose value changes, so
    a shortcut taken wrongly changes its result.
    """
    dim = draw(st.integers(min_value=2 if kind == "cross term" else 1,
                           max_value=3))
    order = draw(st.integers(min_value=1, max_value=5))
    v = draw(st.integers(min_value=2, max_value=order + 1))
    vdim = dim + 1 if kind == "other dimension" else dim
    values = []
    for i in range(dim):
        value_order = order + draw(st.integers(0, 1))
        value = PolyScalar.variable(vdim, value_order, i)
        if v <= value_order:
            value = value + draw(polys(vdim, value_order, min_degree=v))
        values.append(value)
    k = draw(st.integers(0, dim - 1))
    if v <= order:
        # the lowest degree is v, unless this term cancels one drawn above
        exps = [0] * vdim
        for var in draw(st.lists(st.integers(0, vdim - 1),
                                 min_size=v, max_size=v)):
            exps[var] += 1
        values[k] = values[k] + PolyScalar(
            vdim, values[k].order, {tuple(exps): draw(scalars.filter(bool))})
    if kind == "coefficient 2":
        values[k] = values[k] + PolyScalar.variable(dim, values[k].order, k)
    elif kind == "cross term":
        other = (k + draw(st.integers(1, dim - 1))) % dim
        values[k] = values[k] + PolyScalar.variable(dim, values[k].order,
                                                    other)
    elif kind == "constant":
        values[k] = values[k] + draw(scalars.filter(bool))
    elif kind == "zero value":
        values[k] = PolyScalar.zero(dim, values[k].order)
    target_order = order + draw(st.integers(0, 1))
    targets = draw(st.lists(polys(dim, target_order), min_size=2,
                            max_size=2))
    top = tuple(order if j == k else 0 for j in range(dim))
    targets[1] = targets[1] + PolyScalar(dim, target_order, {top: 1})
    return v, values, targets


@pytest.mark.parametrize("kind", ("near identity",) + NEAR_MISSES)
def test_near_identity_values_fix_the_monomials_above_the_bound(kind):
    """x^m(x + w) = x^m through the order N when |m| > N - v + 1, so those
    monomials never enter the table; near misses must still come out as
    the naive expansion."""

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(near_identity_substitutions(kind))
    def check(case):
        v, values, targets = case
        order, table = assert_shared_table_substitutions(values, targets)
        if kind == "near identity":
            assert all(sum(exps) <= order - v + 1 for exps in table)

    check()


# 1, -1 and i hit the unit shortcut of GaussianRational.__mul__ and make
# products cancel; the other draws are general complex values
product_coefficients = st.one_of(
    st.sampled_from([GaussianRational(1), GaussianRational(-1),
                     GaussianRational(0, 1), GaussianRational(1, -1)]),
    nonzero_scalars)


@st.composite
def product_operands(draw):
    """Two polynomials over one set of variables whose orders differ by up
    to 3, either one the larger, so the one of larger order often holds
    terms past the product's order."""
    dim = draw(st.integers(min_value=1, max_value=3))
    low = draw(st.integers(min_value=0, max_value=5))
    orders = [low, low + draw(st.integers(0, 3))]
    if draw(st.booleans()):
        orders.reverse()
    return [draw(polys(dim, order, max_terms=6,
                       coefficients=product_coefficients))
            for order in orders]


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(product_operands())
def test_product_matches_a_naive_product(operands):
    a, b = operands
    order = min(a.order, b.order)
    expected = certify.product(read_poly(a), read_poly(b), order)
    for got in (a * b, b * a):
        assert (got.dim, got.order) == (a.dim, order)
        assert read_poly(got) == expected
        assert_canonical(got)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(gaussians, st.sampled_from([ONE, GaussianRational(1), 1, Fraction(1)]))
def test_multiplying_by_exactly_one_keeps_the_value(x, one):
    gx, rx = x
    for product in (gx * one, one * gx):
        assert product == gx
        assert_matches(product, rx)


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(st.integers(min_value=1, max_value=3).flatmap(lambda dim: st.tuples(
    polys(dim, 4), polys(dim, 6), polys(dim, 5, min_degree=1))),
    st.one_of(scalars, st.integers(-2, 2),
              st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))))
def test_products_and_substitutions_are_canonical(polys_, factor):
    a, b, c = polys_
    f = PolyVectorField([c] * c.dim)
    g = PolyVectorField([b] * b.dim)
    for result in (a * b, b * a, a * a, a * factor, b * factor,
                   a.substitute([c] * a.dim),
                   b.substitute([c] * b.dim, {}),
                   a.partial(0), -a, -c, apply_derivation(f, b),
                   apply_derivation(g, a),
                   *lie_bracket(f, g).components):
        assert_canonical(result)
    # sums wrap their terms unchecked too, at the smaller order: a has
    # order 4 and b order 6
    keys = {*a.terms, *b.terms}
    total = {e: a.coefficient(e) + b.coefficient(e) for e in keys}
    difference = {e: a.coefficient(e) - b.coefficient(e) for e in keys}
    for got, terms in ((a + b, total), (b + a, total), (a - b, difference),
                       (b - a, {e: -c for e, c in difference.items()})):
        assert_canonical(got)
        assert (got.order, got.terms) == (4, PolyScalar(a.dim, 4, terms).terms)


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda dim: polys(dim, 6, max_terms=6)),
    st.integers(0, 7), st.integers(0, 6))
def test_subsets_of_terms_match_the_validating_constructor(p, low, order):
    for got, keep, expected_order in (
            (p.degree_part(low), lambda d: d == low, p.order),
            (p.degree_range(low), lambda d: low <= d, p.order),
            (p.truncated(order), lambda d: True, order)):
        expected = PolyScalar(p.dim, expected_order,
                              {e: c for e, c in p.terms.items()
                               if keep(sum(e))})
        assert (got.order, got.terms) == (expected.order, expected.terms)
    field = PolyVectorField([p] * p.dim)
    assert field.truncated(p.order) is field
    assert field.truncated(order).components == (p.truncated(order),) * p.dim


@st.composite
def series_polys(draw, dim, order):
    """A polynomial through ``order``, sometimes with a term x_k^order, so
    that an exponent reaches the order."""
    p = draw(polys(dim, order, max_terms=5))
    if draw(st.booleans()):
        k = draw(st.integers(0, dim - 1))
        top = tuple(order if i == k else 0 for i in range(dim))
        p = p + PolyScalar(dim, order, {top: draw(scalars.filter(bool))})
    return p


@st.composite
def series_cases(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.integers(min_value=1, max_value=5))
    return dim, order, draw(series_polys(dim, order)), draw(series_polys(dim, order))


def assert_reduced(part):
    """A part holds no (0, 0) entry, has a positive denominator, and the
    denominator and all numerators have gcd 1; None stands for empty."""
    if part is None:
        return
    den, nums = part
    assert den > 0 and nums
    assert all(re or im for re, im in nums.values())
    assert math.gcd(den, *itertools.chain.from_iterable(nums.values())) == 1


def degree_terms(terms, degree):
    return {e: c for e, c in terms.items() if sum(e) == degree}


def read_part(dim, order, degree, part):
    return read_poly(Series(dim, order, [None] * degree + [part]).to_poly())


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(series_cases())
def test_series_product_parts_match_a_naive_product(case):
    dim, order, a, b = case
    left, right = Series.of(a, order), Series.of(b, order)
    expected = certify.product(read_poly(a), read_poly(b), order)
    for degree in range(order + 1):
        part = left.product_part(right, degree)
        assert_reduced(part)
        assert (read_part(dim, order, degree, part)
                == degree_terms(expected, degree))


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(series_cases())
def test_series_round_trip_keeps_the_terms(case):
    dim, order, a, _ = case
    series = Series.of(a, order)
    assert len(series.parts) == (a.max_degree() + 1 if a.terms else 0)
    for degree, part in enumerate(series.parts):
        assert_reduced(part)
        assert (read_part(dim, order, degree, part)
                == degree_terms(read_poly(a), degree))
    back = series.to_poly()
    assert (back.dim, back.order, back.terms) == (dim, order, a.terms)
    assert_canonical(back)
    lower = Series.of(a, order - 1).to_poly()
    assert lower == a.truncated(order - 1)


wide_scalars = st.builds(
    lambda re, den, im, iden: GaussianRational(Fraction(re, den),
                                               Fraction(im, iden)),
    st.integers(-6, 6), st.integers(1, 6), st.integers(-6, 6),
    st.integers(1, 6))


@st.composite
def combination_cases(draw):
    """Coefficients and polynomials for a linear combination of their
    parts at one degree; with ``cancel`` every coefficient comes again
    negated, so the sum is empty."""
    dim = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=1, max_value=4))
    coeffs = draw(st.lists(wide_scalars, min_size=count, max_size=count))
    summands = draw(st.lists(series_polys(dim, order),
                             min_size=count, max_size=count))
    return (dim, order, draw(st.integers(0, order)), coeffs, summands,
            draw(st.booleans()))


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(combination_cases())
def test_series_combinations_match_a_naive_sum(case):
    dim, order, degree, coeffs, summands, cancel = case
    if cancel:
        coeffs = coeffs + [-c for c in coeffs]
        summands = summands + summands
    pairs = []
    expected = {}
    for c, p in zip(coeffs, summands):
        parts = Series.of(p, order).parts
        if c and degree < len(parts) and parts[degree]:
            pairs.append((Series.scalar(c), parts[degree]))
        for exps, value in degree_terms(read_poly(p), degree).items():
            certify.accumulate(expected, exps,
                               certify.mul(read_scalar(c), value))
    part = Series.sum_of_products(pairs)
    assert_reduced(part)
    assert read_part(dim, order, degree, part) == expected
    if cancel:
        assert part is None


def test_series_parts_that_cancel_are_empty():
    x = PolyScalar.variable(2, 3, 0)
    y = PolyScalar.variable(2, 3, 1)
    one = Series.of(x + y, 3)
    # (x + y)(x - y): the two x*y products cancel
    assert one.product_part(Series.of(x - y, 3), 2) == (1, {2: (1, 0), 8: (-1, 0)})
    assert one.product_part(Series.of(x - x, 3), 2) is None
    half = GaussianRational(1, 2)
    assert Series.sum_of_products([(Series.scalar(half), one.parts[1]),
                                   (Series.scalar(-half), one.parts[1])]) is None
    assert Series.sum_of_products([]) is None
    assert Series.scalar(ZERO) is None


def _monomials(dim, low, high):
    """Every exponent tuple over ``dim`` variables of degree low..high."""
    return [e for e in itertools.product(range(high + 1), repeat=dim)
            if low <= sum(e) <= high]


def _some(draw, options):
    """Up to three distinct picks from ``options``, which may be empty."""
    if not options:
        return []
    return draw(st.lists(st.sampled_from(options), unique=True, max_size=3))


def _entry(exps, coeff):
    return {"coeff": str(coeff), "exps": list(exps)}


@st.composite
def family_documents(draw):
    """A family document as ``family_to_dict`` writes it: n 1-3, p 0-2,
    order 1-3, every cell a grlex-sorted list of terms in eta through
    eta-degree ``order`` (no constant off the diagonal), and terms of
    x-degree >= 2 through joint degree ``order``, component by component
    in grlex order."""
    n = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=0, max_value=2))
    order = draw(st.integers(min_value=1, max_value=3))
    matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            exps = _some(draw, _monomials(p, 0 if i == j else 1, order))
            row.append([_entry(e, draw(nonzero_scalars))
                        for e in sorted(exps, key=grlex_key)])
        matrix.append(row)
    terms = []
    candidates = [e for e in _monomials(n + p, 2, order) if sum(e[:n]) >= 2]
    for comp in range(1, n + 1):
        exps = _some(draw, candidates)
        terms += [dict(_entry(e, draw(nonzero_scalars)), comp=comp)
                  for e in sorted(exps, key=grlex_key)]
    return {"dim": n, "order": order,
            "params": {"names": [f"eta{k + 1}" for k in range(p)],
                       "matrix": matrix},
            "terms": terms}


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(family_documents())
def test_family_document_round_trips_through_its_suspension(doc):
    family, var_names, param_names = family_from_dict(doc)
    assert dump_document(family_to_dict(family)) == dump_document(doc)
    # certify builds the suspension from the document alone
    suspended = field_to_dict(suspend(family),
                              list(var_names) + list(param_names))
    assert certify.certify_suspend(doc, suspended) is None


@PROPERTY_SETTINGS
@given(family_documents())
def test_family_eigenvalues_are_the_diagonal_of_a_at_zero(doc):
    # read off the document: the constant term of each diagonal cell, zero
    # when the cell has none
    family, _, _ = family_from_dict(doc)
    cells = certify.family_cells(doc)
    expected = [cells[i][i].get((0,) * family.p, certify.ZERO)
                for i in range(doc["dim"])]
    assert [read_scalar(v) for v in family.eigenvalues()] == expected
    # and the coefficient of x_i in component i of the suspension
    dim = doc["dim"] + family.p
    assert expected == [
        read_poly(family.field.components[i]).get(certify.unit(dim, i),
                                                  certify.ZERO)
        for i in range(doc["dim"])]
