"""Property tests for the identities that the normalizing pipeline leans on.

* A ``NearIdentityMap`` is its component polynomials: rebuilding it
  from them gives the same map, its stored ``linear_inverse`` is L^-1,
  and composition is associative.
* ``invert_to_order`` is a two-sided inverse through the truncation order,
  also when the linear part is neither the identity nor diagonal, so
  that every graded pass runs under a mixing L^-1.  Both this property
  and the ``pull_back`` one below check against a naive term-by-term
  substitution, not against ``substitute`` or ``compose``, which share
  their monomial chain with the inversion and feed the pull-back.
* ``pull_back`` solves its defining equation DPhi(y) g(y) = f(Phi(y))
  through the truncation order, checked with ``partial``, products and
  a naive substitution alone, for non-diagonal maps and fields with a
  linear part and sometimes a constant one.
* ``normalize`` returns both directions of one map: its ``inverse`` is
  the truncated inverse of its ``transformation``, and pulling the input
  back along it gives the normal form, whose spectrum is the input's.
* ``PolyVectorField.spectrum`` is None exactly when some component has a
  constant term or a degree-1 term off the diagonal, and otherwise the
  diagonal of the linear part, also after ``truncated``.
* ``apply_derivation`` and ``lie_bracket``, which pay only for the
  indices k where f_k and d(phi)/dx_k both have terms, equal a dense
  reference that sums f_k * d(phi)/dx_k over every k from plain dicts,
  on fields with zero components, monomial fields x^m e_j and phi zero
  or constant; ``partial`` equals coeff * e term by term.
* ``centralizer_basis`` builds the column of each unknown x^m e_j from
  the partials d_j(-f_hat_i), taken once per solve, and X_f_hat(x^m);
  at every bound its basis, restricted and unrestricted, is the one a
  reference solve finds with the dense reference bracket per unknown.
  ``CentralizerBasis.linear_dimension``, read off that system, is the
  dimension of the linear fields commuting with the normal form, which
  the reference solves for from the degree-1 unknowns alone.
* ``nullspace`` returns the same basis whatever the order of its rows.
* ``add_scaled``, through which every coefficient sum of the kernel runs,
  is the plain sum with the zeros dropped, and never stores a zero.
* ``GaussianRational`` arithmetic on integer triples agrees with a plain
  pair of ``Fraction`` parts, also against int and Fraction operands, and
  leaves every result canonical.
* ``resonant_pairs``, the one resonance enumerator, lists what a naive
  scan over all exponent tuples finds, in the same order.
* ``PolyScalar.substitute`` with one monomial table shared by several
  polynomials agrees with a naive term-by-term expansion, and every
  monomial in the table is the naive power product it stands for.
  Values x_i + w_i with every w_i of degree >= v leave each monomial of
  degree above N - v + 1 as it is through the order N, so such monomials
  never enter the table; values one change away from that form (x_i
  doubled, a cross term, a constant, a zero value, another dimension)
  still agree with the naive expansion.
* Products, substitutions, derivatives and negations, which skip the
  checks of ``PolyScalar.__init__``, are canonical: the public
  constructor gives the same terms back.
* ``Series``, the graded storage of the inversion and the pull-back,
  agrees with plain ``GaussianRational`` dicts: its product part at every
  degree, its linear combinations with complex coefficients over mixed
  denominators (also when they cancel to nothing), and the round trip
  from and back to terms, with exponents equal to the order.  Every part
  it returns is reduced and holds no cancelled entry.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dulac.centralizer import centralizer_basis
from dulac.linalg import identity_matrix, mat_det, nullspace
from dulac.maps import NearIdentityMap, pull_back
from dulac.normalizer import normalize
from dulac.poly import (
    PolyScalar,
    PolyVectorField,
    Series,
    Spectrum,
    apply_derivation,
    enumerate_monomials,
    enumerate_monomials_upto,
    lie_bracket,
    linear_field,
)
from dulac.resonance import resonant_pairs
from dulac.scalars import ZERO, GaussianRational, add_scaled

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


@st.composite
def near_identity_maps(draw, dim=None, max_order=None):
    """Lx + h(x) with L invertible, non-diagonal, and h nonzero."""
    dim = dim or draw(st.integers(min_value=2, max_value=4))
    # dense dim-4 maps at order 6 cost seconds per example to compose
    order = draw(st.integers(min_value=2,
                             max_value=max_order or (6 if dim < 4 else 5)))
    linear = [[GaussianRational(draw(small_ints)) for _ in range(dim)]
              for _ in range(dim)]
    assume(any(linear[i][j] for i in range(dim) for j in range(dim) if i != j))
    assume(mat_det(linear))
    h = PolyVectorField.from_terms(dim, order, draw(terms(dim, 2, order, 3)))
    assume(not h.is_zero())
    # component i is row i of L times x, plus h_i
    return NearIdentityMap([
        sum((PolyScalar.variable(dim, order, j) * linear[i][j]
             for j in range(dim)), h.components[i])
        for i in range(dim)])


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


def dense_partial(phi, k):
    """The terms of d(phi)/dx_k, each coefficient times its exponent."""
    return {exps[:k] + (exps[k] - 1,) + exps[k + 1:]:
            coeff * GaussianRational(exps[k])
            for exps, coeff in phi.terms.items() if exps[k]}


def dense_derivation(f, phi):
    """(order, terms) of X_f(phi): f_k * d(phi)/dx_k summed over every k,
    none skipped, with ``naive_product``."""
    order = min(f.order, phi.order)
    total = {}
    for k, f_k in enumerate(f.components):
        for exps, c in naive_product(f_k.terms, dense_partial(phi, k),
                                     order).items():
            total[exps] = total.get(exps, ZERO) + c
    return order, {exps: c for exps, c in total.items() if c}


def dense_bracket(f, g):
    """(order, terms) of each component X_f(g_i) - X_g(f_i) of [f, g],
    from ``dense_derivation``."""
    out = []
    for f_i, g_i in zip(f.components, g.components):
        order, total = dense_derivation(f, g_i)
        for exps, c in dense_derivation(g, f_i)[1].items():
            total[exps] = total.get(exps, ZERO) - c
        out.append((order, {exps: c for exps, c in total.items() if c}))
    return out


def reference_centralizer(fhat, degree_bound, unknowns):
    """Solve [fhat, g] = 0 through the bound over the given unknowns.

    Each unknown (m, j) stands for x^m e_j, and its column is the dense
    reference bracket with fhat, not the partials and derivation from
    which the solver under test builds it; the kernel comes back as
    fields.
    """
    dim = fhat.dim
    work = fhat.truncated(degree_bound)
    columns = [dense_bracket(work, PolyVectorField.from_terms(
                   dim, degree_bound, [(j, exps, 1)]))
               for exps, j in unknowns]
    rows = {}
    for col, column in enumerate(columns):
        for comp, (_, terms) in enumerate(column):
            for exps, coeff in terms.items():
                rows.setdefault((exps, comp), {})[col] = coeff
    return [PolyVectorField.from_terms(
                dim, degree_bound,
                [(unknowns[col][1], unknowns[col][0], c)
                 for col, c in vec.items()])
            for vec in nullspace(list(rows.values()), len(columns))]


@PROPERTY_SETTINGS
@given(near_identity_maps())
def test_invert_to_order_is_a_two_sided_inverse(psi):
    phi = psi.invert_to_order()
    identity = NearIdentityMap.identity(psi.dim, psi.order)
    for outer, inner in ((psi, phi), (phi, psi)):
        for comp, unit in zip(outer.components, identity.components):
            assert naive_substitute(comp, inner.components) == (
                psi.order, unit.terms)


@PROPERTY_SETTINGS
@given(near_identity_maps())
def test_map_is_its_components_with_the_inverse_linear_part(psi):
    assert NearIdentityMap(psi.components) == psi
    linear = PolyVectorField(psi.components).linear_matrix()
    product = [[sum((x * y for x, y in zip(row, col)), ZERO)
                for col in zip(*psi.linear_inverse)] for row in linear]
    assert product == identity_matrix(psi.dim)


@st.composite
def pull_back_cases(draw):
    """A non-diagonal map and a field with a linear part, of order <= the
    map's; about one field in three also has a constant term."""
    phi = draw(near_identity_maps())
    dim = phi.dim
    order = draw(st.integers(min_value=1, max_value=phi.order))
    linear = [(i, tuple(int(k == j) for k in range(dim)), draw(small_ints))
              for i in range(dim) for j in range(dim)]
    assume(any(c for _, _, c in linear))
    nonlinear = draw(terms(dim, 2, order, 4)) if order >= 2 else []
    if draw(st.integers(0, 2)) == 0:
        nonlinear.append((draw(st.integers(0, dim - 1)), (0,) * dim,
                          draw(scalars)))
    return phi, PolyVectorField.from_terms(dim, order, linear + nonlinear)


@PROPERTY_SETTINGS
@given(pull_back_cases())
def test_pull_back_solves_its_defining_equation(case):
    phi, f = case
    g = pull_back(phi, f)
    order = min(phi.order, f.order)
    assert (g.dim, g.order) == (f.dim, order)
    comps = [c.truncated(order) for c in phi.components]
    for i, comp in enumerate(phi.components):
        # Phi is an exact polynomial, so DPhi is exact at every degree,
        # also where a constant part of g meets it.
        lhs = PolyScalar.zero(f.dim, order)
        for j, g_j in enumerate(g.components):
            lhs = lhs + PolyScalar(f.dim, order, comp.partial(j).terms) * g_j
        assert (lhs.order, lhs.terms) == naive_substitute(f.components[i],
                                                          comps)


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
    matrix = f.linear_matrix()
    diagonal = (
        all(not c.coefficient((0,) * f.dim) for c in f.components)
        and all(not matrix[i][j] for i in range(f.dim)
                for j in range(f.dim) if i != j))
    expected = (Spectrum(matrix[i][i] for i in range(f.dim)) if diagonal
                else None)
    assert f.spectrum == expected
    assert f.truncated(cut).spectrum == expected


@PROPERTY_SETTINGS
@given(resonant_fields())
def test_linear_dimension_is_the_linear_centralizer(f):
    fhat = normalize(f, f.order).normal_form
    linear = [(exps, j) for exps in enumerate_monomials(fhat.dim, 1)
              for j in range(fhat.dim)]
    for degree_bound in range(1, f.order + 1):
        basis = centralizer_basis(fhat, degree_bound)
        assert basis.linear_dimension == \
            len(reference_centralizer(fhat, degree_bound, linear))


@PROPERTY_SETTINGS
@given(resonant_fields())
def test_centralizer_columns_match_whole_brackets(f):
    fhat = normalize(f, f.order).normal_form
    for degree_bound in range(1, f.order + 1):
        restricted = set(centralizer_basis(fhat, degree_bound).elements)
        unrestricted = set(centralizer_basis(
            fhat, degree_bound, restrict_to_kernel=False).elements)
        unknowns = [(exps, j) for exps in enumerate_monomials_upto(
                        fhat.dim, degree_bound, 1) for j in range(fhat.dim)]
        reference = reference_centralizer(fhat, degree_bound, unknowns)
        assert restricted == unrestricted == set(reference)


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
        assert (got.order, got.terms) == (max(phi.order - 1, 0),
                                          dense_partial(phi, k))
        assert_canonical(got)
    for field in (f, g):
        got = apply_derivation(field, phi)
        assert (got.order, got.terms) == dense_derivation(field, phi)
        assert_canonical(got)
    assert [(c.order, c.terms) for c in lie_bracket(f, g).components] == \
        dense_bracket(f, g)


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
    naive = dict(start)
    for terms, factor in steps:
        add_scaled(acc, terms, factor)
        for key, value in terms.items():
            scaled = value if factor is None else factor * value
            naive[key] = naive.get(key, ZERO) + scaled
    assert acc == {key: value for key, value in naive.items() if value}
    assert all(acc.values())


# A reference Q(i): a value is a pair (real, imag) of Fractions.

def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def ref_inverse(x):
    a, b = x
    norm = a * a + b * b
    return (a / norm, -b / norm)


def ref_str(x):
    re, im = x
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    return f"{re}+{im}*i" if im > 0 else f"{re}-{-im}*i"


def assert_matches(value, ref):
    """``value`` is the canonical triple of the reference pair ``ref``."""
    assert type(value) is GaussianRational
    re, im, den = value._t
    assert all(type(n) is int for n in (re, im, den))
    assert den > 0 and math.gcd(re, im, den) == 1
    assert (Fraction(re, den), Fraction(im, den)) == ref
    assert (value.real, value.imag) == ref
    assert bool(value) == bool(ref[0] or ref[1])
    assert str(value) == ref_str(ref)


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
    zero = (Fraction(0), Fraction(0))
    assert_matches(gx, rx)
    assert_matches(gx + oy, ref_add(rx, ry))
    assert_matches(oy + gx, ref_add(rx, ry))
    assert_matches(gx - oy, ref_sub(rx, ry))
    assert_matches(oy - gx, ref_sub(ry, rx))
    assert_matches(gx * oy, ref_mul(rx, ry))
    assert_matches(oy * gx, ref_mul(rx, ry))
    assert_matches(-gx, ref_sub(zero, rx))
    if ry != zero:
        assert_matches(gx / oy, ref_mul(rx, ref_inverse(ry)))
    if rx != zero:
        assert_matches(gx.inverse(), ref_inverse(rx))
        assert_matches(oy / gx, ref_mul(ry, ref_inverse(rx)))
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
    n = len(spectra[0])

    def resonant(exps, j, spec):
        dot = tuple(sum(m * lam[part] for m, lam in zip(exps, spec))
                    for part in (0, 1))
        return dot == spec[j]

    expected = sorted(
        ((exps, j) for exps in itertools.product(range(high + 1), repeat=n)
         if low <= sum(exps) <= high
         for j in range(n)
         if all(resonant(exps, j, spec) for spec in spectra)),
        key=lambda pair: (sum(pair[0]), pair[0], pair[1]))
    as_spectra = [Spectrum(GaussianRational(*lam) for lam in spec)
                  for spec in spectra]
    assert resonant_pairs(as_spectra, low, high) == expected


@st.composite
def polys(draw, dim, order, min_degree=0, max_terms=4):
    """A PolyScalar with up to ``max_terms`` terms of degree >= min_degree."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        degree = draw(st.integers(min_value=min_degree, max_value=order))
        exps = [0] * dim
        for var in draw(st.lists(st.integers(0, dim - 1),
                                 min_size=degree, max_size=degree)):
            exps[var] += 1
        terms[tuple(exps)] = draw(scalars)
    return PolyScalar(dim, order, terms)


@st.composite
def substitutions(draw):
    """Values for ``dim`` variables, each at its own truncation order and
    about one in three with a constant term, and several polynomials of
    one order to substitute them into, the zero polynomial last."""
    dim = draw(st.integers(min_value=1, max_value=3))
    vdim = draw(st.integers(min_value=1, max_value=3))
    values = []
    for _ in range(dim):
        value = draw(polys(vdim, draw(st.integers(1, 5)), min_degree=1))
        if draw(st.integers(0, 2)) == 0:
            value = value + draw(scalars.filter(bool))
        values.append(value)
    order = draw(st.integers(min_value=1, max_value=5))
    targets = draw(st.lists(polys(dim, order), min_size=1, max_size=3))
    return values, targets + [PolyScalar.zero(dim, order)]


def naive_product(a, b, order):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            if sum(exps) <= order:
                out[exps] = out.get(exps, ZERO) + ca * cb
    return out


def naive_substitute(p, values):
    """(order, terms) of p(values), each term's power product multiplied
    out factor by factor; degrees never fall, so truncating every partial
    product at the final order is exact."""
    order = min([p.order] + [v.order for v in values])
    total = {}
    for exps, coeff in p.terms.items():
        piece = {(0,) * values[0].dim: coeff}
        for value, e in zip(values, exps):
            for _ in range(e):
                piece = naive_product(piece, value.terms, order)
        for key, c in piece.items():
            total[key] = total.get(key, ZERO) + c
    return order, {key: c for key, c in total.items() if c}


def assert_canonical(poly):
    """``poly`` has the terms the public constructor would give it."""
    assert all(type(c) is GaussianRational for c in poly.terms.values())
    assert PolyScalar(poly.dim, poly.order, poly.terms).terms == poly.terms


def assert_shared_table_substitutions(values, targets):
    """Substitute ``values`` into every target through one table, check
    each result and each table entry against the naive expansion, and
    return (order of the results, table)."""
    table = {}
    for p in targets:
        got = p.substitute(values, table)
        order, expected = naive_substitute(p, values)
        assert (got.dim, got.order) == (values[0].dim, order)
        assert got.terms == expected
        assert_canonical(got)
    for exps, monomial in table.items():
        power = PolyScalar(len(exps), targets[0].order, {exps: 1})
        assert monomial.terms == naive_substitute(power, values)[1]
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
    return {e: c for e, c in terms.items() if sum(e) == degree and c}


def part_terms(dim, order, degree, part):
    return Series(dim, order, [None] * degree + [part]).to_poly().terms


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(series_cases())
def test_series_product_parts_match_a_naive_product(case):
    dim, order, a, b = case
    left, right = Series.of(a, order), Series.of(b, order)
    expected = naive_product(a.terms, b.terms, order)
    for degree in range(order + 1):
        part = left.product_part(right, degree)
        assert_reduced(part)
        assert (part_terms(dim, order, degree, part)
                == degree_terms(expected, degree))


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(series_cases())
def test_series_round_trip_keeps_the_terms(case):
    dim, order, a, _ = case
    series = Series.of(a, order)
    assert len(series.parts) == (a.max_degree() + 1 if a.terms else 0)
    for degree, part in enumerate(series.parts):
        assert_reduced(part)
        assert (part_terms(dim, order, degree, part)
                == degree_terms(a.terms, degree))
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
        for exps, value in degree_terms(p.terms, degree).items():
            expected[exps] = expected.get(exps, ZERO) + c * value
    part = Series.sum_of_products(pairs)
    assert_reduced(part)
    assert part_terms(dim, order, degree, part) == degree_terms(expected, degree)
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
