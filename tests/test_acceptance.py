"""Acceptance gate: one timed end-to-end check per shipped guarantee.

Each test prints a single [PASS] line with its wall-clock budget; a red
test means the criterion is not met.  Run with -s to see the lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from dulac.bifurcation import build_D
from dulac.centralizer import centralizer_basis, kernel_intersection
from dulac.corpus import (
    HORN_CONJUGATION,
    horn_field,
    linearizable_3d_field,
    saddle_field,
    so2_field,
    so2_symmetry,
)
from dulac.diagnostics import condition_a, pliss_linear
from dulac.fieldfile import family_from_dict
from dulac.linalg import mat_det, nullspace
from dulac.maps import NearIdentityMap, linear_conjugate, push_forward
from dulac.normalizer import check_commute, normalize
from dulac.poly import (
    PolyScalar,
    PolyVectorField,
    Spectrum,
    lie_bracket,
    linear_field,
    restrict_to_axis,
)
from dulac.resonance import omega_condition, resonant_monomials
from dulac.scalars import GaussianRational, I, as_scalar

from oracle import spectrum_dot, step_map


def timed(number, limit, description):
    def wrap(body):
        start = time.perf_counter()
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < limit, (
            f"criterion-{number} took {elapsed:.2f}s, budget {limit}s")
        print(f"[PASS] criterion-{number}: {description} "
              f"({elapsed:.2f}s < {limit}s)")
    return wrap


def random_sparse_field(rng, dim, order, spectrum):
    terms = []
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(2, 4)
        exps = [0] * dim
        for _ in range(degree):
            exps[rng.randrange(dim)] += 1
        coeff = GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), 1))
        if coeff == as_scalar(0):
            coeff = as_scalar(1)
        terms.append((rng.randrange(dim), tuple(exps), coeff))
    return linear_field(spectrum, order) + PolyVectorField.from_terms(
        dim, order, terms)


def test_criterion_1_factorial_divergence_witness():
    @timed(1, 1.0, "conjugated horn inverse transformation grows like (k-1)!")
    def body():
        field = linear_conjugate(HORN_CONJUGATION, horn_field(12))
        result = normalize(field, 12)
        total = result.transformation.compose(
            NearIdentityMap.from_linear(HORN_CONJUGATION, 12))
        inverse = total.invert_to_order()
        coeffs = restrict_to_axis(inverse.components[1], 0)
        expected = [as_scalar(0)] + [
            as_scalar(math.factorial(k - 1)) for k in range(1, 13)]
        assert coeffs == expected


def test_criterion_2_normal_form_commutes_and_is_the_push_forward():
    @timed(2, 30.0, "100 random fields: [Ax, nf] = 0 and nf = push-forward")
    def body():
        rng = random.Random(20260822)
        for _ in range(100):
            dim = rng.randint(2, 4)
            spectrum = Spectrum([rng.randint(-3, 3) for _ in range(dim)])
            field = random_sparse_field(rng, dim, 6, spectrum)
            result = normalize(field, 6)
            linear = linear_field(spectrum, 6)
            assert lie_bracket(linear, result.normal_form).is_zero()
            assert push_forward(result.transformation, field) == result.normal_form


def test_criterion_3_joint_kernel_forces_linearity():
    @timed(3, 10.0, "joint resonance kernel empty although each factor resonates")
    def body():
        spec_a = Spectrum([1, -3, 9])
        spec_b = Spectrum([1, -2, 4])
        assert kernel_intersection(spec_a, spec_b, 10) == []
        assert resonant_monomials(spec_a, 5)
        assert resonant_monomials(spec_b, 5)
        result = normalize(linearizable_3d_field(8), 8)
        assert result.normal_form.nonlinear_part().is_zero()


def test_criterion_4_rotation_symmetric_normal_form_and_centralizer():
    @timed(4, 30.0, "so(2) pair commutes; nf keeps rho*x3*(I+L)x; "
                    "centralizer dimension 13 matches the unrestricted oracle")
    def body():
        field = so2_field(7)
        symmetry = so2_symmetry(7)
        ok, first_degree, residual = check_commute(field, symmetry)
        assert ok and first_degree is None and residual.is_zero()

        result = normalize(field, 7)
        nf = result.normal_form
        # the lowest nonlinear term of the normal form is the symmetry's own
        assert nf.nonlinear_part() == symmetry.nonlinear_part()

        basis = centralizer_basis(nf, 5)
        oracle = centralizer_basis(nf, 5, restrict_to_kernel=False)
        assert basis.dimension == 13
        assert oracle.dimension == 13
        assert set(basis.elements) == set(oracle.elements)
        confirmed = [e for e, u in zip(basis.elements, basis.unconfirmed)
                     if not u]
        assert len(confirmed) == 2
        assert all(e.nonlinear_part().is_zero() for e in confirmed)

        # nf lies in the exact rational span of the basis elements
        keys = sorted({(c, e) for elem in basis.elements
                       for c, e, _ in elem.terms()} |
                      {(c, e) for c, e, _ in nf.terms()})
        index = {key: i for i, key in enumerate(keys)}
        columns = [{index[(c, e)]: v for c, e, v in elem.terms()}
                   for elem in basis.elements]
        target = {index[(c, e)]: v for c, e, v in nf.terms()}
        # unknowns: one weight per element, then t with sum = t * nf
        t_col = len(columns)
        rows = []
        for key_index in range(len(keys)):
            row = {j: col[key_index] for j, col in enumerate(columns)
                   if key_index in col}
            coeff = target.get(key_index)
            if coeff is not None:
                row[t_col] = as_scalar(-1) * coeff
            if row:
                rows.append(row)
        kernel = nullspace(rows, t_col + 1)
        assert any(vec.get(t_col) for vec in kernel)


def test_criterion_5_saddle_centralizer_is_the_invariant_powers():
    @timed(5, 10.0, "saddle centralizer to degree 7 equals the (x1*x2)^l ladder")
    def body():
        field = saddle_field(7)
        basis = centralizer_basis(field, 7)
        spectrum = field.spectrum
        enumerated = set()
        for degree in range(1, 8):
            for exps in itertools.product(range(degree + 1), repeat=2):
                if sum(exps) != degree:
                    continue
                for comp in range(2):
                    if spectrum_dot(spectrum, exps) == spectrum[comp]:
                        enumerated.add(PolyVectorField.from_terms(
                            2, 7, [(comp, exps, 1)]))
        assert set(basis.elements) == enumerated
        for element in basis.elements:
            ((comp, exps, coeff),) = element.terms()
            assert coeff == as_scalar(1)
            # x_j times a power of the invariant x1*x2
            level = exps[1 - comp]
            assert exps[comp] == level + 1


def test_criterion_6_small_divisor_floor_for_integer_spectra():
    @timed(6, 5.0, "integer spectra certify omega_k^2 >= 1; "
                   "brute force at K=3 agrees")
    def body():
        for values in ([1, -1], [0, 1], [1, -3, 9], [2, 3], [1, -2, 4]):
            report = omega_condition(Spectrum(values), 3)
            assert report.verdict == "holds-by-rational-bound"
            assert report.rational_bound_sq >= Fraction(1, 1)

        for values in ([0, 1], [1, -1]):
            spectrum = Spectrum(values)
            report = omega_condition(spectrum, 3)
            for record in report.records:
                top = 2 ** record.k - 1
                best = None
                for degree in range(2, top + 1):
                    for exps in itertools.product(range(degree + 1), repeat=2):
                        if sum(exps) != degree:
                            continue
                        value = spectrum_dot(spectrum, exps)
                        for lam in spectrum:
                            diff = value - lam
                            if diff and (best is None or diff.abs2() < best):
                                best = diff.abs2()
                assert record.omega_sq == best
                if best is not None:
                    assert best == Fraction(1, 1)


def test_criterion_7_hopf_transversality_determinant():
    @timed(7, 5.0, "20 random Hopf families: det D = 2i * d(Re lambda)/d(eta)")
    def body():
        rng = random.Random(47)
        for _ in range(20):
            slope = GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            junk = as_scalar(rng.randint(-3, 3))
            top = [(I, 0), (slope, 1), (junk, 2)]
            bottom = [(-I, 0), (GaussianRational(slope.real, -slope.imag), 1),
                      (junk + I, 2)]
            family, _, _ = family_from_dict({
                "dim": 2, "order": 3,
                "params": {"names": ["eta"], "matrix": [
                    [[{"coeff": str(c), "exps": [e]} for c, e in top], 0],
                    [0, [{"coeff": str(c), "exps": [e]} for c, e in bottom]]]},
                "terms": [{"coeff": rng.randint(1, 3), "exps": [2, 1, 0],
                           "comp": 1}]})
            det = mat_det(build_D(family))
            real_slope = GaussianRational(slope.real, Fraction(0))
            assert det == 2 * I * real_slope


def test_criterion_8_algebraic_property_suite():
    @timed(8, 60.0, "bracket identities, map round trips, centralizer "
                    "commutation, pliss implies condition A")
    def body():
        rng = random.Random(8128)

        def small_field(dim, order):
            terms = []
            for _ in range(rng.randint(1, 3)):
                degree = rng.randint(2, 3)
                exps = [0] * dim
                for _ in range(degree):
                    exps[rng.randrange(dim)] += 1
                terms.append((rng.randrange(dim), tuple(exps),
                              rng.randint(-2, 2) or 1))
            terms.append((rng.randrange(dim), tuple(
                1 if i == 0 else 0 for i in range(dim)), rng.randint(-2, 2)))
            return PolyVectorField.from_terms(dim, order, terms)

        for _ in range(10):
            dim = rng.randint(2, 3)
            f = small_field(dim, 8)
            g = small_field(dim, 8)
            h = small_field(dim, 8)
            jacobi = (lie_bracket(f, lie_bracket(g, h))
                      + lie_bracket(g, lie_bracket(h, f))
                      + lie_bracket(h, lie_bracket(f, g)))
            assert jacobi.is_zero()

            def times(field, value):
                return field.scalar_mul(PolyScalar.constant(
                    field.dim, field.order, as_scalar(value)))

            assert lie_bracket(f, g) == times(lie_bracket(g, f), -1)
            a = rng.randint(-3, 3)
            b = GaussianRational(Fraction(rng.randint(-2, 2)), Fraction(1, 2))
            combined = times(f, a) + times(g, b)
            assert lie_bracket(combined, h) == (
                times(lie_bracket(f, h), a) + times(lie_bracket(g, h), b))

        for _ in range(10):
            dim = rng.randint(2, 3)
            generator = small_field(dim, 6).nonlinear_part()
            forward = step_map(generator)
            backward = forward.invert_to_order()
            identity = NearIdentityMap.identity(dim, 6)
            assert forward.compose(backward) == identity
            assert backward.compose(forward) == identity

        for nf, bound in ((normalize(so2_field(7), 7).normal_form, 4),
                          (saddle_field(7), 5)):
            linear = linear_field(nf.spectrum, nf.order)
            for element in centralizer_basis(nf, bound).elements:
                assert lie_bracket(linear, element).is_zero()

        for _ in range(10):
            dim = rng.randint(2, 4)
            spectrum = Spectrum([rng.randint(-3, 3) for _ in range(dim)])
            nf = linear_field(spectrum, 6)
            assert pliss_linear(nf)
            ca = condition_a(nf)
            assert ca.satisfied and ca.alpha.is_zero()
