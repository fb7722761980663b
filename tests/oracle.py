"""Independent sympy-based reference computations for the tests.

Everything here converts package objects to sympy expressions and does
the math a second time with a library the package itself never imports,
except ``spectrum_dot``, which sums in Q(i) from the eigenvalues alone,
and ``step_map``, which builds a map x + h from the validating
constructors.
"""

from fractions import Fraction

import sympy

from dulac.maps import NearIdentityMap
from dulac.poly import PolyScalar, PolyVectorField
from dulac.scalars import GaussianRational


def step_map(h):
    """The map x + h(x) for a field h of degree >= 2, such as a
    normalizing step, through the validating ``PolyScalar.__add__``."""
    assert h.is_zero() or h.min_degree() >= 2
    return NearIdentityMap([PolyScalar.variable(h.dim, h.order, i) + c
                            for i, c in enumerate(h.components)])


def spectrum_dot(spectrum, exps):
    """<m, L> = sum of m_i * lambda_i, summed in Q(i) from the eigenvalues
    themselves, never from ``Spectrum.integral``."""
    total = GaussianRational(0)
    for e, lam in zip(exps, spectrum):
        total = total + lam * e
    return total


def syms(dim):
    return sympy.symbols(f"x1:{dim + 1}")


def scalar_to_sympy(value):
    return (sympy.Rational(value.real.numerator, value.real.denominator)
            + sympy.I * sympy.Rational(value.imag.numerator,
                                       value.imag.denominator))


def poly_to_sympy(poly, variables):
    expr = sympy.Integer(0)
    for exps, coeff in poly.sorted_terms():
        term = scalar_to_sympy(coeff)
        for var, e in zip(variables, exps):
            term *= var ** e
        expr += term
    return sympy.expand(expr)


def field_to_sympy(field, variables):
    return [poly_to_sympy(c, variables) for c in field.components]


def sympy_to_poly(expr, variables, dim, order):
    """Truncate a polynomial sympy expression back into a PolyScalar."""
    expr = sympy.expand(expr)
    terms = {}
    poly = sympy.Poly(expr, *variables, domain="QQ_I") if expr != 0 else None
    if poly is None:
        return PolyScalar.zero(dim, order)
    for exps, coeff in poly.terms():
        if sum(exps) > order:
            continue
        c = sympy.nsimplify(coeff)
        re, im = c.as_real_imag()
        terms[tuple(exps)] = GaussianRational(
            Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
    return PolyScalar(dim, order, terms)


def sympy_bracket(f_exprs, g_exprs, variables):
    """[f, g]_i = sum_j f_j dg_i/dx_j - g_j df_i/dx_j."""
    out = []
    for i in range(len(variables)):
        total = sympy.Integer(0)
        for j, var in enumerate(variables):
            total += f_exprs[j] * sympy.diff(g_exprs[i], var)
            total -= g_exprs[j] * sympy.diff(f_exprs[i], var)
        out.append(sympy.expand(total))
    return out


def random_scalar(rng, allow_imag=True):
    re = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
    im = Fraction(0)
    if allow_imag and rng.random() < 0.3:
        im = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
    return GaussianRational(re, im)


def random_poly(rng, dim, order, max_degree, nterms, min_degree=0,
                allow_imag=True):
    terms = {}
    for _ in range(nterms):
        degree = rng.randint(min_degree, max_degree)
        exps = [0] * dim
        for _ in range(degree):
            exps[rng.randrange(dim)] += 1
        terms[tuple(exps)] = random_scalar(rng, allow_imag)
    return PolyScalar(dim, order, terms)


def random_field(rng, dim, order, max_degree, nterms, min_degree=0,
                 allow_imag=True):
    return PolyVectorField([
        random_poly(rng, dim, order, max_degree, nterms, min_degree,
                    allow_imag)
        for _ in range(dim)])
