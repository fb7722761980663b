"""Parameter-dependent families, the nondegeneracy matrix, suspension.

A family x' = A(eta) x + F(x, eta) with A(0) diagonal is resolved against
a resonance-preserving bifurcation test: with p = n - 1 real parameters,
the n x n matrix whose first column holds the critical eigenvalues and
whose remaining columns hold the partial derivatives of the diagonal
entries of A at eta = 0 must be nonsingular.  A variant layout covers the
resonant pair of oscillators with frequency ratio 1:m, where the
eigenvalue column is divided by i*omega_0 and moved last.

suspend() turns a family into an autonomous field on (x, eta)-space with
eta' = 0, so the parameter-dependent normal form machinery reduces to the
ordinary one: parameters become coordinates with eigenvalue zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (
    DegenerateEigenvaluesError,
    DimensionMismatchError,
    InputFormatError,
    ParameterCountError,
)
from .linalg import mat_det
from .poly import PolyScalar, PolyVectorField, Spectrum, _unit
from .scalars import ZERO, GaussianRational, add_scaled, as_scalar


class ParamFamily:
    """A polynomial family x' = A(eta) x + F(x, eta), stationary at x = 0.

    ``a_entries`` is an n x n matrix of polynomials in the parameters
    (scalars are accepted and treated as constants); the constant part
    A(0) must be diagonal.  ``f_terms`` lists (component, exponents,
    coefficient) triples over the n + p variables (x first, eta after),
    each of x-degree at least 2, so f(0, eta) = 0 holds identically.
    Repeated critical eigenvalues are allowed here; the nondegeneracy
    test rejects them.
    """

    __slots__ = ("n", "p", "order", "a_entries", "f_components")

    def __init__(self, n: int, p: int, order: int,
                 a_entries: Sequence[Sequence], f_terms: Sequence = ()):
        if n < 1 or p < 0:
            raise InputFormatError("need n >= 1 state variables and p >= 0 "
                                   "parameters")
        if order < 1:
            raise InputFormatError("truncation order must be at least 1")
        if len(a_entries) != n or any(len(row) != n for row in a_entries):
            raise DimensionMismatchError(
                f"matrix of shape {n}x{n} expected")
        coerced = []
        for i in range(n):
            row = []
            for j in range(n):
                entry = a_entries[i][j]
                if isinstance(entry, PolyScalar):
                    if entry.dim != p:
                        raise DimensionMismatchError(
                            "matrix entries must be polynomials in the "
                            f"{p} parameters")
                    entry = PolyScalar(p, order, entry.terms)
                else:
                    entry = PolyScalar.constant(p, order, as_scalar(entry))
                if i != j and entry.coefficient((0,) * p) != ZERO:
                    raise InputFormatError(
                        "the critical matrix A(0) must be diagonal; "
                        f"entry ({i + 1},{j + 1}) has a constant term")
                row.append(entry)
            coerced.append(tuple(row))
        comps: List[dict] = [{} for _ in range(n)]
        for comp, exps, coeff in f_terms:
            if not 0 <= comp < n:
                raise InputFormatError(
                    f"component {comp + 1} outside 1..{n}")
            if len(exps) != n + p:
                raise InputFormatError(
                    f"exponent tuples need length {n + p} (x then eta)")
            if sum(exps[:n]) < 2:
                raise InputFormatError(
                    "nonlinear terms must have x-degree at least 2 "
                    "(the linear-in-x part belongs to the matrix)")
            add_scaled(comps[comp], {tuple(exps): as_scalar(coeff)})
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "a_entries", tuple(coerced))
        object.__setattr__(self, "f_components", tuple(
            PolyScalar(n + p, order, c) for c in comps))

    def __setattr__(self, name, value):
        raise AttributeError("ParamFamily is immutable")

    def eigenvalues(self) -> Spectrum:
        """Diagonal of A(0)."""
        zero = (0,) * self.p
        return Spectrum(self.a_entries[i][i].coefficient(zero)
                        for i in range(self.n))

    def __repr__(self) -> str:
        return (f"ParamFamily(n={self.n}, p={self.p}, "
                f"order={self.order}, eigenvalues={self.eigenvalues()})")


@dataclass(frozen=True)
class DMatrix:
    """Nondegeneracy matrix of a family at the critical parameter value.

    ``layout`` is eigenvalue-first (eigenvalues in column 1, then the
    partial derivatives of the diagonal of A) or oscillator (derivative
    columns first, the integer pattern (1, -1, m, -m) last).
    """

    entries: Tuple[Tuple[GaussianRational, ...], ...]
    layout: str

    def determinant(self) -> GaussianRational:
        return mat_det([list(row) for row in self.entries])


@dataclass(frozen=True)
class DetResult:
    nonsingular: bool
    determinant: GaussianRational


def _diagonal_derivatives(family: ParamFamily) -> List[List[GaussianRational]]:
    return [[family.a_entries[i][i].coefficient(_unit(family.p, k))
             for k in range(family.p)] for i in range(family.n)]


def _require_shape(family: ParamFamily) -> Spectrum:
    if family.p != family.n - 1:
        raise ParameterCountError(
            f"the nondegeneracy matrix needs p = n - 1 parameters; "
            f"got n = {family.n}, p = {family.p}")
    spec = family.eigenvalues()
    values = list(spec)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j]:
                raise DegenerateEigenvaluesError(
                    "repeated critical eigenvalues; such degeneracies "
                    "call for symmetry arguments outside this test")
    for lam in values:
        if lam.real != 0 and lam.imag != 0:
            raise DegenerateEigenvaluesError(
                "critical eigenvalues must be real or purely imaginary")
    return spec


def build_D(family: ParamFamily) -> DMatrix:
    """Assemble the eigenvalue-first nondegeneracy matrix.

    Column 1 holds the critical eigenvalues; column k+1 holds the exact
    partial derivative of each diagonal entry of A with respect to the
    k-th parameter at eta = 0.
    """
    spec = _require_shape(family)
    partials = _diagonal_derivatives(family)
    entries = tuple(tuple([spec[i]] + partials[i])
                    for i in range(family.n))
    return DMatrix(entries, "eigenvalue-first")


def oscillator_pattern(spectrum: Spectrum) -> Optional[Tuple[GaussianRational, int]]:
    """Detect eigenvalues (i*w0, -i*w0, m*i*w0, -m*i*w0), m integer >= 2.

    Returns (i*w0, m), or None when the spectrum has another shape.
    """
    if len(spectrum) != 4:
        return None
    base = spectrum[0]
    if base.real != 0 or base.imag == 0:
        return None
    if spectrum[1] != -base:
        return None
    ratio = spectrum[2] / base
    if ratio.imag != 0 or ratio.real.denominator != 1 or ratio.real < 2:
        return None
    if spectrum[3] != -spectrum[2]:
        return None
    return base, int(ratio.real)


def build_oscillator_D(family: ParamFamily) -> DMatrix:
    """Assemble the 1:m resonant-oscillator variant of the matrix.

    Requires the complexified eigenvalue pattern (i*w0, -i*w0, m*i*w0,
    -m*i*w0); the eigenvalue column, divided by i*w0, becomes the integer
    pattern (1, -1, m, -m) and moves to the last position.
    """
    spec = _require_shape(family)
    pattern = oscillator_pattern(spec)
    if pattern is None:
        raise DegenerateEigenvaluesError(
            "the oscillator layout needs eigenvalues "
            "(i*w0, -i*w0, m*i*w0, -m*i*w0) with integer m >= 2")
    _, m = pattern
    partials = _diagonal_derivatives(family)
    tail = [as_scalar(v) for v in (1, -1, m, -m)]
    entries = tuple(tuple(partials[i] + [tail[i]]) for i in range(4))
    return DMatrix(entries, "oscillator")


def det_nonsingular(matrix: DMatrix) -> DetResult:
    """Exact determinant test."""
    det = matrix.determinant()
    return DetResult(det != ZERO, det)


def suspend(family: ParamFamily) -> PolyVectorField:
    """Autonomous field on (x, eta)-space with eta' = 0.

    The linear part is diag(eigenvalues, 0, ..., 0); all eta-dependence
    of A and F turns into higher-degree mixed terms.  The result's
    spectrum is read off that diagonal, so it feeds directly into
    normalize().
    """
    n, p, order = family.n, family.p, family.order
    total = n + p
    eta_map = list(range(n, total))
    components = []
    for i in range(n):
        comp = dict(family.f_components[i].terms)
        for j in range(n):
            lifted = family.a_entries[i][j].lift(total, eta_map)
            add_scaled(comp, (lifted * PolyScalar.variable(total, order, j)).terms)
        components.append(PolyScalar(total, order, comp))
    components.extend(PolyScalar.zero(total, order) for _ in range(p))
    return PolyVectorField(components)
