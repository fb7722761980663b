"""Parameter-dependent families, the nondegeneracy matrix, suspension.

A family x' = A(eta) x + F(x, eta) with A(0) diagonal is resolved against
a resonance-preserving bifurcation test: with p = n - 1 real parameters,
the n x n matrix whose first column holds the critical eigenvalues and
whose remaining columns hold the partial derivatives of the diagonal
entries of A at eta = 0 must be nonsingular.  A variant layout covers the
resonant pair of oscillators with frequency ratio 1:m, where the
eigenvalue column is divided by i*omega_0 and moved last.  ``build_D``
returns the rows in the layout the command line calls ``standard`` or
``oscillator``; ``LAYOUT_NAMES`` gives the name each report prints.

A family is held as its suspension: the autonomous field on (x, eta)-space
with eta' = 0, so the parameter-dependent normal form machinery reduces
to the ordinary one, with the parameters as coordinates of eigenvalue
zero.  The held field is known through order + 1, so that an entry of A
known to eta-degree ``order`` keeps every term as c * x_j * eta^e, and
suspend() truncates it back to the family's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import (
    DegenerateEigenvaluesError,
    InputFormatError,
    ParameterCountError,
)
from .poly import PolyVectorField, Spectrum
from .scalars import GaussianRational, as_scalar


@dataclass(frozen=True)
class ParamFamily:
    """A polynomial family x' = A(eta) x + F(x, eta), stationary at x = 0.

    ``field`` is the suspension over the n + p variables (x first, eta
    after), known through order + 1: an entry A_ij(eta) = sum c * eta^e
    is the terms c * x_j * eta^e of component i, F holds the terms of
    x-degree at least 2 through joint degree ``order``, and the last p
    components are zero.  A(0) must be diagonal.  Repeated critical
    eigenvalues are allowed here; the nondegeneracy test rejects them.
    """

    field: PolyVectorField
    p: int

    def __post_init__(self):
        n = self.n
        if n < 1 or self.p < 0:
            raise InputFormatError("need n >= 1 state variables and p >= 0 "
                                   "parameters")
        for i, comp in enumerate(self.field.components[:n]):
            if any(not any(exps[:n]) for exps in comp.terms):
                raise InputFormatError(
                    "every term needs x-degree at least 1, so that x = 0 "
                    "stays stationary for every eta")
            off = [exps.index(1) for exps in comp.terms
                   if sum(exps) == 1 and not exps[i]]
            if off:
                raise InputFormatError(
                    "the critical matrix A(0) must be diagonal; "
                    f"entry ({i + 1},{min(off) + 1}) has a constant term")
        if not all(c.is_zero() for c in self.field.components[n:]):
            raise InputFormatError(
                "the parameter components must be zero: eta' = 0")

    @property
    def n(self) -> int:
        return self.field.dim - self.p

    @property
    def order(self) -> int:
        return self.field.order - 1

    def eigenvalues(self) -> Spectrum:
        """Diagonal of A(0): the first n entries of the field's spectrum,
        which the constructor's checks keep diagonal."""
        return Spectrum(self.field.spectrum.values[:self.n])


def _diagonal_derivatives(family: ParamFamily) -> List[List[GaussianRational]]:
    """d A_ii / d eta_k at eta = 0: the coefficient of x_i * eta_k in
    component i."""
    n, dim = family.n, family.field.dim
    return [[family.field.components[i].coefficient(
                tuple(int(v in (i, n + k)) for v in range(dim)))
             for k in range(family.p)] for i in range(n)]


def _require_shape(family: ParamFamily) -> Spectrum:
    if family.p != family.n - 1:
        raise ParameterCountError(
            f"the nondegeneracy matrix needs p = n - 1 parameters; "
            f"got n = {family.n}, p = {family.p}")
    spec = family.eigenvalues()
    if len(set(spec)) < len(spec):
        raise DegenerateEigenvaluesError(
            "repeated critical eigenvalues; such degeneracies "
            "call for symmetry arguments outside this test")
    if any(lam.real and lam.imag for lam in spec):
        raise DegenerateEigenvaluesError(
            "critical eigenvalues must be real or purely imaginary")
    return spec


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


# layout -> the name the bifurcation report prints for it
LAYOUT_NAMES = {"standard": "eigenvalue-first", "oscillator": "oscillator"}


def build_D(family: ParamFamily,
            layout: str = "standard") -> List[List[GaussianRational]]:
    """The rows of the nondegeneracy matrix in the given layout.

    Standard (eigenvalue-first): column 1 holds the critical eigenvalues;
    column k+1 holds the exact partial derivative of each diagonal entry
    of A with respect to the k-th parameter at eta = 0.  Oscillator: the
    complexified eigenvalues must read (i*w0, -i*w0, m*i*w0, -m*i*w0);
    the eigenvalue column, divided by i*w0, becomes the integer pattern
    (1, -1, m, -m) and moves to the last position.
    """
    spec = _require_shape(family)
    partials = _diagonal_derivatives(family)
    if layout != "oscillator":
        return [[lam] + row for lam, row in zip(spec, partials)]
    pattern = oscillator_pattern(spec)
    if pattern is None:
        raise DegenerateEigenvaluesError(
            "the oscillator layout needs eigenvalues "
            "(i*w0, -i*w0, m*i*w0, -m*i*w0) with integer m >= 2")
    _, m = pattern
    return [row + [as_scalar(v)] for row, v in zip(partials, (1, -1, m, -m))]


def suspend(family: ParamFamily) -> PolyVectorField:
    """Autonomous field on (x, eta)-space with eta' = 0, through the
    family's order.

    The linear part is diag(eigenvalues, 0, ..., 0); all eta-dependence
    of A and F sits in higher-degree mixed terms.  The result's spectrum
    is read off that diagonal, so it feeds directly into normalize().
    """
    return family.field.truncated(family.order)
