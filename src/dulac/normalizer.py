"""Degree-by-degree normalization of a field with diagonal linear part.

Given f = Ax + F with A diagonal and F of degree >= 2, each homogeneous
degree k splits into the kernel and range of the homological operator
ad A (which acts diagonally on monomial-vector elements with eigenvalue
<m, L> - lambda_j).  The kernel part stays; the range part is removed by
the substitution x = y + h_k(y) whose generator divides each removable
coefficient by its eigenvalue.  Generators carry no kernel component,
the usual distinguished choice, which pins the outcome uniquely.

Both directions of the normalizing map come out of one pass.  The steps
compose, outermost-last (the highest-degree step is the outermost
function), into the inverse Phi, x = Phi(y), from normal back to original
coordinates, so f_hat = pull_back(Phi, f).  One truncated inversion of Phi
then gives the transformation Psi, y = Psi(x), with f_hat =
push_forward(Psi, f) through the truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import NonDiagonalLinearPartError, TruncationOrderError
from .maps import NearIdentityMap, pull_back
from .poly import PolyVectorField, lie_bracket
from .resonance import kernel_dimension_at_degree


@dataclass(frozen=True)
class DegreeRecord:
    """What happened while processing one homogeneous degree."""

    degree: int
    kernel_dim: int       # dimension of Ker(ad A) on this degree's monomials
    removed_dim: int      # number of monomial-vector terms removed from f


@dataclass(frozen=True)
class NormalFormResult:
    normal_form: PolyVectorField
    transformation: NearIdentityMap   # y = Psi(x), original -> normal
    per_degree: Tuple[DegreeRecord, ...]
    inverse: NearIdentityMap          # x = Phi(y), the inverse of Psi


def normalize(f: PolyVectorField, order: int) -> NormalFormResult:
    """Normalize f = Ax + F through the given order.

    Requires a diagonal linear part and order >= 2; the field must be
    known at least to that order.  Each step x = y + h_k(y) has h_k of
    degree k >= 2, so the normal form keeps the linear part, and with it
    the spectrum, of f.
    """
    spectrum = f.spectrum
    if spectrum is None:
        raise NonDiagonalLinearPartError(
            "normalize needs a field with a diagonal linear part")
    if order < 2:
        raise TruncationOrderError("normalization order must be at least 2")
    if f.order < order:
        raise TruncationOrderError(
            f"field is only known to order {f.order}, requested {order}")
    dim = f.dim
    cur = f.truncated(order) if f.order > order else f
    phi_total = NearIdentityMap.identity(dim, order)
    records: List[DegreeRecord] = []
    for degree in range(2, order + 1):
        part = cur.degree_part(degree)
        h_terms = []
        for comp, exps, coeff in part.terms():
            gap = spectrum.gap(exps, comp)
            if gap:
                h_terms.append((comp, exps, coeff / gap))
        records.append(DegreeRecord(
            degree, kernel_dimension_at_degree(spectrum, degree), len(h_terms)))
        if h_terms:
            h = PolyVectorField.from_terms(dim, order, h_terms)
            step = NearIdentityMap.from_generator(h)
            cur = pull_back(step, cur)
            phi_total = phi_total.compose(step)
    return NormalFormResult(cur, phi_total.invert_to_order(), tuple(records),
                            phi_total)


def check_commute(f: PolyVectorField, g: PolyVectorField
                  ) -> Tuple[bool, Optional[int], PolyVectorField]:
    """Bracket residual of two fields, known through the smaller order.

    Returns (commutes, first offending degree or None, residual).
    """
    residual = lie_bracket(f, g)
    if residual.is_zero():
        return True, None, residual
    first = min(sum(exps) for _, exps, _ in residual.terms())
    return False, first, residual
