"""Truncated formal centralizers and joint kernel computations.

The centralizer of a normal form f_hat = Ax + F through degree d is the
space of polynomial fields g of degree <= d with [f_hat, g] = 0 through
degree d.  Grading the bracket shows every such g lies degree-wise in
Ker(ad A), so the solver searches only resonant monomial-vector elements
(plus the linear fields commuting with A); a debug mode searches the
full unrestricted space instead, and the two must agree.

Each unknown x^m e_j gives one column of the linear system, the bracket

    [f_hat, x^m e_j] = X_f_hat(x^m) e_j - x^m d_j f_hat,

with X_f_hat(phi) = sum_k f_hat_k d(phi)/dx_k.  The n^2 partials
d_j(-f_hat_i) are taken once per solve, so a column costs n products
x^m d_j(-f_hat_i) and one derivation X_f_hat(x^m).  Rows are keyed by
output term, in no particular order: ``nullspace`` returns the same
canonical basis whatever the order of its rows.

Degrees near the truncation boundary are only partially constrained: an
element supported at degree k is unconfirmed whenever some nonzero
nonlinear part of f_hat at degree i would push its bracket to degree
k + i - 1 > d.  Such elements carry a flag saying they might fail to
extend to higher order.

Also here: the joint kernel of two diagonal spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import (
    DimensionMismatchError,
    NonDiagonalLinearPartError,
    NotInNormalFormError,
    TruncationOrderError,
)
from .linalg import nullspace
from .poly import (
    Exponents,
    PolyScalar,
    PolyVectorField,
    Spectrum,
    apply_derivation,
    enumerate_monomials_upto,
    lie_bracket,
    linear_field,
)
from .resonance import ResonanceRelation, resonant_pairs
from .scalars import ONE, GaussianRational


@dataclass(frozen=True)
class CentralizerBasis:
    """Basis of the truncated centralizer, canonical under the term order.

    ``unconfirmed`` marks, per element, whether its top-degree constraints
    fall beyond the truncation (the element may fail to extend).
    """

    degree_bound: int
    elements: Tuple[PolyVectorField, ...]
    unconfirmed: Tuple[bool, ...]
    restricted: bool

    @property
    def dimension(self) -> int:
        return len(self.elements)

    @property
    def linear_dimension(self) -> int:
        """Dimension of the linear fields in the centralizer.

        Counts the basis elements whose terms all have degree 1.  The
        count is exact: ``_unknown_pairs`` lists the degree-1 unknowns
        first, and ``nullspace`` returns the canonical reduced row echelon
        basis, whose vector for a free column is nonzero only at that
        column and at pivot columns to its left.  So the element of a free
        degree-1 column is linear, every other element has a nonlinear
        term, and the linear elements span exactly the linear centralizer.
        """
        return sum(1 for e in self.elements if e.max_degree() == 1)


def _unknown_pairs(spectrum: Spectrum, degree_bound: int,
                   restrict: bool) -> List[Tuple[Exponents, int]]:
    if restrict:
        return resonant_pairs([spectrum], 1, degree_bound)
    dim = len(spectrum)
    return [(exps, j)
            for exps in enumerate_monomials_upto(dim, degree_bound, 1)
            for j in range(dim)]


def centralizer_basis(fhat: PolyVectorField, degree_bound: int,
                      restrict_to_kernel: bool = True) -> CentralizerBasis:
    """Solve the graded commutation system [f_hat, g] = 0 through degree d.

    ``fhat`` must have a diagonal linear part and be in normal form
    (commute with its own linear part).  With ``restrict_to_kernel`` (the
    default) unknowns range over Ker(ad A) only; the unrestricted mode
    exists as an independent cross-check and must produce the same space.
    """
    spectrum = fhat.spectrum
    if spectrum is None:
        raise NonDiagonalLinearPartError(
            "centralizer input needs a diagonal linear part")
    if degree_bound < 1:
        raise TruncationOrderError("centralizer degree bound must be at least 1")
    if degree_bound > fhat.order:
        raise TruncationOrderError(
            f"field is only known to order {fhat.order}, "
            f"requested degree bound {degree_bound}")
    dim = fhat.dim
    a_field = linear_field(spectrum, fhat.order)
    if not lie_bracket(a_field, fhat).is_zero():
        raise NotInNormalFormError(
            "field does not commute with its own linear part")
    unknowns = _unknown_pairs(spectrum, degree_bound, restrict_to_kernel)
    work = fhat.truncated(degree_bound)
    # partials[j][i] is d_j(-f_hat_i), known one order below the bound;
    # x^m with |m| >= 1 raises every degree, so the product keeps the
    # bound, as apply_derivation re-tags its partials
    minus = [-c for c in work.components]
    partials = [[PolyScalar._canonical(dim, degree_bound, c.partial(j).terms)
                 for c in minus] for j in range(dim)]
    # One column per unknown; rows keyed by output term, unsorted.
    rows: Dict[Tuple[Exponents, int], Dict[int, GaussianRational]] = {}
    for col, (exps, j) in enumerate(unknowns):
        mono = PolyScalar._canonical(dim, degree_bound, {exps: ONE})
        column = [mono * d for d in partials[j]]
        column[j] = column[j] + apply_derivation(work, mono)
        for comp, poly in enumerate(column):
            for out_exps, coeff in poly.terms.items():
                rows.setdefault((out_exps, comp), {})[col] = coeff
    kernel = nullspace(list(rows.values()), len(unknowns))
    nonlinear_degrees = sorted({
        sum(exps) for _, exps, _ in fhat.nonlinear_part().terms()})
    elements = []
    flags = []
    for vec in kernel:
        terms = [(unknowns[col][1], unknowns[col][0], coeff)
                 for col, coeff in vec.items()]
        element = PolyVectorField.from_terms(dim, degree_bound, terms)
        support = {sum(exps) for _, exps, _ in element.terms()}
        flags.append(any(k + i - 1 > degree_bound
                         for k in support for i in nonlinear_degrees))
        elements.append(element)
    return CentralizerBasis(degree_bound, tuple(elements), tuple(flags),
                            restrict_to_kernel)


def kernel_intersection(spec_a: Spectrum, spec_b: Spectrum,
                        max_degree: int) -> List[ResonanceRelation]:
    """Monomial-vector elements resonant for both spectra, degree 2 up.

    An empty answer through the working order is the linearizability
    test for a field admitting a commuting field with linear part B.
    """
    if len(spec_a) != len(spec_b):
        raise DimensionMismatchError("spectra of different lengths")
    if max_degree < 2:
        raise TruncationOrderError(f"maximum degree {max_degree} is below 2")
    return resonant_pairs([spec_a, spec_b], 2, max_degree)
