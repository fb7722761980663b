"""Truncated formal centralizers and joint kernel computations.

The centralizer of a normal form f_hat = Ax + F through degree d is the
space of polynomial fields g of degree <= d with [f_hat, g] = 0 through
degree d.  Grading the bracket shows every such g lies degree-wise in
Ker(ad A), so the solver searches only resonant monomial-vector elements
(plus the linear fields commuting with A); a debug mode searches the
full unrestricted space instead, and the two must agree.

Each unknown x^m e_j gives one column of the linear system, the bracket

    [f_hat, x^m e_j] = X_f_hat(x^m) e_j - x^m d_j f_hat,

with X_f_hat(phi) = sum_k f_hat_k d(phi)/dx_k.  Rows are keyed by output
term, in no particular order: ``nullspace`` returns the same canonical
basis whatever the order of its rows.

Degrees near the truncation boundary are only partially constrained: an
element supported at degree k is unconfirmed whenever some nonzero
nonlinear part of f_hat at degree i would push its bracket to degree
k + i - 1 > d.  Such elements carry a flag saying they might fail to
extend to higher order.

Also here: the joint kernel of two diagonal spectra, the rational
decomposition of one spectrum into diagonal rational matrices, and
monomial first integrals shared by several spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import (
    DegenerateEigenvaluesError,
    DimensionMismatchError,
    NotInNormalFormError,
    TruncationOrderError,
)
from .linalg import nullspace
from .poly import (
    Exponents,
    PolyVectorField,
    Spectrum,
    enumerate_monomials_upto,
    lie_bracket,
    linear_field,
    monomial_field,
)
from .resonance import ResonanceRelation, resonant_pairs
from .scalars import ZERO, GaussianRational


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

    def confirmed_elements(self) -> List[PolyVectorField]:
        return [e for e, u in zip(self.elements, self.unconfirmed) if not u]


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

    ``fhat`` must carry a spectrum and be in normal form (commute with its
    own linear part).  With ``restrict_to_kernel`` (the default) unknowns
    range over Ker(ad A) only; the unrestricted mode exists as an
    independent cross-check and must produce the same space.
    """
    if fhat.spectrum is None:
        raise NotInNormalFormError("centralizer input needs an attached spectrum")
    if degree_bound < 1:
        raise TruncationOrderError("centralizer degree bound must be at least 1")
    if degree_bound > fhat.order:
        raise TruncationOrderError(
            f"field is only known to order {fhat.order}, "
            f"requested degree bound {degree_bound}")
    spectrum = fhat.spectrum
    dim = fhat.dim
    a_field = linear_field(spectrum, fhat.order)
    if not lie_bracket(a_field, fhat).is_zero():
        raise NotInNormalFormError(
            "field does not commute with its own linear part")
    unknowns = _unknown_pairs(spectrum, degree_bound, restrict_to_kernel)
    work = fhat.truncated(degree_bound) if fhat.order > degree_bound else fhat
    # One bracket column per unknown; rows keyed by output term, unsorted.
    rows: Dict[Tuple[Exponents, int], Dict[int, GaussianRational]] = {}
    for col, (exps, j) in enumerate(unknowns):
        column = lie_bracket(work, monomial_field(dim, degree_bound, exps, j))
        for comp, out_exps, coeff in column.terms():
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


@dataclass(frozen=True)
class RationalDecomposition:
    """A = c_1 A_1 + ... + c_d A_d with rational diagonal A_i.

    The c_i are a maximal rationally independent subset of the eigenvalues
    (greedy, in input order); each A_i holds the rational coordinates of
    every eigenvalue with respect to that subset.  A monomial-vector pair
    is resonant for A exactly when it is resonant for every A_i.
    """

    coefficients: Tuple[GaussianRational, ...]
    basis_matrices: Tuple[Tuple[Fraction, ...], ...]
    independent_indices: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def basis_spectra(self) -> List[Spectrum]:
        return [Spectrum(GaussianRational(v) for v in diag)
                for diag in self.basis_matrices]

    def reconstructed(self) -> Spectrum:
        n = len(self.basis_matrices[0])
        values = []
        for j in range(n):
            total = ZERO
            for c, diag in zip(self.coefficients, self.basis_matrices):
                total = total + c * diag[j]
            values.append(total)
        return Spectrum(values)


def rational_decomposition(spectrum: Spectrum) -> RationalDecomposition:
    """Split a spectrum over Q.  Rejects the zero spectrum.

    Eigenvalues live in a 2-dimensional rational space (real and
    imaginary parts), so the rank is 1 or 2.
    """
    pairs = [(lam.real, lam.imag) for lam in spectrum]
    if all(a == 0 and b == 0 for a, b in pairs):
        raise DegenerateEigenvaluesError("cannot decompose the zero spectrum")
    base: List[int] = []
    for i, (a, b) in enumerate(pairs):
        if not base:
            if a or b:
                base.append(i)
        elif len(base) == 1:
            a0, b0 = pairs[base[0]]
            if a0 * b - b0 * a != 0:
                base.append(i)
        else:
            break
    coords: List[List[Fraction]] = []
    if len(base) == 1:
        a0, b0 = pairs[base[0]]
        for a, b in pairs:
            alpha = a / a0 if a0 else b / b0
            coords.append([alpha])
    else:
        (a0, b0), (a1, b1) = pairs[base[0]], pairs[base[1]]
        det = a0 * b1 - a1 * b0
        for a, b in pairs:
            alpha = (a * b1 - b * a1) / det
            beta = (a0 * b - b0 * a) / det
            coords.append([alpha, beta])
    matrices = tuple(
        tuple(coords[j][i] for j in range(len(pairs)))
        for i in range(len(base)))
    decomp = RationalDecomposition(
        tuple(spectrum[i] for i in base), matrices, tuple(base))
    if decomp.reconstructed() != spectrum:
        raise DimensionMismatchError(
            "decomposition failed to reconstruct")  # pragma: no cover
    return decomp


def resonance_equivalence_holds(decomp: RationalDecomposition,
                                spectrum: Spectrum, max_degree: int) -> bool:
    """Certify that A and its rational parts share all resonances.

    Compares both resonance sets exhaustively through the given degree.
    """
    return (resonant_pairs([spectrum], 2, max_degree)
            == resonant_pairs(decomp.basis_spectra(), 2, max_degree))


def common_invariants(spectra: Sequence[Spectrum],
                      max_degree: int) -> List[Exponents]:
    """Monomials x^m with <m, L> = 0 for every given spectrum, |m| >= 1.

    These are the joint monomial first integrals of the diagonal linear
    fields; an empty answer (for the right pair of spectra) feeds the
    shared-invariant rigidity argument.
    """
    dims = {len(s) for s in spectra}
    if len(dims) != 1:
        raise DimensionMismatchError("spectra of different lengths")
    out = []
    for exps in enumerate_monomials_upto(dims.pop(), max_degree, 1):
        if all(not s.dot(exps) for s in spectra):
            out.append(exps)
    return out
