"""Resonance structure of a diagonal spectrum.

Three questions about an eigenvalue tuple L = (lambda_1 .. lambda_n):

* which monomial-vector pairs (m, j) with <m, L> = lambda_j and |m| >= 2
  span the kernel of the homological operator (``resonant_monomials``;
  ``resonant_pairs`` lists the pairs resonant for several spectra at
  once, which is how every joint kernel here is computed);
* does the convex hull of the eigenvalues, as points of the plane, avoid
  the origin (``poincare_domain``, the classical Poincare convergence
  domain, decided by a half-plane test);
* how small do the divisors <Q, L> - lambda_j get as the degree range
  doubles (``omega_condition``, Bruno's small-divisor condition).

Every decision reads the spectrum's integer form: with q =
``Spectrum.scale``, ``Spectrum.integral`` holds each q * lambda_j as an
int pair.  Scaling by q > 0 keeps each point on its ray, so the
half-plane test runs on exact ints.  Every divisor <m, L> - lambda_j is
an int pair over q and a nonzero one has modulus at least 1/q.  That
certifies the summability condition outright; the per-k scan over
squared moduli, compared as ints, is still performed for the requested
range as reported evidence.
Every scan is checked by ``poly.check_scan_budget`` first, against the
package's one work budget: the listings walk exponent tuples through
``poly.enumerate_monomials_upto``, and ``normalize``'s per-degree count
sums multisets of eigenvalues instead.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import BudgetExceededError, TruncationOrderError
from .poly import (
    DEFAULT_TUPLE_BUDGET,
    Exponents,
    Spectrum,
    check_scan_budget,
    enumerate_monomials_upto,
)


class ResonanceRelation(NamedTuple):
    """A resonant pair: <m, L> equals the eigenvalue of component ``j``.

    ``exps`` is the exponent tuple m and ``component`` the 0-based index j;
    a relation unpacks and compares as the tuple (m, j).  The command line
    and file format print components 1-based.
    """

    exps: Exponents
    component: int

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def __str__(self) -> str:
        return f"{self.exps} -> comp {self.component + 1}"


def _columns(spectrum: Spectrum) -> Tuple[List[int], List[int]]:
    """The real and the imaginary parts of ``spectrum.integral``."""
    return ([re for re, _ in spectrum.integral],
            [im for _, im in spectrum.integral])


def _resonances(spectra: Sequence[Spectrum], low: int,
                high: int) -> Iterator[Tuple[Exponents, List[int]]]:
    """Each exponent tuple m with low <= |m| <= high, with the components j
    that make (m, j) resonant for every spectrum.

    Tuples come degree by degree, under the budget of
    ``enumerate_monomials_upto``.
    """
    components = range(len(spectra[0]))
    forms = [(s.integral, *_columns(s)) for s in spectra]
    for exps in enumerate_monomials_upto(len(components), high, low):
        hits = components
        for integral, re_col, im_col in forms:
            value = (sum(map(operator.mul, exps, re_col)),
                     sum(map(operator.mul, exps, im_col)))
            hits = [j for j in hits if value == integral[j]]
        yield exps, hits


def resonant_pairs(spectra: Sequence[Spectrum], low: int,
                   high: int) -> List[ResonanceRelation]:
    """The pairs (m, j) with low <= |m| <= high resonant for every spectrum.

    (m, j) is resonant for L when <m, L> = lambda_j.  Sorted by total
    degree, then lexicographically by exponent tuple, then by component.
    """
    return [ResonanceRelation(exps, j)
            for exps, hits in _resonances(spectra, low, high) for j in hits]


def resonant_monomials(spectrum: Spectrum, max_degree: int) -> List[ResonanceRelation]:
    """The ``resonant_pairs`` of one spectrum from degree 2."""
    if max_degree < 2:
        raise TruncationOrderError(f"maximum degree {max_degree} is below 2")
    return resonant_pairs([spectrum], 2, max_degree)


def kernel_dimension_at_degree(spectrum: Spectrum, degree: int) -> int:
    """Number of resonant monomial-vector pairs of exactly this degree.

    A multiset of ``degree`` eigenvalue positions is a monomial m, and the
    sum of its entries of ``Spectrum.integral`` is q * <m, L>.  Those sums
    are counted where they hit an eigenvalue, without listing any pair,
    and each component j adds the count at its own eigenvalue.
    """
    check_scan_budget(len(spectrum), degree)
    re_col, im_col = _columns(spectrum)
    targets = set(spectrum.integral)
    weights = Counter(filter(targets.__contains__, zip(
        map(sum, combinations_with_replacement(re_col, degree)),
        map(sum, combinations_with_replacement(im_col, degree)))))
    return sum(weights[point] for point in spectrum.integral)


# -- Poincare domain -------------------------------------------------


def poincare_domain(spectrum: Spectrum) -> bool:
    """True when the closed convex hull of the eigenvalues excludes the origin.

    A hull whose boundary passes through 0 contains it.  Decided on the
    int points of ``spectrum.integral`` by a half-plane test: 0 is outside
    exactly when some point p has, for every point q, cross(p, q) > 0, or
    cross(p, q) = 0 and dot(p, q) > 0.  Such points lie in the open
    half-plane left of p's line through 0 joined with p's open ray, a
    convex set without 0; conversely, the points of a hull that misses 0
    span an angle below pi, and the first clockwise is such a p.  The
    products are ints, so the test is exact; no points leave 0 outside.
    """
    points = spectrum.integral
    return not points or any(
        all(px * qy - py * qx > 0
            or (px * qy == py * qx and px * qx + py * qy > 0)
            for qx, qy in points)
        for px, py in points)


# -- Bruno's small-divisor condition ----------------------------------


@dataclass(frozen=True)
class OmegaRecord:
    """Scan result for one doubling step.

    ``omega_sq`` is the exact squared modulus of the smallest nonzero
    divisor <Q, L> - lambda_j over 1 < |Q| < 2**k, or None when that
    range holds no admissible tuple (then the step contributes nothing).
    ``partial_sum`` is the floating-point running value of
    sum over k' <= k of 2**(-k') * ln(1/omega_k').
    """

    k: int
    omega_sq: Optional[Fraction]
    partial_sum: float


@dataclass(frozen=True)
class OmegaReport:
    records: Tuple[OmegaRecord, ...]
    verdict: str
    rational_bound_sq: Fraction
    tuples_scanned: int

    def omega_floor(self) -> float:
        return math.sqrt(float(self.rational_bound_sq))


def _log_inverse_root(square: Fraction) -> float:
    """ln(1/omega) for omega^2 = square, also outside the float range."""
    try:
        as_float = float(square)
    except OverflowError:
        as_float = 0.0
    if as_float:
        return math.log(1.0 / math.sqrt(as_float))
    return (math.log(square.denominator) - math.log(square.numerator)) / 2


def check_omega_range(dim: int, max_k: int) -> None:
    """Refuse an ``omega_condition`` scan that the budget cannot cover."""
    if max_k < 1:
        raise TruncationOrderError("need at least one doubling step")
    # At least 2**max_k pairs (their number in dimension 1): refuse a max_k
    # past the budget's bit length before 2**max_k is built.
    if max_k >= DEFAULT_TUPLE_BUDGET.bit_length():
        raise BudgetExceededError(
            f"scan to k = {max_k} in dimension {dim} needs more than the "
            f"budget of {DEFAULT_TUPLE_BUDGET} monomial-vector pairs")
    check_scan_budget(dim, 2 ** max_k - 1)


def omega_condition(spectrum: Spectrum, max_k: int) -> OmegaReport:
    """Scan the smallest divisors over degree ranges 1 < |Q| < 2**k.

    One pass over degrees 2 .. 2**max_k - 1 (the ranges nest; degree d
    belongs to step k = d.bit_length()), refused by ``check_omega_range``
    past the budget rather than silently degraded.  The verdict is
    ``holds-by-rational-bound``: every nonzero divisor is an int pair over
    q = ``spectrum.scale``, so its squared modulus is at least 1/q**2 and
    the doubling-weighted series is bounded by ln(q).
    """
    n = len(spectrum)
    check_omega_range(n, max_k)
    # <m, qL> - q lambda_j is an int pair; squared moduli compare as ints.
    q = spectrum.scale
    eigen = spectrum.integral
    re_parts, im_parts = _columns(spectrum)
    least: List[Optional[int]] = [None] * (max_k + 1)
    scanned = 0
    for exps in enumerate_monomials_upto(n, 2 ** max_k - 1, 2):
        scanned += 1
        k = sum(exps).bit_length()
        re = sum(map(operator.mul, exps, re_parts))
        im = sum(map(operator.mul, exps, im_parts))
        low = least[k]
        for a, b in eigen:
            dr, di = re - a, im - b
            d2 = dr * dr + di * di
            if d2 and (low is None or d2 < low):
                low = d2
        least[k] = low
    best: Optional[int] = None
    records: List[OmegaRecord] = []
    running = 0.0
    for k in range(1, max_k + 1):
        if least[k] is not None and (best is None or least[k] < best):
            best = least[k]
        omega_sq = None if best is None else Fraction(best, q * q)
        if omega_sq is not None:
            running += (2.0 ** -k) * _log_inverse_root(omega_sq)
        records.append(OmegaRecord(k, omega_sq, running))
    return OmegaReport(tuple(records), "holds-by-rational-bound",
                       Fraction(1, q * q), scanned)
