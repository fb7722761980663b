"""Convergence criteria for truncated normal forms, and the report builder.

Checks implemented here:

* Condition A: recovery of a scalar series alpha with F = alpha * Ax,
  the proportional shape that combines with the small-divisor bound to
  guarantee a convergent normalizing transformation,
* Pliss linearity: the normal form keeps no nonlinear terms,
* Poincare domain membership and the small-divisor scan (both delegated
  to the resonance module),
* heuristic growth classification of transformation coefficients,
* diagnose(), which normalizes a field, runs every criterion, and
  assembles a report; its dict is what the command line prints, as JSON
  or rendered as text.

The report lists the three classical criteria (Poincare domain, Bruno,
Pliss) and four that read a supplied commuting field (joint resonance
kernel, identity linear part, planar field, centralizer span), each
built by ``_verified``, ``_failed`` or ``_not_applicable``.

Criterion entries separate exact checks (decided in exact arithmetic),
truncated checks (verified through the working order only), and
assumptions (properties of user-supplied data that no finite computation
can verify, such as analyticity of a symmetry given by its truncation).
Divergence is never certified: growth classification is labelled
heuristic evidence and the summary says so explicitly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ._version import __version__
from .centralizer import centralizer_basis, kernel_intersection
from .errors import (
    DimensionMismatchError,
    InputFormatError,
    NonDiagonalLinearPartError,
    NotInNormalFormError,
    TruncationOrderError,
)
# Unused here; kept only because bench/selftest.py checks it is traced.
from .linalg import nullspace  # noqa: F401
from .normalizer import NormalFormResult, check_commute, normalize
from .poly import (
    Exponents,
    PolyScalar,
    PolyVectorField,
    format_monomial,
    format_poly,
    grlex_key,
    lie_bracket,
    linear_field,
    restrict_to_axis,
)
from .resonance import (
    OmegaReport,
    check_omega_range,
    omega_condition,
    poincare_domain,
)
from .scalars import ZERO, GaussianRational, as_scalar

# Fixed heuristic thresholds for growth classification.  The slope window
# accepts ratio/degree in [1/2, 2] (factorial-like growth); the spread
# bounds max/min of consecutive-coefficient ratios by a factor of 2
# (geometric-like growth).  Comparisons run on exact squared moduli.
FACTORIAL_SLOPE_WINDOW = (Fraction(1, 2), Fraction(2, 1))
GEOMETRIC_RATIO_SPREAD = Fraction(2, 1)

_ANALYTICITY = ("analyticity of the supplied commuting field "
                "(not decidable from a truncation)")


# -- Condition A -------------------------------------------------------


def _undivided_term(fnl: PolyVectorField
                    ) -> Optional[Tuple[int, Exponents, str]]:
    """The first term x^m, in ``sorted_terms`` order, of a component j
    without an x_j factor, as (j, m, reason); None when there is none.
    Such a term cannot match alpha * Ax."""
    for j, exps, _ in fnl.sorted_terms():
        if exps[j] == 0:
            return j, exps, (f"component {j + 1} contains "
                             f"{format_monomial(exps)}, which is not "
                             f"divisible by x{j + 1}")
    return None


@dataclass(frozen=True)
class ConditionAResult:
    """Outcome of matching the nonlinear part against alpha(x) * Ax.

    When satisfied, ``alpha`` is the recovered scalar series, with
    F = alpha * Ax through the order.  Since [Ax, F] = 0 on a normal form,
    component j of [Ax, alpha * Ax] is lambda_j x_j X_A(alpha), so alpha
    is constant along Ax, and then along f = (1 + alpha) Ax too; the
    report prints both facts from ``satisfied``, not from separate checks.
    When violated, ``witness`` holds the scalar monomial m and the
    1-based components (j, jprime) whose coefficients cannot come from a
    single alpha; j == jprime marks a constraint that is impossible
    inside one component (zero eigenvalue, or a term not divisible by its
    own variable, as ``witness_reason`` explains).
    """

    satisfied: bool
    order: int
    alpha: Optional[PolyScalar] = None
    witness: Optional[Tuple[Exponents, int, int]] = None
    witness_reason: str = ""
    violated_degree: Optional[int] = None


def condition_a(fhat: PolyVectorField) -> ConditionAResult:
    """Decide whether the nonlinear part equals alpha(x) * Ax.

    The scalar series alpha is recovered degree by degree: the term
    x^m * x_j of component j must carry alpha_m * lambda_j for every j.
    The input must be in normal form (commute with its linear part).
    """
    spectrum = fhat.spectrum
    if spectrum is None:
        raise NonDiagonalLinearPartError("input needs a diagonal linear part")
    dim = fhat.dim
    lin = linear_field(spectrum, fhat.order)
    if not lie_bracket(lin, fhat).is_zero():
        raise NotInNormalFormError(
            "field does not commute with its own linear part")
    fnl = fhat.nonlinear_part()
    undivided = _undivided_term(fnl)
    if undivided is not None:
        j, exps, reason = undivided
        return ConditionAResult(
            False, fhat.order, witness=(exps, j + 1, j + 1),
            witness_reason=reason, violated_degree=sum(exps))
    candidates = {exps[:j] + (exps[j] - 1,) + exps[j + 1:]
                  for j, exps, _ in fnl.terms()}
    alpha_terms: Dict[Exponents, GaussianRational] = {}
    for m in sorted(candidates, key=grlex_key):
        pinned: Optional[GaussianRational] = None
        pinner = -1
        for j in range(dim):
            target = m[:j] + (m[j] + 1,) + m[j + 1:]
            coeff = fnl.components[j].coefficient(target)
            lam = spectrum[j]
            if lam == 0:
                if coeff != ZERO:
                    return ConditionAResult(
                        False, fhat.order, witness=(m, j + 1, j + 1),
                        witness_reason=(
                            f"eigenvalue {j + 1} is zero but component "
                            f"{j + 1} carries "
                            f"{format_monomial(target)}"),
                        violated_degree=sum(m) + 1)
                continue
            value = coeff / lam
            if pinned is None:
                pinned = value
                pinner = j
            elif value != pinned:
                return ConditionAResult(
                    False, fhat.order, witness=(m, pinner + 1, j + 1),
                    witness_reason=(
                        f"components {pinner + 1} and {j + 1} require "
                        f"different alpha coefficients at "
                        f"{format_monomial(m)}"),
                    violated_degree=sum(m) + 1)
        if pinned is not None and pinned != ZERO:
            alpha_terms[m] = pinned
    return ConditionAResult(True, fhat.order,
                            alpha=PolyScalar(dim, fhat.order, alpha_terms))


def pliss_linear(fhat: PolyVectorField) -> bool:
    """True when the nonlinear part vanishes through the truncation order."""
    return fhat.nonlinear_part().is_zero()


# -- growth classification ---------------------------------------------


@dataclass(frozen=True)
class GrowthClassification:
    """Heuristic growth class of a coefficient run.

    ``kind`` is one of factorial, geometric, inconclusive; the run covers
    degrees ``first_degree`` .. ``last_degree``.  ``estimate`` is a float
    slope (factorial: ratio/degree) or ratio (geometric), None for an
    inconclusive run or a ratio past the float range.  The verdict is
    evidence computed with fixed documented thresholds, never a proof.
    """

    kind: str
    first_degree: int
    last_degree: int
    estimate: Optional[float]
    note: str = ""


def _root(square: Fraction) -> float:
    """sqrt(square), through logarithms where square passes the float
    range; inf where the root passes it too."""
    try:
        return math.sqrt(float(square))
    except OverflowError:
        pass
    try:
        return math.exp((math.log(square.numerator)
                         - math.log(square.denominator)) / 2)
    except OverflowError:
        return math.inf


def growth_classify(coefficients: Sequence) -> GrowthClassification:
    """Classify the growth of a coefficient list indexed by degree.

    Works on the longest run of consecutive nonzero coefficients (ties
    prefer the later run) and needs at least 6 of them.  Consecutive
    ratios are compared exactly on squared moduli; the top half of the
    run votes.  Factorial means every ratio/degree lies in
    FACTORIAL_SLOPE_WINDOW; geometric means the ratios stay within a
    factor of GEOMETRIC_RATIO_SPREAD of each other.
    """
    sizes = [as_scalar(c).abs2() for c in coefficients]
    lo = hi = end = 0
    for nonzero, run in itertools.groupby(sizes, key=bool):
        start, end = end, end + len(list(run))
        if nonzero and end - start >= hi - lo:
            lo, hi = start, end
    if hi - lo < 6:
        raise TruncationOrderError(
            "growth classification needs at least 6 consecutive "
            "nonzero coefficients")
    ratio_degrees = list(range(lo, hi - 1))
    tail = ratio_degrees[len(ratio_degrees) // 2:]
    w_lo, w_hi = FACTORIAL_SLOPE_WINDOW
    factorial = all(
        sizes[k + 1] * w_lo.denominator ** 2 >=
        sizes[k] * k * k * w_lo.numerator ** 2
        and sizes[k + 1] * w_hi.denominator ** 2 <=
        sizes[k] * k * k * w_hi.numerator ** 2
        for k in tail)
    note = (f"heuristic: ratio windows {w_lo}..{w_hi} per degree "
            f"(factorial) and spread {GEOMETRIC_RATIO_SPREAD} "
            f"(geometric), voted on degrees {tail[0]}..{tail[-1]}")
    if factorial:
        slope = sum(math.sqrt(float(sizes[k + 1] / sizes[k])) / k
                    for k in tail) / len(tail)
        return GrowthClassification("factorial", lo, hi - 1, slope, note)
    ratios = [sizes[k + 1] / sizes[k] for k in tail]
    spread2 = GEOMETRIC_RATIO_SPREAD ** 2
    if max(ratios) <= spread2 * min(ratios):
        ratio = sum(_root(r) for r in ratios) / len(ratios)
        # a mean past the float range is left out, as for inconclusive
        estimate = ratio if math.isfinite(ratio) else None
        return GrowthClassification("geometric", lo, hi - 1, estimate, note)
    return GrowthClassification("inconclusive", lo, hi - 1, None, note)


# -- criterion catalogue -----------------------------------------------


VERIFIED = "hypotheses-verified"
_CONVERGES = "a convergent normalizing transformation exists"


@dataclass(frozen=True)
class CriterionCheck:
    """One convergence criterion with its verdict and evidence kinds.

    ``verdict`` is hypotheses-verified, hypothesis-failed, or
    not-applicable, set by ``_verified``, ``_failed`` or
    ``_not_applicable``.  The string lists in ``exact``, ``truncated`` and
    ``assumed`` say which hypotheses were decided exactly, which only
    through the working order, and which rest on unverifiable properties
    of user-supplied data.
    """

    name: str
    verdict: str
    checked_to_order: Optional[int] = None
    conclusion: str = ""
    detail: str = ""
    exact: Tuple[str, ...] = ()
    truncated: Tuple[str, ...] = ()
    assumed: Tuple[str, ...] = ()

    def verdict_string(self) -> str:
        if self.verdict == VERIFIED and self.checked_to_order is not None:
            return f"{VERIFIED}-to-order-{self.checked_to_order}"
        return self.verdict


# The only constructors that set a verdict; ``evidence`` takes the exact,
# truncated and assumed lists.
def _verified(name: str, order: Optional[int], conclusion: str = _CONVERGES,
              **evidence) -> CriterionCheck:
    return CriterionCheck(name, VERIFIED, order, conclusion=conclusion,
                          **evidence)


def _failed(name: str, detail: str, order: Optional[int] = None,
            **evidence) -> CriterionCheck:
    return CriterionCheck(name, "hypothesis-failed", order, detail=detail,
                          **evidence)


def _not_applicable(name: str, detail: str) -> CriterionCheck:
    return CriterionCheck(name, "not-applicable", detail=detail)


def _classical_criteria(fhat: PolyVectorField, cond_a: ConditionAResult,
                        omega: OmegaReport,
                        order: int) -> List[CriterionCheck]:
    """Poincare domain, Bruno's Condition A with the small-divisor bound,
    and Pliss linearity, in that order."""
    hull = ("origin-in-convex-hull decided in exact rational geometry",)
    divisors = (f"small divisors obey omega_k^2 >= "
                f"{as_scalar(omega.rational_bound_sq)} "
                f"for every k (common-denominator bound)",)
    return [
        _verified("poincare-domain", None, exact=hull)
        if poincare_domain(fhat.spectrum)
        else _failed("poincare-domain",
                     "the convex hull of the eigenvalues contains the origin",
                     exact=hull),
        _verified("bruno-small-divisors", order, exact=divisors,
                  truncated=(f"the normal form matches alpha*Ax through "
                             f"order {order} (Condition A)",))
        if cond_a.satisfied
        else _failed("bruno-small-divisors",
                     f"Condition A fails: {cond_a.witness_reason}", order,
                     exact=divisors),
        _verified("pliss-linearity", order,
                  "a convergent linearizing transformation exists",
                  exact=divisors,
                  truncated=(f"the normal form is linear through order "
                             f"{order}",))
        if pliss_linear(fhat)
        else _failed("pliss-linearity",
                     f"the normal form keeps nonlinear terms (lowest degree "
                     f"{fhat.nonlinear_part().min_degree()})", order,
                     exact=divisors),
    ]


def _scalar_multiple_of(g: PolyVectorField,
                        f: PolyVectorField) -> Optional[GaussianRational]:
    """The scalar c with g = c * f through the shared order, if any."""
    order = min(g.order, f.order)
    gt = g.truncated(order)
    ft = f.truncated(order)
    if ft.is_zero():
        return ZERO if gt.is_zero() else None
    comp, exps, coeff = ft.sorted_terms()[0]
    c = gt.components[comp].coefficient(exps) / coeff
    if (gt - ft * c).is_zero():
        return c
    return None


def _symmetry_criteria(field: PolyVectorField, fhat: PolyVectorField,
                       symmetry: Optional[PolyVectorField], order: int,
                       cz_degree: int) -> List[CriterionCheck]:
    """The four criteria on a supplied commuting field: joint resonance
    kernel, identity linear part, planar commuting field, and centralizer
    spanned by the normal form."""
    names = ("joint-kernel-linearization", "identity-symmetry-linearization",
             "planar-analytic-symmetry", "centralizer-span")
    if symmetry is None:
        return [_not_applicable(name, "no commuting field supplied")
                for name in names]
    commutes, first, _ = check_commute(field, symmetry)
    if not commutes:
        detail = (f"the supplied field does not commute with the input: "
                  f"bracket residual first appears at degree {first}")
        return [_failed(name, detail) for name in names]
    joint_name, identity_name, planar_name, span_name = names
    # the facts about the commuting field that the four criteria read
    commuted = (f"the two fields commute through degree "
                f"{min(field.order, symmetry.order)}",)
    assumed = (_ANALYTICITY,)
    # None exactly when the linear part is not diagonal: the symmetry has
    # no constant term
    spec_b = symmetry.spectrum
    multiple = _scalar_multiple_of(symmetry, field)
    same_field = f"the supplied field equals {multiple} times the input field"
    beta = _scalar_multiple_of(symmetry.degree_part(1),
                               linear_field(fhat.spectrum, symmetry.order))
    checks = []

    # joint kernel of the two linear parts
    if spec_b is None:
        checks.append(_not_applicable(
            joint_name, "the supplied field's linear part is not diagonal"))
    elif joint := kernel_intersection(fhat.spectrum, spec_b, order):
        checks.append(_failed(
            joint_name, f"the joint resonance kernel contains {joint[0]}",
            order, truncated=commuted))
    else:
        checks.append(_verified(
            joint_name, order,
            "the field is linearizable by a convergent transformation and "
            "both fields become linear",
            truncated=commuted + (f"the joint resonance kernel is empty "
                                  f"through degree {order}",),
            assumed=assumed))

    # identity linear part
    if spec_b is not None and all(lam == 1 for lam in spec_b):
        checks.append(_verified(
            identity_name, order,
            "the field is formally linearizable; an analytic symmetry makes "
            "a convergent transformation to normal form exist",
            exact=("the supplied field's linear part is the identity",),
            truncated=commuted, assumed=assumed))
    else:
        checks.append(_not_applicable(
            identity_name,
            "the supplied field's linear part is not the identity"))

    # planar nontrivial commuting field
    if field.dim != 2:
        checks.append(_not_applicable(
            planar_name, "the planar criterion needs dimension 2"))
    elif multiple is not None:
        checks.append(_not_applicable(planar_name, same_field))
    else:
        checks.append(_verified(
            planar_name, order,
            truncated=commuted + ("the supplied field is not a scalar "
                                  "multiple of the input (checked at "
                                  "truncation)",),
            assumed=assumed))

    # centralizer spanned by the normal form and linear fields
    basis = centralizer_basis(fhat, cz_degree)
    dim_lin = basis.linear_dimension
    expected = dim_lin + (
        0 if fhat.truncated(cz_degree).nonlinear_part().is_zero() else 1)
    if basis.dimension != expected:
        checks.append(_failed(
            span_name,
            f"{basis.dimension - expected} centralizer directions lie "
            f"outside the span of the normal form and linear fields "
            f"({sum(basis.unconfirmed)} of {basis.dimension} "
            f"elements unconfirmed at the truncation)",
            cz_degree, truncated=commuted))
    elif beta is None:
        checks.append(_not_applicable(
            span_name, "the supplied field's linear part is not a scalar "
                       "multiple of the diagonal linear part"))
    elif multiple is not None:
        checks.append(_not_applicable(span_name, same_field))
    else:
        checks.append(_verified(
            span_name, cz_degree,
            exact=(f"the supplied field's linear part equals {beta} times "
                   f"the diagonal linear part",),
            truncated=commuted + (
                f"the centralizer through degree {cz_degree} has dimension "
                f"{basis.dimension}: {dim_lin} linear plus "
                f"{expected - dim_lin} spanned by the normal form",),
            assumed=assumed))
    return checks


# -- report ------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport:
    """Joint outcome of every criterion on one normalized field.

    ``to_dict`` gives the JSON-ready report that ``diagnose`` prints; its
    text form is rendered from that dict by the command line.  The order
    and the eigenvalues it prints are the normal form's, and its
    ``linear_normal_form`` and ``poincare_domain`` keys say whether
    ``applicable`` lists pliss-linearity and poincare-domain.
    """

    centralizer_degree: Optional[int]
    condition_a: ConditionAResult
    omega: OmegaReport
    growth: Optional[GrowthClassification]
    criteria: Tuple[CriterionCheck, ...]
    normal_form: PolyVectorField

    def applicable(self) -> List[str]:
        return [c.name for c in self.criteria if c.verdict == VERIFIED]

    def summary(self) -> str:
        verified = [c for c in self.criteria if c.verdict == VERIFIED]
        if verified:
            text = ("a convergent normalizing transformation is "
                    "guaranteed (" +
                    ", ".join(c.name for c in verified) + ")")
            assumed = sorted({a for c in verified for a in c.assumed})
            if all(c.assumed for c in verified):
                text += "; assuming " + "; ".join(assumed)
            return text
        if self.growth is not None and self.growth.kind == "factorial":
            return ("no convergence criterion verified; factorial growth "
                    "of transformation coefficients suggests divergence "
                    "(heuristic, not a certificate)")
        return ("no convergence criterion verified; the evidence is "
                "inconclusive")

    def to_dict(self) -> dict:
        ca = self.condition_a
        ca_dict: dict = {"satisfied": ca.satisfied, "order": ca.order}
        if ca.satisfied:
            ca_dict["alpha"] = format_poly(ca.alpha)
            # each check follows from the verdict (``ConditionAResult``)
            ca_dict["checks"] = {
                "reconstruction_exact": ca.satisfied,
                "constant_along_field": ca.satisfied,
                "constant_along_linear": ca.satisfied,
            }
        else:
            ca_dict["witness"] = {
                "monomial": list(ca.witness[0]),
                "components": [ca.witness[1], ca.witness[2]],
                "degree": ca.violated_degree,
                "reason": ca.witness_reason,
            }
        omega = {
            "verdict": self.omega.verdict,
            "rational_bound_sq": str(as_scalar(self.omega.rational_bound_sq)),
            "omega_floor": self.omega.omega_floor(),
            "tuples_scanned": self.omega.tuples_scanned,
            "records": [{
                "k": r.k,
                "omega_sq": (None if r.omega_sq is None
                             else str(as_scalar(r.omega_sq))),
                "partial_sum": r.partial_sum,
            } for r in self.omega.records],
        }
        growth = None
        if self.growth is not None:
            growth = {
                "kind": self.growth.kind,
                "degrees": [self.growth.first_degree,
                            self.growth.last_degree],
                "estimate": self.growth.estimate,
                "note": self.growth.note,
            }
        criteria = [{
            "name": c.name,
            "verdict": c.verdict_string(),
            "checked_to_order": c.checked_to_order,
            "conclusion": c.conclusion,
            "detail": c.detail,
            "exact": list(c.exact),
            "truncated": list(c.truncated),
            "assumed": list(c.assumed),
        } for c in self.criteria]
        fhat = self.normal_form
        applicable = self.applicable()
        return {
            "version": __version__,
            "order": fhat.order,
            "centralizer_degree": self.centralizer_degree,
            "eigenvalues": [str(v) for v in fhat.spectrum],
            "normal_form": [format_poly(c) for c in fhat.components],
            "condition_a": ca_dict,
            "linear_normal_form": "pliss-linearity" in applicable,
            "poincare_domain": "poincare-domain" in applicable,
            "small_divisors": omega,
            "growth": growth,
            "criteria": criteria,
            "applicable": applicable,
            "summary": self.summary(),
        }


def _transformation_growth(
        result: NormalFormResult) -> Optional[GrowthClassification]:
    """Strongest growth signal over both transformation directions.

    Scans every component of the normalizing map and of its inverse
    along every axis; factorial beats geometric beats inconclusive, and
    of equal kinds the first found wins.
    """
    found: List[GrowthClassification] = []
    for nmap in (result.transformation, result.inverse):
        for comp in nmap.components:
            for axis in range(comp.dim):
                try:
                    found.append(growth_classify(restrict_to_axis(comp, axis)))
                except TruncationOrderError:
                    pass
    rank = {"factorial": 2, "geometric": 1, "inconclusive": 0}
    return max(found, key=lambda g: rank[g.kind], default=None)


def check_commuting_field(symmetry: PolyVectorField, dim: int) -> None:
    """Refuse a commuting field of another dimension or with a constant term."""
    if symmetry.dim != dim:
        raise DimensionMismatchError(
            "commuting field dimension differs from the input field")
    # the bracket reads both fields through degree d only when both
    # vanish at the origin
    if any(c.coefficient((0,) * dim) for c in symmetry.components):
        raise DimensionMismatchError(
            "commuting field must vanish at the origin")


def check_centralizer_degree(centralizer_degree: Optional[int], order: int,
                             has_symmetry: bool) -> None:
    """Refuse a centralizer degree without a symmetry or outside 1..order."""
    if centralizer_degree is not None and not has_symmetry:
        raise InputFormatError("--centralizer-degree needs --symmetry")
    if centralizer_degree is not None and not 1 <= centralizer_degree <= order:
        raise TruncationOrderError(
            f"centralizer degree {centralizer_degree} outside 1..{order}")


def diagnose(f: PolyVectorField, order: int,
             symmetry: Optional[PolyVectorField] = None,
             omega_max_k: int = 3,
             centralizer_degree: Optional[int] = None) -> DiagnosticsReport:
    """Normalize a field and evaluate every convergence criterion.

    The field needs a diagonal linear part and no constant term.  A
    commuting field makes the symmetry criteria checkable; without one
    they report not-applicable.  The centralizer degree defaults to the
    working order.  What ``check_centralizer_degree``,
    ``check_commuting_field`` or ``check_omega_range`` refuses is refused
    before any work.
    """
    check_centralizer_degree(centralizer_degree, order, symmetry is not None)
    if symmetry is not None:
        check_commuting_field(symmetry, f.dim)
    check_omega_range(f.dim, omega_max_k)
    result = normalize(f, order)
    fhat = result.normal_form
    cond_a = condition_a(fhat)
    omega = omega_condition(fhat.spectrum, omega_max_k)
    cz_degree = order if centralizer_degree is None else centralizer_degree
    criteria = (_classical_criteria(fhat, cond_a, omega, order)
                + _symmetry_criteria(f, fhat, symmetry, order, cz_degree))
    return DiagnosticsReport(
        centralizer_degree=cz_degree if symmetry is not None else None,
        condition_a=cond_a,
        omega=omega,
        growth=_transformation_growth(result),
        criteria=tuple(criteria),
        normal_form=fhat,
    )
