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
  assembles a report whose text and dict renderings carry identical
  content.

Criterion entries separate exact checks (decided in exact arithmetic),
truncated checks (verified through the working order only), and
assumptions (properties of user-supplied data that no finite computation
can verify, such as analyticity of a symmetry given by its truncation).
Divergence is never certified: growth classification is labelled
heuristic evidence and the summary says so explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ._version import __version__
from .centralizer import centralizer_basis, kernel_intersection
from .errors import (
    DimensionMismatchError,
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
    Spectrum,
    apply_derivation,
    format_monomial,
    format_poly,
    grlex_key,
    lie_bracket,
    linear_field,
    restrict_to_axis,
)
from .resonance import (
    OmegaReport,
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

    When satisfied, ``alpha`` is the recovered scalar series and the two
    derivative flags record that alpha is constant along the field and
    along its linear part.  When violated, ``witness`` holds the scalar
    monomial m and the 1-based components (j, jprime) whose coefficients
    cannot come from a single alpha; j == jprime marks a constraint that
    is impossible inside one component (zero eigenvalue, or a term not
    divisible by its own variable, as ``witness_reason`` explains).
    """

    satisfied: bool
    order: int
    alpha: Optional[PolyScalar] = None
    witness: Optional[Tuple[Exponents, int, int]] = None
    witness_reason: str = ""
    violated_degree: Optional[int] = None
    reconstruction_exact: bool = False
    constant_along_field: bool = False
    constant_along_linear: bool = False


def condition_a(fhat: PolyVectorField) -> ConditionAResult:
    """Decide whether the nonlinear part equals alpha(x) * Ax.

    The scalar series alpha is recovered degree by degree: the term
    x^m * x_j of component j must carry alpha_m * lambda_j for every j.
    The input must be in normal form (commute with its linear part).
    """
    spectrum = fhat.spectrum
    if spectrum is None:
        raise NotInNormalFormError("input needs a diagonal linear part")
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
    candidates = set()
    for j, exps, _ in fnl.terms():
        candidates.add(exps[:j] + (exps[j] - 1,) + exps[j + 1:])
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
    alpha = PolyScalar(dim, fhat.order, alpha_terms)
    residual = fnl - lin.scalar_mul(alpha)
    reconstruction = residual.is_zero()
    return ConditionAResult(
        reconstruction, fhat.order, alpha=alpha,
        reconstruction_exact=reconstruction,
        constant_along_field=apply_derivation(fhat, alpha).is_zero(),
        constant_along_linear=apply_derivation(lin, alpha).is_zero())


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


def _abs2(value) -> Fraction:
    return as_scalar(value).abs2()


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
    sizes = [_abs2(c) for c in coefficients]
    best: Optional[Tuple[int, int]] = None
    start: Optional[int] = None
    for k in range(len(sizes) + 1):
        if k < len(sizes) and sizes[k] > 0:
            if start is None:
                start = k
        elif start is not None:
            if best is None or k - start >= best[1] - best[0]:
                best = (start, k)
            start = None
    if best is None or best[1] - best[0] < 6:
        raise TruncationOrderError(
            "growth classification needs at least 6 consecutive "
            "nonzero coefficients")
    lo, hi = best
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


@dataclass(frozen=True)
class CriterionCheck:
    """One convergence criterion with its verdict and evidence kinds.

    ``verdict`` is hypotheses-verified, hypothesis-failed, or
    not-applicable.  The string lists in ``exact``, ``truncated`` and
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
        if self.verdict == "hypotheses-verified" and \
                self.checked_to_order is not None:
            return f"hypotheses-verified-to-order-{self.checked_to_order}"
        return self.verdict


def _small_divisor_text(omega: OmegaReport) -> str:
    return (f"small divisors obey omega_k^2 >= "
            f"{as_scalar(omega.rational_bound_sq)} "
            f"for every k (common-denominator bound)")


def _poincare_criterion(in_domain: bool) -> CriterionCheck:
    exact = ("origin-in-convex-hull decided in exact rational geometry",)
    if in_domain:
        return CriterionCheck(
            "poincare-domain", "hypotheses-verified",
            conclusion="a convergent normalizing transformation exists",
            exact=exact)
    return CriterionCheck(
        "poincare-domain", "hypothesis-failed",
        detail="the convex hull of the eigenvalues contains the origin",
        exact=exact)


def _bruno_criterion(cond_a: ConditionAResult, omega: OmegaReport,
                     order: int) -> CriterionCheck:
    name = "bruno-small-divisors"
    exact = (_small_divisor_text(omega),)
    if cond_a.satisfied:
        return CriterionCheck(
            name, "hypotheses-verified", checked_to_order=order,
            conclusion="a convergent normalizing transformation exists",
            exact=exact,
            truncated=(f"the normal form matches alpha*Ax through "
                       f"order {order} (Condition A)",))
    return CriterionCheck(
        name, "hypothesis-failed", checked_to_order=order,
        detail=f"Condition A fails: {cond_a.witness_reason}",
        exact=exact)


def _pliss_criterion(linear: bool, omega: OmegaReport, order: int,
                     fhat: PolyVectorField) -> CriterionCheck:
    name = "pliss-linearity"
    exact = (_small_divisor_text(omega),)
    if linear:
        return CriterionCheck(
            name, "hypotheses-verified", checked_to_order=order,
            conclusion="a convergent linearizing transformation exists",
            exact=exact,
            truncated=(f"the normal form is linear through order {order}",))
    low = fhat.nonlinear_part().min_degree()
    return CriterionCheck(
        name, "hypothesis-failed", checked_to_order=order,
        detail=(f"the normal form keeps nonlinear terms "
                f"(lowest degree {low})"),
        exact=exact)


def _scalar_multiple_of(g: PolyVectorField,
                        f: PolyVectorField) -> Optional[GaussianRational]:
    """The scalar c with g = c * f through the shared order, if any."""
    order = min(g.order, f.order)
    gt = g.truncated(order) if g.order > order else g
    ft = f.truncated(order) if f.order > order else f
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
    names = ("joint-kernel-linearization", "identity-symmetry-linearization",
             "planar-analytic-symmetry", "centralizer-span")
    if symmetry is None:
        return [CriterionCheck(name, "not-applicable",
                               detail="no commuting field supplied")
                for name in names]
    if symmetry.dim != field.dim:
        raise DimensionMismatchError(
            "commuting field dimension differs from the input field")
    spectrum = fhat.spectrum
    commutes, first, _ = check_commute(field, symmetry)
    if not commutes:
        detail = (f"the supplied field does not commute with the input: "
                  f"bracket residual first appears at degree {first}")
        return [CriterionCheck(name, "hypothesis-failed", detail=detail)
                for name in names]
    commute_note = (f"the two fields commute through degree "
                    f"{min(field.order, symmetry.order)}")
    matrix = symmetry.linear_matrix()
    dim = field.dim
    checks = []

    # joint kernel of the two linear parts
    diagonal = all(matrix[i][j] == ZERO
                   for i in range(dim) for j in range(dim) if i != j)
    if not diagonal:
        checks.append(CriterionCheck(
            names[0], "not-applicable",
            detail="the supplied field's linear part is not diagonal"))
    else:
        spec_b = Spectrum(matrix[i][i] for i in range(dim))
        joint = kernel_intersection(spectrum, spec_b, order)
        if joint:
            checks.append(CriterionCheck(
                names[0], "hypothesis-failed", checked_to_order=order,
                detail=(f"the joint resonance kernel contains "
                        f"{joint[0]}"),
                truncated=(commute_note,)))
        else:
            checks.append(CriterionCheck(
                names[0], "hypotheses-verified", checked_to_order=order,
                conclusion=("the field is linearizable by a convergent "
                            "transformation and both fields become linear"),
                truncated=(commute_note,
                           f"the joint resonance kernel is empty through "
                           f"degree {order}"),
                assumed=(_ANALYTICITY,)))

    # identity linear part
    identity = all(matrix[i][j] == (1 if i == j else 0)
                   for i in range(dim) for j in range(dim))
    if identity:
        checks.append(CriterionCheck(
            names[1], "hypotheses-verified", checked_to_order=order,
            conclusion=("the field is formally linearizable; an analytic "
                        "symmetry makes a convergent transformation to "
                        "normal form exist"),
            exact=("the supplied field's linear part is the identity",),
            truncated=(commute_note,),
            assumed=(_ANALYTICITY,)))
    else:
        checks.append(CriterionCheck(
            names[1], "not-applicable",
            detail="the supplied field's linear part is not the identity"))

    # planar nontrivial commuting field
    multiple = _scalar_multiple_of(symmetry, field)
    if dim != 2:
        checks.append(CriterionCheck(
            names[2], "not-applicable",
            detail="the planar criterion needs dimension 2"))
    elif multiple is not None:
        checks.append(CriterionCheck(
            names[2], "not-applicable",
            detail=(f"the supplied field equals {multiple} times the "
                    f"input field")))
    else:
        checks.append(CriterionCheck(
            names[2], "hypotheses-verified", checked_to_order=order,
            conclusion="a convergent normalizing transformation exists",
            truncated=(commute_note,
                       "the supplied field is not a scalar multiple of "
                       "the input (checked at truncation)"),
            assumed=(_ANALYTICITY,)))

    # centralizer spanned by the normal form and linear fields
    basis = centralizer_basis(fhat, cz_degree)
    dim_lin = basis.linear_dimension
    work = fhat.truncated(cz_degree) if fhat.order > cz_degree else fhat
    expected = dim_lin + (0 if work.nonlinear_part().is_zero() else 1)
    span_note = (f"the centralizer through degree {cz_degree} has "
                 f"dimension {basis.dimension}: {dim_lin} linear plus "
                 f"{expected - dim_lin} spanned by the normal form")
    if basis.dimension != expected:
        unconfirmed = sum(1 for u in basis.unconfirmed if u)
        checks.append(CriterionCheck(
            names[3], "hypothesis-failed", checked_to_order=cz_degree,
            detail=(f"{basis.dimension - expected} centralizer directions "
                    f"lie outside the span of the normal form and linear "
                    f"fields ({unconfirmed} of {basis.dimension} elements "
                    f"unconfirmed at the truncation)"),
            truncated=(commute_note,)))
    else:
        beta = _scalar_multiple_of(symmetry.degree_part(1),
                                   linear_field(spectrum, symmetry.order))
        if beta is None:
            checks.append(CriterionCheck(
                names[3], "not-applicable",
                detail=("the supplied field's linear part is not a scalar "
                        "multiple of the diagonal linear part")))
        elif multiple is not None:
            checks.append(CriterionCheck(
                names[3], "not-applicable",
                detail=(f"the supplied field equals {multiple} times the "
                        f"input field")))
        else:
            checks.append(CriterionCheck(
                names[3], "hypotheses-verified", checked_to_order=cz_degree,
                conclusion=("a convergent normalizing transformation "
                            "exists"),
                exact=(f"the supplied field's linear part equals {beta} "
                       f"times the diagonal linear part",),
                truncated=(commute_note, span_note),
                assumed=(_ANALYTICITY,)))
    return checks


# -- report ------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport:
    """Joint outcome of every criterion on one normalized field.

    ``to_dict`` and ``to_text`` render identical content; the text form
    is line oriented for terminals, the dict form is JSON-ready.
    """

    version: str
    order: int
    centralizer_degree: Optional[int]
    eigenvalues: Tuple[GaussianRational, ...]
    condition_a: ConditionAResult
    pliss: bool
    poincare: bool
    omega: OmegaReport
    growth: Optional[GrowthClassification]
    criteria: Tuple[CriterionCheck, ...]
    normal_form: PolyVectorField

    def applicable(self) -> List[str]:
        return [c.name for c in self.criteria
                if c.verdict == "hypotheses-verified"]

    def summary(self) -> str:
        verified = [c for c in self.criteria
                    if c.verdict == "hypotheses-verified"]
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
            ca_dict["checks"] = {
                "reconstruction_exact": ca.reconstruction_exact,
                "constant_along_field": ca.constant_along_field,
                "constant_along_linear": ca.constant_along_linear,
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
        return {
            "version": self.version,
            "order": self.order,
            "centralizer_degree": self.centralizer_degree,
            "eigenvalues": [str(v) for v in self.eigenvalues],
            "normal_form": [format_poly(c)
                            for c in self.normal_form.components],
            "condition_a": ca_dict,
            "linear_normal_form": self.pliss,
            "poincare_domain": self.poincare,
            "small_divisors": omega,
            "growth": growth,
            "criteria": criteria,
            "applicable": self.applicable(),
            "summary": self.summary(),
        }

    def to_text(self) -> str:
        data = self.to_dict()
        lines = [f"normal form diagnostics (dulac {data['version']})",
                 f"truncation order: {data['order']}",
                 "eigenvalues: " + ", ".join(data["eigenvalues"]),
                 "normal form:"]
        for i, comp in enumerate(data["normal_form"], 1):
            lines.append(f"  x{i}' = {comp}")
        ca = data["condition_a"]
        if ca["satisfied"]:
            checks = ca["checks"]
            flags = ", ".join(f"{key}={'yes' if val else 'no'}"
                              for key, val in checks.items())
            lines.append(f"condition A: satisfied, alpha = {ca['alpha']} "
                         f"({flags})")
        else:
            wit = ca["witness"]
            lines.append(f"condition A: violated at degree "
                         f"{wit['degree']}: {wit['reason']}")
        lines.append("linear normal form: " +
                     ("yes" if data["linear_normal_form"] else "no"))
        lines.append("poincare domain: " +
                     ("yes" if data["poincare_domain"] else "no"))
        om = data["small_divisors"]
        lines.append(f"small divisors: {om['verdict']} "
                     f"(omega_k^2 >= {om['rational_bound_sq']}, "
                     f"{om['tuples_scanned']} tuples scanned)")
        for rec in om["records"]:
            omega_sq = rec["omega_sq"]
            lines.append(f"  k={rec['k']}: omega_k^2 = "
                         f"{'n/a' if omega_sq is None else omega_sq}, "
                         f"partial sum = {rec['partial_sum']:.6f}")
        growth = data["growth"]
        if growth is None:
            lines.append("growth: no classifiable coefficient run")
        else:
            estimate = growth["estimate"]
            lines.append(
                f"growth: {growth['kind']} over degrees "
                f"{growth['degrees'][0]}..{growth['degrees'][1]}" +
                ("" if estimate is None else f", estimate {estimate:.3f}") +
                f" ({growth['note']})")
        lines.append("criteria:")
        for crit in data["criteria"]:
            lines.append(f"  {crit['name']}: {crit['verdict']}")
            if crit["conclusion"]:
                lines.append(f"    conclusion: {crit['conclusion']}")
            if crit["detail"]:
                lines.append(f"    detail: {crit['detail']}")
            for kind in ("exact", "truncated", "assumed"):
                for item in crit[kind]:
                    lines.append(f"    {kind}: {item}")
        lines.append("summary: " + data["summary"])
        return "\n".join(lines)


def _prefer(current: Optional[GrowthClassification],
            candidate: GrowthClassification) -> GrowthClassification:
    rank = {"factorial": 2, "geometric": 1, "inconclusive": 0}
    if current is None or rank[candidate.kind] > rank[current.kind]:
        return candidate
    return current


def _transformation_growth(
        result: NormalFormResult) -> Optional[GrowthClassification]:
    """Strongest growth signal over both transformation directions.

    Scans every component of the normalizing map and of its inverse
    along every axis; factorial beats geometric beats inconclusive.
    """
    best: Optional[GrowthClassification] = None
    for nmap in (result.transformation, result.inverse):
        for comp in nmap.components:
            for axis in range(comp.dim):
                try:
                    found = growth_classify(restrict_to_axis(comp, axis))
                except TruncationOrderError:
                    continue
                best = _prefer(best, found)
    return best


def diagnose(f: PolyVectorField, order: int,
             symmetry: Optional[PolyVectorField] = None,
             omega_max_k: int = 3,
             centralizer_degree: Optional[int] = None) -> DiagnosticsReport:
    """Normalize a field and evaluate every convergence criterion.

    The field needs a diagonal linear part and no constant term.  A
    commuting field makes the symmetry criteria checkable; without one
    they report not-applicable.  The centralizer degree defaults to the
    working order.
    """
    result = normalize(f, order)
    fhat = result.normal_form
    spectrum = fhat.spectrum
    cond_a = condition_a(fhat)
    linear = pliss_linear(fhat)
    in_domain = poincare_domain(spectrum)
    omega = omega_condition(spectrum, omega_max_k)
    growth = _transformation_growth(result)
    cz_degree = order if centralizer_degree is None else centralizer_degree
    criteria = [
        _poincare_criterion(in_domain),
        _bruno_criterion(cond_a, omega, order),
        _pliss_criterion(linear, omega, order, fhat),
    ]
    criteria.extend(
        _symmetry_criteria(f, fhat, symmetry, order, cz_degree))
    return DiagnosticsReport(
        version=__version__,
        order=order,
        centralizer_degree=cz_degree if symmetry is not None else None,
        eigenvalues=tuple(spectrum),
        condition_a=cond_a,
        pliss=linear,
        poincare=in_domain,
        omega=omega,
        growth=growth,
        criteria=tuple(criteria),
        normal_form=fhat,
    )
