"""Built-in worked examples, each read off the commands' own payloads.

Every entry builds a small field or family (the builders are exported
for the tests), runs commands on it through their payload builders, the
path that the goldens pin and ``tests/certify.py`` checks, and reads a
few facts off the payloads:

* horn: ``normalize`` of Horn's ``linear_matrix`` document; the normal
  form (x1^2, x2) and Psi's x1^k coefficients of y2, -(k-1)!;
* linearizable-3d: ``diagnose --symmetry`` with diag(1, -2, 4); the
  ``joint-kernel-linearization`` verdict and ``linear_normal_form``;
* so2: ``normalize``, then ``centralizer`` to degree 5 on its normal
  form, restricted and unrestricted; the degree-4 part of the normal
  form, both dimensions and the confirmed elements;
* holomorphic: ``diagnose --symmetry`` of z^2 with its rotated partner;
  the ``planar-analytic-symmetry`` verdict;
* saddle-centralizer: ``centralizer`` to degree 7; its elements;
* oscillator-d: ``bifurcation`` in both layouts; both determinants;
* hopf-transversality: ``bifurcation`` and the ``suspend`` document; the
  determinant, the suspension's eigenvalues and its eta component.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .bifurcation import ParamFamily, suspend
from .cli import bifurcation_payload, centralizer_payload, normalize_payload
from .diagnostics import diagnose
from .fieldfile import field_from_dict, field_to_dict
from .poly import PolyScalar, PolyVectorField, Spectrum, _unit, linear_field
from .scalars import I, ONE, GaussianRational, as_scalar


# -- builders ----------------------------------------------------------


def horn_field(order: int = 12) -> PolyVectorField:
    """Planar field (x1^2, x2 - x1); linear part not diagonal."""
    return PolyVectorField.from_terms(2, order, [
        (0, (2, 0), 1),
        (1, (0, 1), 1),
        (1, (1, 0), -1),
    ])


HORN_CONJUGATION = ((1, 0), (-1, 1))


def horn_document(order: int = 12) -> dict:
    """Horn's field with the ``linear_matrix`` that diagonalizes it."""
    return dict(field_to_dict(horn_field(order)),
                linear_matrix=[list(row) for row in HORN_CONJUGATION])


def linearizable_3d_field(order: int = 8) -> PolyVectorField:
    """Eigenvalues (1, -3, 9); every nonlinear term commutes with
    diag(1, -2, 4) and none is resonant for the field's own spectrum."""
    return PolyVectorField.from_terms(3, order, [
        (0, (1, 0, 0), 1), (1, (0, 1, 0), -3), (2, (0, 0, 1), 9),
        (0, (3, 1, 0), 1), (0, (1, 2, 1), 1),
        (1, (2, 2, 0), 1), (1, (0, 3, 1), 1),
        (2, (0, 2, 2), 2),
    ])


LINEARIZABLE_3D_SYMMETRY_SPECTRUM = Spectrum(
    [as_scalar(1), as_scalar(-2), as_scalar(4)])


def so2_field(order: int = 7) -> PolyVectorField:
    """Eigenvalues (1, 1, -2) with F = (rho*x3 + x3^3) (I + L) x where
    rho = x1^2 + x2^2 and L is the planar rotation generator."""
    X = [PolyScalar.variable(3, order, i) for i in range(3)]
    rho = X[0] * X[0] + X[1] * X[1]
    phi = rho * X[2] + X[2] * X[2] * X[2]
    rotated = PolyVectorField([X[0] + X[1], -X[0] + X[1], X[2]])
    spec = Spectrum([as_scalar(1), as_scalar(1), as_scalar(-2)])
    return linear_field(spec, order) + rotated.scalar_mul(phi)


def so2_symmetry(order: int = 7) -> PolyVectorField:
    """The commuting field rho*x3*(I + L)x for the so2 example."""
    X = [PolyScalar.variable(3, order, i) for i in range(3)]
    rho = X[0] * X[0] + X[1] * X[1]
    rotated = PolyVectorField([X[0] + X[1], -X[0] + X[1], X[2]])
    return rotated.scalar_mul(rho * X[2])


def holomorphic_pair(order: int = 6) -> Tuple[PolyVectorField, PolyVectorField]:
    """(u, v) for f(z) = z^2 and its symmetry (v, -u)."""
    f = PolyVectorField.from_terms(2, order, [
        (0, (2, 0), 1), (0, (0, 2), -1), (1, (1, 1), 2)])
    g = PolyVectorField.from_terms(2, order, [
        (0, (1, 1), 2), (1, (2, 0), -1), (1, (0, 2), 1)])
    return f, g


def saddle_field(order: int = 7) -> PolyVectorField:
    spec = Spectrum([as_scalar(1), as_scalar(-1)])
    return linear_field(spec, order)


def oscillator_family() -> ParamFamily:
    """Spectrum (i, -i, 2i, -2i) with three parameters entering the
    diagonal linearly."""
    # A_ii(eta) = lambda_i + <slopes_i, eta>, the terms of x_i in component i
    diagonal = [(I, (1, 0, 0)), (-I, (1, 0, -1)),
                (I + I, (0, 1, 1)), (-(I + I), (0, 1, 0))]
    terms = []
    for i, (lam, slopes) in enumerate(diagonal):
        x_i = _unit(4, i)
        terms.append((i, x_i + (0, 0, 0), lam))
        terms.extend((i, x_i + _unit(3, k), s) for k, s in enumerate(slopes))
    return ParamFamily(PolyVectorField.from_terms(7, 3, terms), 3)


def hopf_family() -> ParamFamily:
    """One-parameter planar family with eigenvalue slope 1 + 2i and its
    conjugate; the transversality determinant is 2i."""
    return ParamFamily(PolyVectorField.from_terms(3, 4, [
        (0, (1, 0, 0), I), (0, (1, 0, 1), ONE + I + I),
        (1, (0, 1, 0), -I), (1, (0, 1, 1), ONE - I - I),
        (0, (2, 1, 0), 1),
    ]), 1)


# -- entry runners: the payloads each runs and the facts it reads -----


EntryOutcome = Tuple[bool, str, List[str]]


def _verdict(report: dict, name: str) -> Tuple[bool, List[str]]:
    """Whether a diagnose criterion is applicable; its verdict line."""
    verdict = next(c["verdict"] for c in report["criteria"]
                   if c["name"] == name)
    return name in report["applicable"], [f"{name}: {verdict}"]


def _run_horn() -> EntryOutcome:
    report = normalize_payload(field_from_dict(horn_document(12))[0], 12)
    if report["normal_form"] != field_to_dict(PolyVectorField.from_terms(
            2, 12, [(0, (2, 0), 1), (1, (0, 1), 1)])):
        return False, "the normal form is not (x1^2, x2)", []
    y2 = {tuple(t["exps"]): t["coeff"]
          for t in report["transformation"]["components"][1]}
    table = [y2.get((k, 0), "0") for k in range(2, 13)]
    lines = ["coefficient table (x1^k in y2, k = 2..12): " + ", ".join(table)]
    if table != [str(-math.factorial(k - 1)) for k in range(2, 13)]:
        return False, "Psi's x1^k coefficients of y2 are not -(k-1)!", lines
    return True, "normalizing transformation coefficients grow like (k-1)!", lines


def _run_linearizable_3d() -> EntryOutcome:
    symmetry = linear_field(LINEARIZABLE_3D_SYMMETRY_SPECTRUM, 8)
    report = diagnose(linearizable_3d_field(8), 8, symmetry=symmetry).to_dict()
    verified, lines = _verdict(report, "joint-kernel-linearization")
    if not verified:
        return False, "the joint-kernel criterion is not verified", lines
    if not report["linear_normal_form"]:
        return False, "the normal form is not linear", report["normal_form"]
    return True, "joint resonance kernel empty; linear to order 8", lines


def _run_so2() -> EntryOutcome:
    report = normalize_payload(so2_field(7), 7)
    quartic = [t for t in report["normal_form"]["terms"]
               if sum(t["exps"]) == 4]
    if quartic != field_to_dict(so2_symmetry(7))["terms"]:
        return False, "degree-4 part of the normal form is off", []
    normal_form, _ = field_from_dict(report["normal_form"])
    basis, oracle = (centralizer_payload(normal_form, 5, unrestricted)
                     for unrestricted in (False, True))
    if basis["dimension"] != oracle["dimension"] or basis["dimension"] != 13:
        return False, (f"centralizer dimension {basis['dimension']} vs "
                       f"unrestricted {oracle['dimension']}, expected 13"), []
    confirmed = [e["terms"] for e in basis["elements"] if e["confirmed"]]
    if len(confirmed) != 2 or any(sum(t["exps"]) != 1
                                  for terms in confirmed for t in terms):
        return False, "confirmed part should be the two linear symmetries", []
    return True, ("normal form keeps rho*x3*(I+L)x; centralizer dimension "
                  "13 agrees with the unrestricted oracle"), [
        "confirmed: the 2 linear symmetries",
        f"boundary-unconfirmed directions: {13 - len(confirmed)}"]


def _run_holomorphic() -> EntryOutcome:
    f, g = holomorphic_pair(6)
    verified, lines = _verdict(diagnose(f, 6, symmetry=g).to_dict(),
                               "planar-analytic-symmetry")
    if not verified:
        return False, "the planar criterion is not verified", lines
    return True, "commuting, no multiple: the planar criterion holds", lines


def _run_saddle_centralizer() -> EntryOutcome:
    report = centralizer_payload(saddle_field(7), 7)
    found = sorted([(t["coeff"], tuple(t["exps"]), t["comp"])
                    for t in e["terms"]] for e in report["elements"])
    expected = sorted([[("1", (1 + l, l), 1)] for l in range(4)]
                      + [[("1", (l, 1 + l), 2)] for l in range(4)])
    if found != expected or not all(e["confirmed"]
                                    for e in report["elements"]):
        return False, f"unexpected basis of dimension {len(found)}", []
    return True, ("saddle centralizer is the 8 powers (x1*x2)^l times "
                  "the diagonal directions"), [
        "dimension 8 at degree 7, all confirmed"]


def _run_oscillator_d() -> EntryOutcome:
    standard, oscillator = (bifurcation_payload(oscillator_family(), layout)
                            for layout in ("standard", "oscillator"))
    lam = [GaussianRational.parse(v) for v in standard["eigenvalues"]]
    det_std, det_osc = (GaussianRational.parse(p["determinant"])
                        for p in (standard, oscillator))
    lines = [f"det standard = {det_std}, det oscillator = {det_osc}"]
    if det_std == 0 or det_osc == 0:
        return False, "a determinant vanished", lines
    if lam[2] != 2 * lam[0]:
        return False, "not a 1:2 oscillator pair", lines
    # the oscillator layout divides the eigenvalue column by lambda_1
    if det_std != -lam[0] * det_osc:
        return False, "determinant layouts disagree", lines
    return True, "both determinant layouts agree and are nonzero", lines


def _run_hopf() -> EntryOutcome:
    det = bifurcation_payload(hopf_family())["determinant"]
    if det != "2*i":
        return False, f"expected det D = 2*i, got {det}", []
    suspended = field_to_dict(suspend(hopf_family()))
    if suspended.get("eigenvalues") != ["1*i", "-1*i", "0"]:
        return False, "suspension spectrum is off", []
    if any(t["comp"] == 3 for t in suspended["terms"]):
        return False, "parameter direction must stay constant", []
    return True, "transversality determinant 2*i; suspension keeps eta frozen", [
        "suspension eigenvalues: 1*i, -1*i, 0; no term in the eta component"]


@dataclass(frozen=True)
class CorpusResult:
    entry_id: str
    description: str
    passed: bool
    seconds: float
    note: str
    lines: Tuple[str, ...]


ENTRIES: Tuple[Tuple[str, str, Callable[[], EntryOutcome]], ...] = (
    ("horn", "factorial growth of a divergent normalization", _run_horn),
    ("linearizable-3d", "joint-kernel linearization in three dimensions",
     _run_linearizable_3d),
    ("so2", "rotation-symmetric normal form with eigenvalues (1, 1, -2)",
     _run_so2),
    ("holomorphic", "planar holomorphic field and its rotated symmetry",
     _run_holomorphic),
    ("saddle-centralizer", "centralizer of the linear saddle to degree 7",
     _run_saddle_centralizer),
    ("oscillator-d", "nondegeneracy determinants for a 1:2 oscillator pair",
     _run_oscillator_d),
    ("hopf-transversality", "eigenvalue-crossing determinant for a planar "
     "oscillator family", _run_hopf),
)


def run_corpus(pattern: Optional[str] = None) -> List[CorpusResult]:
    """Run every entry whose id contains ``pattern`` (all when None)."""
    results = []
    for entry_id, description, runner in ENTRIES:
        if pattern is not None and pattern not in entry_id:
            continue
        start = time.perf_counter()
        try:
            passed, note, lines = runner()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, note, lines = False, f"raised {type(exc).__name__}: {exc}", []
        elapsed = time.perf_counter() - start
        results.append(CorpusResult(entry_id, description, passed,
                                    elapsed, note, tuple(lines)))
    return results
