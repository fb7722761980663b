"""Built-in worked examples with frozen expected outcomes.

Every entry rebuilds a small vector field or family from scratch, runs a
fixed pipeline on it, and compares against values that were computed once
and pinned down here.  The builders are exported so the test suite can
reuse the same constructions.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .bifurcation import (
    ParamFamily,
    build_D,
    build_oscillator_D,
    det_nonsingular,
    oscillator_pattern,
    suspend,
)
from .centralizer import centralizer_basis, kernel_intersection
from .maps import NearIdentityMap, linear_conjugate
from .normalizer import check_commute, normalize
from .poly import (
    PolyScalar,
    PolyVectorField,
    Spectrum,
    _unit,
    lie_bracket,
    linear_field,
    restrict_to_axis,
)
from .resonance import resonant_monomials
from .scalars import GaussianRational, I, ONE, ZERO, as_scalar


# -- builders ----------------------------------------------------------


def horn_field(order: int = 12) -> PolyVectorField:
    """Planar field (x1^2, x2 - x1); linear part not diagonal."""
    return PolyVectorField.from_terms(2, order, [
        (0, (2, 0), 1),
        (1, (0, 1), 1),
        (1, (1, 0), -1),
    ])


HORN_CONJUGATION = ((1, 0), (-1, 1))


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
    p = 3

    def entry(const: GaussianRational, slopes: Sequence[int]) -> PolyScalar:
        terms = {(0,) * p: const}
        for k, s in enumerate(slopes):
            if s:
                terms[_unit(p, k)] = as_scalar(s)
        return PolyScalar(p, 2, terms)

    zero = PolyScalar.zero(p, 2)
    a = [
        [entry(I, (1, 0, 0)), zero, zero, zero],
        [zero, entry(-I, (1, 0, -1)), zero, zero],
        [zero, zero, entry(I + I, (0, 1, 1)), zero],
        [zero, zero, zero, entry(-(I + I), (0, 1, 0))],
    ]
    return ParamFamily(4, p, 2, a)


def hopf_family() -> ParamFamily:
    """One-parameter planar family with eigenvalue slope 1 + 2i and its
    conjugate; the transversality determinant is 2i."""
    c = ONE + I + I  # 1 + 2i
    cbar = ONE - I - I
    a = [
        [PolyScalar(1, 3, {(0,): I, (1,): c}), PolyScalar.zero(1, 3)],
        [PolyScalar.zero(1, 3), PolyScalar(1, 3, {(0,): -I, (1,): cbar})],
    ]
    return ParamFamily(2, 1, 3, a, [(0, (2, 1, 0), 1)])


# -- entry runners -----------------------------------------------------


EntryOutcome = Tuple[bool, str, List[str]]


def _run_horn() -> EntryOutcome:
    order = 12
    raw = horn_field(order)
    conj = linear_conjugate(HORN_CONJUGATION, raw)
    result = normalize(conj, order)
    expected_nf = PolyVectorField.from_terms(2, order, [
        (0, (2, 0), 1), (1, (0, 1), 1)])
    if result.normal_form != expected_nf:
        return False, "unexpected normal form", [str(result.normal_form)]
    # The map to normal coordinates is Psi . T, so its inverse is T^-1 . Phi.
    t_inverse = NearIdentityMap.from_linear(
        HORN_CONJUGATION, order).invert_to_order()
    inverse = t_inverse.compose(result.inverse)
    coeffs = restrict_to_axis(inverse.components[1], 0)
    expected = [as_scalar(0)] + [as_scalar(math.factorial(k - 1))
                                 for k in range(1, order + 1)]
    table = ", ".join(str(coeffs[k]) for k in range(1, order + 1))
    if coeffs != expected:
        return False, "coefficient table mismatch", [table]
    return True, "inverse transformation coefficients grow like (k-1)!", [
        "coefficient table: " + table]


def _run_linearizable_3d() -> EntryOutcome:
    f = linearizable_3d_field(8)
    symmetry = linear_field(LINEARIZABLE_3D_SYMMETRY_SPECTRUM, 8)
    ok, first, _ = check_commute(f, symmetry)
    if not ok:
        return False, f"symmetry fails to commute at degree {first}", []
    spectrum = f.spectrum
    joint = kernel_intersection(spectrum,
                                LINEARIZABLE_3D_SYMMETRY_SPECTRUM, 10)
    if joint:
        return False, "joint resonance kernel is not trivial", [
            str(rel) for rel in joint]
    own_a = resonant_monomials(spectrum, 5)
    own_b = resonant_monomials(LINEARIZABLE_3D_SYMMETRY_SPECTRUM, 5)
    if not own_a or not own_b:
        return False, "an individual kernel is unexpectedly empty", []
    result = normalize(f, 8)
    if not result.normal_form.nonlinear_part().is_zero():
        return False, "normal form is not linear", [str(result.normal_form)]
    return True, "joint kernel trivial to degree 10; linearized to order 8", [
        f"individual kernels: {len(own_a)} and {len(own_b)} resonant "
        "monomials through degree 5"]


def _run_so2() -> EntryOutcome:
    order = 7
    f = so2_field(order)
    g = so2_symmetry(order)
    ok, first, _ = check_commute(f, g)
    if not ok:
        return False, f"symmetry fails to commute at degree {first}", []
    result = normalize(f, order)
    if result.normal_form.degree_part(4) != g:
        return False, "degree-4 part of the normal form is off", [
            str(result.normal_form.degree_part(4))]
    basis = centralizer_basis(result.normal_form, 5)
    oracle = centralizer_basis(result.normal_form, 5, restrict_to_kernel=False)
    if basis.dimension != oracle.dimension or basis.dimension != 13:
        return False, (f"centralizer dimension {basis.dimension} vs "
                       f"unrestricted {oracle.dimension}, expected 13"), []
    confirmed = basis.confirmed_elements()
    linear_confirmed = [e for e in confirmed
                        if e.nonlinear_part().is_zero()]
    if len(confirmed) != 2 or len(linear_confirmed) != 2:
        return False, "confirmed part should be the two linear symmetries", [
            str(e) for e in confirmed]
    return True, ("normal form keeps rho*x3*(I+L)x; centralizer dimension "
                  "13 agrees with the unrestricted oracle"), [
        "confirmed linear symmetries: " + "; ".join(str(e) for e in confirmed),
        f"boundary-unconfirmed directions: {sum(basis.unconfirmed)}"]


def _run_holomorphic() -> EntryOutcome:
    f, g = holomorphic_pair(6)
    if not lie_bracket(f, g).is_zero():
        return False, "bracket does not vanish", [str(lie_bracket(f, g))]
    return True, "holomorphic field commutes with its rotated partner", [
        "no linear data; this entry checks the bracket only"]


def _run_saddle_centralizer() -> EntryOutcome:
    f = saddle_field(7)
    basis = centralizer_basis(f, 7)
    expected = {
        PolyVectorField.from_terms(2, 7, [(0, (1 + l, l), 1)])
        for l in range(4)
    } | {
        PolyVectorField.from_terms(2, 7, [(1, (l, 1 + l), 1)])
        for l in range(4)
    }
    if set(basis.elements) != expected or any(basis.unconfirmed):
        return False, f"unexpected basis of dimension {basis.dimension}", [
            str(e) for e in basis.elements]
    return True, ("saddle centralizer is the 8 powers (x1*x2)^l times "
                  "the diagonal directions"), [
        f"dimension {basis.dimension} at degree 7, all confirmed"]


def _run_oscillator_d() -> EntryOutcome:
    family = oscillator_family()
    spec = family.eigenvalues()
    pattern = oscillator_pattern(spec)
    if pattern is None or pattern[1] != 2:
        return False, "oscillator pattern not recognized", [str(spec)]
    std = build_D(family)
    osc = build_oscillator_D(family)
    res_std = det_nonsingular(std)
    res_osc = det_nonsingular(osc)
    if not (res_std.nonsingular and res_osc.nonsingular):
        return False, "a determinant vanished", [
            str(res_std.determinant), str(res_osc.determinant)]
    if res_std.determinant != -pattern[0] * res_osc.determinant:
        return False, "determinant layouts disagree", [
            f"standard {res_std.determinant}, oscillator {res_osc.determinant}"]
    return True, "both determinant layouts agree and are nonzero", [
        f"det standard = {res_std.determinant}, "
        f"det oscillator = {res_osc.determinant}"]


def _run_hopf() -> EntryOutcome:
    family = hopf_family()
    res = det_nonsingular(build_D(family))
    if str(res.determinant) != "2*i" or not res.nonsingular:
        return False, f"expected det D = 2*i, got {res.determinant}", []
    suspended = suspend(family)
    if suspended.spectrum != Spectrum([I, -I, ZERO]):
        return False, "suspension spectrum is off", [str(suspended.spectrum)]
    if not suspended.components[2].is_zero():
        return False, "parameter direction must stay constant", []
    return True, "transversality determinant 2*i; suspension keeps eta frozen", [
        f"suspension: {suspended}"]


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
