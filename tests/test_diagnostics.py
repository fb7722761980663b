"""Condition A, growth heuristics, and the diagnose report."""

import pytest

from dulac.cli import TEXT_RENDERERS
from dulac.diagnostics import (
    condition_a,
    diagnose,
    growth_classify,
    pliss_linear,
)
from dulac.corpus import (
    HORN_CONJUGATION,
    LINEARIZABLE_3D_SYMMETRY_SPECTRUM,
    horn_field,
    linearizable_3d_field,
)
from dulac.errors import (
    DimensionMismatchError,
    InputFormatError,
    NonDiagonalLinearPartError,
    NotInNormalFormError,
    TruncationOrderError,
)
from dulac.maps import linear_conjugate
from dulac.poly import PolyVectorField, Spectrum, linear_field
from dulac.scalars import as_scalar


def normal_form_field(terms, spectrum, order=7):
    spec = Spectrum([as_scalar(v) for v in spectrum])
    return linear_field(spec, order) + PolyVectorField.from_terms(
        len(spectrum), order, terms)


def test_condition_a_pure_linear():
    result = condition_a(normal_form_field([], (1, -1)))
    assert result.satisfied
    assert result.alpha.is_zero()
    assert result.witness is None


def test_condition_a_recovers_alpha():
    field = normal_form_field([(0, (2, 1), 1), (1, (1, 2), -1)], (1, -1))
    result = condition_a(field)
    assert result.satisfied
    assert str(result.alpha) == "x1*x2"
    assert result.order == 7


def test_condition_a_component_disagreement():
    # only component 1 carries the resonant pair, so the alpha candidates clash
    field = normal_form_field([(0, (2, 1), 1)], (1, -1))
    result = condition_a(field)
    assert not result.satisfied
    assert result.witness == ((1, 1), 1, 2)
    assert "different alpha" in result.witness_reason
    assert result.violated_degree == 3


def test_condition_a_zero_eigenvalue():
    field = normal_form_field([(0, (2, 0), 1)], (0, 1), order=6)
    result = condition_a(field)
    assert not result.satisfied
    assert result.witness == ((1, 0), 1, 1)
    assert result.witness_reason == "eigenvalue 1 is zero but component 1 carries x1^2"
    assert result.violated_degree == 2


def test_condition_a_divisibility_failure():
    # x2^2 in component 1 has no x1 factor, so F_1/x1 is not polynomial
    field = normal_form_field([(0, (0, 2), 1)], (2, 1), order=6)
    result = condition_a(field)
    assert not result.satisfied
    assert result.witness == ((0, 2), 1, 1)
    assert "not divisible by x1" in result.witness_reason
    # equal normal forms whose component 1 lists the resonant x2^2 and
    # x3^2 in either order: the witness is the first in term order
    lin = linear_field(Spectrum([as_scalar(v) for v in (2, 1, 1)]), 6)
    a = PolyVectorField.from_terms(3, 6, [(0, (0, 2, 0), 1),
                                          (0, (0, 0, 2), 1)])
    b = PolyVectorField.from_terms(3, 6, [(0, (0, 0, 2), 1),
                                          (0, (0, 2, 0), 1)])
    assert lin + a == lin + b
    witnesses = {condition_a(lin + f).witness for f in (a, b)}
    assert witnesses == {((0, 0, 2), 1, 1)}


def test_condition_a_requires_normal_form():
    spec = Spectrum([1, -1])
    bare = linear_field(spec, 6) + PolyVectorField.from_terms(2, 6, [(0, (2, 0), 1)])
    with pytest.raises(NotInNormalFormError):
        condition_a(bare)
    rotation = PolyVectorField.from_terms(2, 6, [(0, (0, 1), 1),
                                                 (1, (1, 0), -1)])
    with pytest.raises(NonDiagonalLinearPartError):
        condition_a(rotation)  # commutes with its own linear part


def test_pliss_linear():
    assert pliss_linear(normal_form_field([], (1, -1)))
    assert not pliss_linear(normal_form_field([(0, (2, 1), 1)], (1, -1)))


def test_growth_factorial():
    import math

    coeffs = [0] + [math.factorial(k - 1) for k in range(1, 13)]
    result = growth_classify(coeffs)
    assert result.kind == "factorial"
    assert result.first_degree == 1
    assert result.last_degree == 12
    assert result.estimate == pytest.approx(1.0)


def test_growth_geometric():
    result = growth_classify([2 ** k for k in range(12)])
    assert result.kind == "geometric"
    assert result.estimate == pytest.approx(2.0)
    assert (result.first_degree, result.last_degree) == (0, 11)

    flat = growth_classify([1] * 10)
    assert flat.kind == "geometric"
    assert flat.estimate == pytest.approx(1.0)


def test_growth_inconclusive():
    result = growth_classify([1, 10, 1, 10, 1, 10, 1])
    assert result.kind == "inconclusive"
    assert result.estimate is None


def test_growth_needs_six_consecutive():
    with pytest.raises(TruncationOrderError):
        growth_classify([1, 2, 3, 4, 5])
    with pytest.raises(TruncationOrderError):
        growth_classify([1, 2, 0, 3, 4, 0, 5, 6])


def test_diagnose_refuses_a_centralizer_degree_without_a_symmetry():
    # the degree bounds only the symmetry's centralizer comparison, so it
    # is refused, as on the command line, not checked and dropped
    field = linear_field(Spectrum([1, -1]), 7)
    with pytest.raises(InputFormatError) as refused:
        diagnose(field, 7, centralizer_degree=3)
    assert str(refused.value) == "--centralizer-degree needs --symmetry"
    with pytest.raises(InputFormatError):
        diagnose(field, 7, centralizer_degree=99)
    assert diagnose(field, 7).to_dict()["centralizer_degree"] is None
    report = diagnose(field, 7, symmetry=field, centralizer_degree=3)
    assert report.to_dict()["centralizer_degree"] == 3


def test_diagnose_poincare_domain():
    spec = Spectrum([1, 2])
    field = linear_field(spec, 8) + PolyVectorField.from_terms(2, 8, [(1, (2, 0), 1)])
    report = diagnose(field, 8)
    assert report.applicable() == ["poincare-domain"]
    assert report.summary() == (
        "a convergent normalizing transformation is guaranteed (poincare-domain)"
    )
    assert [str(p) for p in report.normal_form.components] == ["x1", "2*x2 + x1^2"]
    assert report.to_dict()["poincare_domain"]
    assert report.growth is None


def test_diagnose_divergent_horn():
    field = linear_conjugate(HORN_CONJUGATION, horn_field(12))
    report = diagnose(field, 12)
    assert report.applicable() == []
    assert report.summary() == (
        "no convergence criterion verified; factorial growth of transformation "
        "coefficients suggests divergence (heuristic, not a certificate)"
    )
    assert report.growth.kind == "factorial"
    assert (report.growth.first_degree, report.growth.last_degree) == (2, 12)
    assert report.growth.estimate == pytest.approx(1.0)
    assert not report.condition_a.satisfied
    assert report.condition_a.witness == ((1, 0), 1, 1)
    report_dict = report.to_dict()
    assert not report_dict["linear_normal_form"]
    assert not report_dict["poincare_domain"]


def test_diagnose_with_symmetry():
    field = linearizable_3d_field(8)
    spec = LINEARIZABLE_3D_SYMMETRY_SPECTRUM
    symmetry = linear_field(spec, 8)
    report = diagnose(field, 8, symmetry=symmetry)
    assert report.applicable() == [
        "bruno-small-divisors",
        "pliss-linearity",
        "joint-kernel-linearization",
    ]
    assert report.to_dict()["linear_normal_form"]
    assert report.omega.verdict == "holds-by-rational-bound"
    assert report.centralizer_degree == 8
    verdicts = {check.name: check.verdict for check in report.criteria}
    assert verdicts["poincare-domain"] == "hypothesis-failed"
    assert verdicts["identity-symmetry-linearization"] == "not-applicable"
    assert verdicts["planar-analytic-symmetry"] == "not-applicable"
    assert verdicts["centralizer-span"] == "hypothesis-failed"
    span = [c for c in report.criteria if c.name == "centralizer-span"][0]
    assert span.detail == (
        "6 centralizer directions lie outside the span of the normal form and "
        "linear fields (0 of 9 elements unconfirmed at the truncation)"
    )


def test_diagnose_identity_and_planar_symmetry():
    spec = Spectrum([1, -1])
    field = linear_field(spec, 7)
    ident = Spectrum([1, 1])
    symmetry = linear_field(ident, 7) + PolyVectorField.from_terms(2, 7, [(0, (2, 1), 1)])
    report = diagnose(field, 7, symmetry=symmetry)
    assert report.applicable() == [
        "bruno-small-divisors",
        "pliss-linearity",
        "joint-kernel-linearization",
        "identity-symmetry-linearization",
        "planar-analytic-symmetry",
    ]


def test_diagnose_refuses_a_symmetry_that_moves_the_origin():
    # [f, g] through degree 2 would read f's unknown degree-3 terms
    field = linear_field(Spectrum([0, 0]), 2)
    symmetry = PolyVectorField.from_terms(2, 2, [(1, (0, 0), 1)])
    with pytest.raises(DimensionMismatchError, match="vanish at the origin"):
        diagnose(field, 2, symmetry=symmetry)


@pytest.mark.parametrize("symmetry,reason", [
    (linear_field(Spectrum([1, 1, 1]), 2), "dimension differs"),
    (PolyVectorField.from_terms(2, 2, [(0, (0, 0), 1)]),
     "vanish at the origin"),
])
def test_diagnose_refuses_a_bad_symmetry_before_it_normalizes(
        monkeypatch, symmetry, reason):
    def fail(*args):
        raise AssertionError("normalize ran before the refusal")

    monkeypatch.setattr("dulac.diagnostics.normalize", fail)
    with pytest.raises(DimensionMismatchError, match=reason):
        diagnose(linear_field(Spectrum([1, -1]), 2), 2, symmetry=symmetry)


def test_report_dict_and_text():
    field = linearizable_3d_field(8)
    spec = LINEARIZABLE_3D_SYMMETRY_SPECTRUM
    symmetry = linear_field(spec, 8)
    report = diagnose(field, 8, symmetry=symmetry)
    data = report.to_dict()
    assert sorted(data.keys()) == [
        "applicable",
        "centralizer_degree",
        "condition_a",
        "criteria",
        "eigenvalues",
        "growth",
        "linear_normal_form",
        "normal_form",
        "order",
        "poincare_domain",
        "small_divisors",
        "summary",
        "version",
    ]
    assert data["applicable"] == report.applicable()
    assert data["summary"] == report.summary()

    text = TEXT_RENDERERS["diagnose"](data)
    assert "condition A: satisfied, alpha = 0" in text
    assert "small divisors: holds-by-rational-bound (omega_k^2 >= 1, 116 tuples scanned)" in text
    assert "bruno-small-divisors: hypotheses-verified-to-order-8" in text
    assert text.rstrip().endswith(report.summary())


def _centralizer_span(field, symmetry):
    report = diagnose(field, 5, symmetry=symmetry)
    return [c for c in report.criteria if c.name == "centralizer-span"][0]


def test_centralizer_span_reads_the_symmetry_linear_part():
    # f = diag(1, 2)x + x1^2 e2: its centralizer through degree 5 is
    # spanned by the linear part and f itself
    field = normal_form_field([(1, (2, 0), 1)], (1, 2), order=5)
    span = _centralizer_span(field, linear_field(field.spectrum, 5))
    assert span.verdict == "hypotheses-verified"
    assert span.exact == ("the supplied field's linear part equals 1 times "
                          "the diagonal linear part",)

    span = _centralizer_span(field, PolyVectorField(field.components) * as_scalar(3))
    assert span.verdict == "not-applicable"
    assert span.detail == "the supplied field equals 3 times the input field"
    assert span.exact == ()

    # x3 e3 commutes with diag(1, 2, 7/3)x + x1^2 e2, but its linear part
    # diag(0, 0, 1) is no multiple of the diagonal linear part
    field = normal_form_field([(1, (2, 0, 0), 1)], (1, 2, "7/3"), order=5)
    symmetry = PolyVectorField.from_terms(3, 5, [(2, (0, 0, 1), 1)])
    span = _centralizer_span(field, symmetry)
    assert span.verdict == "not-applicable"
    assert span.detail == ("the supplied field's linear part is not a scalar "
                           "multiple of the diagonal linear part")
    assert span.exact == ()
