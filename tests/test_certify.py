"""The independent certificate of ``certify.py`` on ``normalize`` and
``centralizer`` reports.

It certifies every normalize golden whose input has a diagonal linear
part and the report of every ``DIGESTS`` case, accepts ``normalize``'s
report on random fields, and refuses each such report after one change
that breaks it: any normal-form coefficient, or a transformation
coefficient that is not resonant (adding a resonant term to Psi gives
another valid normal form, so that change is not an error).

It certifies every centralizer golden, restricted and unrestricted, and
``centralizer``'s report on the normal forms of random fields.  It
refuses such a report after one change to an element coefficient whose
monomial field x^m e_j does not commute with the normal form (changing
any other coefficient adds an element of the centralizer, which is not
an error), and when an element repeats another or the printed dimension
is off by one.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from certify import (certify_centralizer, certify_normalize,
                     centralizer_pairs, golden_pairs, pinned_digests)
from dulac.cli import main
from dulac.fieldfile import dump_document, field_from_dict, field_to_dict
from dulac.poly import PolyVectorField, Spectrum, lie_bracket, linear_field
from dulac.scalars import GaussianRational

INPUTS = Path(__file__).parent / "golden" / "inputs"
GOLDENS = golden_pairs()
CENTRALIZER_GOLDENS = centralizer_pairs()


def _normalize(source: Path, order: int, out: Path) -> dict:
    assert main(["normalize", "--input", str(source), "--order", str(order),
                 "--json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("name,source,report", GOLDENS,
                         ids=[name for name, _, _ in GOLDENS])
def test_normalize_golden_is_certified(name, source, report):
    assert certify_normalize(json.loads(source.read_text()),
                             json.loads(report.read_text())) is None


@pytest.mark.parametrize("name", pinned_digests())
def test_digest_report_is_certified(name, digest_report):
    source = INPUTS / f"{name}.json"
    report = json.loads(digest_report(name).read_text())
    assert certify_normalize(json.loads(source.read_text()), report) is None


def test_horn_is_out_of_scope():
    document = json.loads((INPUTS / "horn.json").read_text())
    with pytest.raises(ValueError, match="linear_matrix"):
        certify_normalize(document, {"order": 2})


def _gap(exps, component, eigenvalues):
    return (sum((lam * e for e, lam in zip(exps, eigenvalues)),
                GaussianRational(0)) - eigenvalues[component])


def _breaking_entries(report):
    """The entries of a report whose coefficient no change may keep
    valid: every normal-form term, and every term of Psi except the
    resonant ones of degree >= 2."""
    eigenvalues = [GaussianRational(v) for v in report["eigenvalues"]]
    entries = list(report["normal_form"]["terms"])
    for comp in report["transformation"]["components"]:
        entries += [entry for entry in comp
                    if sum(entry["exps"]) < 2
                    or _gap(entry["exps"], entry["comp"] - 1, eigenvalues)]
    return entries


@st.composite
def certify_cases(draw):
    """A field Ax + F with an integer spectrum (resonances included), F of
    degree 2 through the order, and a nonzero change of one coefficient."""
    dim = draw(st.integers(min_value=2, max_value=3))
    order = draw(st.integers(min_value=2, max_value=5))
    spectrum = Spectrum(draw(st.lists(st.integers(-3, 3),
                                      min_size=dim, max_size=dim)))
    triples = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        degree = draw(st.integers(min_value=2, max_value=order))
        exps = [0] * dim
        for var in draw(st.lists(st.integers(0, dim - 1),
                                 min_size=degree, max_size=degree)):
            exps[var] += 1
        coeff = GaussianRational(draw(st.integers(-3, 3)),
                                 draw(st.integers(-1, 1)))
        triples.append((draw(st.integers(0, dim - 1)), tuple(exps), coeff))
    f = PolyVectorField.from_terms(dim, order, triples)
    f = f + linear_field(spectrum, order)
    delta = GaussianRational(draw(st.integers(-2, 2).filter(bool)),
                             draw(st.integers(-1, 1)))
    return f, draw(st.integers(min_value=0, max_value=10 ** 6)), delta


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(certify_cases())
def test_certificate_accepts_normalize_and_refuses_one_change(case):
    f, pick, delta = case
    with tempfile.TemporaryDirectory() as work:
        source = Path(work) / "field.json"
        source.write_text(dump_document(field_to_dict(f)))
        report = _normalize(source, f.order, Path(work) / "report.json")
        document = json.loads(source.read_text())
    assert certify_normalize(document, report) is None
    entries = _breaking_entries(report)
    entry = entries[pick % len(entries)]
    entry["coeff"] = str(GaussianRational(entry["coeff"]) + delta)
    assert certify_normalize(document, report) is not None


def _load_pair(source, report):
    return json.loads(source.read_text()), json.loads(report.read_text())


@pytest.mark.parametrize("name,source,report", CENTRALIZER_GOLDENS,
                         ids=[name for name, _, _ in CENTRALIZER_GOLDENS])
def test_centralizer_golden_is_certified(name, source, report):
    assert certify_centralizer(*_load_pair(source, report)) is None


def _non_commuting_entries(document, report):
    """The element entries whose monomial field x^m e_j does not bracket
    to zero with the normal form through the degree bound."""
    fhat, _ = field_from_dict(document)
    degree = report["degree"]
    work = fhat.truncated(degree)
    return [entry for element in report["elements"]
            for entry in element["terms"]
            if not lie_bracket(work, PolyVectorField.from_terms(
                fhat.dim, degree,
                [(entry["comp"] - 1, tuple(entry["exps"]), 1)])).is_zero()]


def test_centralizer_certificate_refuses_one_changed_coefficient():
    changed = 0
    for _, source, report in CENTRALIZER_GOLDENS:
        document, data = _load_pair(source, report)
        for entry in _non_commuting_entries(document, data):
            old = entry["coeff"]
            entry["coeff"] = str(GaussianRational(old) + 1)
            assert "does not commute" in certify_centralizer(document, data)
            entry["coeff"] = old
            changed += 1
    assert changed


@pytest.mark.parametrize("name,source,report", CENTRALIZER_GOLDENS,
                         ids=[name for name, _, _ in CENTRALIZER_GOLDENS])
def test_centralizer_certificate_refuses_a_wrong_rank(name, source, report):
    document, data = _load_pair(source, report)
    data["dimension"] += 1
    assert "rank" in certify_centralizer(document, data)
    data["dimension"] -= 1
    if len(data["elements"]) > 1:
        data["elements"][-1] = data["elements"][0]
        assert "rank" in certify_centralizer(document, data)


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(certify_cases(), st.integers(min_value=1, max_value=5), st.booleans())
def test_certificate_accepts_centralizer_on_random_normal_forms(
        case, degree, unrestricted):
    f, pick, delta = case
    degree = min(degree, f.order)
    with tempfile.TemporaryDirectory() as work:
        source = Path(work) / "field.json"
        source.write_text(dump_document(field_to_dict(f)))
        report = _normalize(source, f.order, Path(work) / "report.json")
        normal_form = Path(work) / "normal-form.json"
        normal_form.write_text(dump_document(report["normal_form"]))
        out = Path(work) / "centralizer.json"
        assert main(["centralizer", "--input", str(normal_form),
                     "--degree", str(degree), "--json", "--out", str(out)]
                    + (["--unrestricted"] if unrestricted else [])) == 0
        data = json.loads(out.read_text())
    document = report["normal_form"]
    assert certify_centralizer(document, data) is None
    entries = _non_commuting_entries(document, data)
    if entries:
        entry = entries[pick % len(entries)]
        entry["coeff"] = str(GaussianRational(entry["coeff"]) + delta)
        assert certify_centralizer(document, data) is not None
