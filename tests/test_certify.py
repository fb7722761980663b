"""The independent certificate of ``certify.py`` on ``normalize``,
``centralizer``, ``resonances``, ``kernel-intersection``,
``bifurcation``, ``suspend`` and ``diagnose`` reports.

It certifies every normalize golden and the report of every
``DIGESTS`` case, accepts ``normalize``'s report on random fields, and
refuses each such report after one change that breaks it: any
normal-form coefficient, or a transformation coefficient that is not
resonant (adding a resonant term to Psi gives another valid normal form,
so that change is not an error).  Horn's input is conjugated by its
``linear_matrix`` T before the check; its report is refused after such
a change too, and so is the input after one changed entry of T.

It certifies every centralizer golden, restricted and unrestricted, and
``centralizer``'s report on the normal forms of random fields.  It
refuses such a report after one change to an element coefficient whose
monomial field x^m e_j does not commute with the normal form (changing
any other coefficient adds an element of the centralizer, which is not
an error), when an element repeats another or the printed dimension
is off by one, and when one element is dropped and the dimension lowered
to match, since the rest no longer span the centralizer.

It certifies every resonances golden against its field and every
kernel-intersection golden against its flags, and refuses such a report
after one dropped relation, one added non-resonant relation, one
relation listed twice or moved to another component, and a flipped
``empty``.

It certifies every bifurcation and suspend golden against its family
document, and refuses a bifurcation report after one changed entry of D
or a flipped ``nonsingular``, and a suspension after one changed
coefficient.

It certifies the Poincare verdict, the small-divisor records, the
Pliss verdict and Condition A of every diagnose golden against its
field; its command line exits 1 on a copy with the Poincare verdict
flipped, and it refuses a copy with one changed ``omega_sq``, with the
``pliss-linearity`` verdict, ``linear_normal_form`` or Condition A's
``satisfied`` flipped, or with a Condition A witness moved to the
monomial 1.  It certifies ``diagnose`` on a normal form with a nonzero
alpha, F = x1*x2 * Ax, and refuses that report with alpha doubled, and
on one where two components pin different alpha coefficients, refused
with the witness's degree or monomial changed.  For an input with no
normalize golden it reads the normal form off its own normalize run.
Given a report it has no check for, a field document, the command line
prints one line and exits 1.
"""

import itertools
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from certify import (certify_centralizer, certify_normalize, certify_report,
                     centralizer_pairs, family_pairs, golden_pairs,
                     joint_cases, pinned_digests)
from certify import main as certify_main
from conftest import dump_document
from dulac.cli import main
from dulac.fieldfile import field_from_dict, field_to_dict
from dulac.poly import PolyVectorField, Spectrum, lie_bracket, linear_field
from dulac.scalars import GaussianRational

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
GOLDENS = golden_pairs("normalize")
CENTRALIZER_GOLDENS = centralizer_pairs()
DIAGNOSE_GOLDENS = golden_pairs("diagnose")
# the diagnose goldens whose Condition A fails, with its witness
WITNESS_GOLDENS = [(name, source, report)
                   for name, source, report in DIAGNOSE_GOLDENS
                   if "witness" in json.loads(report.read_text())[
                       "condition_a"]]
FAMILY_GOLDENS = family_pairs()
# (name, input document, report path) of every resonances and
# kernel-intersection golden
RELATION_GOLDENS = ([(name, json.loads(source.read_text()), report)
                     for name, source, report
                     in golden_pairs("resonances")] + joint_cases())


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


def test_horn_certificate_refuses_one_change():
    # the Horn input is conjugated by its linear_matrix T before the check;
    # changing T, or any entry no valid report may change, is refused
    document = json.loads((INPUTS / "horn.json").read_text())
    report = json.loads((GOLDEN / "horn.normalize.json").read_text())
    assert certify_report(document, report) is None
    for entry in _breaking_entries(report):
        old = entry["coeff"]
        entry["coeff"] = str(GaussianRational(old) + 1)
        assert certify_report(document, report) is not None
        entry["coeff"] = old
    for row in document["linear_matrix"]:
        for j, old in enumerate(row):
            row[j] = old + 1
            assert certify_report(document, report) is not None
            row[j] = old


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


@pytest.mark.parametrize("name,source,report", CENTRALIZER_GOLDENS,
                         ids=[name for name, _, _ in CENTRALIZER_GOLDENS])
def test_centralizer_certificate_refuses_a_dropped_element(name, source,
                                                           report):
    document, data = _load_pair(source, report)
    data["elements"].pop()
    data["dimension"] -= 1
    assert "do not span" in certify_centralizer(document, data)


def test_certificate_refuses_a_report_it_has_no_check_for(capsys):
    # a field document names no command and has no diagnose verdict keys
    report = str(INPUTS / "so2.normal-form.json")
    assert certify_main([str(INPUTS / "so2.json"), report]) == 1
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith(f"{report}: REFUSED: no check for this report")


@pytest.mark.parametrize("name,source,report", DIAGNOSE_GOLDENS,
                         ids=[name for name, _, _ in DIAGNOSE_GOLDENS])
def test_diagnose_golden_is_certified(name, source, report):
    assert certify_report(*_load_pair(source, report)) is None


@pytest.mark.parametrize("name,source,report", DIAGNOSE_GOLDENS,
                         ids=[name for name, _, _ in DIAGNOSE_GOLDENS])
def test_diagnose_certificate_refuses_a_flipped_poincare_verdict(
        tmp_path, capsys, name, source, report):
    data = json.loads(report.read_text())
    assert certify_main([str(source), str(report)]) == 0
    data["poincare_domain"] = not data["poincare_domain"]
    flipped = tmp_path / report.name
    flipped.write_text(json.dumps(data))
    assert certify_main([str(source), str(flipped)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"{flipped}: REFUSED: poincare_domain should read "
        f"{not data['poincare_domain']}")


@pytest.mark.parametrize("name,source,report", DIAGNOSE_GOLDENS,
                         ids=[name for name, _, _ in DIAGNOSE_GOLDENS])
def test_diagnose_certificate_refuses_one_changed_omega_sq(name, source,
                                                           report):
    document, data = _load_pair(source, report)
    last = data["small_divisors"]["records"][-1]
    want = last["omega_sq"]
    # a null record becomes 1, a value becomes its double
    last["omega_sq"] = "1" if want is None else str(Fraction(want) * 2)
    assert certify_report(document, data) == (
        f"omega_sq of k = {last['k']} should read "
        f"{'null' if want is None else want}")


@pytest.mark.parametrize("key", ["pliss-linearity", "linear_normal_form"])
@pytest.mark.parametrize("name,source,report", DIAGNOSE_GOLDENS,
                         ids=[name for name, _, _ in DIAGNOSE_GOLDENS])
def test_diagnose_certificate_refuses_a_flipped_pliss_verdict(name, source,
                                                              report, key):
    document, data = _load_pair(source, report)
    linear = data["linear_normal_form"]
    if key == "linear_normal_form":
        data[key] = not linear
        want = f"linear_normal_form should read {linear}"
    else:
        pliss, = [c for c in data["criteria"] if c["name"] == key]
        pliss["verdict"] = ("hypothesis-failed" if linear else
                            f"hypotheses-verified-to-order-{data['order']}")
        want = ("pliss-linearity should read "
                + ("verified" if linear else "hypothesis-failed"))
    assert certify_report(document, data) == want


@pytest.mark.parametrize("name,source,report", DIAGNOSE_GOLDENS,
                         ids=[name for name, _, _ in DIAGNOSE_GOLDENS])
def test_diagnose_certificate_refuses_a_flipped_condition_a(name, source,
                                                            report):
    document, data = _load_pair(source, report)
    holds = data["condition_a"]["satisfied"]
    data["condition_a"]["satisfied"] = not holds
    assert certify_report(document, data) == (
        f"condition_a satisfied should read {holds}")


@pytest.mark.parametrize("name,source,report", WITNESS_GOLDENS,
                         ids=[name for name, _, _ in WITNESS_GOLDENS])
def test_diagnose_certificate_refuses_a_witness_at_no_violation(name, source,
                                                                report):
    # F has no constant term and no term of degree 1, so the monomial 1
    # names no violation, whichever components the witness names
    document, data = _load_pair(source, report)
    witness = data["condition_a"]["witness"]
    witness["monomial"] = [0] * len(witness["monomial"])
    assert certify_report(document, data) == (
        "the Condition A witness names no violation")


def _diagnose_saddle(tmp_path, terms):
    """(document, diagnose report) of the field of spectrum (1, -1) with
    the given terms at order 5."""
    source = tmp_path / "saddle.json"
    source.write_text(dump_document({"dim": 2, "order": 5,
                                     "eigenvalues": ["1", "-1"],
                                     "terms": terms}))
    report = tmp_path / "saddle.diagnose.json"
    assert main(["diagnose", "--input", str(source), "--order", "5",
                 "--json", "--out", str(report)]) == 0
    return _load_pair(source, report)


def test_diagnose_certificate_reads_a_nonzero_alpha(tmp_path):
    # F = x1*x2 * Ax: both terms are resonant, so the field is its own
    # normal form and Condition A holds with alpha = x1*x2
    document, data = _diagnose_saddle(tmp_path, [
        {"coeff": "1", "exps": [2, 1], "comp": 1},
        {"coeff": "-1", "exps": [1, 2], "comp": 2}])
    block = data["condition_a"]
    assert (block["satisfied"], block["alpha"]) == (True, "x1*x2")
    assert certify_report(document, data) is None
    block["alpha"] = "2*x1*x2"
    assert certify_report(document, data) == (
        "the printed alpha does not give F = alpha * Ax")


def test_diagnose_certificate_checks_two_components_that_pin_alpha(tmp_path):
    # F = (x1^2*x2, 0): component 1 pins alpha at x1*x2 to 1, component 2
    # to 0, a violation at degree 3 that no golden shows
    document, data = _diagnose_saddle(tmp_path, [
        {"coeff": "1", "exps": [2, 1], "comp": 1}])
    witness = data["condition_a"]["witness"]
    assert (witness["monomial"], witness["components"]) == ([1, 1], [1, 2])
    assert certify_report(document, data) is None
    witness["degree"] = 2
    assert certify_report(document, data) == (
        "the Condition A witness degree should read 3")
    # at x1^2 both components pin 0
    witness["monomial"] = [2, 0]
    assert certify_report(document, data) == (
        "the Condition A witness names no violation")


def test_diagnose_certificate_runs_normalize_for_an_input_with_no_golden(
        tmp_path, capsys):
    # no normalize golden has this input, so certify.py reads the normal
    # form off its own normalize run
    source = INPUTS / "deep-d2-o10.json"
    assert not [name for name, golden, _ in GOLDENS
                if golden.read_text() == source.read_text()]
    report = tmp_path / "deep-d2-o10.diagnose.json"
    assert main(["diagnose", "--input", str(source), "--order", "10",
                 "--json", "--out", str(report)]) == 0
    assert certify_main([str(source), str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"{report}: certified"
    data = json.loads(report.read_text())
    data["linear_normal_form"] = not data["linear_normal_form"]
    assert certify_report(json.loads(source.read_text()), data) == (
        f"linear_normal_form should read {not data['linear_normal_form']}")


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


@pytest.mark.parametrize("name,source,report", FAMILY_GOLDENS,
                         ids=[name for name, _, _ in FAMILY_GOLDENS])
def test_family_golden_is_certified(name, source, report):
    assert certify_report(*_load_pair(source, report)) is None


BIFURCATION_GOLDENS = [case for case in FAMILY_GOLDENS
                       if case[0].endswith(".bifurcation")]
SUSPEND_GOLDENS = [case for case in FAMILY_GOLDENS
                   if case[0].endswith(".suspend")]


@pytest.mark.parametrize("name,source,report", BIFURCATION_GOLDENS,
                         ids=[name for name, _, _ in BIFURCATION_GOLDENS])
def test_bifurcation_certificate_refuses_one_change(name, source, report):
    document, data = _load_pair(source, report)
    for row in data["D"]:
        for j, old in enumerate(row):
            row[j] = str(GaussianRational(old) + 1)
            assert "of D" in certify_report(document, data)
            row[j] = old
    data["nonsingular"] = not data["nonsingular"]
    assert "nonsingular" in certify_report(document, data)


@pytest.mark.parametrize("name,source,report", SUSPEND_GOLDENS,
                         ids=[name for name, _, _ in SUSPEND_GOLDENS])
def test_suspend_certificate_refuses_one_changed_term(name, source, report):
    document, data = _load_pair(source, report)
    assert data["terms"]
    for entry in data["terms"]:
        old = entry["coeff"]
        entry["coeff"] = str(GaussianRational(old) + 1)
        assert "suspension" in certify_report(document, data)
        entry["coeff"] = old


@pytest.mark.parametrize("name,document,report", RELATION_GOLDENS,
                         ids=[name for name, _, _ in RELATION_GOLDENS])
def test_relation_golden_is_certified(name, document, report):
    assert certify_report(document, json.loads(report.read_text())) is None


def _non_resonant_relation(data):
    """A relation entry of degree 2 through ``max_degree`` that some
    spectrum of the report does not make resonant, or None."""
    spectra = [[GaussianRational(v) for v in data[key]]
               for key in ("eigenvalues", "eigenvalues_a", "eigenvalues_b")
               if key in data]
    dim = len(spectra[0])
    for exps in itertools.product(range(data["max_degree"] + 1), repeat=dim):
        for j in range(dim):
            if (2 <= sum(exps) <= data["max_degree"]
                    and any(_gap(exps, j, lam) for lam in spectra)):
                return {"exps": list(exps), "comp": j + 1}
    return None


@pytest.mark.parametrize("name,document,report", RELATION_GOLDENS,
                         ids=[name for name, _, _ in RELATION_GOLDENS])
def test_relation_certificate_refuses_one_change(name, document, report):
    data = json.loads(report.read_text())
    relations = data["relations"]
    for k, relation in enumerate(list(relations)):
        del relations[k]
        assert "missing" in certify_report(document, data)
        relations.insert(k, relation)
        relations.append(relation)
        assert "twice" in certify_report(document, data)
        relations.pop()
        old = relation["comp"]
        relation["comp"] = old % len(relation["exps"]) + 1
        assert certify_report(document, data) is not None
        relation["comp"] = old
    extra = _non_resonant_relation(data)
    # every monomial is resonant for the zero spectrum of holomorphic
    assert extra is not None or name == "holomorphic"
    if extra is not None:
        relations.append(extra)
        assert "not resonant" in certify_report(document, data)
        relations.pop()
    if "empty" in data:
        data["empty"] = not data["empty"]
        assert "empty" in certify_report(document, data)
        data["empty"] = not data["empty"]
    assert certify_report(document, data) is None
