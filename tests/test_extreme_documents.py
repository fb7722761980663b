"""Well-formed field documents with extreme numbers, run through the CLI.

A derandomized strategy builds field documents that parse: numerators
and denominators from 1 up to about 10^400, zero, repeated and complex
eigenvalues, spectra a gap of 1/10^k away from a resonance, and small
orders, some past the degrees of the terms.  ``normalize``,
``resonances`` and ``diagnose`` run on each document, and
``centralizer`` on the normal form that ``normalize`` printed for it,
each in both formats.  Every run ends in exit 0, 1 or 2, never in an
internal error; exit 2 prints a ``[slug]`` on stderr; and both formats
end alike.  On exit 0 the text report is the text renderer applied to
the JSON report, so the two carry the same facts.
"""

import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dulac.cli import TEXT_RENDERERS, main
from dulac.scalars import GaussianRational

SLUG = re.compile(r"dulac: error \[[a-z-]+\]: ")
SIZES = (1, 2, 3, 10 ** 3, 10 ** 20, 10 ** 170, 10 ** 400)
GAP_EXPONENTS = (1, 20, 170, 400)
# Psi's coefficients at degree 4 pass the interpreter's 4300-digit limit
# on int-to-text conversion, so normalize refuses to print them
TALL = {"dim": 2, "order": 4, "eigenvalues": ["1", "-3"],
        "terms": [{"coeff": str(10 ** 1500), "exps": [2, 0], "comp": 1},
                  {"coeff": str(10 ** 1500), "exps": [1, 1], "comp": 2}]}


@st.composite
def rationals(draw):
    """A rational with numerator and denominator up to about 10^400."""
    num = draw(st.sampled_from(SIZES)) + draw(st.integers(-1, 1))
    return Fraction(draw(st.sampled_from((1, -1))) * num,
                    draw(st.sampled_from(SIZES)))


@st.composite
def scalars(draw):
    imag = draw(st.just(Fraction(0)) | rationals())
    return str(GaussianRational(draw(rationals()), imag))


@st.composite
def spectra(draw, dim):
    """Eigenvalues, free or with a zero, a repeat or a near resonance."""
    values = [draw(scalars()) for _ in range(dim)]
    kind = draw(st.sampled_from(("free", "zero", "repeated", "near")))
    j = draw(st.integers(0, dim - 1))
    if kind == "zero":
        values[j] = "0"
    elif kind == "repeated":
        values[j] = values[0]
    elif kind == "near":
        # lambda_j = c * lambda_0 + 1/10^k, a gap of 1/10^k from the
        # resonance lambda_j = c * lambda_0 (c = 0 puts lambda_j near 0)
        base = draw(st.integers(1, 3))
        gap = Fraction(draw(st.sampled_from((1, -1))),
                       10 ** draw(st.sampled_from(GAP_EXPONENTS)))
        values[0] = str(base)
        values[j] = str(GaussianRational(
            draw(st.sampled_from((-1, 0, 2, 3))) * base * (j > 0) + gap))
    return values


@st.composite
def field_documents(draw):
    dim = draw(st.integers(1, 3))
    order = draw(st.integers(2, 4))
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(2, order))
        exps = [0] * dim
        for var in draw(st.lists(st.integers(0, dim - 1),
                                 min_size=degree, max_size=degree)):
            exps[var] += 1
        terms.append({"coeff": draw(scalars()), "exps": exps,
                      "comp": draw(st.integers(1, dim))})
    return {"dim": dim, "order": order, "eigenvalues": draw(spectra(dim)),
            "terms": terms}


def _run(argv, out: Path):
    """(exit code, report text or None, stderr) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    text = out.read_text() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, text, err.getvalue()


def _check_both_formats(command, argv, work: Path):
    """Run ``argv`` in both formats and check how they end; the JSON
    report on exit 0, else None."""
    json_code, json_text, json_err = _run(argv + ["--json"],
                                          work / "report.json")
    code, text, err = _run(argv, work / "report.txt")
    assert json_code == code in (0, 1, 2), (argv, err)
    assert json_err == err, argv
    if code == 2:
        assert SLUG.match(err), (argv, err)
        return None
    payload = json.loads(json_text)
    assert text == TEXT_RENDERERS[command](payload) + "\n", argv
    return payload


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(field_documents())
@example(TALL)
def test_extreme_document_reports_agree_in_both_formats(document):
    order = str(document["order"])
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        source = work / "field.json"
        source.write_text(json.dumps(document))
        _check_both_formats("resonances", [
            "resonances", "--input", str(source),
            "--max-degree", str(max(2, document["order"]))], work)
        _check_both_formats("diagnose", [
            "diagnose", "--input", str(source), "--order", order], work)
        report = _check_both_formats("normalize", [
            "normalize", "--input", str(source), "--order", order], work)
        if report is None:
            return
        normal_form = work / "normal-form.json"
        normal_form.write_text(json.dumps(report["normal_form"]))
        _check_both_formats("centralizer", [
            "centralizer", "--input", str(normal_form), "--degree", order],
            work)
