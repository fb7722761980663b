"""Well-formed field and family documents with extreme numbers, run
through the CLI.

A derandomized strategy builds field documents that parse: numerators
and denominators from 1 up to about 10^400, zero, repeated and complex
eigenvalues, spectra a gap of 1/10^k away from a resonance, and small
orders, some past the degrees of the terms.  ``normalize``,
``resonances`` and ``diagnose`` run on each document, and
``centralizer`` on the normal form that ``normalize`` printed for it,
each in both formats.  ``diagnose`` runs again with ``--omega-k 1`` and
with the first ``--omega-k`` past the work budget, which must be refused
before any scan, and with the document as its own ``--symmetry`` at
``--centralizer-degree`` 1 and at the order.  A second strategy builds
family documents of the same numbers, with the n - 1 parameters that
``bifurcation`` needs, run through ``bifurcation`` in both formats and
through ``suspend``.

Every run ends in exit 0, 1 or 2, never in an internal error; exit 2
prints a ``[slug]`` on stderr; and both formats end alike.  On exit 0 the
text report is the text renderer applied to the JSON report, so the two
carry the same facts, and ``certify.py`` accepts the ``bifurcation`` and
``suspend`` reports.  Each example must finish within ``WALL``, so that
a slow path fails as a test.
"""

import contextlib
import io
import itertools
import json
import math
import re
import tempfile
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from certify import certify_report
from dulac.cli import TEXT_RENDERERS, main
from dulac.poly import DEFAULT_TUPLE_BUDGET
from dulac.scalars import GaussianRational

SLUG = re.compile(r"dulac: error \[[a-z-]+\]: ")
# generous: an example typically takes under 0.1 s on a 2-core machine
WALL = timedelta(seconds=30)
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


def omega_k_edge(dim):
    """The largest ``--omega-k`` K whose scan through degree 2^K - 1 the
    work budget admits in dimension ``dim``."""
    k = 1
    while dim * math.comb(dim + 2 ** (k + 1) - 1, dim) <= DEFAULT_TUPLE_BUDGET:
        k += 1
    return k


@settings(max_examples=80, deadline=WALL, derandomize=True, database=None)
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
        diagnose = ["diagnose", "--input", str(source), "--order", order]
        plain = _check_both_formats("diagnose", diagnose, work)
        for flags in (["--omega-k", "1", "--symmetry", str(source),
                       "--centralizer-degree", "1"],
                      ["--symmetry", str(source),
                       "--centralizer-degree", order]):
            _check_both_formats("diagnose", diagnose + flags, work)
        past_edge = str(omega_k_edge(document["dim"]) + 1)
        code, _, err = _run(diagnose + ["--omega-k", past_edge],
                            work / "report.txt")
        assert code == 2, err
        if plain is not None:
            assert "[enumeration-budget-exceeded]" in err, err
        report = _check_both_formats("normalize", [
            "normalize", "--input", str(source), "--order", order], work)
        if report is None:
            return
        normal_form = work / "normal-form.json"
        normal_form.write_text(json.dumps(report["normal_form"]))
        _check_both_formats("centralizer", [
            "centralizer", "--input", str(normal_form), "--degree", order],
            work)


def _monomials(p, low, high):
    """Exponent tuples in p variables of degree low..high, grlex sorted."""
    return sorted((e for e in itertools.product(range(high + 1), repeat=p)
                   if low <= sum(e) <= high), key=lambda e: (sum(e), e))


def _entries(draw, candidates):
    """Term entries with up to two distinct exponent tuples drawn from
    ``candidates``, in their order, with extreme coefficients."""
    if not candidates:
        return []
    picked = draw(st.lists(st.sampled_from(candidates), unique=True,
                           max_size=2))
    return [{"coeff": draw(scalars()), "exps": list(e)}
            for e in sorted(picked, key=candidates.index)]


@st.composite
def family_documents(draw):
    """A family over n = 1-3 variables with the p = n - 1 parameters that
    ``bifurcation`` needs, order 1-3: A(0) has a spectrum as above on its
    diagonal, every cell extreme eta-terms of degree >= 1, and the terms
    of x-degree >= 2 extreme coefficients."""
    n = draw(st.integers(1, 3))
    p = n - 1
    order = draw(st.integers(1, 3))
    eigenvalues = draw(spectra(n))
    etas = _monomials(p, 1, order)
    matrix = [[([{"coeff": eigenvalues[i], "exps": [0] * p}]
                if i == j and eigenvalues[i] != "0" else [])
               + _entries(draw, etas) for j in range(n)] for i in range(n)]
    joint = [e for e in _monomials(n + p, 2, order) if sum(e[:n]) >= 2]
    terms = [dict(entry, comp=comp) for comp in range(1, n + 1)
             for entry in _entries(draw, joint)]
    return {"dim": n, "order": order,
            "params": {"names": [f"eta{k + 1}" for k in range(p)],
                       "matrix": matrix},
            "terms": terms}


@settings(max_examples=60, deadline=WALL, derandomize=True, database=None)
@given(family_documents())
def test_extreme_family_reports_agree_in_both_formats(document):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        source = work / "family.json"
        source.write_text(json.dumps(document))
        report = _check_both_formats("bifurcation", [
            "bifurcation", "--family", str(source)], work)
        if report is not None:
            assert certify_report(document, report) is None
        # suspend prints a field document, which has no text form
        code, text, err = _run(["suspend", "--family", str(source)],
                               work / "field.json")
        assert code in (0, 2), err
        if code == 2:
            assert SLUG.match(err), err
        else:
            assert certify_report(document, json.loads(text)) is None
