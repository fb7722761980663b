"""The built-in worked examples must all pass, on the commands' own path.

Every payload an entry builds through ``normalize_payload``,
``centralizer_payload``, ``bifurcation_payload`` or ``diagnose`` is
recorded, and each one that has a golden of the same command on the same
input must equal it byte for byte; the so2 entry's two centralizer
solves, at a degree no golden pins, are certified by ``certify.py``
instead.  One changed fact in one payload fails that entry with its note
and no other.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from certify import certify_centralizer
from conftest import dump_document
from dulac import corpus
from dulac.fieldfile import field_to_dict
from dulac.poly import linear_field

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# entry id -> the golden of each payload it builds, in the order it builds
# them; None for a payload that no golden pins
PAYLOAD_GOLDENS = {
    "horn": ["horn.normalize.json"],
    "linearizable-3d": ["linearizable-3d-symmetry.diagnose.json"],
    "so2": ["so2.normalize.json", None, None],
    "holomorphic": ["holomorphic.diagnose.json"],
    "saddle-centralizer": ["saddle.centralizer.json"],
    "oscillator-d": ["oscillator.bifurcation.json",
                     "oscillator-layout.bifurcation.json"],
    "hopf-transversality": ["hopf.bifurcation.json"],
}
# input document -> the corpus builder it is written from
DOCUMENTS = {
    "horn": lambda: corpus.horn_document(12),
    "linearizable-3d": lambda: field_to_dict(corpus.linearizable_3d_field(8)),
    "linearizable-3d-symmetry": lambda: field_to_dict(linear_field(
        corpus.LINEARIZABLE_3D_SYMMETRY_SPECTRUM, 8)),
    "so2": lambda: field_to_dict(corpus.so2_field(7)),
    "saddle": lambda: field_to_dict(corpus.saddle_field(7)),
}


def test_all_entries_pass():
    results = corpus.run_corpus()
    assert [r.entry_id for r in results] == [
        "horn",
        "linearizable-3d",
        "so2",
        "holomorphic",
        "saddle-centralizer",
        "oscillator-d",
        "hopf-transversality",
    ]
    for result in results:
        assert result.passed, f"{result.entry_id}: {result.note}"
        assert result.seconds >= 0.0


def test_filter_is_substring_match():
    assert [r.entry_id for r in corpus.run_corpus("horn")] == ["horn"]
    assert [r.entry_id for r in corpus.run_corpus("centralizer")] == [
        "saddle-centralizer"]
    assert corpus.run_corpus("zzz") == []


def test_horn_detail_carries_the_factorial_table():
    (result,) = corpus.run_corpus("horn")
    assert result.note == ("normalizing transformation coefficients grow "
                           "like (k-1)!")
    assert any("-1, -2, -6, -24, -120, -720, -5040" in line
               for line in result.lines)


def test_so2_note():
    (result,) = corpus.run_corpus("so2")
    assert "centralizer dimension 13" in result.note


def test_runner_exceptions_become_failures(monkeypatch):
    def broken():
        raise RuntimeError("synthetic breakage")

    patched = tuple(
        (entry_id, desc, broken if entry_id == "horn" else runner)
        for entry_id, desc, runner in corpus.ENTRIES)
    monkeypatch.setattr(corpus, "ENTRIES", patched)
    (result,) = corpus.run_corpus("horn")
    assert not result.passed
    assert "RuntimeError" in result.note or "synthetic breakage" in result.note


@pytest.mark.parametrize("name", DOCUMENTS)
def test_input_document_is_the_corpus_builder(name):
    assert (INPUTS / f"{name}.json").read_text() == dump_document(
        DOCUMENTS[name]())


@pytest.fixture
def payloads(monkeypatch):
    """The payloads that the corpus builds, in order, as the command line
    prints them under --json."""
    seen = []

    def record(build, to_dict=lambda payload: payload):
        def wrapper(*args, **kwargs):
            out = build(*args, **kwargs)
            seen.append(json.dumps(to_dict(out), indent=2) + "\n")
            return out
        return wrapper

    for name in ("normalize_payload", "centralizer_payload",
                 "bifurcation_payload"):
        monkeypatch.setattr(corpus, name, record(getattr(corpus, name)))
    monkeypatch.setattr(corpus, "diagnose",
                        record(corpus.diagnose, lambda r: r.to_dict()))
    return seen


@pytest.mark.parametrize("entry_id", PAYLOAD_GOLDENS)
def test_entry_payloads_equal_the_goldens(entry_id, payloads):
    (result,) = [r for r in corpus.run_corpus(entry_id)
                 if r.entry_id == entry_id]
    assert result.passed, result.note
    assert len(payloads) == len(PAYLOAD_GOLDENS[entry_id])
    for text, golden in zip(payloads, PAYLOAD_GOLDENS[entry_id]):
        if golden is not None:
            assert text == (GOLDEN / golden).read_text(), golden


def test_so2_centralizer_payloads_are_certified(payloads):
    corpus.run_corpus("so2")
    normalize, restricted, unrestricted = map(json.loads, payloads)
    for report in (restricted, unrestricted):
        assert certify_centralizer(normalize["normal_form"], report) is None
    assert [restricted["restricted_to_resonant_kernel"],
            unrestricted["restricted_to_resonant_kernel"]] == [True, False]


def _change_psi_x1_5(report):
    for term in report["transformation"]["components"][1]:
        if term["exps"] == [5, 0]:
            term["coeff"] = "-25"


def _change_planar_verdict(report):
    for criterion in report["criteria"]:
        if criterion["name"] == "planar-analytic-symmetry":
            criterion["verdict"] = "hypothesis-failed"
    report["applicable"] = [name for name in report["applicable"]
                            if name != "planar-analytic-symmetry"]


def _change_oscillator_determinant(report):
    if report["layout"] == "oscillator":
        report["determinant"] = "2"


# (builder, one changed fact, the entry that reads it, its failure note);
# each builder is shared with another entry, which must still pass
ONE_CHANGE = {
    "normalize": ("normalize_payload", _change_psi_x1_5, "horn",
                  "Psi's x1^k coefficients of y2 are not -(k-1)!"),
    "diagnose": ("diagnose", _change_planar_verdict, "holomorphic",
                 "the planar criterion is not verified"),
    "bifurcation": ("bifurcation_payload", _change_oscillator_determinant,
                    "oscillator-d", "determinant layouts disagree"),
}


@pytest.mark.parametrize("builder,change,entry_id,note",
                         ONE_CHANGE.values(), ids=list(ONE_CHANGE))
def test_one_changed_fact_fails_its_entry_alone(monkeypatch, builder, change,
                                                entry_id, note):
    build = getattr(corpus, builder)

    def changed(*args, **kwargs):
        out = build(*args, **kwargs)
        if builder != "diagnose":
            change(out)
            return out
        report = out.to_dict()
        change(report)
        return SimpleNamespace(to_dict=lambda: report)

    monkeypatch.setattr(corpus, builder, changed)
    results = {r.entry_id: r for r in corpus.run_corpus()}
    assert (results[entry_id].passed, results[entry_id].note) == (False, note)
    assert all(r.passed for r in results.values() if r.entry_id != entry_id)
