"""End-to-end runs of the command line entry point, in process."""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dump_document
from dulac.cli import main
from dulac.corpus import hopf_family, linearizable_3d_field
from dulac.fieldfile import (
    family_from_dict,
    family_to_dict,
    field_to_dict,
)

INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.fixture
def saddle_path(tmp_path):
    # x' = x + xy, y' = -y - xy; normal form keeps the resonant pair
    data = {"dim": 2, "order": 6, "eigenvalues": ["1", "-1"],
            "terms": [{"coeff": "1", "exps": [1, 1], "comp": 1},
                      {"coeff": "-1", "exps": [1, 1], "comp": 2}]}
    path = tmp_path / "saddle.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def normal_form_path(tmp_path):
    data = {"dim": 2, "order": 6, "eigenvalues": ["1", "-1"],
            "terms": [{"coeff": "1", "exps": [2, 1], "comp": 1}]}
    path = tmp_path / "nf.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def hopf_path(tmp_path):
    path = tmp_path / "hopf.json"
    path.write_text(dump_document(family_to_dict(hopf_family())))
    return str(path)


@pytest.fixture
def singular_family_path(tmp_path):
    family, _, _ = family_from_dict({
        "dim": 2, "order": 2,
        "params": {"names": ["eta"], "matrix": [[1, 0], [0, -1]]}})
    path = tmp_path / "const.json"
    path.write_text(dump_document(family_to_dict(family)))
    return str(path)


def test_normalize_text(saddle_path, capsys):
    assert main(["normalize", "--input", saddle_path, "--order", "6"]) == 0
    out = capsys.readouterr().out
    assert "dulac 0.1.0 normalization report" in out
    assert "dx1/dt = x1 + -1*x1^2*x2 + -1*x1^3*x2^2" in out
    assert "dx2/dt = -1*x2 + x1*x2^2 + x1^2*x2^3" in out
    assert "transformation y = Psi(x) (normal form = push-forward of the input):" in out
    assert "degree 2: resonant dimension 0, removed terms 2" in out


def test_normalize_json(saddle_path, capsys):
    assert main(["normalize", "--input", saddle_path, "--order", "6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "normalize"
    assert data["style"] == "distinguished"
    assert data["eigenvalues"] == ["1", "-1"]
    assert data["normal_form"]["terms"][0] == {"coeff": "-1", "exps": [2, 1], "comp": 1}
    assert data["transformation"]["convention"].startswith("y = Psi(x)")
    assert data["per_degree"][0] == {
        "degree": 2, "resonant_dimension": 0, "removed_terms": 2}


def test_normalize_out_file(saddle_path, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["normalize", "--input", saddle_path, "--order", "6",
                 "--json", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["command"] == "normalize"


def test_resonances(tmp_path, capsys):
    path = tmp_path / "lin3d.json"
    path.write_text(dump_document(field_to_dict(linearizable_3d_field(6))))
    assert main(["resonances", "--input", str(path), "--max-degree", "5"]) == 0
    out = capsys.readouterr().out
    assert "degrees 2..5: 6 resonant monomial(s)" in out
    assert "(4,1,0) -> comp 1" in out
    assert "(0,3,2) -> comp 3" in out


def test_diagnose_text_and_strict(normal_form_path, capsys):
    # resonant term breaks Condition A and no criterion applies
    assert main(["diagnose", "--input", normal_form_path, "--order", "6"]) == 0
    out = capsys.readouterr().out
    assert "no convergence criterion verified" in out
    assert main(["diagnose", "--input", normal_form_path, "--order", "6",
                 "--strict"]) == 1


def test_diagnose_json(normal_form_path, capsys):
    assert main(["diagnose", "--input", normal_form_path, "--order", "6",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["applicable"] == []
    assert data["condition_a"]["satisfied"] is False
    names = [c["name"] for c in data["criteria"]]
    assert names[0] == "poincare-domain"


def test_diagnose_strict_passes_when_applicable(tmp_path, capsys):
    data = {"dim": 2, "order": 6, "eigenvalues": ["1", "2"], "terms": []}
    path = tmp_path / "poincare.json"
    path.write_text(json.dumps(data))
    assert main(["diagnose", "--input", str(path), "--order", "6",
                 "--strict"]) == 0
    assert "poincare-domain" in capsys.readouterr().out


def test_centralizer_markers(normal_form_path, capsys):
    assert main(["centralizer", "--input", normal_form_path, "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 3" in out
    assert "[confirmed] (x1, -1*x2)" in out
    assert "[boundary-unconfirmed] (x1^2*x2, 0)" in out
    assert "raise the bound to settle them" in out


def test_centralizer_rejects_non_normal_form(saddle_path, capsys):
    assert main(["centralizer", "--input", saddle_path, "--degree", "3"]) == 2
    err = capsys.readouterr().err
    assert "dulac: error [not-in-normal-form]:" in err


def test_centralizer_refuses_a_degree_above_the_order(capsys):
    source = INPUTS / "saddle.normal-form.json"
    assert main(["centralizer", "--input", str(source),
                 "--degree", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dulac: error [truncation-order]: field is only known to order 7, "
        "requested degree bound 30\n")


def test_kernel_intersection_empty(capsys):
    assert main(["kernel-intersection", "--spec-a", "1,-3,9",
                 "--spec-b", "1,-2,4", "--max-degree", "6"]) == 0
    out = capsys.readouterr().out
    assert ("empty through degree 6: only linear fields commute with both "
            "linear parts to this order") in out


def test_kernel_intersection_nonempty(capsys):
    assert main(["kernel-intersection", "--spec-a", "1,-1",
                 "--spec-b", "2,-2", "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "2 joint resonant monomial(s) through degree 4:" in out
    assert "(2,1) -> comp 1" in out


def test_kernel_intersection_json(capsys):
    assert main(["kernel-intersection", "--spec-a", "1,-3,9",
                 "--spec-b", "1,-2,4", "--max-degree", "6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["empty"] is True
    assert data["relations"] == []


def test_bifurcation_standard(hopf_path, capsys):
    assert main(["bifurcation", "--family", hopf_path]) == 0
    out = capsys.readouterr().out
    assert "layout: eigenvalue-first" in out
    assert "det D = 2*i" in out
    assert "verdict: nonsingular" in out


def test_bifurcation_strict_singular(singular_family_path, capsys):
    assert main(["bifurcation", "--family", singular_family_path]) == 0
    assert "verdict: singular" in capsys.readouterr().out
    assert main(["bifurcation", "--family", singular_family_path,
                 "--strict"]) == 1


def test_bifurcation_oscillator_layout(tmp_path, capsys):
    from dulac.corpus import oscillator_family

    path = tmp_path / "osc.json"
    path.write_text(dump_document(family_to_dict(oscillator_family())))
    assert main(["bifurcation", "--family", str(path),
                 "--layout", "oscillator"]) == 0
    out = capsys.readouterr().out
    assert "layout: oscillator" in out
    assert "det D = -2" in out


def test_family_without_parameters_is_its_field(tmp_path, capsys):
    # n = 1, p = 0: D = [lambda], and the suspension is the field itself
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "dim": 1, "order": 2, "params": {"names": [], "matrix": [["2"]]},
        "terms": [{"coeff": "1", "exps": [2], "comp": 1}]}))
    assert main(["bifurcation", "--family", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["D"] == [["2"]]
    assert report["determinant"] == "2"
    assert report["nonsingular"] is True
    assert main(["suspend", "--family", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "dim": 1, "order": 2, "vars": ["x1"], "eigenvalues": ["2"],
        "terms": [{"coeff": "1", "exps": [2], "comp": 1}]}


# order 2: the cell term 5*eta^3 and the term x1^2*x2 lie above it
OVER_ORDER_CELL = {
    "dim": 2, "order": 2,
    "params": {"names": ["eta"],
               "matrix": [[[{"coeff": "1", "exps": [0]},
                            {"coeff": "5", "exps": [3]}], 0], [0, -1]]},
    "terms": [{"coeff": "7", "exps": [2, 1, 0], "comp": 1}]}
OVER_ORDER_TERM = dict(OVER_ORDER_CELL, params={
    "names": ["eta"], "matrix": [[1, 0], [0, -1]]})


@pytest.mark.parametrize("document,where", [
    (OVER_ORDER_CELL, "params.matrix[0][0][1].exps"),
    (OVER_ORDER_TERM, "terms[0].exps"),
], ids=["cell", "term"])
def test_family_refuses_a_term_above_its_order(tmp_path, capsys, document,
                                               where):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(document))
    assert main(["suspend", "--family", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"dulac: error [input-format]: {path}.{where}: degree 3 exceeds the "
        "truncation order 2\n")


def test_suspend_then_normalize(hopf_path, tmp_path, capsys):
    target = tmp_path / "suspended.json"
    assert main(["suspend", "--family", hopf_path, "--out", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc["dim"] == 3
    assert doc["vars"] == ["x1", "x2", "eta1"]
    assert doc["eigenvalues"] == ["1*i", "-1*i", "0"]
    capsys.readouterr()
    # the suspension is already a normal form: identity transformation
    assert main(["normalize", "--input", str(target), "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "y1 = x1" in out and "y3 = x3" in out


def test_corpus_run(capsys):
    assert main(["corpus", "run"]) == 0
    out = capsys.readouterr().out
    assert "7 passed, 0 failed" in out
    for entry_id in ("horn", "linearizable-3d", "so2", "holomorphic",
                     "saddle-centralizer", "oscillator-d", "hopf-transversality"):
        assert f"PASS  {entry_id}" in out


def test_corpus_filter(capsys):
    assert main(["corpus", "run", "--filter", "horn"]) == 0
    out = capsys.readouterr().out
    assert "1 passed, 0 failed" in out
    assert ("coefficient table (x1^k in y2, k = 2..12): "
            "-1, -2, -6, -24, -120, -720") in out


def test_corpus_no_match(capsys):
    assert main(["corpus", "run", "--filter", "zzz"]) == 2
    assert "no corpus entry matches 'zzz'" in capsys.readouterr().err


def test_error_exit_codes(tmp_path, hopf_path, capsys):
    assert main(["normalize", "--input", str(tmp_path / "nope.json"),
                 "--order", "4"]) == 2
    assert "dulac: error [input-format]:" in capsys.readouterr().err

    # family document fed to a field command
    assert main(["normalize", "--input", hopf_path, "--order", "3"]) == 2
    assert "expected a vector field document, found a family" in capsys.readouterr().err


# x' = y, y' = -x: a rotation, with no eigenvalues and no linear_matrix
NON_DIAGONAL = {"dim": 2, "order": 4,
                "terms": [{"coeff": "1", "exps": [0, 1], "comp": 1},
                          {"coeff": "-1", "exps": [1, 0], "comp": 2}]}
# x' = 1 + x, y' = -y: diagonal degree-1 terms, but no rest point at 0
CONSTANT_TERM = {"dim": 2, "order": 4,
                 "terms": [{"coeff": "1", "exps": [0, 0], "comp": 1},
                           {"coeff": "1", "exps": [1, 0], "comp": 1},
                           {"coeff": "-1", "exps": [0, 1], "comp": 2}]}


@pytest.mark.parametrize("document", [NON_DIAGONAL, CONSTANT_TERM],
                         ids=["non-diagonal", "constant-term"])
@pytest.mark.parametrize("name, flag", [
    ("normalize", "--order"), ("resonances", "--max-degree"),
    ("diagnose", "--order"), ("centralizer", "--degree")])
def test_field_without_a_diagonal_linear_part_is_refused(tmp_path, capsys,
                                                         document, name, flag):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(document))
    assert main([name, "--input", str(path), flag, "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"dulac: error [non-diagonal-linear-part]: {path}: the linear part "
        "is not diagonal; supply eigenvalues, or a linear_matrix that "
        "diagonalizes it\n")


def test_diagnose_accepts_a_non_diagonal_symmetry(tmp_path, capsys):
    # (x2, 0) commutes with the identity field x but is not diagonal
    field = tmp_path / "identity.json"
    field.write_text(json.dumps({"dim": 2, "order": 4,
                                 "eigenvalues": ["1", "1"], "terms": []}))
    symmetry = tmp_path / "shear.json"
    symmetry.write_text(json.dumps({
        "dim": 2, "order": 4,
        "terms": [{"coeff": "1", "exps": [0, 1], "comp": 1}]}))
    assert main(["diagnose", "--input", str(field), "--order", "4",
                 "--symmetry", str(symmetry)]) == 0
    out = capsys.readouterr().out
    assert ("  joint-kernel-linearization: not-applicable\n"
            "    detail: the supplied field's linear part is not diagonal\n"
            ) in out


# (field, commuting field) pairs whose linear parts are (a) the identity,
# (b) diagonal but not the identity, (c) not diagonal, (d) zero; each
# commutes with its field through order 4
SYMMETRY_CASES = {
    "identity": ({"dim": 2, "order": 4, "eigenvalues": ["1", "i"]},
                 {"dim": 2, "order": 4, "eigenvalues": ["1", "1"]}),
    "diagonal": ({"dim": 2, "order": 4, "eigenvalues": ["1", "2"],
                  "terms": [{"coeff": "1", "exps": [2, 0], "comp": 2}]},
                 {"dim": 2, "order": 4, "eigenvalues": ["3", "6"]}),
    "shear": ({"dim": 2, "order": 4, "eigenvalues": ["1", "1"]},
              {"dim": 2, "order": 4,
               "terms": [{"coeff": "1", "exps": [0, 1], "comp": 1}]}),
    "zero": ({"dim": 2, "order": 4, "eigenvalues": ["1", "2"],
              "terms": [{"coeff": "1", "exps": [2, 0], "comp": 2}]},
             {"dim": 2, "order": 4,
              "terms": [{"coeff": "1", "exps": [2, 0], "comp": 2}]}),
}
# the four symmetry-criteria blocks of each case's text report
SYMMETRY_BLOCKS = {
    'identity': (
        '  joint-kernel-linearization: hypotheses-verified-to-order-4\n'
        '    conclusion: the field is linearizable by a convergent '
        'transformation and both fields become linear\n'
        '    truncated: the two fields commute through degree 4\n'
        '    truncated: the joint resonance kernel is empty through degree 4\n'
        '    assumed: analyticity of the supplied commuting field (not '
        'decidable from a truncation)\n'
        '  identity-symmetry-linearization: hypotheses-verified-to-order-4\n'
        '    conclusion: the field is formally linearizable; an analytic '
        'symmetry makes a convergent transformation to normal form exist\n'
        "    exact: the supplied field's linear part is the identity\n"
        '    truncated: the two fields commute through degree 4\n'
        '    assumed: analyticity of the supplied commuting field (not '
        'decidable from a truncation)\n'
        '  planar-analytic-symmetry: hypotheses-verified-to-order-4\n'
        '    conclusion: a convergent normalizing transformation exists\n'
        '    truncated: the two fields commute through degree 4\n'
        '    truncated: the supplied field is not a scalar multiple of the '
        'input (checked at truncation)\n'
        '    assumed: analyticity of the supplied commuting field (not '
        'decidable from a truncation)\n'
        '  centralizer-span: not-applicable\n'
        "    detail: the supplied field's linear part is not a scalar "
        'multiple of the diagonal linear part\n'
    ),
    'diagonal': (
        '  joint-kernel-linearization: hypothesis-failed\n'
        '    detail: the joint resonance kernel contains (2, 0) -> comp 2\n'
        '    truncated: the two fields commute through degree 4\n'
        '  identity-symmetry-linearization: not-applicable\n'
        "    detail: the supplied field's linear part is not the identity\n"
        '  planar-analytic-symmetry: hypotheses-verified-to-order-4\n'
        '    conclusion: a convergent normalizing transformation exists\n'
        '    truncated: the two fields commute through degree 4\n'
        '    truncated: the supplied field is not a scalar multiple of the '
        'input (checked at truncation)\n'
        '    assumed: analyticity of the supplied commuting field (not '
        'decidable from a truncation)\n'
        '  centralizer-span: hypotheses-verified-to-order-4\n'
        '    conclusion: a convergent normalizing transformation exists\n'
        "    exact: the supplied field's linear part equals 3 times the "
        'diagonal linear part\n'
        '    truncated: the two fields commute through degree 4\n'
        '    truncated: the centralizer through degree 4 has dimension 2: 1 '
        'linear plus 1 spanned by the normal form\n'
        '    assumed: analyticity of the supplied commuting field (not '
        'decidable from a truncation)\n'
    ),
    'shear': (
        '  joint-kernel-linearization: not-applicable\n'
        "    detail: the supplied field's linear part is not diagonal\n"
        '  identity-symmetry-linearization: not-applicable\n'
        "    detail: the supplied field's linear part is not the identity\n"
        '  planar-analytic-symmetry: hypotheses-verified-to-order-4\n'
        '    conclusion: a convergent normalizing transformation exists\n'
        '    truncated: the two fields commute through degree 4\n'
        '    truncated: the supplied field is not a scalar multiple of the '
        'input (checked at truncation)\n'
        '    assumed: analyticity of the supplied commuting field (not '
        'decidable from a truncation)\n'
        '  centralizer-span: not-applicable\n'
        "    detail: the supplied field's linear part is not a scalar "
        'multiple of the diagonal linear part\n'
    ),
    'zero': (
        '  joint-kernel-linearization: hypothesis-failed\n'
        '    detail: the joint resonance kernel contains (2, 0) -> comp 2\n'
        '    truncated: the two fields commute through degree 4\n'
        '  identity-symmetry-linearization: not-applicable\n'
        "    detail: the supplied field's linear part is not the identity\n"
        '  planar-analytic-symmetry: hypotheses-verified-to-order-4\n'
        '    conclusion: a convergent normalizing transformation exists\n'
        '    truncated: the two fields commute through degree 4\n'
        '    truncated: the supplied field is not a scalar multiple of the '
        'input (checked at truncation)\n'
        '    assumed: analyticity of the supplied commuting field (not '
        'decidable from a truncation)\n'
        '  centralizer-span: hypotheses-verified-to-order-4\n'
        '    conclusion: a convergent normalizing transformation exists\n'
        "    exact: the supplied field's linear part equals 0 times the "
        'diagonal linear part\n'
        '    truncated: the two fields commute through degree 4\n'
        '    truncated: the centralizer through degree 4 has dimension 2: 1 '
        'linear plus 1 spanned by the normal form\n'
        '    assumed: analyticity of the supplied commuting field (not '
        'decidable from a truncation)\n'
    ),
}


@pytest.mark.parametrize("case", SYMMETRY_CASES)
def test_diagnose_prints_the_symmetry_criteria_blocks(tmp_path, capsys, case):
    field, symmetry = (tmp_path / "field.json", tmp_path / "symmetry.json")
    for path, document in zip((field, symmetry), SYMMETRY_CASES[case]):
        path.write_text(json.dumps(document))
    assert main(["diagnose", "--input", str(field), "--order", "4",
                 "--symmetry", str(symmetry)]) == 0
    out = capsys.readouterr().out
    start = out.index("  joint-kernel-linearization:")
    assert out[start:out.index("summary:")] == SYMMETRY_BLOCKS[case]


def test_diagnose_refuses_a_symmetry_that_moves_the_origin(tmp_path, capsys):
    # the degree-2 bracket would read the input's unknown degree-3 terms
    field = tmp_path / "zero.json"
    field.write_text(json.dumps({"dim": 2, "order": 2,
                                 "eigenvalues": ["0", "0"], "terms": []}))
    symmetry = tmp_path / "shift.json"
    symmetry.write_text(json.dumps({
        "dim": 2, "order": 2,
        "terms": [{"coeff": "1", "exps": [0, 0], "comp": 1}]}))
    assert main(["diagnose", "--input", str(field), "--order", "2",
                 "--symmetry", str(symmetry)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"dulac: error [dimension-mismatch]: {symmetry}: "
                            "commuting field must vanish at the origin\n")


def test_diagnose_names_a_symmetry_of_another_dimension(tmp_path, capsys):
    field = tmp_path / "zero.json"
    field.write_text(json.dumps({"dim": 2, "order": 2,
                                 "eigenvalues": ["0", "0"], "terms": []}))
    symmetry = tmp_path / "line.json"
    symmetry.write_text(json.dumps({"dim": 1, "order": 2,
                                    "eigenvalues": ["1"], "terms": []}))
    assert main(["diagnose", "--input", str(field), "--order", "2",
                 "--symmetry", str(symmetry)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"dulac: error [dimension-mismatch]: {symmetry}: commuting field "
        "dimension differs from the input field\n")


@pytest.mark.parametrize("degree", ["-2", "9"])
@pytest.mark.parametrize("symmetry_terms", [
    [{"coeff": "1", "exps": [1, 0], "comp": 1}],   # (x1, 0): does not commute
    [],                                           # zero field: commutes
], ids=["non-commuting", "commuting"])
def test_diagnose_refuses_a_centralizer_degree_outside_the_order(
        tmp_path, capsys, degree, symmetry_terms):
    field = tmp_path / "field.json"
    field.write_text(json.dumps({
        "dim": 2, "order": 4, "eigenvalues": ["1", "-1"],
        "terms": [{"coeff": "1", "exps": [2, 0], "comp": 1}]}))
    symmetry = tmp_path / "symmetry.json"
    symmetry.write_text(json.dumps({"dim": 2, "order": 4,
                                    "terms": symmetry_terms}))
    assert main(["diagnose", "--input", str(field), "--order", "4",
                 "--symmetry", str(symmetry),
                 "--centralizer-degree", degree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"dulac: error [truncation-order]: centralizer degree {degree} "
        "outside 1..4\n")


def test_diagnose_refuses_a_centralizer_degree_without_a_symmetry(
        tmp_path, capsys):
    # refused before the input is read, so a missing file is not named
    absent = tmp_path / "absent.json"
    assert main(["diagnose", "--input", str(absent), "--order", "8",
                 "--centralizer-degree", "3", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("dulac: error [input-format]: "
                            "--centralizer-degree needs --symmetry\n")


HORN = INPUTS / "horn.json"
_NOT_COMMUTING = ("the supplied field does not commute with the input: "
                  "bracket residual first appears at degree 1")
# the symmetry of Horn's field, given as a document of the same terms with
# or without its linear_matrix -> (name, verdict, detail) of each symmetry
# criterion; each document's linear_matrix conjugates that document alone
HORN_SYMMETRY_CRITERIA = {
    "same-matrix": [
        ("joint-kernel-linearization", "hypothesis-failed",
         "the joint resonance kernel contains (1, 1) -> comp 2"),
        ("identity-symmetry-linearization", "not-applicable",
         "the supplied field's linear part is not the identity"),
        ("planar-analytic-symmetry", "not-applicable",
         "the supplied field equals 1 times the input field"),
        ("centralizer-span", "hypothesis-failed",
         "2 centralizer directions lie outside the span of the normal form "
         "and linear fields (2 of 4 elements unconfirmed at the "
         "truncation)"),
    ],
    "no-matrix": [
        (name, "hypothesis-failed", _NOT_COMMUTING)
        for name in ("joint-kernel-linearization",
                     "identity-symmetry-linearization",
                     "planar-analytic-symmetry", "centralizer-span")],
}


@pytest.mark.parametrize("case", HORN_SYMMETRY_CRITERIA)
def test_diagnose_reads_each_symmetry_document_in_its_own_coordinates(
        tmp_path, capsys, case):
    document = json.loads(HORN.read_text())
    if case == "no-matrix":
        del document["linear_matrix"]
    symmetry = tmp_path / "symmetry.json"
    symmetry.write_text(json.dumps(document))
    assert main(["diagnose", "--input", str(HORN), "--order", "12",
                 "--symmetry", str(symmetry), "--json"]) == 0
    criteria = json.loads(capsys.readouterr().out)["criteria"][3:]
    assert [(c["name"], c["verdict"], c["detail"]) for c in criteria] == (
        HORN_SYMMETRY_CRITERIA[case])


def test_singular_linear_matrix_is_refused(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"dim": 2, "order": 3,
                                "linear_matrix": [["1", "1"], ["1", "1"]],
                                "terms": []}))
    assert main(["normalize", "--input", str(path), "--order", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"dulac: error [singular-linear-part]: {path}.linear_matrix: "
        "linear part is singular\n")


def test_a_huge_order_costs_a_linear_matrix_document_nothing(tmp_path,
                                                             capsys):
    # the conjugation y = Tx keeps every degree, so no work on loading the
    # document runs per degree up to its order
    reports = []
    for order in (6, 10 ** 9):
        document = json.loads(HORN.read_text())
        document["order"] = order
        path = tmp_path / f"horn-{order}.json"
        path.write_text(json.dumps(document))
        assert main(["normalize", "--input", str(path), "--order", "6",
                     "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_field_document_given_to_bifurcation(normal_form_path, capsys):
    assert main(["bifurcation", "--family", normal_form_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"dulac: error [input-format]: {normal_form_path}: expected a "
        "family document with a params block\n")


@pytest.mark.parametrize("spec_a, message", [
    ("1,,2", "--spec-a: expected comma-separated exact scalars"),
    ("1, ", "--spec-a: expected comma-separated exact scalars"),
    ("1,x", "--spec-a[1]: "),
])
def test_kernel_intersection_bad_spectrum(capsys, spec_a, message):
    assert main(["kernel-intersection", "--spec-a", spec_a,
                 "--spec-b", "1,2", "--max-degree", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"dulac: error [input-format]: {message}")


def test_kernel_intersection_spectra_of_unequal_length(capsys):
    assert main(["kernel-intersection", "--spec-a", "1,2",
                 "--spec-b", "1,2,3", "--max-degree", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dulac: error [input-format]: --spec-a and --spec-b must have the "
        "same number of eigenvalues\n")


def test_large_omega_k_is_a_budget_error(normal_form_path, capsys):
    # 2**k monomial-vector pairs already exceed the budget; 2**k is never
    # built and the scan never starts
    assert main(["diagnose", "--input", normal_form_path, "--order", "3",
                 "--omega-k", "100000"]) == 2
    err = capsys.readouterr().err
    assert "dulac: error [enumeration-budget-exceeded]:" in err
    assert "k = 100000" in err


def test_internal_error_exit_code(normal_form_path, monkeypatch, capsys):
    import dulac.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("crash")

    monkeypatch.setattr(cli, "normalize", boom)
    assert main(["normalize", "--input", normal_form_path, "--order", "6"]) == 3
    assert "dulac: internal error:" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "dulac 0.1.0"


@pytest.mark.parametrize("argv,message", [
    (["normalize", "--input", "x.json", "--order", "abc"],
     "argument --order: invalid int value: 'abc'"),
    (["suspend", "--json"], "the following arguments are required: --family"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
], ids=["bad-int", "missing-flag", "unknown-subcommand"])
def test_usage_error_carries_a_slug(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("dulac: error [usage]: ") and message in last


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dulac normalize")


def test_decimal_coefficient_is_an_input_format_error(tmp_path, capsys):
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps({
        "dim": 2, "order": 4, "eigenvalues": ["1", "-1"],
        "terms": [{"coeff": "0.25", "exps": [2, 0], "comp": 1}]}))
    assert main(["normalize", "--input", str(path), "--order", "4"]) == 2
    err = capsys.readouterr().err
    assert "dulac: error [input-format]:" in err
    assert "terms[0].coeff: bad rational '0.25'" in err


@pytest.mark.parametrize("coeff", ['"1{zeros}"', "1{zeros}"],
                         ids=["string", "bare-integer"])
def test_oversized_integer_is_an_input_format_error(tmp_path, capsys, coeff):
    # 5000 digits, past int()'s 4300-digit limit: as a string and as a
    # bare JSON integer, which json.dumps itself could not write
    coeff = coeff.format(zeros="0" * 4999)
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 2, "order": 4, "eigenvalues": ["1", "-1"], '
                    '"terms": [{"coeff": ' + coeff
                    + ', "exps": [2, 0], "comp": 1}]}')
    assert main(["normalize", "--input", str(path), "--order", "4"]) == 2
    err = capsys.readouterr().err
    assert f"dulac: error [input-format]: {path}" in err
    assert f"has more than {sys.get_int_max_str_digits()} digits" in err
    assert "set_int_max_str_digits" not in err
    assert len(err) < 1000


@pytest.mark.parametrize("target", ["missing-dir/report.txt", "."])
def test_unwritable_out_is_an_input_format_error(saddle_path, tmp_path,
                                                 capsys, target):
    # a path under a directory that does not exist, and a directory
    out = tmp_path / target
    assert main(["normalize", "--input", saddle_path, "--order", "3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"dulac: error [input-format]: {out}:" in err


@pytest.mark.parametrize("max_degree", ["1", "-1"])
def test_resonances_max_degree_below_two(normal_form_path, capsys, max_degree):
    assert main(["resonances", "--input", normal_form_path,
                 "--max-degree", max_degree]) == 2
    captured = capsys.readouterr()
    assert "dulac: error [truncation-order]:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("max_degree", ["1", "-5"])
def test_kernel_intersection_max_degree_below_two(capsys, max_degree):
    assert main(["kernel-intersection", "--spec-a", "1,2", "--spec-b", "1,3",
                 "--max-degree", max_degree]) == 2
    captured = capsys.readouterr()
    assert "dulac: error [truncation-order]:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_coefficient_past_the_print_limit_is_a_budget_error(tmp_path, capsys,
                                                            as_json):
    # 2500 digits parse, but the order-4 normalizing map holds their
    # squares and cubes, past the 4300 digits that int() can print
    data = {"dim": 2, "order": 4, "eigenvalues": ["1", "-3"],
            "terms": [{"coeff": "7" * 2500, "exps": [2, 0], "comp": 1}]}
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(data))
    argv = ["normalize", "--input", str(path), "--order", "4"]
    assert main(argv + ["--json"] if as_json else argv) == 2
    captured = capsys.readouterr()
    assert "dulac: error [enumeration-budget-exceeded]:" in captured.err
    assert "4300 digits" in captured.err
    assert len(captured.err) < 1000
    assert captured.out == ""


@pytest.mark.parametrize("eigenvalues, omega_sq, partial_sum", [
    # omega_2^2 = 10^-340 is 0.0 as a float
    (["1/1" + "0" * 170, "-3"], "1/1" + "0" * 340, 170 * math.log(10) / 4),
    # omega_2^2 = (10^400 - 1)^2 is too large for a float
    (["1" + "0" * 400, "1" + "0" * 399 + "1"], str((10 ** 400 - 1) ** 2),
     -400 * math.log(10) / 4),
], ids=["underflow", "overflow"])
def test_small_divisor_outside_float_range(tmp_path, capsys, eigenvalues,
                                           omega_sq, partial_sum):
    # ln(1/omega_k) comes from the integers where a float cannot hold
    # omega_k^2
    data = {"dim": 2, "order": 3, "eigenvalues": eigenvalues, "terms": []}
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(data))
    assert main(["diagnose", "--input", str(path), "--order", "3",
                 "--omega-k", "2", "--json"]) == 0
    records = json.loads(capsys.readouterr().out)["small_divisors"]["records"]
    assert records[1]["omega_sq"] == omega_sq
    assert records[1]["partial_sum"] == pytest.approx(partial_sum)


def _tall_growth(digits):
    # x' = x + 10^digits x^2: the normalizing map's coefficients along x1
    # grow by a factor near 10^digits per degree, a geometric run whose
    # squared ratios pass the float range
    return {"dim": 1, "order": 8, "eigenvalues": ["1"],
            "terms": [{"coeff": "1" + "0" * digits, "exps": [2], "comp": 1}]}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("digits, estimate", [(160, 1e160), (400, None)])
def test_geometric_growth_past_the_float_range(tmp_path, capsys, digits,
                                               estimate):
    # the mean ratio is a float where it fits one and is left out where
    # its root passes the float range too
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(_tall_growth(digits)))
    argv = ["diagnose", "--input", str(path), "--order", "8"]
    assert main(argv + ["--json"]) == 0
    growth = json.loads(capsys.readouterr().out,
                        parse_constant=_reject_constant)["growth"]
    assert growth["kind"] == "geometric"
    if estimate is None:
        assert growth["estimate"] is None
    else:
        assert growth["estimate"] == pytest.approx(estimate, rel=1e-9)
    assert main(argv) == 0
    line, = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("growth: ")]
    assert line.startswith("growth: geometric over degrees 1..8")
    assert ("estimate" in line) == (estimate is not None)


def test_huge_growth_estimate_prints_in_exponent_form(tmp_path, capsys):
    # fixed point would print 164 characters, all past the 16th float noise
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(_tall_growth(160)))
    assert main(["diagnose", "--input", str(path), "--order", "8"]) == 0
    line, = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("growth: ")]
    assert line.startswith(
        "growth: geometric over degrees 1..8, estimate 1.000e+160 (")


def test_resonances_past_the_budget_is_a_budget_error(normal_form_path,
                                                      capsys):
    # about 10**10 monomial-vector pairs through degree 100000 in
    # dimension 2; the listing is refused before it starts
    assert main(["resonances", "--input", normal_form_path,
                 "--max-degree", "100000"]) == 2
    captured = capsys.readouterr()
    assert "dulac: error [enumeration-budget-exceeded]:" in captured.err
    assert captured.out == ""


def test_unrestricted_centralizer_past_the_budget_is_a_budget_error(
        tmp_path, capsys):
    # 25 * C(31, 25) = 18.4 M unknowns through degree 6; the solve is
    # refused before any column is built
    data = {"dim": 25, "order": 6, "eigenvalues": [1, -1] * 12 + [1],
            "terms": []}
    path = tmp_path / "saddle25.json"
    path.write_text(json.dumps(data))
    for flags in ([], ["--unrestricted"]):
        assert main(["centralizer", "--input", str(path), "--degree", "6"]
                    + flags) == 2
        captured = capsys.readouterr()
        assert "dulac: error [enumeration-budget-exceeded]:" in captured.err
        assert captured.out == ""


def test_small_divisor_scan_past_the_budget_is_a_budget_error(
        normal_form_path, capsys):
    # degree 4095 at k = 12: 2 * C(4097, 2) = 16.8 M pairs; k = 11 has 4.2 M
    assert main(["diagnose", "--input", normal_form_path, "--order", "3",
                 "--omega-k", "12"]) == 2
    captured = capsys.readouterr()
    assert "dulac: error [enumeration-budget-exceeded]:" in captured.err
    assert captured.out == ""


def _fail(*args):
    raise AssertionError("the solve ran before the refusal")


_PAIRS = "needs more than the budget of 10000000 monomial-vector pairs"


@pytest.mark.parametrize("omega_k, message", [
    ("0", "[truncation-order]: need at least one doubling step"),
    ("12", f"[enumeration-budget-exceeded]: scan through degree 4095 in "
           f"dimension 2 {_PAIRS}"),
    ("30", f"[enumeration-budget-exceeded]: scan to k = 30 in dimension 2 "
           f"{_PAIRS}"),
], ids=["below-one", "pairs-past-the-budget", "k-past-the-bit-length"])
def test_diagnose_refuses_a_bad_omega_k_before_it_normalizes(
        normal_form_path, monkeypatch, capsys, omega_k, message):
    monkeypatch.setattr("dulac.diagnostics.normalize", _fail)
    assert main(["diagnose", "--input", normal_form_path, "--order", "3",
                 "--omega-k", omega_k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dulac: error {message}\n"


def test_normalize_refuses_an_order_past_the_budget_before_the_first_step(
        tmp_path, monkeypatch, capsys):
    # 30 * C(36, 30) = 58.4 M pairs through degree 6; degree 5 has 9.7 M
    path = tmp_path / "dim30.json"
    path.write_text(json.dumps({
        "dim": 30, "order": 6,
        "eigenvalues": [str(k) for k in range(1, 31)], "terms": []}))
    monkeypatch.setattr("dulac.normalizer.kernel_dimension_at_degree", _fail)
    assert main(["normalize", "--input", str(path), "--order", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dulac: error [enumeration-budget-exceeded]: scan through degree 6 "
        f"in dimension 30 {_PAIRS}\n")


def test_kernel_intersection_past_the_budget_is_a_budget_error(capsys):
    assert main(["kernel-intersection", "--spec-a", "1,2,3", "--spec-b",
                 "1,2,4", "--max-degree", "100000"]) == 2
    captured = capsys.readouterr()
    assert "dulac: error [enumeration-budget-exceeded]:" in captured.err
    assert captured.out == ""


# n = 3162 variables give n * (n + 1) = 10_001_406 monomial-vector pairs
# through degree 1, just past the budget of 10**7; n = 3161 stays inside
OVERSIZED_FIELD = {"dim": 3162, "order": 2, "eigenvalues": ["1"] * 3162,
                   "terms": []}
# a family suspends to a field over dim + p = 2 + 3160 variables
OVERSIZED_FAMILY = {"dim": 2, "order": 2,
                    "params": {"names": [f"eta{k + 1}" for k in range(3160)],
                               "matrix": [["0", "0"], ["0", "0"]]},
                    "terms": []}


@pytest.mark.parametrize("document, argv", [
    (OVERSIZED_FIELD, ["normalize", "--order", "2", "--input"]),
    (OVERSIZED_FAMILY, ["suspend", "--family"]),
], ids=["field", "family"])
def test_oversized_document_is_refused_before_it_is_built(tmp_path, capsys,
                                                         document, argv):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(document))
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert "dulac: error [enumeration-budget-exceeded]:" in captured.err
    assert captured.out == ""


def test_document_at_the_size_bound_passes_the_guard(tmp_path, capsys):
    # 3161 variables pass the guard; one eigenvalue for them then fails a
    # cheap check
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"dim": 3161, "order": 2,
                                "eigenvalues": ["1"], "terms": []}))
    assert main(["normalize", "--input", str(path), "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert "dulac: error [input-format]:" in captured.err
    assert "expected 3161 entries" in captured.err


# -- hostile documents ---------------------------------------------------

scalars = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-4, 4)
           | st.sampled_from(["1", "-1", "1/2", "i", "2-i/3", "0", "x", ""]))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text("abcmopst", max_size=5), inner,
                                     max_size=3)),
    max_leaves=10)
term_items = st.fixed_dictionaries({"coeff": scalars,
                                    "exps": st.lists(scalars, max_size=3),
                                    "comp": scalars})
# field-document key -> hostile values for it, shaped enough to get past
# the first type checks
HOSTILE = {
    "dim": json_values,
    "order": json_values,
    "vars": json_values,
    "params": json_values,
    "eigenvalues": st.lists(scalars, max_size=3) | json_values,
    "terms": st.lists(term_items | json_values, max_size=3),
    "linear_matrix": (st.lists(st.lists(scalars, max_size=3), max_size=3)
                      | json_values),
}
# a valid saddle document, with one or two keys replaced or one dropped
BASE_DOCUMENT = {"dim": 2, "order": 4, "eigenvalues": ["1", "-1"],
                 "terms": [{"coeff": "1", "exps": [2, 1], "comp": 1}]}
documents = st.builds(
    lambda changes, dropped: {
        key: value for key, value in {**BASE_DOCUMENT, **changes}.items()
        if key not in dropped},
    st.lists(st.sampled_from(sorted(HOSTILE)), max_size=2, unique=True)
    .flatmap(lambda keys: st.fixed_dictionaries(
        {key: HOSTILE[key] for key in keys})),
    st.sets(st.sampled_from(sorted(BASE_DOCUMENT)), max_size=1))
commands = st.sampled_from([("normalize", "--order"),
                            ("resonances", "--max-degree"),
                            ("diagnose", "--order"),
                            ("centralizer", "--degree")])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(documents, commands, st.integers(-1, 4), st.booleans())
@example(OVERSIZED_FIELD, ("diagnose", "--order"), 2, True)
@example(OVERSIZED_FAMILY, ("normalize", "--order"), 2, False)
@example(_tall_growth(160), ("diagnose", "--order"), 8, True)
@example(_tall_growth(400), ("diagnose", "--order"), 8, False)
def test_hostile_document_never_is_an_internal_error(document, command,
                                                     order, as_json):
    # malformed or contradictory documents end in exit 2, never in 3
    name, flag = command
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(document))
        argv = [name, "--input", str(path), flag, str(order)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--json"] if as_json else argv)
    assert code in (0, 2), err.getvalue()
