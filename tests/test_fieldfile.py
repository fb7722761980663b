"""JSON documents for fields and families."""

import json
from pathlib import Path

import pytest

from conftest import dump_document
from dulac.corpus import hopf_family, so2_field
from dulac.errors import InputFormatError
from dulac.fieldfile import (
    family_from_dict,
    family_to_dict,
    field_from_dict,
    field_to_dict,
    load_document,
)
from dulac.poly import Spectrum
from dulac.scalars import GaussianRational

GOLDEN_INPUTS = sorted(
    (Path(__file__).parent / "golden" / "inputs").glob("*.json"))


def base_field_dict():
    return {"dim": 2, "order": 6, "eigenvalues": ["1", "-1"],
            "terms": [{"coeff": "1", "exps": [2, 1], "comp": 1}]}


def hopf_dict():
    return {
        "dim": 2, "order": 3,
        "params": {"names": ["eta"], "matrix": [
            [[{"coeff": "i", "exps": [0]}, {"coeff": "1+2*i", "exps": [1]}], "0"],
            ["0", [{"coeff": "-i", "exps": [0]}, {"coeff": "1-2*i", "exps": [1]}]],
        ]},
        "terms": [{"coeff": "1", "exps": [2, 1, 0], "comp": 1}],
    }


def test_eigenvalues_imply_linear_part():
    field, names = field_from_dict(base_field_dict())
    assert names == ("x1", "x2")
    assert field.spectrum == Spectrum([1, -1])
    assert [str(p) for p in field.components] == ["x1 + x1^2*x2", "-1*x2"]


@pytest.mark.parametrize("path", [
    p for p in GOLDEN_INPUTS if "eigenvalues" in json.loads(p.read_text())],
    ids=lambda p: p.stem)
def test_golden_input_loads_with_its_declared_spectrum(path):
    declared = json.loads(path.read_text())["eigenvalues"]
    field, _ = load_document(str(path))
    assert field.spectrum == Spectrum(
        GaussianRational.parse(v) for v in declared)


def test_field_round_trip_with_eigenvalues():
    field = so2_field(7)
    restored, _ = field_from_dict(field_to_dict(field))
    assert restored == field
    assert restored.spectrum == field.spectrum


def test_field_round_trip_without_spectrum():
    data = {"dim": 2, "order": 5, "vars": ["u", "v"],
            "terms": [{"coeff": "1", "exps": [1, 0], "comp": 1},
                      {"coeff": "2", "exps": [0, 1], "comp": 2},
                      {"coeff": "-1", "exps": [2, 0], "comp": 2}]}
    field, names = field_from_dict(data)
    assert names == ("u", "v")
    # plain terms with a diagonal linear part still pick up the spectrum
    assert field.spectrum == Spectrum([1, 2])
    out = field_to_dict(field, names)
    assert out["eigenvalues"] == ["1", "2"]
    restored, _ = field_from_dict(out)
    assert restored == field


def test_linear_matrix_conjugation():
    data = {"dim": 2, "order": 4,
            "linear_matrix": [["1", "0"], ["-1", "1"]],
            "terms": [{"coeff": "1", "exps": [2, 0], "comp": 1},
                      {"coeff": "1", "exps": [0, 1], "comp": 2},
                      {"coeff": "-1", "exps": [1, 0], "comp": 2}]}
    field, _ = field_from_dict(data)
    assert [str(p) for p in field.components] == ["x1^2", "x2 + -1*x1^2"]
    assert field.spectrum == Spectrum([0, 1])


def test_imaginary_eigenvalues_round_trip():
    data = {"dim": 2, "order": 4, "eigenvalues": ["i", "-i"],
            "terms": [{"coeff": "1-2*i", "exps": [2, 1], "comp": 1}]}
    field, _ = field_from_dict(data)
    out = field_to_dict(field)
    assert out["eigenvalues"] == ["1*i", "-1*i"]
    assert out["terms"] == [{"coeff": "1-2*i", "exps": [2, 1], "comp": 1}]


# each case edits the base document, or is a whole document in its place
@pytest.mark.parametrize("mutate,message", [
    ([], "field: expected a JSON object"),
    (lambda d: d.pop("dim"), "field: missing required key 'dim'"),
    (lambda d: d.update(dim=0), "field.dim: must be at least 1"),
    (lambda d: d.update(dim=True), "field.dim: expected an integer"),
    (lambda d: d.update(mystery=1), "field: unknown keys ['mystery']"),
    (lambda d: d.update(eigenvalues=["1"]), "field.eigenvalues: expected 2 entries"),
    (lambda d: d.update(eigenvalues=["1", "oops"]),
     "field.eigenvalues[1]: bad rational 'oops'"),
    (lambda d: d.update(eigenvalues=["1", "1/0"]),
     "field.eigenvalues[1]: bad rational '1/0': zero denominator"),
    (lambda d: d.update(vars=["u", "u"]), "field.vars: names must be distinct"),
    (lambda d: d.update(vars=["u"]), "field.vars: expected 2 names, found 1"),
    (lambda d: d.update(linear_matrix=[["1", "0"], ["0", "-1"]]),
     "field: eigenvalues and linear_matrix cannot both be given"),
    (lambda d: [d.pop("eigenvalues"),
                d.update(linear_matrix=[["1", "0"], ["0"]])],
     "field.linear_matrix[1]: expected 2 entries"),
    (lambda d: d.update(terms={}), "field.terms: expected a list of terms"),
    (lambda d: d.update(terms=[{"coeff": 1.5, "exps": [2, 1], "comp": 1}]),
     "field.terms[0].coeff: scalars must be exact strings or integers, not floats"),
    (lambda d: d.update(terms=[{"coeff": "1", "exps": [2], "comp": 1}]),
     "field.terms[0].exps: expected 2 exponents, found 1"),
    (lambda d: d.update(terms=[{"coeff": "1", "exps": 3, "comp": 1}]),
     "field.terms[0].exps: expected a list of exponents"),
    (lambda d: d.update(terms=[{"coeff": "1", "exps": [2, -1], "comp": 1}]),
     "field.terms[0].exps[1]: exponents must be nonnegative integers"),
    (lambda d: d.update(terms=[{"coeff": "1", "exps": [2, 1], "comp": 3}]),
     "field.terms[0].comp: component must be between 1 and 2"),
    (lambda d: d.update(terms=[{"coeff": "1", "exps": [2, 1], "comp": "1"}]),
     "field.terms[0].comp: expected an integer component"),
    (lambda d: d.update(terms=[{"coeff": "1", "exps": [2, 1], "comp": 1, "x": 0}]),
     "field.terms[0]: unknown keys ['x']"),
    (lambda d: d.update(terms=[{"coeff": "1", "exps": [1, 0], "comp": 1}]),
     "field.terms[0].exps: terms must have degree at least 2 when eigenvalues "
     "imply the linear part"),
    (lambda d: d.update(terms=[{"coeff": "1", "exps": [7, 1], "comp": 1}]),
     "field.terms[0].exps: degree 8 exceeds the truncation order 6"),
])
def test_field_error_paths(mutate, message):
    data = base_field_dict()
    if callable(mutate):
        mutate(data)
    else:
        data = mutate
    with pytest.raises(InputFormatError) as err:
        field_from_dict(data)
    assert str(err.value).startswith(message)


def test_family_round_trip_matches_builder():
    fam, var_names, param_names = family_from_dict(hopf_dict())
    assert param_names == ("eta",)
    assert fam == hopf_family()
    out = family_to_dict(fam, var_names, param_names)
    again, _, _ = family_from_dict(out)
    assert again == fam


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.update(params=[]),
     "family.params: expected an object with names and matrix"),
    (lambda d: d["params"].pop("matrix"),
     "family.params: missing required key 'matrix'"),
    (lambda d: d["params"]["matrix"].pop(),
     "family.params.matrix: expected 2 rows"),
    (lambda d: d["params"]["matrix"][1].pop(),
     "family.params.matrix[1]: expected 2 entries"),
    (lambda d: d["params"]["matrix"][0].__setitem__(1, {"coeff": "0"}),
     "family.params.matrix[0][1]: expected a scalar or a list of "
     "{coeff, exps} terms in the parameters"),
    (lambda d: d["params"].update(names=["a", "a"]),
     "family.params.names: names must be distinct"),
    (lambda d: d["params"].update(names=3),
     "family.params.names: expected a list of nonempty strings"),
    (lambda d: d["params"]["matrix"][0].__setitem__(0, [{"coeff": "1"}]),
     "family.params.matrix[0][0][0]: missing required key 'exps'"),
    (lambda d: d["params"]["matrix"][0].__setitem__(0, ["1"]),
     "family.params.matrix[0][0][0]: expected an object with coeff and exps"),
    (lambda d: d["params"]["matrix"][0].__setitem__(
        0, [{"coeff": "1", "exps": [1, 1]}]),
     "family.params.matrix[0][0][0].exps: expected 1 exponents, found 2"),
    (lambda d: d.update(terms=[{"coeff": "1", "exps": [1, 0, 1], "comp": 1}]),
     "family.terms[0].exps: family terms must have x-degree at least 2"),
])
def test_family_error_paths(mutate, message):
    data = hopf_dict()
    mutate(data)
    with pytest.raises(InputFormatError) as err:
        family_from_dict(data)
    assert str(err.value).startswith(message)


def test_load_document_kinds(tmp_path):
    field_path = tmp_path / "field.json"
    field_path.write_text(dump_document(field_to_dict(so2_field(7))))
    assert load_document(str(field_path)) == (so2_field(7),
                                              ("x1", "x2", "x3"))

    # a family's names are its state variables, then its parameters
    family_path = tmp_path / "family.json"
    family_path.write_text(dump_document(hopf_dict()))
    assert load_document(str(family_path)) == (hopf_family(),
                                               ("x1", "x2", "eta"))


def test_load_document_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2,,}')
    with pytest.raises(InputFormatError) as err:
        load_document(str(path))
    assert "invalid JSON at line 1, column 11" in str(err.value)


def test_load_document_missing_file(tmp_path):
    with pytest.raises(InputFormatError, match="No such file"):
        load_document(str(tmp_path / "absent.json"))
