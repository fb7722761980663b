"""Reading and writing vector fields and parameter families as JSON.

A field document looks like

    {
      "dim": 2,
      "order": 12,
      "vars": ["x1", "x2"],
      "eigenvalues": ["1", "-1"],
      "terms": [{"coeff": "1", "exps": [2, 1], "comp": 1}]
    }

Coefficients and eigenvalues are exact-scalar strings ("3/4", "-2+1/3*i");
plain integers are also accepted on input.  Components are 1-based in
files and 0-based inside the library.  When ``eigenvalues`` is present the
linear part is the implied diagonal and every listed term must have degree
at least 2.  Without ``eigenvalues`` the terms carry the whole field, and
an optional ``linear_matrix`` T asks for the conjugation y = Tx before any
further work.  The spectrum is not stored with the field but read off its
linear part, so ``field_to_dict`` writes ``eigenvalues`` for every field
with a diagonal linear part and no constant term.  A family document
replaces ``eigenvalues`` with a ``params`` block:

    {
      "dim": 2,
      "order": 6,
      "params": {
        "names": ["eta"],
        "matrix": [[[{"coeff": "1", "exps": [0]},
                     {"coeff": "1", "exps": [1]}], "0"],
                   ["0", [{"coeff": "-1", "exps": [0]}]]]
      },
      "terms": [{"coeff": "1", "exps": [2, 0, 1], "comp": 1}]
    }

Matrix entries are either a bare scalar (constant) or a list of
{coeff, exps} terms in the parameters alone; family ``terms`` use
exponent tuples over (x, eta) jointly.  All parse failures raise
InputFormatError naming the JSON path of the offending value.

This module owns the term entry {"coeff", "exps", "comp"} both ways:
``component_terms`` and ``term_list`` write it for documents and reports,
``_parse_entry`` reads it.  A document over n variables (dim, or dim + p
for a family) is refused before anything is built when its n * (n + 1)
monomial-vector pairs through degree 1, the cheapest scan any command
makes, exceed the work budget.
"""

import json
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from .bifurcation import ParamFamily
from .errors import BudgetExceededError, InputFormatError, ScalarParseError
from .maps import linear_conjugate
from .poly import (
    DEFAULT_TUPLE_BUDGET,
    PolyScalar,
    PolyVectorField,
    Spectrum,
    linear_field,
)
from .scalars import GaussianRational, add_scaled, as_scalar


@dataclass(frozen=True)
class Document:
    """One parsed input file: a plain field or a parameter family."""

    kind: str  # "field" or "family"
    field: Optional[PolyVectorField]
    family: Optional[ParamFamily]
    var_names: Tuple[str, ...]
    param_names: Tuple[str, ...]


def _fail(where: str, message: str) -> None:
    raise InputFormatError(f"{where}: {message}")


def _get_int(data: dict, key: str, where: str, minimum: int) -> int:
    if key not in data:
        _fail(where, f"missing required key '{key}'")
    value = data[key]
    # bool is an int subclass and would slip through otherwise
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(f"{where}.{key}", "expected an integer")
    if value < minimum:
        _fail(f"{where}.{key}", f"must be at least {minimum}")
    return value


def _parse_scalar(value: Any, where: str) -> GaussianRational:
    if isinstance(value, bool) or isinstance(value, float):
        _fail(where, "scalars must be exact strings or integers, not floats")
    if isinstance(value, int):
        return as_scalar(value)
    if not isinstance(value, str):
        _fail(where, "expected an exact-scalar string")
    try:
        return GaussianRational.parse(value)
    except ScalarParseError as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def _parse_names(data: dict, key: str, count: Optional[int], prefix: str,
                 where: str) -> Tuple[str, ...]:
    """The names under ``key``: ``count`` of them, or any number when
    ``count`` is None; prefix1, prefix2, ... when the key is absent."""
    if key not in data:
        return tuple(f"{prefix}{i + 1}" for i in range(count))
    names = data[key]
    if (not isinstance(names, list)
            or not all(isinstance(n, str) and n for n in names)):
        _fail(f"{where}.{key}", "expected a list of nonempty strings")
    if count is not None and len(names) != count:
        _fail(f"{where}.{key}", f"expected {count} names, found {len(names)}")
    if len(set(names)) != len(names):
        _fail(f"{where}.{key}", "names must be distinct")
    return tuple(names)


def _parse_exps(value: Any, length: int, where: str) -> Tuple[int, ...]:
    if not isinstance(value, list):
        _fail(where, "expected a list of exponents")
    if len(value) != length:
        _fail(where, f"expected {length} exponents, found {len(value)}")
    for k, e in enumerate(value):
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            _fail(f"{where}[{k}]", "exponents must be nonnegative integers")
    return tuple(value)


def _parse_entry(item: Any, exps_len: int, where: str, keys: Tuple[str, ...]
                 ) -> Tuple[Tuple[int, ...], GaussianRational]:
    """Check an object with exactly ``keys``, coeff and exps among them,
    and read its exponents and coefficient."""
    if not isinstance(item, dict):
        _fail(where, f"expected an object with {', '.join(keys[:-1])} "
                     f"and {keys[-1]}")
    for key in keys:
        if key not in item:
            _fail(where, f"missing required key '{key}'")
    extra = set(item) - set(keys)
    if extra:
        _fail(where, f"unknown keys {sorted(extra)}")
    coeff = _parse_scalar(item["coeff"], f"{where}.coeff")
    return _parse_exps(item["exps"], exps_len, f"{where}.exps"), coeff


def _parse_term(item: Any, exps_len: int, max_comp: int,
                where: str) -> Tuple[int, Tuple[int, ...], GaussianRational]:
    exps, coeff = _parse_entry(item, exps_len, where, ("coeff", "exps", "comp"))
    comp = item["comp"]
    if not isinstance(comp, int) or isinstance(comp, bool):
        _fail(f"{where}.comp", "expected an integer component")
    if not 1 <= comp <= max_comp:
        _fail(f"{where}.comp", f"component must be between 1 and {max_comp}")
    return comp - 1, exps, coeff


def _parse_matrix(value: Any, dim: int, where: str) -> List[List[GaussianRational]]:
    if not isinstance(value, list) or len(value) != dim:
        _fail(where, f"expected {dim} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            _fail(f"{where}[{i}]", f"expected {dim} entries")
        rows.append([_parse_scalar(entry, f"{where}[{i}][{j}]")
                     for j, entry in enumerate(row)])
    return rows


_FIELD_KEYS = {"dim", "order", "vars", "eigenvalues", "linear_matrix", "terms"}
_FAMILY_KEYS = {"dim", "order", "vars", "params", "terms"}


def _check_size(n: int, where: str) -> None:
    if n * (n + 1) > DEFAULT_TUPLE_BUDGET:
        raise BudgetExceededError(
            f"{where}: {n} variables have more monomial-vector pairs through "
            f"degree 1 than the budget of {DEFAULT_TUPLE_BUDGET}")


def _header(data: Any, keys: set, where: str
            ) -> Tuple[int, int, Tuple[str, ...], list]:
    """Check the document object and its keys; return dim, order, the
    variable names and the raw terms list."""
    if not isinstance(data, dict):
        _fail(where, "expected a JSON object")
    extra = set(data) - keys
    if extra:
        _fail(where, f"unknown keys {sorted(extra)}")
    dim = _get_int(data, "dim", where, 1)
    _check_size(dim, where)
    order = _get_int(data, "order", where, 1)
    var_names = _parse_names(data, "vars", dim, "x", where)
    raw_terms = data.get("terms", [])
    if not isinstance(raw_terms, list):
        _fail(f"{where}.terms", "expected a list of terms")
    return dim, order, var_names, raw_terms


def field_from_dict(data: Any, where: str = "field") -> Tuple[PolyVectorField, Tuple[str, ...]]:
    """Build a vector field from a parsed JSON object.

    Returns the field together with the variable names.  With
    ``eigenvalues`` the linear part is built from them, so the field's
    spectrum is exactly the one declared; otherwise the terms, conjugated
    by ``linear_matrix`` when one is given, carry the whole field, and a
    linear part that is not diagonal is left for the caller to reject
    where it matters.
    """
    dim, order, var_names, raw_terms = _header(data, _FIELD_KEYS, where)
    if "eigenvalues" in data and "linear_matrix" in data:
        _fail(where, "eigenvalues and linear_matrix cannot both be given; "
                     "eigenvalues already fix the linear part")

    spectrum = None
    if "eigenvalues" in data:
        eig = data["eigenvalues"]
        if not isinstance(eig, list) or len(eig) != dim:
            _fail(f"{where}.eigenvalues", f"expected {dim} entries")
        spectrum = Spectrum(_parse_scalar(v, f"{where}.eigenvalues[{k}]")
                            for k, v in enumerate(eig))

    triples = []
    for idx, item in enumerate(raw_terms):
        comp, exps, coeff = _parse_term(item, dim, dim,
                                        f"{where}.terms[{idx}]")
        degree = sum(exps)
        if degree > order:
            _fail(f"{where}.terms[{idx}].exps",
                  f"degree {degree} exceeds the truncation order {order}")
        if spectrum is not None and degree < 2:
            _fail(f"{where}.terms[{idx}].exps",
                  "terms must have degree at least 2 when eigenvalues "
                  "imply the linear part")
        triples.append((comp, exps, coeff))

    field = PolyVectorField.from_terms(dim, order, triples)
    if spectrum is not None:
        field = field + linear_field(spectrum, order)
    elif "linear_matrix" in data:
        matrix = _parse_matrix(data["linear_matrix"], dim,
                               f"{where}.linear_matrix")
        field = linear_conjugate(matrix, field)
    return field, var_names


def family_from_dict(data: Any, where: str = "family"
                     ) -> Tuple[ParamFamily, Tuple[str, ...], Tuple[str, ...]]:
    """Build a parameter family from a parsed JSON object."""
    dim, order, var_names, raw_terms = _header(data, _FAMILY_KEYS, where)
    params = data.get("params")
    if not isinstance(params, dict):
        _fail(f"{where}.params", "expected an object with names and matrix")
    extra = set(params) - {"names", "matrix"}
    if extra:
        _fail(f"{where}.params", f"unknown keys {sorted(extra)}")
    if "names" not in params:
        _fail(f"{where}.params", "missing required key 'names'")
    param_names = _parse_names(params, "names", None, "eta", f"{where}.params")
    p = len(param_names)
    _check_size(dim + p, where)

    if "matrix" not in params:
        _fail(f"{where}.params", "missing required key 'matrix'")
    raw_matrix = params["matrix"]
    if not isinstance(raw_matrix, list) or len(raw_matrix) != dim:
        _fail(f"{where}.params.matrix", f"expected {dim} rows")
    entries: List[List[PolyScalar]] = []
    for i, row in enumerate(raw_matrix):
        row_where = f"{where}.params.matrix[{i}]"
        if not isinstance(row, list) or len(row) != dim:
            _fail(row_where, f"expected {dim} entries")
        out_row = []
        for j, cell in enumerate(row):
            cell_where = f"{row_where}[{j}]"
            if isinstance(cell, (str, int)) and not isinstance(cell, bool):
                out_row.append(PolyScalar.constant(
                    p, order, _parse_scalar(cell, cell_where)))
                continue
            if not isinstance(cell, list):
                _fail(cell_where, "expected a scalar or a list of "
                                  "{coeff, exps} terms in the parameters")
            terms = {}
            for k, item in enumerate(cell):
                exps, coeff = _parse_entry(item, p, f"{cell_where}[{k}]",
                                           ("coeff", "exps"))
                add_scaled(terms, {exps: coeff})
            out_row.append(PolyScalar(p, order, terms))
        entries.append(out_row)

    triples = []
    for idx, item in enumerate(raw_terms):
        comp, exps, coeff = _parse_term(item, dim + p, dim,
                                        f"{where}.terms[{idx}]")
        if sum(exps[:dim]) < 2:
            _fail(f"{where}.terms[{idx}].exps",
                  "family terms must have x-degree at least 2; linear-in-x "
                  "behavior belongs to the matrix")
        triples.append((comp, exps, coeff))

    family = ParamFamily(dim, p, order, entries, triples)
    return family, var_names, param_names


def load_document(path: str) -> Document:
    """Read a JSON document from ``path`` and parse it as field or family."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        # an integer literal with more digits than int() converts
        raise InputFormatError(f"{path}: {exc}") from exc
    if isinstance(data, dict) and "params" in data:
        family, var_names, param_names = family_from_dict(data, where=path)
        return Document("family", None, family, var_names, param_names)
    field, var_names = field_from_dict(data, where=path)
    return Document("field", field, None, var_names, ())


def component_terms(poly: PolyScalar, comp: int) -> List[dict]:
    """The term entries of the 0-based component ``comp``, in grlex order."""
    return [{"coeff": str(coeff), "exps": list(exps), "comp": comp + 1}
            for exps, coeff in poly.sorted_terms()]


def term_list(components: Sequence[PolyScalar]) -> List[dict]:
    """The term entries of every component, component by component."""
    return [entry for comp, poly in enumerate(components)
            for entry in component_terms(poly, comp)]


def field_to_dict(field: PolyVectorField,
                  var_names: Optional[Sequence[str]] = None) -> dict:
    """Serialize a field; inverse of field_from_dict up to key defaults."""
    data: dict = {"dim": field.dim, "order": field.order}
    if var_names is not None:
        data["vars"] = list(var_names)
    spectrum = field.spectrum
    if spectrum is not None:
        data["eigenvalues"] = [str(v) for v in spectrum]
        field = field.nonlinear_part()
    data["terms"] = term_list(field.components)
    return data


def family_to_dict(family: ParamFamily,
                   var_names: Optional[Sequence[str]] = None,
                   param_names: Optional[Sequence[str]] = None) -> dict:
    """Serialize a family; inverse of family_from_dict up to key defaults."""
    data: dict = {"dim": family.n, "order": family.order}
    if var_names is not None:
        data["vars"] = list(var_names)
    if param_names is None:
        param_names = [f"eta{i + 1}" for i in range(family.p)]
    matrix = [[[{"coeff": str(c), "exps": list(e)}
                for e, c in entry.sorted_terms()] for entry in row]
              for row in family.a_entries]
    data["params"] = {"names": list(param_names), "matrix": matrix}
    data["terms"] = term_list(family.f_components)
    return data


def dump_document(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"
