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
files and 0-based inside the library.  Declared ``eigenvalues`` are the
field's diagonal terms lambda_j x_j, built with the listed terms in one
``from_terms`` call, and every listed term must then have degree at least
2.  Without ``eigenvalues`` the terms carry the whole field, and an
optional ``linear_matrix`` T asks for the conjugation y = Tx before any
further work, through the coordinate change x = T^-1 y, which like every
coordinate change is the field of its components.  No term may exceed
the order, in either kind of document.  The spectrum is not stored with
the field but read off its linear part, so ``field_to_dict`` writes
``eigenvalues`` for every field with a diagonal linear part and no
constant term.  A family document replaces ``eigenvalues`` with a
``params`` block:

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
exponent tuples over (x, eta) jointly.  A family is held as its
suspension, a field over (x, eta) known through order + 1: each matrix
term c * eta^e of cell (i, j) becomes the term c * x_j * eta^e of
component i, so a cell term may reach eta-degree ``order`` and no
further, and ``family_to_dict`` regroups the terms of x-degree 1 into
the cells.  ``load_document`` reads a file as a family when it has a
``params`` block and as a field otherwise, and returns it with its
names: the variables of a field, the state variables and then the
parameters of a family.  All parse failures raise InputFormatError
naming the JSON path of the offending value.

This module owns the term entry {"coeff", "exps", "comp"} both ways:
``component_terms`` and ``term_list`` write it for documents and reports,
``_parse_entry`` reads it.  A document over n variables (dim, or dim + p
for a family) is refused before anything is built when its n * (n + 1)
monomial-vector pairs through degree 1, the cheapest scan any command
makes, exceed the work budget.
"""

import json
import sys
from typing import Any, List, Optional, Sequence, Tuple, Union

from .bifurcation import ParamFamily
from .errors import (
    BudgetExceededError,
    InputFormatError,
    ScalarParseError,
    SingularLinearPartError,
)
from .maps import linear_conjugate
from .poly import (
    DEFAULT_TUPLE_BUDGET,
    PolyScalar,
    PolyVectorField,
    _unit,
    check_scan_budget,
)
from .scalars import GaussianRational, as_scalar


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


def _parse_entry(item: Any, exps_len: int, order: int, where: str,
                 keys: Tuple[str, ...]
                 ) -> Tuple[Tuple[int, ...], GaussianRational]:
    """Check an object with exactly ``keys``, coeff and exps among them,
    and read its coefficient and its exponents, of degree at most
    ``order``."""
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
    exps = _parse_exps(item["exps"], exps_len, f"{where}.exps")
    if sum(exps) > order:
        _fail(f"{where}.exps",
              f"degree {sum(exps)} exceeds the truncation order {order}")
    return exps, coeff


def _parse_term(item: Any, exps_len: int, max_comp: int, order: int,
                where: str) -> Tuple[int, Tuple[int, ...], GaussianRational]:
    exps, coeff = _parse_entry(item, exps_len, order, where,
                               ("coeff", "exps", "comp"))
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
    try:
        check_scan_budget(n, 1)
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"{where}: {n} variables have more monomial-vector pairs through "
            f"degree 1 than the budget of {DEFAULT_TUPLE_BUDGET}") from exc


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

    Returns the field together with the variable names.  Declared
    ``eigenvalues`` are the field's diagonal terms lambda_j x_j, so its
    spectrum is exactly the one declared; otherwise the terms, conjugated
    by ``linear_matrix`` when one is given, carry the whole field, and a
    linear part that is not diagonal is left for the caller to reject
    where it matters.
    """
    dim, order, var_names, raw_terms = _header(data, _FIELD_KEYS, where)
    if "eigenvalues" in data and "linear_matrix" in data:
        _fail(where, "eigenvalues and linear_matrix cannot both be given; "
                     "eigenvalues already fix the linear part")

    diagonal = []
    if "eigenvalues" in data:
        eig = data["eigenvalues"]
        if not isinstance(eig, list) or len(eig) != dim:
            _fail(f"{where}.eigenvalues", f"expected {dim} entries")
        diagonal = [(j, _unit(dim, j),
                     _parse_scalar(v, f"{where}.eigenvalues[{j}]"))
                    for j, v in enumerate(eig)]

    triples = []
    for idx, item in enumerate(raw_terms):
        comp, exps, coeff = _parse_term(item, dim, dim, order,
                                        f"{where}.terms[{idx}]")
        if diagonal and sum(exps) < 2:
            _fail(f"{where}.terms[{idx}].exps",
                  "terms must have degree at least 2 when eigenvalues "
                  "imply the linear part")
        triples.append((comp, exps, coeff))

    field = PolyVectorField.from_terms(dim, order, triples + diagonal)
    if "linear_matrix" in data:
        matrix = _parse_matrix(data["linear_matrix"], dim,
                               f"{where}.linear_matrix")
        try:
            field = linear_conjugate(matrix, field)
        except SingularLinearPartError as exc:
            raise SingularLinearPartError(
                f"{where}.linear_matrix: {exc}") from exc
    return field, var_names


def family_from_dict(data: Any, where: str = "family"
                     ) -> Tuple[ParamFamily, Tuple[str, ...], Tuple[str, ...]]:
    """Build a parameter family, held as its suspension, from a parsed
    JSON object.  A ``terms`` entry of joint degree above the order, or a
    matrix-cell term of eta-degree above it, is refused."""
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
    triples = []
    for i, row in enumerate(raw_matrix):
        row_where = f"{where}.params.matrix[{i}]"
        if not isinstance(row, list) or len(row) != dim:
            _fail(row_where, f"expected {dim} entries")
        for j, cell in enumerate(row):
            cell_where = f"{row_where}[{j}]"
            x_j = _unit(dim, j)
            if isinstance(cell, (str, int)) and not isinstance(cell, bool):
                triples.append((i, x_j + (0,) * p,
                                _parse_scalar(cell, cell_where)))
                continue
            if not isinstance(cell, list):
                _fail(cell_where, "expected a scalar or a list of "
                                  "{coeff, exps} terms in the parameters")
            for k, item in enumerate(cell):
                exps, coeff = _parse_entry(item, p, order,
                                           f"{cell_where}[{k}]",
                                           ("coeff", "exps"))
                triples.append((i, x_j + exps, coeff))

    for idx, item in enumerate(raw_terms):
        comp, exps, coeff = _parse_term(item, dim + p, dim, order,
                                        f"{where}.terms[{idx}]")
        if sum(exps[:dim]) < 2:
            _fail(f"{where}.terms[{idx}].exps",
                  "family terms must have x-degree at least 2; linear-in-x "
                  "behavior belongs to the matrix")
        triples.append((comp, exps, coeff))

    field = PolyVectorField.from_terms(dim + p, order + 1, triples)
    return ParamFamily(field, p), var_names, param_names


def load_document(path: str) -> Tuple[Union[PolyVectorField, ParamFamily],
                                      Tuple[str, ...]]:
    """Read the JSON document at ``path``: a field or a family, with its
    names."""
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
    except ValueError:
        # an integer literal with more digits than int() converts
        raise InputFormatError(
            f"{path}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits") from None
    if isinstance(data, dict) and "params" in data:
        family, var_names, param_names = family_from_dict(data, where=path)
        return family, var_names + param_names
    return field_from_dict(data, where=path)


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
    n = family.n
    data: dict = {"dim": n, "order": family.order}
    if var_names is not None:
        data["vars"] = list(var_names)
    if param_names is None:
        param_names = [f"eta{i + 1}" for i in range(family.p)]
    matrix: List[List[List[dict]]] = [[[] for _ in range(n)] for _ in range(n)]
    terms = []
    for i, comp in enumerate(family.field.components[:n]):
        for entry in component_terms(comp, i):
            exps = entry["exps"]
            if sum(exps[:n]) == 1:
                matrix[i][exps.index(1)].append(
                    {"coeff": entry["coeff"], "exps": exps[n:]})
            else:
                terms.append(entry)
    data["params"] = {"names": list(param_names), "matrix": matrix}
    data["terms"] = terms
    return data
