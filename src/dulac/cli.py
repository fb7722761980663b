"""Command line front end.

Each command builds one payload, its JSON report.  ``main`` prints it as
JSON under --json, else renders it as text, and reads the exit status off
it.  ``fieldfile.load_document`` reads every document; the field
commands refuse a ``ParamFamily`` from it, and ``bifurcation`` and
``suspend`` refuse anything else.  Exit codes: 0 on success, 1 when
--strict was given and a checked hypothesis failed, 2 for input problems
(unreadable files, malformed documents, fields that violate a command's
preconditions) and usage errors, 3 for internal errors.
"""

import argparse
import functools
import json
import sys
from typing import Optional, Sequence, Tuple

from ._version import __version__
from .bifurcation import LAYOUT_NAMES, ParamFamily, build_D, suspend
from .centralizer import centralizer_basis, kernel_intersection
from .diagnostics import (check_centralizer_degree, check_commuting_field,
                          diagnose)
from .errors import (DimensionMismatchError, DulacError, InputFormatError,
                     NonDiagonalLinearPartError)
from .fieldfile import component_terms, field_to_dict, load_document, term_list
from .linalg import mat_det
from .normalizer import normalize
from .poly import PolyVectorField, Spectrum, format_terms
from .resonance import resonant_monomials
from .scalars import GaussianRational, ScalarParseError


def _field_document(path: str) -> PolyVectorField:
    field, _ = load_document(path)
    if isinstance(field, ParamFamily):
        raise InputFormatError(
            f"{path}: expected a vector field document, found a family; "
            "use the family commands for it")
    return field


def _load_field(path: str) -> PolyVectorField:
    field = _field_document(path)
    if field.spectrum is None:
        raise NonDiagonalLinearPartError(
            f"{path}: the linear part is not diagonal; supply eigenvalues "
            "or a linear_matrix to conjugate with")
    return field


def _load_symmetry(path: str, dim: int) -> PolyVectorField:
    """A field that should commute with an input over ``dim`` variables,
    refused with its path when the bracket cannot compare the two."""
    symmetry = _field_document(path)
    try:
        check_commuting_field(symmetry, dim)
    except DimensionMismatchError as exc:
        raise DimensionMismatchError(f"{path}: {exc}") from exc
    return symmetry


def _load_family(path: str) -> Tuple[ParamFamily, Tuple[str, ...]]:
    family, names = load_document(path)
    if not isinstance(family, ParamFamily):
        raise InputFormatError(
            f"{path}: expected a family document with a params block")
    return family, names


def _parse_spectrum(text: str, flag: str) -> Spectrum:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise InputFormatError(
            f"{flag}: expected comma-separated exact scalars")
    values = []
    for k, part in enumerate(parts):
        try:
            values.append(GaussianRational.parse(part))
        except ScalarParseError as exc:
            raise InputFormatError(f"{flag}[{k}]: {exc}") from exc
    return Spectrum(values)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise InputFormatError(f"{out}: {exc.strerror or exc}") from exc


# -- subcommands: each returns its payload, the JSON report -----------


def _relation_entries(relations) -> list:
    return [{"exps": list(rel.exps), "comp": rel.component + 1}
            for rel in relations]


def normalize_payload(field: PolyVectorField, order: int) -> dict:
    """The ``normalize`` report of a field with a diagonal linear part."""
    result = normalize(field, order)
    return {
        "version": __version__,
        "command": "normalize",
        "order": order,
        "style": "distinguished",
        "eigenvalues": [str(v) for v in field.spectrum],
        "normal_form": field_to_dict(result.normal_form),
        "transformation": {
            "convention": "y = Psi(x); the normal form is the "
                          "push-forward of the input along Psi",
            "components": [component_terms(poly, i) for i, poly in
                           enumerate(result.transformation.components)],
        },
        "per_degree": [
            {"degree": rec.degree, "resonant_dimension": rec.kernel_dim,
             "removed_terms": rec.removed_dim}
            for rec in result.per_degree],
    }


def _cmd_normalize(args) -> dict:
    return normalize_payload(_load_field(args.input), args.order)


def _cmd_resonances(args) -> dict:
    spectrum = _load_field(args.input).spectrum
    return {
        "version": __version__,
        "command": "resonances",
        "max_degree": args.max_degree,
        "eigenvalues": [str(v) for v in spectrum],
        "relations": _relation_entries(
            resonant_monomials(spectrum, args.max_degree)),
    }


def _cmd_diagnose(args) -> dict:
    # refused before any document is read
    check_centralizer_degree(args.centralizer_degree, args.order,
                             args.symmetry is not None)
    field = _load_field(args.input)
    symmetry = (None if args.symmetry is None
                else _load_symmetry(args.symmetry, field.dim))
    return diagnose(field, args.order, symmetry=symmetry,
                    omega_max_k=args.omega_k,
                    centralizer_degree=args.centralizer_degree).to_dict()


def centralizer_payload(field: PolyVectorField, degree: int,
                        unrestricted: bool = False) -> dict:
    """The ``centralizer`` report of a normal form to degree ``degree``."""
    basis = centralizer_basis(field, degree,
                              restrict_to_kernel=not unrestricted)
    return {
        "version": __version__,
        "command": "centralizer",
        "degree": degree,
        "dimension": basis.dimension,
        "restricted_to_resonant_kernel": basis.restricted,
        "elements": [
            {"terms": term_list(elem.components),
             "confirmed": not unconfirmed}
            for elem, unconfirmed in zip(basis.elements, basis.unconfirmed)],
    }


def _cmd_centralizer(args) -> dict:
    return centralizer_payload(_load_field(args.input), args.degree,
                               args.unrestricted)


def _cmd_kernel_intersection(args) -> dict:
    spec_a = _parse_spectrum(args.spec_a, "--spec-a")
    spec_b = _parse_spectrum(args.spec_b, "--spec-b")
    if len(spec_a) != len(spec_b):
        raise InputFormatError("--spec-a and --spec-b must have the same "
                               "number of eigenvalues")
    relations = kernel_intersection(spec_a, spec_b, args.max_degree)
    return {
        "version": __version__,
        "command": "kernel-intersection",
        "max_degree": args.max_degree,
        "eigenvalues_a": [str(v) for v in spec_a],
        "eigenvalues_b": [str(v) for v in spec_b],
        "relations": _relation_entries(relations),
        "empty": not relations,
    }


def bifurcation_payload(family: ParamFamily, layout: str = "standard") -> dict:
    """The ``bifurcation`` report of a family in the given layout."""
    rows = build_D(family, layout)
    det = mat_det(rows)
    return {
        "version": __version__,
        "command": "bifurcation",
        "layout": LAYOUT_NAMES[layout],
        "eigenvalues": [str(v) for v in family.eigenvalues()],
        "D": [[str(v) for v in row] for row in rows],
        "determinant": str(det),
        "nonsingular": det != 0,
    }


def _cmd_bifurcation(args) -> dict:
    return bifurcation_payload(_load_family(args.family)[0], args.layout)


def _cmd_suspend(args) -> dict:
    family, names = _load_family(args.family)
    return field_to_dict(suspend(family), var_names=names)


def _cmd_corpus(args) -> dict:
    from .corpus import run_corpus  # it imports this module's builders
    results = run_corpus(args.filter)
    if not results:
        raise InputFormatError(f"no corpus entry matches {args.filter!r}")
    return {
        "version": __version__,
        "command": "corpus",
        "results": [
            {"id": r.entry_id, "description": r.description,
             "passed": r.passed, "seconds": round(r.seconds, 4),
             "note": r.note, "detail": list(r.lines)}
            for r in results],
        "failures": sum(1 for r in results if not r.passed),
    }


# -- text renderers: each reads the payload its command built ---------

# The text report prints a growth estimate at or above this in exponent
# form, since fixed point spells out every integer digit of the float and
# those past the 16th are noise; below it, three decimals.
ESTIMATE_EXPONENT_FROM = 1e6


def _components(entries, dim: int) -> list:
    """The (exponents, coefficient text) pairs of each component of a term
    list, in the list's order: what ``format_terms`` prints."""
    return [[(e["exps"], e["coeff"]) for e in entries if e["comp"] == j]
            for j in range(1, dim + 1)]


def _relation_lines(relations) -> list:
    return [f"({','.join(str(e) for e in rel['exps'])}) -> comp {rel['comp']}"
            for rel in relations]


def _text_normalize(data: dict) -> str:
    lines = [f"dulac {data['version']} normalization report",
             f"order: {data['order']}",
             f"style: {data['style']}",
             "eigenvalues: " + ", ".join(data["eigenvalues"]),
             "normal form:"]
    dim = len(data["eigenvalues"])
    comps = _components(data["normal_form"]["terms"], dim)
    for i, (value, terms) in enumerate(zip(data["eigenvalues"], comps)):
        # the diagonal linear term leads: it is the component's only
        # degree-1 term, and the terms list holds the higher degrees
        diagonal = [] if value == "0" else [
            ([int(k == i) for k in range(dim)], value)]
        lines.append(f"  dx{i + 1}/dt = {format_terms(diagonal + terms)}")
    lines.append("transformation y = Psi(x) (normal form = push-forward "
                 "of the input):")
    psi = [entry for comp in data["transformation"]["components"]
           for entry in comp]
    for i, terms in enumerate(_components(psi, dim), 1):
        lines.append(f"  y{i} = {format_terms(terms)}")
    lines.append("per-degree summary:")
    lines += [f"  degree {rec['degree']}: resonant dimension "
              f"{rec['resonant_dimension']}, removed terms "
              f"{rec['removed_terms']}" for rec in data["per_degree"]]
    return "\n".join(lines)


def _text_resonances(data: dict) -> str:
    relations = data["relations"]
    return "\n".join([f"dulac {data['version']} resonance listing",
                      "eigenvalues: " + ", ".join(data["eigenvalues"]),
                      f"degrees 2..{data['max_degree']}: "
                      f"{len(relations)} resonant monomial(s)"]
                     + _relation_lines(relations))


def _text_diagnose(data: dict) -> str:
    lines = [f"normal form diagnostics (dulac {data['version']})",
             f"truncation order: {data['order']}",
             "eigenvalues: " + ", ".join(data["eigenvalues"]),
             "normal form:"]
    for i, comp in enumerate(data["normal_form"], 1):
        lines.append(f"  x{i}' = {comp}")
    ca = data["condition_a"]
    if ca["satisfied"]:
        flags = ", ".join(f"{key}={'yes' if val else 'no'}"
                          for key, val in ca["checks"].items())
        lines.append(f"condition A: satisfied, alpha = {ca['alpha']} "
                     f"({flags})")
    else:
        wit = ca["witness"]
        lines.append(f"condition A: violated at degree "
                     f"{wit['degree']}: {wit['reason']}")
    lines.append("linear normal form: " +
                 ("yes" if data["linear_normal_form"] else "no"))
    lines.append("poincare domain: " +
                 ("yes" if data["poincare_domain"] else "no"))
    om = data["small_divisors"]
    lines.append(f"small divisors: {om['verdict']} "
                 f"(omega_k^2 >= {om['rational_bound_sq']}, "
                 f"{om['tuples_scanned']} tuples scanned)")
    lines += [f"  k={rec['k']}: omega_k^2 = {rec['omega_sq'] or 'n/a'}, "
              f"partial sum = {rec['partial_sum']:.6f}"
              for rec in om["records"]]
    growth = data["growth"]
    if growth is None:
        lines.append("growth: no classifiable coefficient run")
    else:
        estimate = growth["estimate"]
        shown = "" if estimate is None else ", estimate " + format(
            estimate, ".3e" if estimate >= ESTIMATE_EXPONENT_FROM else ".3f")
        lines.append(
            f"growth: {growth['kind']} over degrees "
            f"{growth['degrees'][0]}..{growth['degrees'][1]}{shown}"
            f" ({growth['note']})")
    lines.append("criteria:")
    for crit in data["criteria"]:
        lines.append(f"  {crit['name']}: {crit['verdict']}")
        if crit["conclusion"]:
            lines.append(f"    conclusion: {crit['conclusion']}")
        if crit["detail"]:
            lines.append(f"    detail: {crit['detail']}")
        lines += [f"    {kind}: {item}" for kind in
                  ("exact", "truncated", "assumed") for item in crit[kind]]
    lines.append("summary: " + data["summary"])
    return "\n".join(lines)


def _text_centralizer(data: dict) -> str:
    lines = [f"dulac {data['version']} centralizer basis",
             f"degree bound: {data['degree']}",
             f"dimension: {data['dimension']}"]
    for elem in data["elements"]:
        marker = "confirmed" if elem["confirmed"] else "boundary-unconfirmed"
        # an element is nonzero, and its dimension is that of its exponents
        comps = _components(elem["terms"], len(elem["terms"][0]["exps"]))
        lines.append(f"  [{marker}] ({', '.join(map(format_terms, comps))})")
    if not all(elem["confirmed"] for elem in data["elements"]):
        lines.append("boundary-unconfirmed elements satisfy every imposed "
                     "equation but keep constraints beyond the degree "
                     "bound; raise the bound to settle them")
    return "\n".join(lines)


def _text_kernel_intersection(data: dict) -> str:
    lines = [f"dulac {data['version']} joint resonance kernel",
             "eigenvalues a: " + ", ".join(data["eigenvalues_a"]),
             "eigenvalues b: " + ", ".join(data["eigenvalues_b"])]
    if data["empty"]:
        lines.append(f"empty through degree {data['max_degree']}: only "
                     "linear fields commute with both linear parts to this "
                     "order, so the joint-kernel linearization hypothesis "
                     "holds")
    else:
        lines.append(f"{len(data['relations'])} joint resonant monomial(s) "
                     f"through degree {data['max_degree']}:")
        lines += _relation_lines(data["relations"])
    return "\n".join(lines)


def _text_bifurcation(data: dict) -> str:
    rows = data["D"]
    lines = [f"dulac {data['version']} bifurcation nondegeneracy",
             "eigenvalues: " + ", ".join(data["eigenvalues"]),
             f"layout: {data['layout']}",
             "D matrix:"]
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    for row in rows:
        cells = [v.rjust(w) for v, w in zip(row, widths)]
        lines.append("  [ " + "  ".join(cells) + " ]")
    lines.append(f"det D = {data['determinant']}")
    lines.append("verdict: " + ("nonsingular" if data["nonsingular"]
                                else "singular"))
    return "\n".join(lines)


def _text_corpus(data: dict) -> str:
    results = data["results"]
    lines = [f"dulac {data['version']} corpus run"]
    width = max(len(r["id"]) for r in results)
    for r in results:
        lines.append(f"{'PASS' if r['passed'] else 'FAIL'}  {r['id']:{width}}"
                     f"  {r['seconds']:6.2f}s  {r['note']}")
        lines += [" " * (width + 8) + extra for extra in r["detail"]]
    lines.append(f"{len(results) - data['failures']} passed, "
                 f"{data['failures']} failed")
    return "\n".join(lines)


# command -> its text renderer; suspend writes a field document, JSON only
TEXT_RENDERERS = {
    "normalize": _text_normalize, "resonances": _text_resonances,
    "diagnose": _text_diagnose, "centralizer": _text_centralizer,
    "kernel-intersection": _text_kernel_intersection,
    "bifurcation": _text_bifurcation, "corpus": _text_corpus}
# command -> the payload flag whose falsity fails --strict
_STRICT = {"diagnose": "applicable", "bifurcation": "nonsingular"}


def _status(args, payload: dict) -> int:
    """1 for a failed corpus entry, or a failed hypothesis under --strict."""
    if args.command == "corpus":
        return 1 if payload["failures"] else 0
    flag = _STRICT.get(args.command)
    return 1 if flag and args.strict and not payload[flag] else 0


# -- parser ------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, func,
                strict: bool = False) -> None:
    """The payload builder ``func`` and the output options."""
    parser.set_defaults(func=func)
    parser.add_argument("--json", action="store_true",
                        help="emit a structured JSON report")
    parser.add_argument("--out", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    if strict:
        parser.add_argument("--strict", action="store_true",
                            help="exit with status 1 when the checked "
                                 "hypotheses fail")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors carry the ``[usage]`` slug;
    its subcommand parsers are of this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(2, f"dulac: error [usage]: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dulac",
        description="Truncated normal forms, symmetries and convergence "
                    "diagnostics for polynomial vector fields, in exact "
                    "arithmetic.")
    parser.add_argument("--version", action="version",
                        version=f"dulac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="compute a truncated normal form "
                                         "and the transformation behind it")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--order", required=True, type=int)
    _add_common(p, _cmd_normalize)

    p = sub.add_parser("resonances", help="list resonant monomials of the "
                                          "input's eigenvalues")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--max-degree", required=True, type=int)
    _add_common(p, _cmd_resonances)

    p = sub.add_parser("diagnose", help="normalize and evaluate every "
                                        "convergence criterion")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--symmetry", metavar="FILE",
                   help="a second field expected to commute with the input")
    p.add_argument("--omega-k", type=int, default=3,
                   help="check small divisors omega_k for k up to this")
    p.add_argument("--centralizer-degree", type=int, default=None,
                   help="degree bound for the centralizer comparison "
                        "with --symmetry (defaults to --order)")
    _add_common(p, _cmd_diagnose, strict=True)

    p = sub.add_parser("centralizer", help="basis of the fields commuting "
                                           "with a normal form")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("--unrestricted", action="store_true",
                   help="solve over all polynomial fields instead of the "
                        "resonant kernel (slower cross-check)")
    _add_common(p, _cmd_centralizer)

    p = sub.add_parser("kernel-intersection",
                       help="joint resonant monomials of two spectra")
    p.add_argument("--spec-a", required=True, metavar="LIST",
                   help="comma-separated eigenvalues, e.g. 1,-3,9")
    p.add_argument("--spec-b", required=True, metavar="LIST")
    p.add_argument("--max-degree", required=True, type=int)
    _add_common(p, _cmd_kernel_intersection)

    p = sub.add_parser("bifurcation", help="nondegeneracy determinant of a "
                                           "parameter family")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--layout", choices=list(LAYOUT_NAMES),
                   default="standard")
    _add_common(p, _cmd_bifurcation, strict=True)

    p = sub.add_parser("suspend", help="turn a family into a single field "
                                       "with frozen parameter directions")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE",
                   help="write the suspended field document to FILE")
    p.set_defaults(func=_cmd_suspend, json=True)  # a field document

    p = sub.add_parser("corpus", help="run the built-in worked examples")
    p.add_argument("action", choices=["run"])
    p.add_argument("--filter", metavar="PATTERN",
                   help="only entries whose id contains PATTERN")
    _add_common(p, _cmd_corpus)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
        _emit(json.dumps(payload, indent=2) if args.json
              else TEXT_RENDERERS[args.command](payload), args.out)
        return _status(args, payload)
    except DulacError as exc:
        print(f"dulac: error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"dulac: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
