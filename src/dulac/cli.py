"""Command line front end.

Exit codes: 0 on success, 1 when --strict was given and a checked
hypothesis failed, 2 for input problems (unreadable files, malformed
documents, fields that violate a command's preconditions), 3 for
internal errors.
"""

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from ._version import __version__
from .bifurcation import build_D, build_oscillator_D, suspend
from .centralizer import centralizer_basis, kernel_intersection
from .corpus import run_corpus
from .diagnostics import diagnose
from .errors import (
    DimensionMismatchError,
    DulacError,
    InputFormatError,
    NonDiagonalLinearPartError,
)
from .fieldfile import (
    component_terms,
    dump_document,
    field_to_dict,
    load_document,
    term_list,
)
from .normalizer import normalize
from .poly import PolyVectorField, Spectrum, format_poly
from .resonance import ResonanceRelation, resonant_monomials
from .scalars import GaussianRational, ScalarParseError


def _field_document(path: str) -> PolyVectorField:
    doc = load_document(path)
    if doc.kind != "field":
        raise InputFormatError(
            f"{path}: expected a vector field document, found a family; "
            "use the family commands for it")
    return doc.field


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
    if symmetry.dim != dim:
        raise DimensionMismatchError(
            f"{path}: commuting field dimension differs from the input field")
    # the bracket reads both fields through degree d only when both
    # vanish at the origin
    if any(c.coefficient((0,) * dim) for c in symmetry.components):
        raise DimensionMismatchError(
            f"{path}: commuting field must vanish at the origin")
    return symmetry


def _load_family(path: str):
    doc = load_document(path)
    if doc.kind != "family":
        raise InputFormatError(
            f"{path}: expected a family document with a params block")
    return doc


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
        print(text, end="" if text.endswith("\n") else "\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise InputFormatError(f"{out}: {exc.strerror or exc}") from exc


def _relation_line(rel: ResonanceRelation) -> str:
    exps = ",".join(str(e) for e in rel.exps)
    return f"({exps}) -> comp {rel.component + 1}"


# -- subcommands -------------------------------------------------------


def _cmd_normalize(args) -> int:
    field = _load_field(args.input)
    result = normalize(field, args.order)
    if args.json:
        payload = {
            "version": __version__,
            "command": "normalize",
            "order": args.order,
            "style": "distinguished",
            "eigenvalues": [str(v) for v in field.spectrum],
            "normal_form": field_to_dict(result.normal_form),
            "transformation": {
                "convention": "y = Psi(x); the normal form is the "
                              "push-forward of the input along Psi",
                "components": [
                    component_terms(poly, i) for i, poly in
                    enumerate(result.transformation.components)],
            },
            "per_degree": [
                {"degree": rec.degree, "resonant_dimension": rec.kernel_dim,
                 "removed_terms": rec.removed_dim}
                for rec in result.per_degree],
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return 0
    lines = [f"dulac {__version__} normalization report",
             f"order: {args.order}",
             "style: distinguished",
             "eigenvalues: " + ", ".join(str(v) for v in field.spectrum),
             "normal form:"]
    for i, poly in enumerate(result.normal_form.components):
        lines.append(f"  dx{i + 1}/dt = {format_poly(poly)}")
    lines.append("transformation y = Psi(x) (normal form = push-forward "
                 "of the input):")
    for i, poly in enumerate(result.transformation.components):
        lines.append(f"  y{i + 1} = {format_poly(poly)}")
    lines.append("per-degree summary:")
    for rec in result.per_degree:
        lines.append(f"  degree {rec.degree}: resonant dimension "
                     f"{rec.kernel_dim}, removed terms {rec.removed_dim}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_resonances(args) -> int:
    field = _load_field(args.input)
    spectrum = field.spectrum
    relations = resonant_monomials(spectrum, args.max_degree)
    if args.json:
        payload = {
            "version": __version__,
            "command": "resonances",
            "max_degree": args.max_degree,
            "eigenvalues": [str(v) for v in spectrum],
            "relations": [{"exps": list(rel.exps), "comp": rel.component + 1}
                          for rel in relations],
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return 0
    lines = [f"dulac {__version__} resonance listing",
             "eigenvalues: " + ", ".join(str(v) for v in spectrum),
             f"degrees 2..{args.max_degree}: "
             f"{len(relations)} resonant monomial(s)"]
    for rel in relations:
        lines.append(_relation_line(rel))
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_diagnose(args) -> int:
    field = _load_field(args.input)
    symmetry = None
    if args.symmetry is not None:
        symmetry = _load_symmetry(args.symmetry, field.dim)
    report = diagnose(field, args.order, symmetry=symmetry,
                      omega_max_k=args.omega_k,
                      centralizer_degree=args.centralizer_degree)
    if args.json:
        _emit(json.dumps(report.to_dict(), indent=2), args.out)
    else:
        _emit(report.to_text(), args.out)
    if args.strict and not report.applicable():
        return 1
    return 0


def _cmd_centralizer(args) -> int:
    field = _load_field(args.input)
    basis = centralizer_basis(field, args.degree,
                              restrict_to_kernel=not args.unrestricted)
    if args.json:
        payload = {
            "version": __version__,
            "command": "centralizer",
            "degree": args.degree,
            "dimension": basis.dimension,
            "restricted_to_resonant_kernel": basis.restricted,
            "elements": [
                {"terms": term_list(elem.components),
                 "confirmed": not unconfirmed}
                for elem, unconfirmed in zip(basis.elements,
                                             basis.unconfirmed)],
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return 0
    lines = [f"dulac {__version__} centralizer basis",
             f"degree bound: {args.degree}",
             f"dimension: {basis.dimension}"]
    for elem, unconfirmed in zip(basis.elements, basis.unconfirmed):
        marker = "boundary-unconfirmed" if unconfirmed else "confirmed"
        lines.append(f"  [{marker}] {elem}")
    if any(basis.unconfirmed):
        lines.append("boundary-unconfirmed elements satisfy every imposed "
                     "equation but keep constraints beyond the degree "
                     "bound; raise the bound to settle them")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_kernel_intersection(args) -> int:
    spec_a = _parse_spectrum(args.spec_a, "--spec-a")
    spec_b = _parse_spectrum(args.spec_b, "--spec-b")
    if len(spec_a) != len(spec_b):
        raise InputFormatError("--spec-a and --spec-b must have the same "
                               "number of eigenvalues")
    relations = kernel_intersection(spec_a, spec_b, args.max_degree)
    if args.json:
        payload = {
            "version": __version__,
            "command": "kernel-intersection",
            "max_degree": args.max_degree,
            "eigenvalues_a": [str(v) for v in spec_a],
            "eigenvalues_b": [str(v) for v in spec_b],
            "relations": [{"exps": list(rel.exps), "comp": rel.component + 1}
                          for rel in relations],
            "empty": not relations,
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return 0
    lines = [f"dulac {__version__} joint resonance kernel",
             "eigenvalues a: " + ", ".join(str(v) for v in spec_a),
             "eigenvalues b: " + ", ".join(str(v) for v in spec_b)]
    if relations:
        lines.append(f"{len(relations)} joint resonant monomial(s) through "
                     f"degree {args.max_degree}:")
        for rel in relations:
            lines.append(_relation_line(rel))
    else:
        lines.append(f"empty through degree {args.max_degree}: only linear "
                     "fields commute with both linear parts to this order, "
                     "so the joint-kernel linearization hypothesis holds")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_bifurcation(args) -> int:
    doc = _load_family(args.family)
    family = doc.family
    matrix = (build_oscillator_D(family) if args.layout == "oscillator"
              else build_D(family))
    det = matrix.determinant()
    nonsingular = det != 0
    verdict = "nonsingular" if nonsingular else "singular"
    if args.json:
        payload = {
            "version": __version__,
            "command": "bifurcation",
            "layout": matrix.layout,
            "eigenvalues": [str(v) for v in family.eigenvalues()],
            "D": [[str(v) for v in row] for row in matrix.entries],
            "determinant": str(det),
            "nonsingular": nonsingular,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"dulac {__version__} bifurcation nondegeneracy",
                 "eigenvalues: " + ", ".join(str(v)
                                             for v in family.eigenvalues()),
                 f"layout: {matrix.layout}",
                 "D matrix:"]
        widths = [max(len(str(matrix.entries[i][j]))
                      for i in range(len(matrix.entries)))
                  for j in range(len(matrix.entries[0]))]
        for row in matrix.entries:
            cells = [str(v).rjust(w) for v, w in zip(row, widths)]
            lines.append("  [ " + "  ".join(cells) + " ]")
        lines.append(f"det D = {det}")
        lines.append(f"verdict: {verdict}")
        _emit("\n".join(lines), args.out)
    if args.strict and not nonsingular:
        return 1
    return 0


def _cmd_suspend(args) -> int:
    doc = _load_family(args.family)
    suspended = suspend(doc.family)
    names = list(doc.var_names) + list(doc.param_names)
    _emit(dump_document(field_to_dict(suspended, var_names=names)), args.out)
    return 0


def _cmd_corpus(args) -> int:
    results = run_corpus(args.filter)
    if not results:
        raise InputFormatError(
            f"no corpus entry matches {args.filter!r}")
    failures = sum(1 for r in results if not r.passed)
    if args.json:
        payload = {
            "version": __version__,
            "command": "corpus",
            "results": [
                {"id": r.entry_id, "description": r.description,
                 "passed": r.passed, "seconds": round(r.seconds, 4),
                 "note": r.note, "detail": list(r.lines)}
                for r in results],
            "failures": failures,
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return 1 if failures else 0
    lines = [f"dulac {__version__} corpus run"]
    width = max(len(r.entry_id) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark}  {r.entry_id.ljust(width)}  "
                     f"{r.seconds:6.2f}s  {r.note}")
        for extra in r.lines:
            lines.append(" " * (width + 8) + extra)
    lines.append(f"{len(results) - failures} passed, {failures} failed")
    _emit("\n".join(lines), args.out)
    return 1 if failures else 0


# -- parser ------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, strict: bool = False) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit a structured JSON report")
    parser.add_argument("--out", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    if strict:
        parser.add_argument("--strict", action="store_true",
                            help="exit with status 1 when the checked "
                                 "hypotheses fail")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    _add_common(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("resonances", help="list resonant monomials of the "
                                          "input's eigenvalues")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--max-degree", required=True, type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_resonances)

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
                        "(defaults to --order)")
    _add_common(p, strict=True)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("centralizer", help="basis of the fields commuting "
                                           "with a normal form")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--degree", required=True, type=int)
    p.add_argument("--unrestricted", action="store_true",
                   help="solve over all polynomial fields instead of the "
                        "resonant kernel (slower cross-check)")
    _add_common(p)
    p.set_defaults(func=_cmd_centralizer)

    p = sub.add_parser("kernel-intersection",
                       help="joint resonant monomials of two spectra")
    p.add_argument("--spec-a", required=True, metavar="LIST",
                   help="comma-separated eigenvalues, e.g. 1,-3,9")
    p.add_argument("--spec-b", required=True, metavar="LIST")
    p.add_argument("--max-degree", required=True, type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_kernel_intersection)

    p = sub.add_parser("bifurcation", help="nondegeneracy determinant of a "
                                           "parameter family")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--layout", choices=["standard", "oscillator"],
                   default="standard")
    _add_common(p, strict=True)
    p.set_defaults(func=_cmd_bifurcation)

    p = sub.add_parser("suspend", help="turn a family into a single field "
                                       "with frozen parameter directions")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE",
                   help="write the suspended field document to FILE")
    p.set_defaults(func=_cmd_suspend, json=False)

    p = sub.add_parser("corpus", help="run the built-in worked examples")
    p.add_argument("action", choices=["run"])
    p.add_argument("--filter", metavar="PATTERN",
                   help="only entries whose id contains PATTERN")
    _add_common(p)
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DulacError as exc:
        print(f"dulac: error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"dulac: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
