"""An independent certificate for the exact reports of the command line.

A ``normalize --json`` report is accepted through its order N when, for
the input field f, the printed normal form f_hat and transformation
y = Psi(x):

* every normal-form term c x^m e_j is resonant: <m, lambda> = lambda_j
  for the input's eigenvalues lambda;
* Psi fixes the origin and has the identity as its linear part, so it is
  invertible near 0;
* DPsi(x) f(x) = f_hat(Psi(x)) holds through degree N, which says that
  f_hat is the push-forward of f along Psi.

This certifies a correct normal form and transformation, not the
distinguished choice among them; the goldens pin that choice.  The input
is a field document whose linear part is diagonal: given by
``eigenvalues``, or by degree-1 terms, after the conjugation y = Tx when
the document has a ``linear_matrix`` T.  That conjugation, T f(T^-1 y),
is done here with T^-1 found by Gauss-Jordan elimination, so the
package's ``from_linear``, ``invert_to_order`` and ``pull_back``, which
it runs on such a document, are checked by an independent route.

A ``centralizer --json`` report is accepted through its degree bound d
when, for the normal-form document it was computed from:

* every element g is a field of degree 1 through d, and the bracket
  [f_hat, g] = Dg f_hat - Df_hat g vanishes through degree d (the
  normal form is truncated at d: fields vanish at the origin, so the
  degree-k part of the bracket needs both fields only through degree k);
* the elements are linearly independent over Q(i) and there are
  ``dimension`` of them;
* they span the truncated centralizer: over the unknowns x^m e_j with
  1 <= |m| <= d and <m, lambda> = lambda_j, found here by the same
  weight test as the resonances, the number of unknowns less the rank
  of their bracket columns is ``dimension``.  A field commuting with a
  normal form has no non-resonant component, so these unknowns carry
  the whole centralizer (``certify_centralizer`` says why); the input
  must therefore be a normal form, every term resonant, with no
  constant term.

This certifies the elements as a basis of the truncated centralizer, not
the distinguished basis nor the ``confirmed`` flags; the goldens pin
those.

A ``bifurcation --json`` report is accepted when, for the family
document it was computed from, its ``eigenvalues`` are the diagonal of
A(0), its ``D`` is the nondegeneracy matrix built here from the matrix
cells in the report's layout (eigenvalue-first: the eigenvalues, then
d A_ii / d eta_k at eta = 0; oscillator: those derivatives, then the
eigenvalues divided by the first, which must read (1, -1, m, -m) for an
integer m >= 2), its ``determinant`` is the determinant of that matrix
found here by elimination, and ``nonsingular`` says whether it is
nonzero.  A ``suspend`` document, which carries no ``command``, is
accepted when it is the field over (x, eta) with eta' = 0 built here
from the family: each cell term c * eta^e of A_ij becomes c * x_j * eta^e
in component i, the family's terms stay, and both are cut at the order.

A ``resonances --json`` report is accepted when its ``eigenvalues`` are
the input field's, read off its diagonal linear part as for normalize,
and its ``relations`` are exactly the pairs (m, j) with
<m, lambda> = lambda_j at degrees 2 through its ``max_degree``, found
here by enumerating every exponent tuple of each degree.  A
``kernel-intersection --json`` report is accepted when its spectra and
``max_degree`` are those of its input, the command's flags written as
``{"spec_a": "1,-3,9", "spec_b": "1,-2,4", "max_degree": 10}``, its
``relations`` are exactly the pairs resonant for both spectra, found the
same way, and ``empty`` says whether there are none.  Both compare the
relations as a set, with no pair listed twice: they certify the listing,
not its order, which the goldens pin.

A ``diagnose --json`` report, which carries no ``command`` and is told
by its ``poincare_domain`` and ``criteria`` keys, is accepted when its
``eigenvalues`` are the input field's, read off its diagonal linear part
as for normalize, and its ``poincare_domain`` verdict says whether the
origin lies outside their closed convex hull.  That is decided here by
Caratheodory's theorem over ``Fraction`` pairs: 0 is in the hull exactly
when it is one of the eigenvalues, on a segment between two, or in a
triangle of three.  The package decides it by another route, a
half-plane test on integer points.  Its ``small_divisors`` block, with K
records, is accepted when, over every exponent tuple m with
2 <= |m| <= 2^K - 1, enumerated here as a multiset of eigenvalue indices:
``tuples_scanned`` is their number; record k holds the least nonzero
|<m, lambda> - lambda_j|^2 over |m| < 2^k, or null when there is none;
and ``rational_bound_sq`` is 1/q^2, with q the lcm of the eigenvalues'
denominators.  The package scans by another route, degree by degree over
integer pairs scaled by q.  Its ``pliss-linearity`` criterion must read
verified, and its ``linear_normal_form`` true, exactly when the normal
form has no term of degree >= 2 through the report's order.  That normal
form is read from the normalize golden of the same input at that order,
or else from the report of ``normalize`` run on the input at that order,
once ``certify_normalize`` accepts it.  Every normal form of a field through
an order is linear when one is: ad A is semisimple, so the lowest
nonlinear term of a normal form cannot be removed.  Its ``condition_a``
block is read from the same normal form.  Condition A is the hypothesis
on the normal form in Bruno's convergence theorem: the nonlinear part F
equals alpha(x) * Ax for a scalar series alpha.  ``satisfied`` must say
whether it does; when it does, the printed alpha must give back F as
alpha * Ax and its two ``constant_along`` flags must say whether its
derivation along the normal form and along Ax vanishes; when it does
not, the witness must name a real violation: a term of component j
without an x_j factor, a term over a zero eigenvalue, or two components
that pin different coefficients of alpha at the named monomial.  The
other criteria are not checked; the goldens pin them.

Everything here is the standard library: its own scalar parser, Gaussian
rationals as pairs of ``Fraction``, and polynomials as plain dicts from
exponent tuples to such pairs, multiplied term by term and truncated.  It
imports nothing from ``dulac``, so an error in the package's arithmetic
cannot hide itself here.  The property tests of ``test_properties.py``
take their expected values from these same functions.

Run ``python -S tests/certify.py`` to certify every normalize golden
(Horn's among them, through its ``linear_matrix``), every ``DIGESTS`` case of
``test_golden.py``, every centralizer golden, restricted and
unrestricted, against the normal form it was computed from, every
resonances golden against its field, every kernel-intersection golden
against its entry of ``JOINT`` in ``test_golden.py``, every
bifurcation and suspend golden against its family document, and the
Poincare verdict, small-divisor records, Pliss verdict and Condition A
of every diagnose golden against its field, which ``SYMMETRY_DIAGNOSES`` of
``test_golden.py`` names for a golden named after its symmetry.  The
``DIGESTS`` cases are produced by ``python -S -m dulac.cli`` in a
subprocess (with ``src`` put on ``PYTHONPATH``) and must also match their
pinned sha256.  ``python -S tests/certify.py INPUT REPORT ...`` certifies
the given pairs of files; the report's ``command`` picks the check.  A
report without one is taken for a ``suspend`` document when its input is
a family document, and for a ``diagnose`` report when it has that
report's verdict keys.  Any other report is refused in one line as a
report with no check here.  The exit status is 1 when any report is
refused.  The command line renders each text report from the document
it prints under ``--json``, so these checks cover the text goldens too.
"""

import ast
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
INPUTS = GOLDEN / "inputs"

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def parse_scalar(text):
    """The pair (re, im) of an exact scalar: ``a/b``, ``a/b+c/d*i``, ``i``,
    ``-i``, ``3i``, ``2*i`` or an int."""
    if isinstance(text, int) and not isinstance(text, bool):
        return (Fraction(text), Fraction(0))
    s = text.replace(" ", "")
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    body = s[:-1].rstrip("*")
    cut = max((k for k in range(1, len(body))
               if body[k] in "+-" and body[k - 1].isdigit()), default=0)
    real, imag = body[:cut] or "0", body[cut:]
    if imag in ("", "+", "-"):
        imag += "1"
    return (Fraction(real), Fraction(imag))


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def mul(x, y):
    (a, b), (c, d) = x, y
    if not b:
        return (a * c, a * d)
    if not d:
        return (a * c, b * c)
    return (a * c - b * d, a * d + b * c)


def neg(x):
    return (-x[0], -x[1])


def inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def accumulate(acc, key, value):
    old = acc.get(key)
    total = value if old is None else add(old, value)
    if total == ZERO:
        acc.pop(key, None)
    else:
        acc[key] = total


def product(a, b, order):
    """The truncated product of two polynomials."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            if sum(exps) <= order:
                accumulate(out, exps, mul(ca, cb))
    return out


def derivative(p, var):
    out = {}
    for exps, c in p.items():
        e = exps[var]
        if e:
            lowered = exps[:var] + (e - 1,) + exps[var + 1:]
            out[lowered] = mul(c, (Fraction(e), Fraction(0)))
    return out


def components(entries, dim, order):
    """The polynomials of a list of {coeff, exps, comp} entries, through
    the order."""
    comps = [{} for _ in range(dim)]
    for entry in entries:
        exps = tuple(entry["exps"])
        if sum(exps) <= order:
            accumulate(comps[entry["comp"] - 1], exps,
                       parse_scalar(entry["coeff"]))
    return comps


def unit(dim, k):
    return tuple(int(i == k) for i in range(dim))


def substitute(polys, values, order):
    """Each polynomial with values[k] put in for x_k, through the order;
    the value of each monomial x^m is built once for all of them, as the
    value of x^m / x_k times values[k] for the last variable x_k in m."""
    monomials = {(0,) * len(values): {(0,) * len(values): ONE}}

    def monomial(exps):
        if exps not in monomials:
            k = max(i for i, e in enumerate(exps) if e)
            lower = exps[:k] + (exps[k] - 1,) + exps[k + 1:]
            monomials[exps] = product(monomial(lower), values[k], order)
        return monomials[exps]

    out = []
    for poly in polys:
        total = {}
        for exps, c in poly.items():
            for key, value in monomial(exps).items():
                accumulate(total, key, mul(c, value))
        out.append(total)
    return out


def matrix_inverse(matrix):
    """The inverse of a square matrix of pairs, by Gauss-Jordan
    elimination; raises ValueError when it is singular."""
    n = len(matrix)
    rows = [list(row) + [ONE if i == j else ZERO for j in range(n)]
            for i, row in enumerate(matrix)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k] != ZERO), None)
        if pivot is None:
            raise ValueError("the linear_matrix is singular")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        scale = inverse(rows[k][k])
        rows[k] = [mul(scale, v) for v in rows[k]]
        for r in range(n):
            if r != k and rows[r][k] != ZERO:
                factor = neg(rows[r][k])
                rows[r] = [add(a, mul(factor, b))
                           for a, b in zip(rows[r], rows[k])]
    return [row[n:] for row in rows]


def conjugate(f, matrix, order):
    """The field f in the coordinates y = Tx: T f(T^-1 y)."""
    dim = len(f)
    at_tinv = substitute(f, [{unit(dim, j): c for j, c in enumerate(row)
                              if c != ZERO}
                             for row in matrix_inverse(matrix)], order)
    out = []
    for row in matrix:
        total = {}
        for c, comp in zip(row, at_tinv):
            for exps, value in comp.items():
                accumulate(total, exps, mul(c, value))
        out.append(total)
    return out


def input_field(document, order):
    """(eigenvalues, components of f) of a field document, through the
    order, conjugated by its ``linear_matrix`` when it has one; raises
    ValueError when the linear part is not diagonal."""
    dim = document["dim"]
    f = components(document["terms"], dim, order)
    if "eigenvalues" in document:
        eigenvalues = [parse_scalar(v) for v in document["eigenvalues"]]
        for j, lam in enumerate(eigenvalues):
            accumulate(f[j], unit(dim, j), lam)
        return eigenvalues, f
    if "linear_matrix" in document:
        f = conjugate(f, [[parse_scalar(v) for v in row]
                          for row in document["linear_matrix"]], order)
    for j, comp in enumerate(f):
        if any(sum(e) == 1 and e != unit(dim, j) for e in comp):
            raise ValueError("the linear part is not diagonal")
    return [f[j].get(unit(dim, j), ZERO) for j in range(dim)], f


def weight(exps, eigenvalues):
    """<m, lambda>: the eigenvalue of x^m under the linear part."""
    total = ZERO
    for e, lam in zip(exps, eigenvalues):
        if e:
            total = add(total, (e * lam[0], e * lam[1]))
    return total


def non_resonant_term(f, eigenvalues):
    """(m, j), j counted from 1, of a term c x^m e_j of f with
    <m, lambda> != lambda_j, or None when every term is resonant."""
    for j, comp in enumerate(f):
        for exps in comp:
            if weight(exps, eigenvalues) != eigenvalues[j]:
                return exps, j + 1
    return None


def certify_normalize(document, report):
    """None when the report is certified through its order, else why not."""
    order = report["order"]
    if order > document["order"]:
        return f"report order {order} exceeds the input order"
    dim = document["dim"]
    eigenvalues, f = input_field(document, order)
    # the normal form is printed as a field document too
    _, fhat = input_field(report["normal_form"], order)
    psi = components([entry for comp in report["transformation"]["components"]
                      for entry in comp], dim, order)
    term = non_resonant_term(fhat, eigenvalues)
    if term:
        return "normal-form term {} of component {} is not resonant".format(
            *term)
    for i, comp in enumerate(psi):
        linear = {e: c for e, c in comp.items() if sum(e) <= 1}
        if linear != {unit(dim, i): ONE}:
            return f"Psi_{i + 1} is not x{i + 1} plus terms of degree >= 2"
    left = [derivation(f, comp, order) for comp in psi]   # DPsi(x) f(x)
    right = substitute(fhat, psi, order)   # f_hat(Psi(x))
    for i, (lhs, rhs) in enumerate(zip(left, right)):
        differ = [e for e in set(lhs) | set(rhs)
                  if lhs.get(e, ZERO) != rhs.get(e, ZERO)]
        if differ:
            first = min(sum(e) for e in differ)
            return (f"DPsi f and f_hat(Psi) differ in component {i + 1} "
                    f"at degree {first}")
    return None


def derivation(f, phi, order):
    """X_f(phi) = sum over k of f_k * d(phi)/dx_k, through the order."""
    total = {}
    for k, f_k in enumerate(f):
        for exps, c in product(f_k, derivative(phi, k), order).items():
            accumulate(total, exps, c)
    return total


def bracket(f, g, order):
    """[f, g] = Dg f - Df g through the order, component by component:
    X_f(g_i) - X_g(f_i)."""
    out = []
    for f_i, g_i in zip(f, g):
        total = derivation(f, g_i, order)
        for exps, c in derivation(g, f_i, order).items():
            accumulate(total, exps, neg(c))
        out.append(total)
    return out


def rank(vectors):
    """The rank over Q(i) of vectors held as dicts of nonzero entries."""
    basis = []   # (pivot key, row with 1 there and 0 at every earlier pivot)
    for vector in vectors:
        row = dict(vector)
        for pivot, base in basis:
            c = row.get(pivot)
            if c is not None:
                for key, value in base.items():
                    accumulate(row, key, mul(neg(c), value))
        if row:
            pivot = min(row)
            scale = inverse(row[pivot])
            basis.append((pivot, {key: mul(scale, value)
                                  for key, value in row.items()}))
    return len(basis)


def kernel_dimension(fhat, unknowns, degree):
    """The dimension of the fields over the unknowns (m, j), each standing
    for x^m e_j with j counted from 1, whose bracket with fhat vanishes
    through the degree: the number of unknowns less the rank of their
    bracket columns."""
    columns = []
    for exps, j in unknowns:
        g = [{} for _ in fhat]
        g[j - 1][exps] = ONE
        columns.append({(i, e): c
                        for i, comp in enumerate(bracket(fhat, g, degree))
                        for e, c in comp.items()})
    return len(columns) - rank(columns)


def certify_centralizer(document, report):
    """None when the report is certified through its degree bound, else
    why not.

    The spanning check counts the centralizer over its own restricted
    system: the unknowns x^m e_j with 1 <= |m| <= d and
    <m, lambda> = lambda_j.  That count is the dimension of the whole
    truncated centralizer by the theorem that a field commuting with a
    normal form has no non-resonant component.  For the linear part
    Lambda x, [Lambda x, x^m e_j] = (<m, lambda> - lambda_j) x^m e_j, and
    [Lambda x, f_hat] = 0 for a normal form, so ad_f_hat commutes with
    ad_Lambda and each weight part of an element commutes with f_hat too;
    a part of weight mu != 0 whose lowest-degree part is g_k would leave
    mu g_k in the bracket at degree k, so it is zero.  The theorem needs a
    normal form that vanishes at the origin, so every term of the
    document must be resonant and of degree >= 1.
    """
    degree = report["degree"]
    if degree > document["order"]:
        return f"degree bound {degree} exceeds the normal form's order"
    dim = document["dim"]
    eigenvalues, fhat = input_field(document, degree)
    if non_resonant_term(fhat, eigenvalues) or any((0,) * dim in comp
                                                   for comp in fhat):
        return "the input is no normal form that vanishes at the origin"
    vectors = []
    for n, element in enumerate(report["elements"], 1):
        if any(not 1 <= sum(entry["exps"]) <= degree
               for entry in element["terms"]):
            return f"element {n} has a term outside degrees 1 through {degree}"
        g = components(element["terms"], dim, degree)
        for i, comp in enumerate(bracket(fhat, g, degree)):
            if comp:
                first = min(sum(e) for e in comp)
                return (f"element {n} does not commute with the normal form: "
                        f"component {i + 1} of the bracket at degree {first}")
        vectors.append({(j, e): c for j, comp in enumerate(g)
                        for e, c in comp.items()})
    found = rank(vectors)
    if not len(vectors) == found == report["dimension"]:
        return (f"{len(vectors)} elements of rank {found}, "
                f"not the dimension {report['dimension']}")
    spanned = kernel_dimension(
        fhat, resonant_pairs([eigenvalues], degree, 1), degree)
    if spanned != found:
        return (f"the {found} elements do not span the centralizer, "
                f"whose dimension is {spanned}")
    return None


def resonant_pairs(spectra, max_degree, min_degree=2):
    """The set of (m, j), j counted from 1, with <m, lambda> = lambda_j for
    every spectrum lambda, over every exponent tuple m of degree
    min_degree through max_degree."""
    dim = len(spectra[0])
    found = set()
    for degree in range(min_degree, max_degree + 1):
        for variables in itertools.combinations_with_replacement(range(dim),
                                                                 degree):
            exps = tuple(variables.count(k) for k in range(dim))
            weights = [weight(exps, lam) for lam in spectra]
            for j in range(dim):
                if all(w == lam[j] for w, lam in zip(weights, spectra)):
                    found.add((exps, j + 1))
    return found


def certify_relations(report, spectra):
    """None when the report's relations are exactly the pairs resonant for
    every spectrum through its ``max_degree``, each listed once."""
    listed = [(tuple(r["exps"]), r["comp"]) for r in report["relations"]]
    if len(set(listed)) != len(listed):
        return "a relation is listed twice"
    expected = resonant_pairs(spectra, report["max_degree"])
    missing = sorted(expected - set(listed))
    if missing:
        return f"the resonant relation {missing[0]} is missing"
    extra = sorted(set(listed) - expected)
    if extra:
        return f"the relation {extra[0]} is not resonant"
    return None


def certify_resonances(document, report):
    """None when the report lists the resonances of the input field's
    eigenvalues, else why not."""
    eigenvalues, _ = input_field(document, 1)
    if [parse_scalar(v) for v in report["eigenvalues"]] != eigenvalues:
        return "the eigenvalues are not the input's"
    return certify_relations(report, [eigenvalues])


def certify_kernel_intersection(document, report):
    """None when the report lists the joint resonances of the two spectra
    of its input, else why not."""
    spectra = [[parse_scalar(v) for v in document[key].split(",")]
               for key in ("spec_a", "spec_b")]
    for name, spectrum in zip(("eigenvalues_a", "eigenvalues_b"), spectra):
        if [parse_scalar(v) for v in report[name]] != spectrum:
            return f"{name} are not the input's"
    if report["max_degree"] != document["max_degree"]:
        return "max_degree is not the input's"
    reason = certify_relations(report, spectra)
    empty = not report["relations"]
    if reason is None and report["empty"] is not empty:
        return f"empty should read {empty}"
    return reason


def family_cells(document):
    """The matrix A(eta) of a family document: each cell as a dict from
    exponents in eta to coefficients."""
    p = len(document["params"]["names"])
    rows = []
    for row in document["params"]["matrix"]:
        cells = []
        for cell in row:
            terms = {}
            for entry in (cell if isinstance(cell, list)
                          else [{"coeff": cell, "exps": [0] * p}]):
                accumulate(terms, tuple(entry["exps"]),
                           parse_scalar(entry["coeff"]))
            cells.append(terms)
        rows.append(cells)
    return rows


def determinant(matrix):
    """The determinant of a square matrix of pairs, by elimination."""
    rows = [list(row) for row in matrix]
    det = ONE
    for k in range(len(rows)):
        pivot = next((r for r in range(k, len(rows)) if rows[r][k] != ZERO),
                     None)
        if pivot is None:
            return ZERO
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = neg(det)
        det = mul(det, rows[k][k])
        scale = inverse(rows[k][k])
        for r in range(k + 1, len(rows)):
            factor = neg(mul(rows[r][k], scale))
            rows[r] = [add(a, mul(factor, b)) for a, b in zip(rows[r], rows[k])]
    return det


def certify_bifurcation(document, report):
    """None when the report's matrix, determinant and verdict are the
    family's, else why not."""
    cells = family_cells(document)
    n, p = len(cells), len(document["params"]["names"])
    if p != n - 1:
        return f"the matrix needs p = n - 1 parameters, not {p} for n = {n}"
    eigenvalues = [cells[i][i].get((0,) * p, ZERO) for i in range(n)]
    partials = [[cells[i][i].get(unit(p, k), ZERO) for k in range(p)]
                for i in range(n)]
    if report["layout"] == "eigenvalue-first":
        matrix = [[eigenvalues[i]] + partials[i] for i in range(n)]
    elif report["layout"] == "oscillator":
        base = eigenvalues[0]
        if n != 4 or base[0] != 0 or base[1] == 0:
            return "the eigenvalues lack the oscillator pattern"
        tail = [mul(lam, inverse(base)) for lam in eigenvalues]
        m = tail[2][0]
        if (tail != [ONE, neg(ONE), (m, Fraction(0)), (-m, Fraction(0))]
                or m.denominator != 1 or m < 2):
            return "the eigenvalues lack the oscillator pattern"
        matrix = [partials[i] + [tail[i]] for i in range(n)]
    else:
        return f"no layout {report['layout']!r}"
    if [parse_scalar(v) for v in report["eigenvalues"]] != eigenvalues:
        return "the eigenvalues are not the diagonal of A(0)"
    if len(report["D"]) != n:
        return f"D has {len(report['D'])} rows, not {n}"
    for i, row in enumerate(report["D"]):
        if [parse_scalar(v) for v in row] != matrix[i]:
            return f"row {i + 1} of D is not the family's"
    det = determinant(matrix)
    if parse_scalar(report["determinant"]) != det:
        return "the determinant is not the determinant of D"
    if report["nonsingular"] is not (det != ZERO):
        return f"nonsingular should read {det != ZERO}"
    return None


def certify_suspend(document, report):
    """None when the field document is the family's suspension, else why
    not."""
    cells = family_cells(document)
    n, order = document["dim"], document["order"]
    names = document["params"]["names"]
    dim = n + len(names)
    header = (dim, order, document.get("vars", [f"x{k + 1}" for k in range(n)])
              + names)
    if (report["dim"], report["order"], report.get("vars")) != header:
        return "dim, order or vars are not those of the suspension"
    expected = components(document.get("terms", []), dim, order)
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            for eta, c in cell.items():
                if 1 + sum(eta) <= order:
                    accumulate(expected[i], unit(n, j) + eta, c)
    _, found = input_field(report, order)
    for i, (comp, want) in enumerate(zip(found, expected)):
        if comp != want:
            return f"component {i + 1} is not the suspension's"
    return None


def cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def origin_in_hull(points):
    """Whether 0 lies in the closed convex hull of the points, pairs of
    ``Fraction``.  By Caratheodory's theorem in the plane it does exactly
    when it is one of them, lies on the segment between two of them, or
    lies in the triangle of three of them: 0 is on the segment [a, b] when
    a, b and 0 are collinear with a and b not on one open ray, and in a
    triangle that is not flat when it lies on no side's far side."""
    if ZERO in points:
        return True
    for a, b in itertools.combinations(points, 2):
        if cross(a, b) == 0 and a[0] * b[0] + a[1] * b[1] <= 0:
            return True
    for a, b, c in itertools.combinations(points, 3):
        # cross(a, b) has the sign of the side of a -> b that 0 is on; a
        # flat triangle has all three zero or both nonzero signs
        sides = {(s > 0) - (s < 0)
                 for s in (cross(a, b), cross(b, c), cross(c, a))}
        if sides in ({1}, {-1}, {0, 1}, {0, -1}):
            return True
    return False


def certify_small_divisors(eigenvalues, block):
    """None when the ``small_divisors`` block of a diagnose report is the
    scan of the eigenvalues, else why not.  With K records, every m with
    2 <= |m| <= 2^K - 1 is enumerated as a multiset of eigenvalue indices;
    record k holds the least nonzero |<m, lambda> - lambda_j|^2 over
    |m| < 2^k, or null when there is none."""
    records = block["records"]
    scanned = 0
    least = {}  # degree -> least nonzero squared divisor of that degree
    for degree in range(2, 2 ** len(records)):
        for picked in itertools.combinations_with_replacement(eigenvalues,
                                                               degree):
            scanned += 1
            total = ZERO
            for lam in picked:
                total = add(total, lam)
            for lam in eigenvalues:
                re, im = add(total, neg(lam))
                size = re * re + im * im
                if size and (degree not in least or size < least[degree]):
                    least[degree] = size
    if block["tuples_scanned"] != scanned:
        return f"tuples_scanned should read {scanned}"
    for k, record in enumerate(records, start=1):
        sizes = [v for d, v in least.items() if d < 2 ** k]
        want = min(sizes) if sizes else None
        got = record["omega_sq"]
        if (got is None) is not (want is None) or (
                want is not None and parse_scalar(got) != (want, 0)):
            return (f"omega_sq of k = {k} should read "
                    f"{'null' if want is None else want}")
    scale = math.lcm(*[math.lcm(re.denominator, im.denominator)
                       for re, im in eigenvalues])
    if parse_scalar(block["rational_bound_sq"]) != (Fraction(1, scale ** 2), 0):
        return f"rational_bound_sq should read {Fraction(1, scale ** 2)}"
    return None


def certified_normal_form(document, order):
    """The normal form, as components, of ``document`` through ``order``,
    read from a normalize report once ``certify_normalize`` accepts it:
    the normalize golden of the same input at that order when there is
    one, else what ``python -S -m dulac.cli normalize`` writes; raises
    ValueError when the report is refused or normalize fails."""
    for name, source, report in golden_pairs("normalize"):
        if json.loads(source.read_text()) == document:
            data = json.loads(report.read_text())
            if data["order"] == order:
                label = f"normalize golden {name}"
                break
    else:
        label = f"normalize at order {order}"
        with tempfile.TemporaryDirectory() as work:
            source, out = Path(work) / "input.json", Path(work) / "out.json"
            source.write_text(json.dumps(document))
            try:
                _run_normalize(source, order, out)
            except subprocess.CalledProcessError as exc:
                raise ValueError(f"{label} exited {exc.returncode}") from None
            data = json.loads(out.read_text())
    reason = certify_normalize(document, data)
    if reason is not None:
        raise ValueError(f"{label}: {reason}")
    return input_field(data["normal_form"], order)[1]


def parse_poly(text, dim):
    """The polynomial of a printed text such as ``x1*x2``,
    ``-1/2*x1^2 + (1+2*i)*x2`` or ``0``: terms joined by `` + ``, each a
    coefficient, a product of factors x_k or x_k^e, or the coefficient,
    in parentheses when it has two parts, times that product."""
    out = {}
    for piece in [] if text == "0" else text.split(" + "):
        if piece.startswith("("):
            coeff, _, rest = piece[1:].partition(")")
            factors = rest[1:].split("*") if rest else []
        else:
            tokens = piece.split("*")
            factors = [t for t in tokens if t.startswith("x")]
            coeff = "*".join(t for t in tokens if not t.startswith("x"))
        exps = [0] * dim
        for factor in factors:
            var, _, power = factor[1:].partition("^")
            exps[int(var) - 1] += int(power or 1)
        accumulate(out, tuple(exps), parse_scalar(coeff or "1"))
    return out


def linear_field(eigenvalues):
    """The field Ax of the eigenvalues (a zero one as a zero entry)."""
    return [{unit(len(eigenvalues), j): lam}
            for j, lam in enumerate(eigenvalues)]


def times_linear(alpha, eigenvalues, order):
    """The field alpha * Ax through the order."""
    return [product(alpha, comp, order) for comp in linear_field(eigenvalues)]


def condition_a_witness(witness, nonlinear, eigenvalues):
    """None when the witness of a failed Condition A names a real
    violation of F = alpha * Ax, else why not.  Components (j, j) name a
    term of F_j at the monomial without an x_j factor, or a term of F_j at
    the monomial times x_j when lambda_j is zero; components (j, k), j
    != k, name a monomial m at which F_j / lambda_j and F_k / lambda_k,
    both eigenvalues nonzero, pin different coefficients of alpha.  The
    degree is that of the violating term."""
    m = tuple(witness["monomial"])
    j, k = (c - 1 for c in witness["components"])

    def pinned(i):
        """The coefficient of F_i at m * x_i."""
        return nonlinear[i].get(m[:i] + (m[i] + 1,) + m[i + 1:], ZERO)

    if j == k:
        kinds = [(m[j] == 0 and m in nonlinear[j], sum(m)),
                 (eigenvalues[j] == ZERO and pinned(j) != ZERO, sum(m) + 1)]
    else:
        kinds = [(ZERO not in (eigenvalues[j], eigenvalues[k])
                  and mul(pinned(j), inverse(eigenvalues[j]))
                  != mul(pinned(k), inverse(eigenvalues[k])), sum(m) + 1)]
    degrees = [degree for real, degree in kinds if real]
    if not degrees:
        return "the Condition A witness names no violation"
    if witness["degree"] not in degrees:
        return f"the Condition A witness degree should read {degrees[0]}"
    return None


def certify_condition_a(block, eigenvalues, fhat, order):
    """None when the ``condition_a`` block of a diagnose report is
    Condition A of the normal form through the order, else why not.

    Condition A is the hypothesis on the normal form in Bruno's
    convergence theorem (Bruno, *Local Methods in Nonlinear Differential
    Equations*, 1989): a field whose eigenvalues satisfy Condition omega,
    the small-divisor condition, and whose normal form is
    (1 + alpha(x)) Ax for a scalar series alpha, has a convergent
    normalizing transformation.  So the nonlinear part F of the normal
    form must equal alpha * Ax.  When some lambda_j is nonzero, alpha is
    F_j / (lambda_j x_j) through degree N - 1, read here off the first
    such component, and F = alpha * Ax holds or fails with it; when every
    eigenvalue is zero, Ax = 0 and it holds exactly when F = 0.  When it
    holds, the printed alpha must have no term outside degrees 1 through
    N - 1 and give back F as alpha * Ax (which pins it when some lambda_j
    is nonzero), and ``constant_along_field`` and ``constant_along_linear``
    must say whether the derivation of alpha along the normal form and
    along Ax vanishes through N.  When it fails, the witness must name a
    real violation (``condition_a_witness``)."""
    dim = len(eigenvalues)
    nonlinear = [{e: c for e, c in comp.items() if sum(e) >= 2}
                 for comp in fhat]
    alpha = {}
    for j, lam in enumerate(eigenvalues):
        if lam != ZERO:
            for exps, c in nonlinear[j].items():
                if exps[j]:
                    lowered = exps[:j] + (exps[j] - 1,) + exps[j + 1:]
                    alpha[lowered] = mul(c, inverse(lam))
            break
    holds = times_linear(alpha, eigenvalues, order) == nonlinear
    if block["satisfied"] is not holds:
        return f"condition_a satisfied should read {holds}"
    if not holds:
        return condition_a_witness(block["witness"], nonlinear, eigenvalues)
    printed = parse_poly(block["alpha"], dim)
    if (any(not 1 <= sum(exps) <= order - 1 for exps in printed)
            or times_linear(printed, eigenvalues, order) != nonlinear):
        return "the printed alpha does not give F = alpha * Ax"
    for key, field in (("constant_along_field", fhat),
                       ("constant_along_linear", linear_field(eigenvalues))):
        constant = not derivation(field, printed, order)
        if block["checks"][key] is not constant:
            return f"condition_a {key} should read {constant}"
    return None


def certify_diagnose(document, report):
    """None when the report's eigenvalues are the input field's, read off
    its diagonal linear part as for normalize, its ``poincare_domain``
    says whether 0 lies outside their convex hull, its small-divisor
    records are their scan, its Pliss verdict and ``linear_normal_form``
    say whether the certified normal form of the same input at the
    report's order is linear, and its ``condition_a`` block is Condition
    A of that normal form, else why not."""
    eigenvalues, _ = input_field(document, 1)
    if [parse_scalar(v) for v in report["eigenvalues"]] != eigenvalues:
        return "the eigenvalues are not the input's"
    outside = not origin_in_hull(eigenvalues)
    if report["poincare_domain"] is not outside:
        return f"poincare_domain should read {outside}"
    order = report["order"]
    fhat = certified_normal_form(document, order)
    linear = not any(sum(exps) >= 2 for comp in fhat for exps in comp)
    pliss, = [c["verdict"] for c in report["criteria"]
              if c["name"] == "pliss-linearity"]
    if pliss.startswith("hypotheses-verified") is not linear:
        return ("pliss-linearity should read "
                + ("verified" if linear else "hypothesis-failed"))
    if report["linear_normal_form"] is not linear:
        return f"linear_normal_form should read {linear}"
    reason = certify_condition_a(report["condition_a"], eigenvalues, fhat,
                                 order)
    if reason is not None:
        return reason
    return certify_small_divisors(eigenvalues, report["small_divisors"])


CERTIFIERS = {"normalize": certify_normalize,
              "centralizer": certify_centralizer,
              "resonances": certify_resonances,
              "kernel-intersection": certify_kernel_intersection,
              "bifurcation": certify_bifurcation,
              "suspend": certify_suspend,
              "diagnose": certify_diagnose}


def golden_table(name):
    """A table of ``test_golden.py``, read without importing it, since it
    imports pytest and the package."""
    tree = ast.parse((HERE / "test_golden.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise LookupError(f"no {name} table in test_golden.py")


def pinned_digests():
    """The ``DIGESTS`` table of ``test_golden.py``."""
    return golden_table("DIGESTS")


def golden_pairs(command):
    """(name, input path, report path) of every golden of ``command``,
    normalize, resonances or diagnose, whose input is the field named
    after it; ``SYMMETRY_DIAGNOSES`` of ``test_golden.py`` names the field
    of a diagnose golden named after its symmetry."""
    fields = (golden_table("SYMMETRY_DIAGNOSES") if command == "diagnose"
              else {})
    out = []
    for report in sorted(GOLDEN.glob(f"*.{command}.json")):
        name = report.name[:-len(f".{command}.json")]
        out.append((name, INPUTS / f"{fields.get(name, name)}.json", report))
    return out


def centralizer_pairs():
    """(name, normal-form input path, report path) of every centralizer
    golden; ``CENTRALIZERS`` of ``test_golden.py`` names the field of the
    extra snapshots, the others are named after their field."""
    snapshots = golden_table("CENTRALIZERS")
    out = []
    for report in sorted(GOLDEN.glob("*.centralizer.json")):
        name = report.name[:-len(".centralizer.json")]
        field = snapshots.get(name, (name,))[0]
        out.append((name, INPUTS / f"{field}.normal-form.json", report))
    return out


def joint_cases():
    """(name, input document, report path) of every kernel-intersection
    golden, whose input is its entry of ``JOINT`` in ``test_golden.py``."""
    out = []
    for name, (spec_a, spec_b, degree) in sorted(golden_table("JOINT").items()):
        out.append((name, {"spec_a": spec_a, "spec_b": spec_b,
                           "max_degree": int(degree)},
                    GOLDEN / f"{name}.kernel-intersection.json"))
    return out


def family_pairs():
    """(name, family input path, report path) of every bifurcation golden,
    whose family ``BIFURCATIONS`` of ``test_golden.py`` names, and of
    every suspend golden, named after its family."""
    bifurcations = golden_table("BIFURCATIONS")
    out = []
    for report in sorted(GOLDEN.glob("*.bifurcation.json")):
        name = report.name[:-len(".bifurcation.json")]
        family = bifurcations[name][0]
        out.append((f"{name}.bifurcation", INPUTS / f"{family}.family.json",
                    report))
    for report in sorted(GOLDEN.glob("*.suspend.json")):
        name = report.name[:-len(".suspend.json")]
        out.append((f"{name}.suspend", INPUTS / f"{name}.family.json",
                    report))
    return out


def _run_normalize(source, order, out):
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-S", "-m", "dulac.cli", "normalize",
                    "--input", str(source), "--order", str(order), "--json",
                    "--out", str(out)], check=True, env=env)


def certify_report(document, report):
    """The check that the report's ``command`` picks; a suspend document
    is a field document, which names no command, made from a family
    document, and a diagnose report, which names none either, is told by
    its verdict keys.  A report with no check here, a field whose linear
    part is not diagonal, or a singular ``linear_matrix``, is a refusal
    too."""
    command = report.get("command")
    if command is None and "params" in document:
        command = "suspend"
    elif command is None and {"poincare_domain", "criteria"} <= report.keys():
        command = "diagnose"
    if command is None:
        return ("no check for this report: it names no command, is no "
                "diagnose report, and its input is no family document, so "
                "it is no suspension")
    if command not in CERTIFIERS:
        return f"no certificate for the command {command!r}"
    try:
        return CERTIFIERS[command](document, report)
    except ValueError as exc:
        return str(exc)


def _check(label, source, report_bytes):
    """Certify a report against its input, a document or its path."""
    document = (source if isinstance(source, dict)
                else json.loads(Path(source).read_text()))
    reason = certify_report(document, json.loads(report_bytes))
    print(f"{label}: {'certified' if reason is None else 'REFUSED: ' + reason}")
    return reason is None


def main(argv):
    ok = True
    if argv:
        if len(argv) % 2:
            raise SystemExit("usage: certify.py [INPUT REPORT]...")
        for source, report in zip(argv[::2], argv[1::2]):
            ok &= _check(report, source, Path(report).read_bytes())
        return 0 if ok else 1
    for name, source, report in golden_pairs("normalize"):
        ok &= _check(f"golden {name}", source, report.read_bytes())
    with tempfile.TemporaryDirectory() as work:
        for name, (order, digest) in pinned_digests().items():
            out = Path(work) / f"{name}.json"
            source = INPUTS / f"{name}.json"
            _run_normalize(source, order, out)
            data = out.read_bytes()
            if hashlib.sha256(data).hexdigest() != digest:
                print(f"digest {name}: REFUSED: sha256 differs from the pin")
                ok = False
            else:
                ok &= _check(f"digest {name}", source, data)
    for name, source, report in centralizer_pairs():
        ok &= _check(f"centralizer {name}", source, report.read_bytes())
    for name, source, report in golden_pairs("resonances"):
        ok &= _check(f"resonances {name}", source, report.read_bytes())
    for name, document, report in joint_cases():
        ok &= _check(f"kernel-intersection {name}", document,
                     report.read_bytes())
    for name, source, report in family_pairs():
        ok &= _check(f"family {name}", source, report.read_bytes())
    for name, source, report in golden_pairs("diagnose"):
        ok &= _check(f"diagnose {name}", source, report.read_bytes())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
