"""An independent certificate for ``normalize`` and ``centralizer`` reports.

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
``eigenvalues``, or by degree-1 terms.  Documents with a ``linear_matrix``
are refused as out of scope.

A ``centralizer --json`` report is accepted through its degree bound d
when, for the normal-form document it was computed from:

* every element g is a field of degree 1 through d, and the bracket
  [f_hat, g] = Dg f_hat - Df_hat g vanishes through degree d (the
  normal form is truncated at d: fields vanish at the origin, so the
  degree-k part of the bracket needs both fields only through degree k);
* the elements are linearly independent over Q(i) and there are
  ``dimension`` of them.

This certifies that the elements lie in the truncated centralizer and
span a space of the printed dimension, not that they span all of it, nor
the ``confirmed`` flags; the goldens pin those.

Everything here is the standard library: its own scalar parser, Gaussian
rationals as pairs of ``Fraction``, and polynomials as plain dicts from
exponent tuples to such pairs, multiplied term by term and truncated.  It
imports nothing from ``dulac``, so an error in the package's arithmetic
cannot hide itself here.

Run ``python -S tests/certify.py`` to certify every normalize golden
whose input has a diagonal linear part, every ``DIGESTS`` case of
``test_golden.py`` and every centralizer golden, restricted and
unrestricted, against the normal form it was computed from.  The
``DIGESTS`` cases are produced by ``python -S -m dulac.cli`` in a
subprocess (with ``src`` put on ``PYTHONPATH``) and must also match their
pinned sha256.  ``python -S tests/certify.py INPUT REPORT ...`` certifies
the given pairs of files; the report's ``command`` picks the check.  The
exit status is 1 when any report is refused.
"""

import ast
import hashlib
import json
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
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def neg(x):
    return (-x[0], -x[1])


def inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def accumulate(acc, key, value):
    total = add(acc.get(key, ZERO), value)
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


def input_field(document, order):
    """(eigenvalues, components of f) of a field document, through the
    order; raises ValueError when the linear part is not diagonal."""
    if "linear_matrix" in document:
        raise ValueError("linear_matrix documents are out of scope")
    dim = document["dim"]
    f = components(document["terms"], dim, order)
    if "eigenvalues" in document:
        eigenvalues = [parse_scalar(v) for v in document["eigenvalues"]]
        for j, lam in enumerate(eigenvalues):
            accumulate(f[j], unit(dim, j), lam)
        return eigenvalues, f
    for j, comp in enumerate(f):
        if any(sum(e) == 1 and e != unit(dim, j) for e in comp):
            raise ValueError("the linear part is not diagonal")
    return [f[j].get(unit(dim, j), ZERO) for j in range(dim)], f


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
    for j, comp in enumerate(fhat):
        for exps in comp:
            weight = ZERO
            for e, lam in zip(exps, eigenvalues):
                weight = add(weight, mul((Fraction(e), Fraction(0)), lam))
            if weight != eigenvalues[j]:
                return f"normal-form term {exps} of component {j + 1} is not resonant"
    for i, comp in enumerate(psi):
        linear = {e: c for e, c in comp.items() if sum(e) <= 1}
        if linear != {unit(dim, i): ONE}:
            return f"Psi_{i + 1} is not x{i + 1} plus terms of degree >= 2"
    # DPsi(x) f(x), component by component
    left = []
    for comp in psi:
        total = {}
        for k in range(dim):
            for exps, c in product(derivative(comp, k), f[k], order).items():
                accumulate(total, exps, c)
        left.append(total)
    # f_hat(Psi(x)), with the powers of each Psi_k built once
    powers = [[{(0,) * dim: ONE}] for _ in range(dim)]
    right = []
    for comp in fhat:
        total = {}
        for exps, c in comp.items():
            term = {(0,) * dim: c}
            for k, e in enumerate(exps):
                while len(powers[k]) <= e:
                    powers[k].append(product(powers[k][-1], psi[k], order))
                term = product(term, powers[k][e], order)
            for key, value in term.items():
                accumulate(total, key, value)
        right.append(total)
    for i, (lhs, rhs) in enumerate(zip(left, right)):
        differ = [e for e in set(lhs) | set(rhs)
                  if lhs.get(e, ZERO) != rhs.get(e, ZERO)]
        if differ:
            first = min(sum(e) for e in differ)
            return (f"DPsi f and f_hat(Psi) differ in component {i + 1} "
                    f"at degree {first}")
    return None


def bracket(f, g, order):
    """[f, g] = Dg f - Df g through the order, component by component."""
    out = []
    for f_i, g_i in zip(f, g):
        total = {}
        for k, (f_k, g_k) in enumerate(zip(f, g)):
            for exps, c in product(f_k, derivative(g_i, k), order).items():
                accumulate(total, exps, c)
            for exps, c in product(g_k, derivative(f_i, k), order).items():
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


def certify_centralizer(document, report):
    """None when the report is certified through its degree bound, else
    why not."""
    degree = report["degree"]
    if degree > document["order"]:
        return f"degree bound {degree} exceeds the normal form's order"
    dim = document["dim"]
    _, fhat = input_field(document, degree)
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
    return None


CERTIFIERS = {"normalize": certify_normalize,
              "centralizer": certify_centralizer}


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


def golden_pairs():
    """(name, input path, report path) of every normalize golden whose
    input has a diagonal linear part."""
    out = []
    for report in sorted(GOLDEN.glob("*.normalize.json")):
        name = report.name[:-len(".normalize.json")]
        source = INPUTS / f"{name}.json"
        if "linear_matrix" not in json.loads(source.read_text()):
            out.append((name, source, report))
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


def _run_normalize(source, order, out):
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-S", "-m", "dulac.cli", "normalize",
                    "--input", str(source), "--order", str(order), "--json",
                    "--out", str(out)], check=True, env=env)


def _check(label, source, report_bytes):
    report = json.loads(report_bytes)
    certify = CERTIFIERS.get(report.get("command"))
    if certify is None:
        reason = f"no certificate for the command {report.get('command')!r}"
    else:
        reason = certify(json.loads(Path(source).read_text()), report)
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
    for name, source, report in golden_pairs():
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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
