"""Seeded field documents and CLI jobs for the dulac benchmark.

Standard library only, and independent of the package: the benchmark
hands dulac nothing but the documents built here.  Resonance is decided
here in integer arithmetic (eigenvalues scaled to a common denominator),
never through ``dulac.resonance``.

Every job has a fixed shape: dimension, order, spectrum, and for each
nonlinear term its degree, component and whether it is resonant.  The
seed picks only the coefficients and the exponents within a shape, so
two seeds give passes of comparable cost.  Golden output digests are
pinned for ``VARIANTS`` input variants; ``--seed n`` selects variant
``n % VARIANTS``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

VARIANTS = 16

Exps = Tuple[int, ...]
# Eigenvalues as (real, imag) rationals.
Spec = Tuple[Tuple[Fraction, Fraction], ...]
# One nonlinear term of a shape: (degree, 0-based component, resonant).
TermShape = Tuple[int, int, bool]


@dataclass(frozen=True)
class Shape:
    dim: int
    order: int
    spectrum: Spec
    terms: Tuple[TermShape, ...]


@dataclass(frozen=True)
class Job:
    """One ``dulac`` call: ``args`` follow ``<command> --input <doc>``.

    ``twin`` names an earlier job on the same input whose centralizer
    dimension this job must reproduce (restricted vs unrestricted solve).
    """

    command: str
    doc: str
    args: Tuple[str, ...]
    twin: Optional[int] = None

    def argv(self, path: str) -> List[str]:
        return [self.command, "--input", path, *self.args, "--json"]


@dataclass(frozen=True)
class Workload:
    variant: int
    docs: Dict[str, bytes]
    jobs: Tuple[Job, ...]


def spectrum(*values) -> Spec:
    """Eigenvalues given as ints, Fractions or (real, imag) pairs."""
    out = []
    for v in values:
        re, im = v if isinstance(v, tuple) else (v, 0)
        out.append((Fraction(re), Fraction(im)))
    return tuple(out)


def _scalar_text(re: Fraction, im: Fraction) -> str:
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    return f"{re}{'+' if im > 0 else ''}{im}*i"


def _integer_spectrum(spec: Spec) -> List[Tuple[int, int]]:
    den = 1
    for re, im in spec:
        den = lcm(den, re.denominator, im.denominator)
    return [(int(re * den), int(im * den)) for re, im in spec]


def is_resonant(ispec: Sequence[Tuple[int, int]], exps: Exps,
                comp: int) -> bool:
    """<m, L> == lambda_comp, on the integer-scaled spectrum."""
    re = sum(e * a for e, (a, _) in zip(exps, ispec))
    im = sum(e * b for e, (_, b) in zip(exps, ispec))
    return (re, im) == ispec[comp]


def monomials(dim: int, degree: int) -> List[Exps]:
    """Exponent tuples of one total degree, in lexicographic order."""
    if dim == 1:
        return [(degree,)]
    return [(first,) + rest for first in range(degree + 1)
            for rest in monomials(dim - 1, degree - first)]


def _support(dim: int, degree: int, comp: int) -> Tuple[int, ...]:
    # A fixed rotating support couples the variables the same way for
    # every seed; letting the seed choose it varies fill-in, and with it
    # the cost of a job, by up to 2x.
    size = min(dim, degree)
    return tuple(sorted((comp + degree + k) % dim for k in range(size)))


def _pick_terms(rng: random.Random, shape: Shape) -> List[dict]:
    ispec = _integer_spectrum(shape.spectrum)
    used = set()
    terms = []
    for degree, comp, resonant in shape.terms:
        pool = [e for e in monomials(shape.dim, degree)
                if (e, comp) not in used
                and is_resonant(ispec, e, comp) == resonant]
        support = _support(shape.dim, degree, comp)
        preferred = [e for e in pool
                     if tuple(k for k, x in enumerate(e) if x) == support]
        candidates = preferred or pool
        if not candidates:
            kind = "resonant" if resonant else "non-resonant"
            raise ValueError(f"no unused {kind} degree-{degree} monomial "
                             f"for component {comp + 1} in {shape}")
        exps = rng.choice(candidates)
        used.add((exps, comp))
        coeff = rng.randint(1, 9) * rng.choice((1, -1))
        terms.append({"coeff": str(coeff), "exps": list(exps),
                      "comp": comp + 1})
    return terms


def render(shape: Shape, rng: random.Random) -> bytes:
    doc = {"dim": shape.dim, "order": shape.order,
           "eigenvalues": [_scalar_text(re, im) for re, im in shape.spectrum],
           "terms": _pick_terms(rng, shape)}
    return (json.dumps(doc) + "\n").encode("utf-8")


# -- workloads ---------------------------------------------------------

def _rotating(dim: int, degrees: Sequence[int]) -> Tuple[TermShape, ...]:
    """One non-resonant term per component at each listed degree."""
    return tuple((d, c, False) for d in degrees for c in range(dim))


# High orders: nearly all time goes to inverting the transformation.
DEEP = (
    ("d2o12", Shape(2, 12, spectrum(-2, -3), _rotating(2, (2, 3)))),
    ("d2o10", Shape(2, 10, spectrum(1, (Fraction(-1, 7), Fraction(2, 5))),
                    _rotating(2, (2, 3)))),
    ("d3o8", Shape(3, 8, spectrum(-2, -1, -3), _rotating(3, (2, 3)))),
    ("d4o6", Shape(4, 6, spectrum(-1, -2, -3, -5),
                   _rotating(4, (2, 3, 4)))),
)


def _batch_shapes(count: int = 200) -> List[Shape]:
    """Small sweep fields; drawn once from a constant seed, never varied."""
    rng = random.Random("dulac-bench/batch-normalize/shapes")
    shapes = []
    while len(shapes) < count:
        dim = rng.choice((2, 2, 3, 3, 4))
        spec = spectrum(*(rng.randint(-3, 3) for _ in range(dim)))
        ispec = _integer_spectrum(spec)
        terms = []
        for _ in range(rng.randint(2, 6)):
            degree = rng.randint(2, 4)
            comp = rng.randrange(dim)
            has_resonant = any(is_resonant(ispec, e, comp)
                               for e in monomials(dim, degree))
            terms.append((degree, comp, has_resonant and rng.random() < 0.4))
        shape = Shape(dim, 6, spec, tuple(terms))
        try:
            _pick_terms(random.Random(0), shape)
        except ValueError:
            continue  # a pool ran dry; the shape table skips it for all seeds
        shapes.append(shape)
    return shapes


BATCH = tuple(_batch_shapes())


def _resonant_terms(spec: Spec, per_degree: Dict[int, int]
                    ) -> Tuple[TermShape, ...]:
    dim = len(spec)
    return tuple((d, k % dim, True) for d, n in sorted(per_degree.items())
                 for k in range(n))


# Normal forms built from resonant monomials only, so they commute with
# their linear part and the centralizer accepts them as given.
CENTRALIZER_INPUTS = (
    ("s1", Shape(4, 13, spectrum(1, -1, 1, -1),
                 _resonant_terms(spectrum(1, -1, 1, -1), {3: 1}))),
    ("s2", Shape(4, 9, spectrum(1, -1, 2, -2),
                 _resonant_terms(spectrum(1, -1, 2, -2), {3: 1}))),
)
# (input, degree bound, unrestricted); an unrestricted job follows the
# restricted job of the same input and degree and must match its dimension.
CENTRALIZER_JOBS = (
    ("s1", 13, False),
    ("s1", 11, False),
    ("s1", 9, False),
    ("s1", 9, True),
    ("s2", 9, False),
    ("s2", 9, True),
)

WORKLOADS = ("deep-diagnose", "batch-normalize", "centralizer-solve")


def build(name: str, seed: int) -> Workload:
    """The documents and jobs of one workload for one seed."""
    variant = seed % VARIANTS

    def rng(key: str) -> random.Random:
        return random.Random(f"dulac-bench/{name}/{variant}/{key}")

    docs: Dict[str, bytes] = {}
    jobs: List[Job] = []
    if name == "deep-diagnose":
        for key, shape in DEEP:
            docs[key] = render(shape, rng(key))
            jobs.append(Job("diagnose", key, ("--order", str(shape.order))))
    elif name == "batch-normalize":
        for k, shape in enumerate(BATCH):
            key = f"b{k:03d}"
            docs[key] = render(shape, rng(key))
            jobs.append(Job("normalize", key, ("--order", str(shape.order))))
    elif name == "centralizer-solve":
        for key, shape in CENTRALIZER_INPUTS:
            docs[key] = render(shape, rng(key))
        restricted_at: Dict[Tuple[str, int], int] = {}
        for key, degree, unrestricted in CENTRALIZER_JOBS:
            args = ("--degree", str(degree))
            if unrestricted:
                jobs.append(Job("centralizer", key, args + ("--unrestricted",),
                                twin=restricted_at[key, degree]))
            else:
                restricted_at[key, degree] = len(jobs)
                jobs.append(Job("centralizer", key, args))
    else:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return Workload(variant, docs, tuple(jobs))
