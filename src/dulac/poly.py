"""Sparse truncated polynomial algebra over the Gaussian rationals.

A scalar polynomial is a dict mapping exponent tuples to nonzero
coefficients; the zero polynomial is the empty dict.  Every value carries
a truncation order N: terms of degree > N are unknown and silently
dropped by all operations (never extrapolated).  Products and sums of
values with different orders are correct to the smaller order, and that
is the order they carry.

Public constructors validate every term.  Products, substitutions and
derivatives build their terms canonically (nonzero coefficients,
exponent tuples of the right length, degree within the order), so they
wrap the result through the trusted constructor ``PolyScalar._canonical``
and skip that check; so do the order re-tags of the coordinate-change
code.

Substitution builds the monomials x^m of its values by one rule,
``_monomial_chain``: x^m = x^(m - e_i) * values[i], i the last variable
with a nonzero exponent.  ``PolyScalar.substitute`` takes each such
product whole, as one ``PolyScalar`` product, and one table of them
serves every component of a map in ``compose`` and ``pull_back``.
``invert_to_order`` follows the same links on graded series (lists whose
entry d holds the degree-d terms) and adds one degree per pass with
``_add_product_part``, since Phi is what it solves for.

Every scan over exponent tuples goes through ``enumerate_monomials_upto``,
which holds the one work budget of the package.

A polynomial vector field couples n scalar components over n variables.
It optionally stores a spectrum: the eigenvalue tuple of a diagonal
linear part, validated against the degree-1 terms on attachment.  The
fundamental operation is the Lie bracket

    [f, g](x) = Dg(x) f(x) - Df(x) g(x),

whose component i is X_f(g_i) - X_g(f_i) for the derivation
X_f(phi) = sum_k f_k d(phi)/dx_k, ``apply_derivation``.  Under it
the homogeneous advection fields by a diagonal linear field Ax act
diagonally on monomial-vector basis elements:
[Ax, x^m e_j] = (<m, L> - lambda_j) x^m e_j for spectrum L.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import (Container, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    NonDiagonalLinearPartError,
    TruncationOrderError,
)
from .scalars import ONE, ZERO, GaussianRational, ScalarLike, add_scaled, as_scalar

Exponents = Tuple[int, ...]
TermMap = Dict[Exponents, GaussianRational]
Series = List[TermMap]   # entry d holds the degree-d terms
Link = Tuple[Exponents, Exponents, int]   # m, m - e_i, i

_COEFF_TYPES = (GaussianRational, int, Fraction)

# Monomial-vector pairs a scan over exponent tuples may cover.
DEFAULT_TUPLE_BUDGET = 10 ** 7


def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def grlex_key(exps: Exponents) -> Tuple[int, Exponents]:
    """Sort key for the graded lexicographic term order."""
    return (sum(exps), exps)


def enumerate_monomials(dim: int, degree: int) -> Iterator[Exponents]:
    """All exponent tuples of the given total degree, in lexicographic order.

    Stars and bars: cut points 0 <= c_1 <= ... <= c_(dim-1) <= degree, in
    lexicographic order, give the tuples (c_1, c_2 - c_1, ..., degree -
    c_(dim-1)) in lexicographic order, each in O(dim).
    """
    sub = operator.sub
    top = (degree,)
    for cuts in itertools.combinations_with_replacement(range(degree + 1),
                                                        dim - 1):
        yield tuple(map(sub, cuts + top, (0,) + cuts))


def enumerate_monomials_upto(dim: int, max_degree: int,
                             min_degree: int = 0) -> Iterator[Exponents]:
    """Exponent tuples with min_degree <= total degree <= max_degree, graded lex.

    Raises before the first tuple when the dim * C(dim + max_degree, dim)
    monomial-vector pairs through max_degree outnumber DEFAULT_TUPLE_BUDGET:
    pairs, because a scan may test or keep every component of every tuple.
    """
    if dim * math.comb(dim + max_degree, dim) > DEFAULT_TUPLE_BUDGET:
        raise BudgetExceededError(
            f"scan through degree {max_degree} in dimension {dim} needs more "
            f"than the budget of {DEFAULT_TUPLE_BUDGET} monomial-vector pairs")
    return itertools.chain.from_iterable(
        enumerate_monomials(dim, degree)
        for degree in range(min_degree, max_degree + 1))


# -- graded series: list index d holds the degree-d terms ---------------


def _unit(dim: int, index: int) -> Exponents:
    return tuple(int(k == index) for k in range(dim))


def _by_degree(terms: TermMap, order: int) -> Series:
    """The terms of degree <= order, split by degree."""
    parts: Series = [{} for _ in range(order + 1)]
    for exps, coeff in terms.items():
        degree = sum(exps)
        if degree <= order:
            parts[degree][exps] = coeff
    return parts


def _merged(parts: Sequence[TermMap]) -> TermMap:
    return {exps: coeff for part in parts for exps, coeff in part.items()}


def _combo(coeffs: Sequence[GaussianRational],
           parts: Sequence[TermMap]) -> TermMap:
    """sum_k coeffs[k] * parts[k], one degree of a linear combination."""
    acc: TermMap = {}
    for c, part in zip(coeffs, parts):
        if c and part:
            add_scaled(acc, part, c)
    return acc


def _add_product_part(acc: TermMap, left: Series, right: Series,
                      degree: int) -> None:
    """acc += [left * right]_degree, from the degrees both series hold.

    A degree past the end of a list counts as zero, so a solve that has
    filled its unknowns below ``degree`` reads nothing else.
    """
    for a in range(max(0, degree - len(right) + 1),
                   min(len(left), degree + 1)):
        left_part, right_part = left[a], right[degree - a]
        if left_part and right_part:
            for el, cl in left_part.items():
                # el + . is injective, so these keys never collide.
                add_scaled(acc, {tuple(map(operator.add, el, er)): cr
                                 for er, cr in right_part.items()}, cl)


def _monomial_chain(monomials: Iterable[Exponents],
                    built: Container[Exponents]) -> List[Link]:
    """The products that build x^m for the given monomials m != 0, and
    for the lower monomials they need, from those already ``built``.

    One link (m, lower, i) per monomial not built, lower monomials first:
    x^m = x^lower * values[i], for i the last variable with a nonzero
    exponent and lower = m - e_i, which is zero when m = e_i.
    """
    links: List[Link] = []
    added = set()

    def visit(exps: Exponents) -> None:
        if exps not in built and exps not in added:
            added.add(exps)
            i = max(k for k, e in enumerate(exps) if e)
            lower = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            if any(lower):
                visit(lower)
            links.append((exps, lower, i))

    for exps in monomials:
        visit(exps)
    return links


class PolyScalar:
    """A truncated sparse polynomial in ``dim`` variables."""

    __slots__ = ("dim", "order", "terms")

    def __init__(self, dim: int, order: int, terms: Optional[TermMap] = None):
        if dim < 1:
            raise DimensionMismatchError("need at least one variable")
        if order < 0:
            raise TruncationOrderError("truncation order must be nonnegative")
        clean: TermMap = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != dim or any(e < 0 for e in exps):
                raise DimensionMismatchError(
                    f"exponent tuple {exps} does not fit dimension {dim}")
            value = as_scalar(coeff)
            if value and sum(exps) <= order:
                clean[exps] = value
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _canonical(cls, dim: int, order: int, terms: TermMap) -> "PolyScalar":
        """Wrap ``terms`` without the checks of ``__init__``.

        Only for terms canonical by construction: GaussianRational
        coefficients, all nonzero, on exponent tuples of length ``dim``
        and degree at most ``order``.  The dict is kept, not copied.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "dim", dim)
        object.__setattr__(poly, "order", order)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("PolyScalar is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, dim: int, order: int) -> "PolyScalar":
        return cls(dim, order)

    @classmethod
    def constant(cls, dim: int, order: int, value: ScalarLike) -> "PolyScalar":
        return cls(dim, order, {(0,) * dim: as_scalar(value)})

    @classmethod
    def variable(cls, dim: int, order: int, index: int) -> "PolyScalar":
        exps = tuple(1 if k == index else 0 for k in range(dim))
        return cls(dim, order, {exps: ONE})

    @classmethod
    def monomial(cls, dim: int, order: int, exps: Exponents,
                 coeff: ScalarLike = 1) -> "PolyScalar":
        return cls(dim, order, {tuple(exps): as_scalar(coeff)})

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Exponents) -> GaussianRational:
        return self.terms.get(tuple(exps), ZERO)

    def max_degree(self) -> int:
        """Highest degree with a nonzero term (0 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=0)

    def min_degree(self) -> int:
        return min((sum(e) for e in self.terms), default=0)

    def degree_part(self, degree: int) -> "PolyScalar":
        picked = {e: c for e, c in self.terms.items() if sum(e) == degree}
        return PolyScalar(self.dim, self.order, picked)

    def degree_range(self, low: int, high: Optional[int] = None) -> "PolyScalar":
        """Terms with low <= degree <= high (high defaults to the order)."""
        top = self.order if high is None else high
        picked = {e: c for e, c in self.terms.items() if low <= sum(e) <= top}
        return PolyScalar(self.dim, self.order, picked)

    def sorted_terms(self) -> List[Tuple[Exponents, GaussianRational]]:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def truncated(self, order: int) -> "PolyScalar":
        if order > self.order:
            raise TruncationOrderError(
                f"cannot extend truncation order {self.order} to {order}")
        if order == self.order:
            return self
        return PolyScalar(self.dim, order, self.terms)

    # -- arithmetic ----------------------------------------------------

    def _check_dim(self, other: "PolyScalar") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"mixed dimensions {self.dim} and {other.dim}")

    def __add__(self, other: Union["PolyScalar", ScalarLike]) -> "PolyScalar":
        if isinstance(other, _COEFF_TYPES):
            other = PolyScalar.constant(self.dim, self.order, other)
        self._check_dim(other)
        order = min(self.order, other.order)
        out = dict(self.terms)
        add_scaled(out, other.terms)
        return PolyScalar(self.dim, order, out)

    __radd__ = __add__

    def __neg__(self) -> "PolyScalar":
        return PolyScalar(self.dim, self.order,
                          {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["PolyScalar", ScalarLike]) -> "PolyScalar":
        if isinstance(other, _COEFF_TYPES):
            other = PolyScalar.constant(self.dim, self.order, other)
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> "PolyScalar":
        return (-self) + other

    def __mul__(self, other: Union["PolyScalar", ScalarLike]) -> "PolyScalar":
        if isinstance(other, _COEFF_TYPES):
            value = as_scalar(other)
            if not value:
                return PolyScalar._canonical(self.dim, self.order, {})
            return PolyScalar._canonical(
                self.dim, self.order,
                {e: c * value for e, c in self.terms.items()})
        self._check_dim(other)
        order = min(self.order, other.order)
        out: TermMap = {}
        for ea, ca in self.terms.items():
            da = sum(ea)
            if da > order:
                continue
            # monomial_mul(ea, .) is injective, so these keys never collide.
            add_scaled(out, {monomial_mul(ea, eb): cb
                             for eb, cb in other.terms.items()
                             if da + sum(eb) <= order}, ca)
        return PolyScalar._canonical(self.dim, order, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PolyScalar":
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("polynomial exponent must be a nonnegative integer")
        result = PolyScalar.constant(self.dim, self.order, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyScalar):
            return NotImplemented
        return (self.dim == other.dim and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, self.order, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------

    def partial(self, index: int) -> "PolyScalar":
        """Partial derivative with respect to variable ``index``.

        Differentiation of a value known to order N is known to order N - 1.
        """
        out: TermMap = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = exps[:index] + (e - 1,) + exps[index + 1:]
            out[lowered] = coeff * e
        return PolyScalar._canonical(self.dim, max(self.order - 1, 0), out)

    def substitute(self, values: Sequence["PolyScalar"],
                   table: Optional[Dict[Exponents, "PolyScalar"]] = None
                   ) -> "PolyScalar":
        """Substitute ``values[i]`` for variable i, truncating exactly.

        The result is correct to min(self.order, min of value orders) and
        carries that order.  Values must share a common dimension.

        ``table`` holds the monomials x^m of ``values`` built so far, keyed
        by m; monomials this call needs are added to it, each as one
        product along ``_monomial_chain``.  Callers that substitute the
        same values into several polynomials of one order, as ``compose``
        and ``pull_back`` do for the n components of a map or field, pass
        one dict to every call, so each monomial is built once.  A table
        whose monomials carry another dimension or order raises.
        """
        if len(values) != self.dim:
            raise DimensionMismatchError(
                f"need {self.dim} substitution values, got {len(values)}")
        vdim = values[0].dim
        order = self.order
        for v in values:
            if v.dim != vdim:
                raise DimensionMismatchError("substitution values mix dimensions")
            order = min(order, v.order)
        if table is None:
            table = {}
        built = next(iter(table.values()), None)
        if built is not None and (built.dim, built.order) != (vdim, order):
            raise DimensionMismatchError(
                "substitution table was built for other values")
        no_constants = all(not v.coefficient((0,) * vdim) for v in values)
        needed = [exps for exps in self.terms if any(exps)
                  and not (no_constants and sum(exps) > order)]
        for exps, lower, i in _monomial_chain(needed, table):
            if any(lower):
                table[exps] = table[lower] * values[i]
            else:
                table[exps] = values[i].truncated(order)

        constant = self.terms.get((0,) * self.dim)
        acc: TermMap = {(0,) * vdim: constant} if constant else {}
        for exps in needed:
            add_scaled(acc, table[exps].terms, self.terms[exps])
        return PolyScalar._canonical(vdim, order, acc)

    def lift(self, new_dim: int, var_map: Sequence[int]) -> "PolyScalar":
        """Reinterpret over more variables; old variable i becomes var_map[i]."""
        out: TermMap = {}
        for exps, coeff in self.terms.items():
            lifted = [0] * new_dim
            for i, e in enumerate(exps):
                lifted[var_map[i]] += e
            out[tuple(lifted)] = coeff
        return PolyScalar(new_dim, self.order, out)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"PolyScalar(dim={self.dim}, order={self.order}, {format_poly(self)})"


def format_poly(p: PolyScalar) -> str:
    if p.is_zero():
        return "0"
    names = [f"x{i + 1}" for i in range(p.dim)]
    pieces = []
    for exps, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        coeff_str = str(coeff)
        needs_parens = ("+" in coeff_str[1:]) or ("-" in coeff_str[1:])
        if needs_parens:
            coeff_str = f"({coeff_str})"
        if factors:
            body = "*".join(factors)
            pieces.append(body if coeff == 1 else f"{coeff_str}*{body}")
        else:
            pieces.append(coeff_str)
    return " + ".join(pieces)


class Spectrum:
    """Eigenvalue tuple of a diagonal linear part."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[ScalarLike]):
        object.__setattr__(self, "values",
                           tuple(as_scalar(v) for v in values))

    def __setattr__(self, name, value):
        raise AttributeError("Spectrum is immutable")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index: int) -> GaussianRational:
        return self.values[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def dot(self, exps: Exponents) -> GaussianRational:
        """The combination <m, L> = sum of m_i * lambda_i."""
        total = ZERO
        for e, lam in zip(exps, self.values):
            if e:
                total = total + lam * e
        return total

    def gap(self, exps: Exponents, component: int) -> GaussianRational:
        """Eigenvalue <m, L> - lambda_j of the homological operator."""
        return self.dot(exps) - self.values[component]

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"

    def __repr__(self) -> str:
        return f"Spectrum{self}"


class PolyVectorField:
    """n truncated scalar components over n variables, optional spectrum."""

    __slots__ = ("dim", "order", "components", "spectrum")

    def __init__(self, components: Sequence[PolyScalar],
                 spectrum: Optional[Spectrum] = None):
        comps = tuple(components)
        if not comps:
            raise DimensionMismatchError("a vector field needs components")
        dim = comps[0].dim
        order = comps[0].order
        if len(comps) != dim:
            raise DimensionMismatchError(
                f"{len(comps)} components over {dim} variables")
        for c in comps:
            if c.dim != dim or c.order != order:
                raise DimensionMismatchError(
                    "components must share dimension and truncation order")
        if spectrum is not None:
            _validate_spectrum(comps, spectrum)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "spectrum", spectrum)

    def __setattr__(self, name, value):
        raise AttributeError("PolyVectorField is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_terms(cls, dim: int, order: int,
                   terms: Iterable[Tuple[int, Exponents, ScalarLike]],
                   spectrum: Optional[Spectrum] = None) -> "PolyVectorField":
        """Build from (component, exponents, coefficient) triples, 0-based."""
        buckets: List[TermMap] = [{} for _ in range(dim)]
        for comp, exps, coeff in terms:
            add_scaled(buckets[comp], {tuple(exps): as_scalar(coeff)})
        comps = [PolyScalar(dim, order, b) for b in buckets]
        return cls(comps, spectrum)

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def max_degree(self) -> int:
        return max(c.max_degree() for c in self.components)

    def min_degree(self) -> int:
        degrees = [c.min_degree() for c in self.components if not c.is_zero()]
        return min(degrees) if degrees else 0

    def degree_part(self, degree: int) -> "PolyVectorField":
        return PolyVectorField([c.degree_part(degree) for c in self.components])

    def nonlinear_part(self) -> "PolyVectorField":
        return PolyVectorField([c.degree_range(2) for c in self.components])

    def linear_matrix(self) -> List[List[GaussianRational]]:
        """Rows of the degree-1 coefficient matrix."""
        return _linear_rows(self.components)

    def terms(self) -> Iterator[Tuple[int, Exponents, GaussianRational]]:
        for i, comp in enumerate(self.components):
            for exps, coeff in comp.terms.items():
                yield i, exps, coeff

    def sorted_terms(self) -> List[Tuple[int, Exponents, GaussianRational]]:
        return sorted(self.terms(), key=lambda t: (grlex_key(t[1]), t[0]))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        if self.dim != other.dim:
            raise DimensionMismatchError("mixed dimensions in field sum")
        return PolyVectorField([a + b for a, b in
                                zip(self.components, other.components)])

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        if self.dim != other.dim:
            raise DimensionMismatchError("mixed dimensions in field difference")
        return PolyVectorField([a - b for a, b in
                                zip(self.components, other.components)])

    def __neg__(self) -> "PolyVectorField":
        return PolyVectorField([-c for c in self.components])

    def __mul__(self, value: ScalarLike) -> "PolyVectorField":
        return PolyVectorField([c * value for c in self.components])

    __rmul__ = __mul__

    def scalar_mul(self, phi: PolyScalar) -> "PolyVectorField":
        """The field phi(x) * f(x)."""
        return PolyVectorField([phi * c for c in self.components])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def truncated(self, order: int) -> "PolyVectorField":
        return PolyVectorField([c.truncated(order) for c in self.components],
                               self.spectrum)

    def with_spectrum(self, spectrum: Optional[Spectrum] = None) -> "PolyVectorField":
        """Attach a spectrum, extracting it from the linear part if omitted."""
        if spectrum is None:
            matrix = self.linear_matrix()
            for i in range(self.dim):
                for j in range(self.dim):
                    if i != j and matrix[i][j]:
                        raise NonDiagonalLinearPartError(
                            "linear part is not diagonal; conjugate it first")
            spectrum = Spectrum(matrix[i][i] for i in range(self.dim))
        return PolyVectorField(self.components, spectrum)

    def __str__(self) -> str:
        return "(" + ", ".join(format_poly(c) for c in self.components) + ")"

    def __repr__(self) -> str:
        return f"PolyVectorField(dim={self.dim}, order={self.order}, {self})"


def _linear_rows(comps: Sequence[PolyScalar]) -> List[List[GaussianRational]]:
    """Rows of the degree-1 coefficient matrix, read off each component's
    terms: O(n) per term, where looking up the n unit tuples in every
    component would hash n**3 exponents."""
    rows = []
    for comp in comps:
        row = [ZERO] * comp.dim
        for exps, coeff in comp.terms.items():
            if sum(exps) == 1:
                row[exps.index(1)] = coeff
        rows.append(row)
    return rows


def _validate_spectrum(comps: Sequence[PolyScalar], spectrum: Spectrum) -> None:
    dim = comps[0].dim
    if len(spectrum) != dim:
        raise DimensionMismatchError(
            f"spectrum of length {len(spectrum)} for dimension {dim}")
    zero_exps = (0,) * dim
    for j, (comp, row) in enumerate(zip(comps, _linear_rows(comps))):
        if comp.coefficient(zero_exps):
            raise NonDiagonalLinearPartError(
                "field does not vanish at the origin")
        for l, coeff in enumerate(row):
            expected = spectrum[j] if l == j else ZERO
            if coeff != expected:
                raise NonDiagonalLinearPartError(
                    f"degree-1 part of component {j + 1} does not match "
                    f"the declared spectrum")


def linear_field(spectrum: Spectrum, order: int) -> PolyVectorField:
    """The diagonal linear field Ax for the given spectrum."""
    dim = len(spectrum)
    comps = []
    for j in range(dim):
        exps = tuple(1 if k == j else 0 for k in range(dim))
        comps.append(PolyScalar(dim, order, {exps: spectrum[j]}))
    return PolyVectorField(comps, spectrum)


def monomial_field(dim: int, order: int, exps: Exponents, component: int,
                   coeff: ScalarLike = 1) -> PolyVectorField:
    """The field coeff * x^m e_j (component 0-based)."""
    comps = [PolyScalar.zero(dim, order) for _ in range(dim)]
    comps[component] = PolyScalar.monomial(dim, order, exps, coeff)
    return PolyVectorField(comps)


def apply_derivation(f: PolyVectorField, phi: PolyScalar) -> PolyScalar:
    """The derivative of phi along f: X_f(phi) = sum f_i * d(phi)/dx_i.

    Correct through min(f.order, phi.order): the degree-d output only
    involves phi up to degree d (fields vanish at the origin here, so
    every f factor contributes at least one degree).
    """
    if f.dim != phi.dim:
        raise DimensionMismatchError("field and scalar dimensions differ")
    order = min(f.order, phi.order)
    # drop the terms whose partials would pass the order
    phi = phi.truncated(min(phi.order, order + 1))
    total: TermMap = {}
    for i in range(f.dim):
        dphi = PolyScalar._canonical(phi.dim, order, phi.partial(i).terms)
        add_scaled(total, (f.components[i] * dphi).terms)
    return PolyScalar._canonical(phi.dim, order, total)


def lie_bracket(f: PolyVectorField, g: PolyVectorField) -> PolyVectorField:
    """[f, g](x) = Dg(x) f(x) - Df(x) g(x), truncated to the smaller order.

    Component i is X_f(g_i) - X_g(f_i), two derivations.  Fields are taken
    to vanish at the origin, so the degree-d part of the bracket only
    needs both inputs through degree d and the result is correct to
    min(f.order, g.order), which is the order it carries.  For polynomial
    inputs of degrees p and q the bracket has degree at most p + q - 1,
    so with both orders at least that the result is exact.
    """
    if f.dim != g.dim:
        raise DimensionMismatchError("bracket of fields in different dimensions")
    return PolyVectorField([apply_derivation(f, g_i) - apply_derivation(g, f_i)
                            for f_i, g_i in zip(f.components, g.components)])


def divergence(f: PolyVectorField) -> PolyScalar:
    total: TermMap = {}
    for i in range(f.dim):
        add_scaled(total, f.components[i].partial(i).terms)
    return PolyScalar(f.dim, max(f.order - 1, 0), total)


def restrict_to_axis(phi: PolyScalar, axis: int) -> List[GaussianRational]:
    """Coefficients of phi along one axis (all other variables set to 0).

    Entry k is the coefficient of the k-th power of the chosen variable,
    for k from 0 through the truncation order.
    """
    out = [ZERO] * (phi.order + 1)
    for exps, coeff in phi.terms.items():
        if all(e == 0 for i, e in enumerate(exps) if i != axis):
            out[exps[axis]] = coeff
    return out
