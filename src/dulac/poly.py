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
serves every component of a map in ``compose`` and ``pull_back``.  It
builds only the monomials that can differ from x^m through the order N.
Values that vanish at the origin send every x^m with |m| > N past the
order.  Values x_i + w_i, with x_i at coefficient exactly 1 and every
w_i of degree >= v >= 2, fix every x^m with |m| > N - v + 1: each other
term of x^m(values) trades some x_i for a w_i and has degree at least
|m| - 1 + v.  Such monomials keep their own coefficient and are never
built.
``invert_to_order`` follows the same links on ``Series``, one degree
per pass, since Phi is what it solves for.

``Series`` holds a polynomial by degree for the two triangular solves,
the inversion and the pull-back.  Each degree part is Gaussian-integer
numerator pairs over one denominator, reduced, keyed by the packed
exponent sum of m_i * (N + 1)**i for the solve's order N.  Products of
parts and their linear combinations run on ints alone, with one lcm and
one gcd per result instead of a reduced fraction per operation;
``Series.to_poly`` builds one canonical coefficient per term, the only
place where a series becomes a ``PolyScalar``.

Every scan over exponent tuples goes through ``enumerate_monomials_upto``,
which holds the one work budget of the package.

A polynomial vector field couples n scalar components over n variables.
Its spectrum is read off its own terms: the diagonal of the degree-1
part, when no component has a constant term or a degree-1 term off the
diagonal.  The fundamental operation is the Lie bracket

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
    TruncationOrderError,
)
from .scalars import (ONE, ZERO, GaussianRational, ScalarLike, _make, add_scaled,
                      as_scalar)

Exponents = Tuple[int, ...]
TermMap = Dict[Exponents, GaussianRational]
# The degree-d terms of a Series: (den, {packed key: (re, im)}), see Series.
Part = Tuple[int, Dict[int, Tuple[int, int]]]
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


def _unit(dim: int, index: int) -> Exponents:
    return tuple(int(k == index) for k in range(dim))


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


def _fixed_above(values: Sequence["PolyScalar"], order: int) -> Optional[int]:
    """The degree above which x^m(values) = x^m through ``order``, or None.

    When every values[i] is x_i + w_i, x_i with coefficient exactly 1 and
    no w_i with a term of degree below 2, each term of the product
    x^m(values) other than x^m trades some x_i for a w_i, so it has degree
    at least |m| - 1 + v, v the lowest degree in any w_i.  Such terms pass
    the order once |m| > order - v + 1.  A w_i term above the order counts
    as degree order + 1, so with every w_i zero the bound is 0.
    """
    dim = len(values)
    low = order + 1
    for i, value in enumerate(values):
        unit = _unit(dim, i)
        # values over another number of variables hold no key ``unit``
        if value.terms.get(unit) != ONE:
            return None
        for exps in value.terms:
            if exps != unit:
                degree = sum(exps)
                if degree < 2:
                    return None
                low = min(low, degree)
    return order - low + 1


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
        return cls(dim, order, {_unit(dim, index): ONE})

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
        if not isinstance(other, PolyScalar):
            if not isinstance(other, _COEFF_TYPES):
                return NotImplemented
            other = PolyScalar.constant(self.dim, self.order, other)
        self._check_dim(other)
        order = min(self.order, other.order)
        out = dict(self.terms)
        add_scaled(out, other.terms)
        return PolyScalar(self.dim, order, out)

    __radd__ = __add__

    def __neg__(self) -> "PolyScalar":
        # negating canonical terms keeps them canonical
        return PolyScalar._canonical(self.dim, self.order,
                                     {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["PolyScalar", ScalarLike]) -> "PolyScalar":
        if not isinstance(other, (PolyScalar,) + _COEFF_TYPES):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> "PolyScalar":
        if not isinstance(other, _COEFF_TYPES):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other: Union["PolyScalar", ScalarLike]) -> "PolyScalar":
        # PolyScalar first: a test against Fraction runs ABCMeta's check
        if not isinstance(other, PolyScalar):
            if not isinstance(other, _COEFF_TYPES):
                return NotImplemented
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
            re, im, den = coeff._t
            out[lowered] = _make(re * e, im * e, den)
        return PolyScalar._canonical(self.dim, max(self.order - 1, 0), out)

    def substitute(self, values: Sequence["PolyScalar"],
                   table: Optional[Dict[Exponents, "PolyScalar"]] = None
                   ) -> "PolyScalar":
        """Substitute ``values[i]`` for variable i, truncating exactly.

        The result is correct to min(self.order, min of value orders) and
        carries that order.  Values must share a common dimension.

        Two rules spare monomials x^m of degree |m| above a bound, with N
        the result's order.  Values that vanish at the origin drop every
        x^m with |m| > N.  Values x_i + w_i over the same variables, x_i
        at coefficient exactly 1 and no w_i with a term of degree below 2,
        leave x^m(values) = x^m through N for |m| > N - v + 1, v the
        lowest degree in any w_i (every x^m when all w_i are zero); such
        a term goes into the result with its own coefficient.

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
        # x^m(values) is built for |m| <= fixed; above, it is x^m through
        # the order or it passes the order
        fixed = _fixed_above(values, order)
        if fixed is None:
            no_constants = all(not v.coefficient((0,) * vdim) for v in values)
            fixed = order if no_constants else math.inf
        acc: TermMap = {}
        needed = []
        for exps, coeff in self.terms.items():
            degree = sum(exps)
            if not degree:
                acc[(0,) * vdim] = coeff
            elif degree <= fixed:
                needed.append(exps)
            elif degree <= order:
                acc[exps] = coeff
        for exps, lower, i in _monomial_chain(needed, table):
            if any(lower):
                table[exps] = table[lower] * values[i]
            else:
                table[exps] = values[i].truncated(order)

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


def format_monomial(exps: Exponents) -> str:
    """The text x1^2*x3 of the exponent tuple (2, 0, 1); 1 for the constant."""
    factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
               for i, e in enumerate(exps) if e]
    return "*".join(factors) or "1"


def format_poly(p: PolyScalar) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coeff in p.sorted_terms():
        coeff_str = str(coeff)
        needs_parens = ("+" in coeff_str[1:]) or ("-" in coeff_str[1:])
        if needs_parens:
            coeff_str = f"({coeff_str})"
        if any(exps):
            body = format_monomial(exps)
            pieces.append(body if coeff == 1 else f"{coeff_str}*{body}")
        else:
            pieces.append(coeff_str)
    return " + ".join(pieces)


class Series:
    """A truncated polynomial held by degree, for the triangular solves.

    ``parts[d]`` holds the degree-d terms, or None when there are none; a
    degree past the end of the list counts as empty too, so a solve
    appends each degree once it is known.  A part is ``(den, nums)``: the
    term x^m has coefficient (re + im*i)/den for ``nums[key] == (re, im)``,
    Gaussian integers over one denominator per part, with gcd(den, every
    re and im) == 1 and no (0, 0) entry.  ``key`` packs m as the sum of
    m_i * (order + 1)**i.  No exponent of a monomial within the order
    passes the order, so the key of a product of two such monomials is
    the sum of their keys, with no carry.
    """

    __slots__ = ("dim", "order", "parts")

    def __init__(self, dim: int, order: int,
                 parts: Iterable[Optional[Part]] = ()):
        self.dim = dim
        self.order = order
        self.parts: List[Optional[Part]] = list(parts)

    @classmethod
    def of(cls, poly: PolyScalar, order: int) -> "Series":
        """The terms of ``poly`` of degree <= order, split by degree up to
        the highest degree that has one."""
        weights = [(order + 1) ** i for i in range(poly.dim)]
        raw: List[Dict[int, GaussianRational]] = [{} for _ in range(order + 1)]
        top = -1
        for exps, coeff in poly.terms.items():
            degree = sum(exps)
            if degree <= order:
                raw[degree][sum(map(operator.mul, exps, weights))] = coeff
                top = max(top, degree)
        return cls(poly.dim, order, [_part(terms) for terms in raw[:top + 1]])

    def product_part(self, other: "Series", degree: int) -> Optional[Part]:
        """[self * other]_degree, from the parts both series hold."""
        left, right = self.parts, other.parts
        return Series.sum_of_products([
            (left[a], right[degree - a])
            for a in range(max(0, degree - len(right) + 1),
                           min(len(left), degree + 1))
            if left[a] and right[degree - a]])

    @staticmethod
    def scalar(value: GaussianRational) -> Optional[Part]:
        """A coefficient as a degree-0 part, the factor of a linear
        combination."""
        return _part({0: value} if value else {})

    @staticmethod
    def sum_of_products(pairs: Sequence[Tuple[Part, Part]]) -> Optional[Part]:
        """The sum of left * right over pairs of nonempty parts, reduced.

        With ``Series.scalar`` parts on one side this is a linear
        combination of parts.  Every product is taken over the lcm of the
        pairs' products of denominators; entries that cancel are dropped,
        and the sum is divided by the gcd of that lcm and its numerators.
        None when nothing is left.
        """
        if not pairs:
            return None
        den = math.lcm(*[dl * dr for (dl, _), (dr, _) in pairs])
        acc: Dict[int, Tuple[int, int]] = {}
        get = acc.get
        for (dl, left), (dr, right) in pairs:
            scale = den // (dl * dr)
            for kl, (p, q) in left.items():
                p *= scale
                q *= scale
                for kr, (r, t) in right.items():
                    key = kl + kr
                    old = get(key)
                    if old is None:
                        acc[key] = (p * r - q * t, p * t + q * r)
                    else:
                        acc[key] = (old[0] + p * r - q * t,
                                    old[1] + p * t + q * r)
        nums = {}
        g = den
        for key, (re, im) in acc.items():
            if re or im:
                nums[key] = (re, im)
                if g != 1:
                    g = math.gcd(g, re, im)
        if not nums:
            return None
        if g != 1:
            den //= g
            nums = {key: (re // g, im // g) for key, (re, im) in nums.items()}
        return den, nums

    def to_poly(self) -> PolyScalar:
        """The terms as a PolyScalar of the series' order, one canonical
        coefficient per term."""
        dim, base = self.dim, self.order + 1
        terms: TermMap = {}
        for part in self.parts:
            if part:
                den, nums = part
                for key, (re, im) in nums.items():
                    exps = []
                    for _ in range(dim):
                        key, e = divmod(key, base)
                        exps.append(e)
                    terms[tuple(exps)] = _make(re, im, den)
        return PolyScalar._canonical(dim, self.order, terms)


def _part(terms: Dict[int, GaussianRational]) -> Optional[Part]:
    """The part of the given nonzero coefficients, by packed key, over the
    lcm of their denominators.  Each coefficient is reduced, so for every
    prime of the lcm some numerator pair is not divisible by it."""
    if not terms:
        return None
    den = math.lcm(*[c._t[2] for c in terms.values()])
    nums = {}
    for key, coeff in terms.items():
        re, im, d = coeff._t
        scale = den // d
        nums[key] = (re * scale, im * scale)
    return den, nums


class Spectrum:
    """Eigenvalue tuple of a diagonal linear part, with its integer form.

    ``scale`` is q, the lcm of the eigenvalues' canonical denominators;
    ``integral[j]`` is q * lambda_j as an int pair (re, im).  Every
    divisor <m, L> - lambda_j is computed from ``integral`` over ``scale``.
    """

    __slots__ = ("values", "scale", "integral")

    def __init__(self, values: Iterable[ScalarLike]):
        values = tuple(as_scalar(v) for v in values)
        scale = math.lcm(*[v._t[2] for v in values])
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "integral", tuple(
            (re * (scale // den), im * (scale // den))
            for re, im, den in (v._t for v in values)))

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

    def gap(self, exps: Exponents, component: int) -> GaussianRational:
        """Eigenvalue <m, L> - lambda_j of the homological operator."""
        re = im = 0
        for e, (a, b) in zip(exps, self.integral):
            re += e * a
            im += e * b
        a, b = self.integral[component]
        return _make(re - a, im - b, self.scale)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"

    def __repr__(self) -> str:
        return f"Spectrum{self}"


class PolyVectorField:
    """n truncated scalar components over n variables."""

    __slots__ = ("dim", "order", "components")

    def __init__(self, components: Sequence[PolyScalar]):
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
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("PolyVectorField is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_terms(cls, dim: int, order: int,
                   terms: Iterable[Tuple[int, Exponents, ScalarLike]]
                   ) -> "PolyVectorField":
        """Build from (component, exponents, coefficient) triples, 0-based."""
        buckets: List[TermMap] = [{} for _ in range(dim)]
        for comp, exps, coeff in terms:
            add_scaled(buckets[comp], {tuple(exps): as_scalar(coeff)})
        return cls([PolyScalar(dim, order, b) for b in buckets])

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

    @property
    def spectrum(self) -> Optional[Spectrum]:
        """The eigenvalues of a diagonal linear part, read off the terms.

        None when some component has a constant term or a degree-1 term
        off the diagonal; otherwise entry j is the coefficient of x_j in
        component j, zero when there is none.
        """
        values = []
        for j, comp in enumerate(self.components):
            value = ZERO
            for exps, coeff in comp.terms.items():
                degree = sum(exps)
                if degree < 2:
                    if not degree or not exps[j]:
                        return None
                    value = coeff
            values.append(value)
        return Spectrum(values)

    def linear_matrix(self) -> List[List[GaussianRational]]:
        """Rows of the degree-1 coefficient matrix, read off each
        component's terms: O(n) per term, where looking up the n unit
        tuples in every component would hash n**3 exponents."""
        rows = []
        for comp in self.components:
            row = [ZERO] * self.dim
            for exps, coeff in comp.terms.items():
                if sum(exps) == 1:
                    row[exps.index(1)] = coeff
            rows.append(row)
        return rows

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
        return PolyVectorField([c.truncated(order) for c in self.components])

    def __str__(self) -> str:
        return "(" + ", ".join(format_poly(c) for c in self.components) + ")"

    def __repr__(self) -> str:
        return f"PolyVectorField(dim={self.dim}, order={self.order}, {self})"


def linear_field(spectrum: Spectrum, order: int) -> PolyVectorField:
    """The diagonal linear field Ax for the given spectrum."""
    dim = len(spectrum)
    return PolyVectorField([PolyScalar(dim, order, {_unit(dim, j): lam})
                            for j, lam in enumerate(spectrum)])


def apply_derivation(f: PolyVectorField, phi: PolyScalar) -> PolyScalar:
    """The derivative of phi along f: X_f(phi) = sum f_i * d(phi)/dx_i.

    Correct through min(f.order, phi.order): the degree-d output only
    involves phi up to degree d (fields vanish at the origin here, so
    every f factor contributes at least one degree).  Only the indices i
    where f_i and d(phi)/dx_i both have terms cost a partial and a
    product; a monomial field x^m e_j pays for its one component.
    """
    if f.dim != phi.dim:
        raise DimensionMismatchError("field and scalar dimensions differ")
    order = min(f.order, phi.order)
    total: TermMap = {}
    if not phi.terms:
        return PolyScalar._canonical(phi.dim, order, total)
    # drop the terms whose partials would pass the order
    phi = phi.truncated(min(phi.order, order + 1))
    for i, f_i in enumerate(f.components):
        if not f_i.terms:
            continue
        dphi = phi.partial(i).terms
        if dphi:
            add_scaled(total,
                       (f_i * PolyScalar._canonical(phi.dim, order, dphi)).terms)
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
