"""Polynomial coordinate changes with invertible linear part.

A near-identity map y = Psi(x) = Lx + h(x), with L invertible and h of
degree >= 2, is a coordinate change held as a field: ``NearIdentityMap``
is the ``PolyVectorField`` of its n components Psi_1..Psi_n, equal to
and hashed like that field, plus a table of monomials.  L is the field's
``linear_matrix``; ``invert_to_order`` and ``pull_back`` each invert it
once per call, and refuse a singular L.  Maps compose, invert to the
truncation order, and transport vector fields:

    pull_back(Phi, f) is g with ydot = g(y) when x = Phi(y), xdot = f(x),

computed exactly through the truncation order; ``linear_conjugate``
takes f through y = Tx by one substitution, with no solve.  Composition
convention is outermost-last: compose(outer, inner) applies inner first,
so the map for "step 2 then step 3" is compose(step3, step2).

Every operation rests on two private primitives.

``_evaluate`` substitutes a map's components into a field's, through the
smaller of the two orders: ``compose`` evaluates the outer map at the
inner one, ``pull_back`` the field at Phi, ``linear_conjugate`` the
field at T^-1 y.  The n substitutions share one table of the monomials
x^m(Phi) (see ``PolyScalar.substitute``) and the degree through which
that table is built, found once per evaluation; each
map keeps the table for its own order, so in ``normalize``
``pull_back(step, f)`` and ``phi.compose(step)`` multiply out each
monomial of a step once for both calls.  A substitution at another order
takes a fresh table.  A step x + h_k, h_k homogeneous of degree k,
leaves x^m as it is above degree N - k + 1 (see ``poly``) and changes
nothing below degree k of what it acts on, so in ``normalize`` the
degrees <= k are final once step k is done.

``_solve_by_degree`` is the one triangular solve.  Its unknowns are
``poly.Series``, each degree part Gaussian-integer numerator pairs over
one denominator under packed exponent keys.  One pass over the degrees
w appends part w of each unknown, a sum of factor * [source]_(w - shift)
over its row, where a source is a known series or an unknown read below
w; a finished degree is never recomputed (van der Hoeven's relaxed
evaluation, "Relax, but don't be too lazy", JSC 2002).  The inversion
reads the monomials x^m(Phi), which a hook extends to degree w by
``Series.product_part`` before each pass; the pull-back reads f(Phi) from
``_evaluate`` and the unknown itself.

Both solves build their rows straight from the map's terms.  Row i of
the inversion holds -Linv[i][k] c at the monomial x^m(Phi) for each term
c x^m of h_k, and Phi's degree-1 parts are the rows of Linv
(``Series.linear``).  Row i of the pull-back holds Linv[i][k] at f_k(Phi)
and, at shift a, Linv[i][k] times part a of -d_j h_k, for each j and a;
``Series.negated_gradient`` builds every part of -Dh_k in one pass over
the terms of h_k.  An entry 1 of Linv, as in every map that
``normalize`` builds, multiplies nothing: the inversion's product
Linv[i][k] c hands back c itself, and the pull-back's factors are the
parts of -Dh_k as built, since ``Series.sum_of_products`` hands back the
part of a lone pair with the unit factor.  This module holds no
polynomial or term arithmetic of its own and only picks which parts meet.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from .errors import DimensionMismatchError
from .linalg import mat_inverse
from .poly import (Part, PolyScalar, PolyVectorField, Series,
                   _built_through, _monomial_chain, _unit)


class NearIdentityMap(PolyVectorField):
    """y = Psi(x) as the field of its components, L = DPsi(0) invertible."""

    # _table: the monomials x^m(components) that substitutions of the
    # components at the map's own order have built, keyed by m
    __slots__ = ("_table",)

    def __init__(self, components: Sequence[PolyScalar]):
        super().__init__(components)
        if any(c.coefficient((0,) * self.dim) for c in self.components):
            raise DimensionMismatchError("coordinate changes must fix the origin")
        object.__setattr__(self, "_table", {})

    @classmethod
    def identity(cls, dim: int, order: int) -> "NearIdentityMap":
        return cls([PolyScalar.variable(dim, order, i) for i in range(dim)])

    @classmethod
    def from_linear(cls, matrix: Sequence[Sequence], order: int) -> "NearIdentityMap":
        dim = len(matrix)
        if any(len(row) != dim for row in matrix):
            raise DimensionMismatchError("linear part must be square")
        return cls([PolyScalar(dim, order, {_unit(dim, j): v
                                            for j, v in enumerate(row)})
                    for row in matrix])

    def compose(self, inner: "NearIdentityMap") -> "NearIdentityMap":
        """self after inner: (self . inner)(x) = self(inner(x))."""
        if self.dim != inner.dim:
            raise DimensionMismatchError("composed maps must share a dimension")
        return NearIdentityMap(_evaluate(inner, self))

    def invert_to_order(self) -> "NearIdentityMap":
        """The map Phi with Psi(Phi(y)) = y through the truncation order.

        With Psi = Lx + h(x), the degree-w part of L Phi + h(Phi) = y gives
        Phi_1 = Linv y and Phi_w = -Linv [h(Phi)]_w for w >= 2.  Every
        monomial of h has degree >= 2 and every part of Phi degree >= 1, so
        [h(Phi)]_w reads Phi only below degree w.  The monomials x^m(Phi)
        that h needs are held by degree; x^m is built from x^(m - e_i), i
        the last variable with a nonzero exponent, by the chain that
        ``PolyScalar.substitute`` uses too; ``extend`` adds part w first:
        [x^m(Phi)]_w = sum over a of [x^(m - e_i)(Phi)]_a [Phi_i]_(w-a).
        That part is empty for w < |m|, so no pass below |m| computes it.
        """
        dim, order = self.dim, self.order
        # raises SingularLinearPartError if L is not invertible
        linv = mat_inverse(self.linear_matrix())
        # phi[i].parts[d]: the degree-d terms of Phi_i, from Phi_1 = Linv y
        phi = [Series.linear(row, order) for row in linv]
        # h's terms c x^m with degree |m| >= 2, by component
        h_terms = [[(exps, coeff) for exps, coeff in comp.terms.items()
                    if sum(exps) >= 2] for comp in self.components]
        powers = {_unit(dim, j): series for j, series in enumerate(phi)}
        # x^m = x^(m - e_i) * Phi_i, with empty parts below degree |m|:
        # every part of Phi has degree >= 1
        steps = []
        for exps, lower, i in _monomial_chain(
                [exps for terms in h_terms for exps, _ in terms], powers):
            degree = sum(exps)
            series = powers[exps] = Series(dim, order, [None] * degree)
            steps.append((series, powers[lower], phi[i], degree))

        def extend(work: int) -> None:
            for series, lower, factor, degree in steps:
                if work >= degree:
                    series.parts.append(lower.product_part(factor, work))

        # Phi_i = -sum_k Linv[i][k] h_k(Phi) above degree 1; the product
        # hands back coeff itself for an entry 1
        rows = [[(Series.scalar(-(lc * coeff)), powers[exps], 0)
                 for lc, terms in zip(row, h_terms) if lc
                 for exps, coeff in terms]
                for row in linv]
        return NearIdentityMap(_solve_by_degree(phi, rows, 2, extend))


def _evaluate(phi_map: NearIdentityMap, f: PolyVectorField) -> List[PolyScalar]:
    """Each f_i(Phi) through the smaller order, all from one table: the
    map's own when that order is the map's, else a fresh one."""
    values = phi_map.components
    table = phi_map._table if f.order >= phi_map.order else {}
    built = _built_through(values, min(f.order, phi_map.order))
    return [c.substitute(values, table, _built=built) for c in f.components]


def _solve_by_degree(unknowns: List[Series],
                     rows: List[List[Tuple[Part, Series, int]]], start: int,
                     extend: Optional[Callable[[int], None]] = None
                     ) -> List[PolyScalar]:
    """Append part w of each unknown for w = start .. order, and return
    the unknowns as polynomials.

    Part w of unknowns[i] is the sum over rows[i] of factor *
    [source]_(w - shift), a missing part counting as empty.  A source is
    a known series or an unknown read below w, at shift >= 1.
    ``extend(w)``, when given, first appends part w of every other series
    that the rows read.
    """
    for work in range(start, unknowns[0].order + 1):
        if extend is not None:
            extend(work)
        for series, row in zip(unknowns, rows):
            series.parts.append(Series.sum_of_products(
                [(factor, source.parts[work - shift])
                 for factor, source, shift in row
                 if shift <= work < len(source.parts) + shift
                 and source.parts[work - shift]]))
    return [series.to_poly() for series in unknowns]


def pull_back(phi_map: NearIdentityMap, f: PolyVectorField) -> PolyVectorField:
    """Field in y-coordinates when x = Phi(y) and xdot = f(x).

    Solves DPhi(y) g(y) = f(Phi(y)) for g.  With Phi = Ly + h(y) this is
    g = Linv f(Phi) - Linv Dh g, and the entries of Dh start at degree 1;
    so part d of g reads g only below d, and ``_solve_by_degree`` solves
    it from d = 0.
    """
    if phi_map.dim != f.dim:
        raise DimensionMismatchError("map and field dimensions differ")
    dim = f.dim
    order = min(phi_map.order, f.order)
    # raises SingularLinearPartError if L is not invertible
    linv = mat_inverse(phi_map.linear_matrix())
    rhs = [Series.of(value, order) for value in _evaluate(phi_map, f)]
    # -Dh by degree: the parts of DPhi above degree 0, which is L, exact
    # because map components are exact polynomials
    neg_dh = [Series.negated_gradient(comp, order)
              for comp in phi_map.components]
    g = [Series(dim, order) for _ in range(dim)]
    # g_i = sum_k Linv[i][k] (f_k(Phi) - sum_j,a [d_j h_k]_a g_j at shift a);
    # an entry 1 keeps the parts of -Dh_k as they are
    rows = []
    for row in linv:
        factors = [Series.scalar(c) for c in row]
        rows.append(
            [(factor, series, 0) for factor, series in zip(factors, rhs)
             if factor]
            + [(Series.sum_of_products([(factor, part)]), g[j], a)
               for factor, grad in zip(factors, neg_dh) if factor
               for j, entry in enumerate(grad)
               for a, part in enumerate(entry.parts) if part])
    return PolyVectorField(_solve_by_degree(g, rows, 0))


def linear_conjugate(matrix: Sequence[Sequence], f: PolyVectorField) -> PolyVectorField:
    """Transport f through the linear change y = Tx: T f(T^-1 y)."""
    t = NearIdentityMap.from_linear(matrix, f.order).linear_matrix()
    # raises SingularLinearPartError if T is not invertible
    values = _evaluate(NearIdentityMap.from_linear(mat_inverse(t), f.order), f)
    zero = PolyScalar.zero(f.dim, f.order)
    return PolyVectorField([sum((v * c for c, v in zip(row, values) if c), zero)
                            for row in t])
