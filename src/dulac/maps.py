"""Polynomial coordinate changes with invertible linear part.

A near-identity map y = Psi(x) = Lx + h(x), with L invertible and h of
degree >= 2, is a coordinate change held as a field: ``NearIdentityMap``
is the ``PolyVectorField`` of its n components Psi_1..Psi_n, equal to
and hashed like that field, plus a table of monomials.  L is the field's
``linear_matrix``; ``invert_to_order`` and ``pull_back`` each invert it
once per call, and refuse a singular L.  Maps compose, invert to the
truncation order, and transport vector fields:

    push_forward(Psi, f) is the field g with ydot = g(y) when xdot = f(x),

computed exactly through the truncation order.  Composition convention is
outermost-last: compose(outer, inner) applies inner first, so the map for
"step 2 then step 3" is compose(step3, step2).

Composition and ``pull_back`` substitute one list of values into all n
components; the n calls share one table of the monomials of those values
(see ``PolyScalar.substitute``), so a monomial that several components
hold is multiplied out once.  There is one table per map: each map keeps
the monomials x^m(Psi) of its own components, filled as substitutions at
its own order need them, and ``pull_back(step, f)`` and
``phi.compose(step)`` both read and extend the step's table, so in
``normalize`` the monomials of each step are multiplied out once for the
two calls.  A substitution at another order takes a fresh table.  When
the values are x + w with w of
degree >= v >= 2, as for the normalizing steps and their composite,
``substitute`` leaves every monomial of degree above N - v + 1 as it
is: x^m(x + w) = x^m through the order N there.  So a step x + h_k,
h_k homogeneous of degree k, changes nothing below degree k of what it
acts on (degree k only through the linear terms), and in ``normalize``
the degrees <= k are final once step k is done.  It leaves every
monomial of degree above N - k + 1 alone, so only the monomials of
degree 2 through N - k + 1 are multiplied out.

The inversion and the transport of a field are triangular solves in the
degree: the degree-d part of the unknown depends only on its parts below
d.  Each is one pass over the degrees on ``poly.Series``, which holds
each degree part as Gaussian-integer numerator pairs over one
denominator under packed exponent keys, so a finished degree is never
recomputed.  ``Series.product_part`` gives the one degree of a product
that such a pass needs, from the parts already known (van der Hoeven's
relaxed evaluation, "Relax, but don't be too lazy", JSC 2002), and
``Series.sum_of_products`` the linear combinations by the rows of L^-1
and the coefficients of h.  ``Series`` and the monomial chain that
``substitute`` shares with the inversion live in ``poly``; this module
holds no polynomial or term arithmetic of its own and only picks which
parts meet.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .errors import DimensionMismatchError
from .linalg import mat_inverse
from .poly import (Exponents, PolyScalar, PolyVectorField, Series,
                   _monomial_chain, _unit)


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
        table = inner._table_at(min(self.order, inner.order))
        return NearIdentityMap([c.substitute(inner.components, table)
                                for c in self.components])

    def _table_at(self, order: int) -> Dict[Exponents, PolyScalar]:
        """The table for substituting the components at ``order``: the
        map's own when that is its order, else a fresh one."""
        return self._table if order == self.order else {}

    def invert_to_order(self) -> "NearIdentityMap":
        """The map Phi with Psi(Phi(y)) = y through the truncation order.

        With Psi = Lx + h(x), the degree-w part of L Phi + h(Phi) = y gives
        Phi_1 = Linv y and Phi_w = -Linv [h(Phi)]_w for w >= 2.  Every
        monomial of h has degree >= 2 and every part of Phi degree >= 1, so
        [h(Phi)]_w reads Phi only below degree w: one pass over w = 2..N
        solves Phi degree by degree.  Phi and the monomials x^m(Phi) that h
        needs are held by degree; x^m is built from x^(m - e_i), i the last
        variable with a nonzero exponent, by the chain that
        ``PolyScalar.substitute`` uses too, and each pass adds only its
        degree-w part:
        [x^m(Phi)]_w = sum over a of [x^(m - e_i)(Phi)]_a [Phi_i]_(w-a).
        That part is empty for w < |m|, so no pass below |m| computes it.
        """
        dim, order = self.dim, self.order
        # raises SingularLinearPartError if L is not invertible
        linv = mat_inverse(self.linear_matrix())
        # phi[i].parts[d]: the degree-d terms of Phi_i, for d below the pass
        phi = [Series.of(PolyScalar(dim, order, {_unit(dim, j): c
                                                 for j, c in enumerate(row)}),
                         order)
               for row in linv]
        # h's terms c x^m with degree |m| >= 2, by component
        h_terms = [[(exps, coeff) for exps, coeff in comp.terms.items()
                    if sum(exps) >= 2] for comp in self.components]
        powers: Dict[Exponents, Series] = {_unit(dim, j): series
                                           for j, series in enumerate(phi)}
        # x^m = x^(m - e_i) * Phi_i, with empty parts below degree |m|:
        # every part of Phi has degree >= 1
        steps = []
        for exps, lower, i in _monomial_chain(
                [exps for terms in h_terms for exps, _ in terms], powers):
            degree = sum(exps)
            series = powers[exps] = Series(dim, order, [None] * degree)
            steps.append((series, powers[lower], phi[i], degree))
        # Phi_i = -sum_k Linv[i][k] h_k(Phi) above degree 1, as the pairs
        # (-Linv[i][k] c, x^m(Phi)) of a linear combination
        factors = [[(Series.scalar(-lc * coeff), powers[exps])
                    for lc, terms in zip(row, h_terms) if lc
                    for exps, coeff in terms]
                   for row in linv]
        for work in range(2, order + 1):
            for series, lower, factor, degree in steps:
                if work >= degree:
                    series.parts.append(lower.product_part(factor, work))
            for series, row in zip(phi, factors):
                series.parts.append(Series.sum_of_products(
                    [(c, power.parts[work]) for c, power in row
                     if power.parts[work]]))
        return NearIdentityMap([series.to_poly() for series in phi])


def pull_back(phi_map: NearIdentityMap, f: PolyVectorField) -> PolyVectorField:
    """Field in y-coordinates when x = Phi(y) and xdot = f(x).

    Solves DPhi(y) g(y) = f(Phi(y)) for g.  With Phi = Ly + h(y) this is
    g = b + M g for b = Linv f(Phi) and M = -Linv Dh, whose entries start
    at degree 1; so g_d = b_d + sum over a >= 1 of [M]_a g_(d-a) reads g
    only below degree d, and one pass over d = 0..order solves it.
    """
    if phi_map.dim != f.dim:
        raise DimensionMismatchError("map and field dimensions differ")
    dim = f.dim
    order = min(phi_map.order, f.order)
    comps = [c.truncated(order) for c in phi_map.components]
    table = phi_map._table_at(order)
    # raises SingularLinearPartError if L is not invertible
    linv = mat_inverse(phi_map.linear_matrix())
    rhs = [Series.of(c.substitute(comps, table), order) for c in f.components]
    # b_i = sum_k Linv[i][k] rhs_k, the rhs side of g_i's sum at each degree
    b_rows = [[(Series.scalar(c), series) for c, series in zip(row, rhs) if c]
              for row in linv]
    # M = -Linv Dh as its nonzero entries (j, a, [M_ij]_a) per row i: the
    # parts of DPhi above degree 0, which is L, are Dh's, exact because
    # map components are exact polynomials.
    dphi = [[Series.of(comp.partial(j), order) for j in range(dim)]
            for comp in phi_map.components]
    m_rows = []
    for row in linv:
        pairs_at: Dict[Tuple[int, int], list] = {}
        for c, dphi_k in zip(row, dphi):
            if c:
                factor = Series.scalar(-c)
                for j, series in enumerate(dphi_k):
                    for a, part in enumerate(series.parts):
                        if a and part:
                            pairs_at.setdefault((j, a), []).append(
                                (factor, part))
        entries = [(j, a, Series.sum_of_products(pairs))
                   for (j, a), pairs in pairs_at.items()]
        m_rows.append([entry for entry in entries if entry[2]])
    g = [Series(dim, order) for _ in range(dim)]
    for degree in range(order + 1):
        # g_i's part at this degree reads every g_j only below it
        for g_i, b_row, entries in zip(g, b_rows, m_rows):
            pairs = [(c, series.parts[degree]) for c, series in b_row
                     if degree < len(series.parts) and series.parts[degree]]
            pairs += [(part, g[j].parts[degree - a]) for j, a, part in entries
                      if a <= degree and g[j].parts[degree - a]]
            g_i.parts.append(Series.sum_of_products(pairs))
    return PolyVectorField([series.to_poly() for series in g])


def push_forward(psi_map: NearIdentityMap, f: PolyVectorField) -> PolyVectorField:
    """Field in y-coordinates when y = Psi(x) and xdot = f(x)."""
    return pull_back(psi_map.invert_to_order(), f)


def linear_conjugate(matrix: Sequence[Sequence], f: PolyVectorField) -> PolyVectorField:
    """Transport f through the linear change y = Tx."""
    return push_forward(NearIdentityMap.from_linear(matrix, f.order), f)
