"""Polynomial coordinate changes with invertible linear part.

A near-identity map y = Psi(x) = Lx + h(x), with L invertible and h of
degree >= 2, is held as its n component polynomials Psi_1..Psi_n and
nothing else; L^-1 is computed once, when the map is built, and kept as
``linear_inverse``.  Maps compose, invert to the truncation order, and
transport vector fields:

    push_forward(Psi, f) is the field g with ydot = g(y) when xdot = f(x),

computed exactly through the truncation order.  Composition convention is
outermost-last: compose(outer, inner) applies inner first, so the map for
"step 2 then step 3" is compose(step3, step2).

Composition, each pass of the inversion and ``pull_back`` substitute one
list of values into all n components; the n calls share one table of the
monomials of those values (see ``PolyScalar.substitute``), so a monomial
that several components hold is multiplied out once.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatchError
from .linalg import mat_inverse
from .poly import PolyScalar, PolyVectorField, TermMap
from .scalars import GaussianRational, add_scaled, as_scalar


class NearIdentityMap:
    """y = Psi(x) given by its components, L = DPsi(0) invertible."""

    __slots__ = ("dim", "order", "components", "linear_inverse")

    def __init__(self, components: Sequence[PolyScalar]):
        # one dimension and one truncation order for all n components
        field = PolyVectorField(components)
        if any(c.coefficient((0,) * field.dim) for c in field.components):
            raise DimensionMismatchError("coordinate changes must fix the origin")
        # raises SingularLinearPartError if L is not invertible
        linv = mat_inverse(field.linear_matrix())
        object.__setattr__(self, "dim", field.dim)
        object.__setattr__(self, "order", field.order)
        object.__setattr__(self, "components", field.components)
        object.__setattr__(self, "linear_inverse", tuple(map(tuple, linv)))

    def __setattr__(self, name, value):
        raise AttributeError("NearIdentityMap is immutable")

    @classmethod
    def identity(cls, dim: int, order: int) -> "NearIdentityMap":
        return cls([PolyScalar.variable(dim, order, i) for i in range(dim)])

    @classmethod
    def from_linear(cls, matrix: Sequence[Sequence], order: int) -> "NearIdentityMap":
        dim = len(matrix)
        if any(len(row) != dim for row in matrix):
            raise DimensionMismatchError("linear part must be square")
        xs = [PolyScalar.variable(dim, order, j) for j in range(dim)]
        return cls([_linear_combo([as_scalar(v) for v in row], xs)
                    for row in matrix])

    @classmethod
    def from_generator(cls, h: PolyVectorField) -> "NearIdentityMap":
        """The map x + h(x) for a generator h of degree >= 2."""
        if not h.is_zero() and h.min_degree() < 2:
            raise DimensionMismatchError(
                "higher-order part of a near-identity map must start at degree 2")
        return cls([PolyScalar.variable(h.dim, h.order, i) + c
                    for i, c in enumerate(h.components)])

    def compose(self, inner: "NearIdentityMap") -> "NearIdentityMap":
        """self after inner: (self . inner)(x) = self(inner(x))."""
        if self.dim != inner.dim:
            raise DimensionMismatchError("composed maps must share a dimension")
        table: dict = {}
        return NearIdentityMap([c.substitute(inner.components, table)
                                for c in self.components])

    def invert_to_order(self) -> "NearIdentityMap":
        """The map Phi with Psi(Phi(y)) = y through the truncation order.

        Phi is the fixed point of Phi = Linv (y - h(Phi)), found degree by
        degree from Phi = Linv y.  Since h starts at degree 2, an error of
        degree d in Phi moves h(Phi) only from degree d + 1 on; so if Phi
        is right through degree w - 1, one pass makes it right through
        degree w, and nothing above w can be right yet.  Each pass
        therefore works at truncation order w = 2, 3, ..., N only.
        """
        linv = self.linear_inverse
        dim = self.dim
        h = [c.degree_range(2) for c in self.components]
        ys = [PolyScalar.variable(dim, 1, j) for j in range(dim)]
        phi = [_linear_combo(linv[i], ys) for i in range(dim)]
        for work in range(2, self.order + 1):
            # phi holds degrees up to work - 1, so the re-tag is canonical
            lifted = [PolyScalar._canonical(dim, work, p.terms) for p in phi]
            table: dict = {}
            rhs = [PolyScalar.variable(dim, work, j)
                   - c.truncated(work).substitute(lifted, table)
                   for j, c in enumerate(h)]
            phi = [_linear_combo(linv[i], rhs) for i in range(dim)]
        return NearIdentityMap(phi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NearIdentityMap):
            return NotImplemented
        return self.components == other.components

    def __repr__(self) -> str:
        return (f"NearIdentityMap(dim={self.dim}, order={self.order}, "
                f"components={[str(c) for c in self.components]})")


def _linear_combo(coeffs: Sequence[GaussianRational],
                  polys: Sequence[PolyScalar]) -> PolyScalar:
    acc: TermMap = {}
    for c, p in zip(coeffs, polys):
        if c:
            add_scaled(acc, p.terms, c)
    return PolyScalar(polys[0].dim, polys[0].order, acc)


def pull_back(phi_map: NearIdentityMap, f: PolyVectorField) -> PolyVectorField:
    """Field in y-coordinates when x = Phi(y) and xdot = f(x).

    Solves DPhi(y) g(y) = f(Phi(y)) for g by the exact Neumann series
    g = sum_j (-Linv Dh)^j Linv f(Phi); entries of Dh have degree >= 1,
    so the series terminates within the truncation order.
    """
    if phi_map.dim != f.dim:
        raise DimensionMismatchError("map and field dimensions differ")
    order = min(phi_map.order, f.order)
    comps = [c.truncated(order) for c in phi_map.components]
    table: dict = {}
    rhs = [c.substitute(comps, table) for c in f.components]
    linv = phi_map.linear_inverse
    acc = [_linear_combo(linv[i], rhs) for i in range(f.dim)]
    total = [dict(a.terms) for a in acc]
    # Map components are exact polynomials, so differentiating h loses
    # nothing; h stops at degree order + 1, so the Jacobian entries stop
    # at degree order and re-tag canonically at the working order.
    dh = [[PolyScalar._canonical(f.dim, order, h.partial(j).terms)
           for j in range(f.dim)]
          for h in (c.degree_range(2, order + 1) for c in phi_map.components)]
    # M = -Linv Dh, entries of degree >= 1
    m_rows = [[_linear_combo([-c for c in row], column)
               for column in zip(*dh)] for row in linv]
    for _ in range(order):
        nxt = []
        for i in range(f.dim):
            entry: TermMap = {}
            for j in range(f.dim):
                if not m_rows[i][j].is_zero() and not acc[j].is_zero():
                    add_scaled(entry, (m_rows[i][j] * acc[j]).terms)
            nxt.append(PolyScalar(f.dim, order, entry))
        acc = nxt
        if all(a.is_zero() for a in acc):
            break
        for t, a in zip(total, acc):
            add_scaled(t, a.terms)
    return PolyVectorField([PolyScalar(f.dim, order, t) for t in total])


def push_forward(psi_map: NearIdentityMap, f: PolyVectorField) -> PolyVectorField:
    """Field in y-coordinates when y = Psi(x) and xdot = f(x)."""
    return pull_back(psi_map.invert_to_order(), f)


def linear_conjugate(matrix: Sequence[Sequence], f: PolyVectorField) -> PolyVectorField:
    """Transport f through the linear change y = Tx."""
    return push_forward(NearIdentityMap.from_linear(matrix, f.order), f)
