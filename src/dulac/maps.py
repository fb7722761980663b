"""Polynomial coordinate changes with invertible linear part.

A near-identity map is y = Psi(x) = Lx + h(x) with L invertible and h a
truncated field of degree >= 2 terms.  Maps compose, invert to the
truncation order, and transport vector fields:

    push_forward(Psi, f) is the field g with ydot = g(y) when xdot = f(x),

computed exactly through the truncation order.  Composition convention is
outermost-last: compose(outer, inner) applies inner first, so the map for
"step 2 then step 3" is compose(step3, step2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .errors import DimensionMismatchError
from .linalg import identity_matrix, mat_inverse
from .poly import PolyScalar, PolyVectorField, TermMap, jacobian
from .scalars import GaussianRational, add_scaled, as_scalar


class NearIdentityMap:
    """y = Lx + h(x), L invertible, h of degree >= 2."""

    __slots__ = ("dim", "order", "linear", "h")

    def __init__(self, linear: Sequence[Sequence], h: Optional[PolyVectorField] = None,
                 order: Optional[int] = None):
        rows = tuple(tuple(as_scalar(v) for v in row) for row in linear)
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise DimensionMismatchError("linear part must be square")
        if h is None:
            if order is None:
                raise DimensionMismatchError(
                    "need a truncation order when no higher-order part is given")
            h = PolyVectorField.zero(dim, order)
        if h.dim != dim:
            raise DimensionMismatchError("linear part and h dimensions differ")
        if not h.is_zero() and h.min_degree() < 2:
            raise DimensionMismatchError(
                "higher-order part of a near-identity map must start at degree 2")
        mat_inverse(rows)  # raises SingularLinearPartError if not invertible
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", h.order)
        object.__setattr__(self, "linear", rows)
        object.__setattr__(self, "h", h)

    def __setattr__(self, name, value):
        raise AttributeError("NearIdentityMap is immutable")

    @classmethod
    def identity(cls, dim: int, order: int) -> "NearIdentityMap":
        return cls(identity_matrix(dim), order=order)

    @classmethod
    def from_linear(cls, matrix: Sequence[Sequence], order: int) -> "NearIdentityMap":
        return cls(matrix, order=order)

    @classmethod
    def from_generator(cls, h: PolyVectorField) -> "NearIdentityMap":
        """The map x + h(x) for a generator h of degree >= 2."""
        return cls(identity_matrix(h.dim), h)

    @classmethod
    def from_components(cls, components: Sequence[PolyScalar]) -> "NearIdentityMap":
        """Split explicit component polynomials into linear part and rest."""
        dim = len(components)
        order = components[0].order
        zero_exps = (0,) * dim
        linear = []
        rest = []
        for comp in components:
            if comp.coefficient(zero_exps):
                raise DimensionMismatchError(
                    "coordinate changes must fix the origin")
            row = []
            for j in range(dim):
                exps = tuple(1 if k == j else 0 for k in range(dim))
                row.append(comp.coefficient(exps))
            linear.append(row)
            rest.append(comp.degree_range(2))
        return cls(linear, PolyVectorField(rest))

    def is_identity(self) -> bool:
        return (self.h.is_zero()
                and all(self.linear[i][j] == (1 if i == j else 0)
                        for i in range(self.dim) for j in range(self.dim)))

    def component_polys(self) -> List[PolyScalar]:
        """The map's components Lx + h(x) as scalar polynomials."""
        out = []
        for i in range(self.dim):
            terms = {}
            for j in range(self.dim):
                if self.linear[i][j]:
                    exps = tuple(1 if k == j else 0 for k in range(self.dim))
                    terms[exps] = self.linear[i][j]
            comp = PolyScalar(self.dim, self.order, terms) + self.h.components[i]
            out.append(comp)
        return out

    def compose(self, inner: "NearIdentityMap") -> "NearIdentityMap":
        """self after inner: (self . inner)(x) = self(inner(x))."""
        if self.dim != inner.dim:
            raise DimensionMismatchError("composed maps must share a dimension")
        inner_comps = inner.component_polys()
        comps = [poly.substitute(inner_comps) for poly in self.component_polys()]
        return NearIdentityMap.from_components(comps)

    def invert_to_order(self) -> "NearIdentityMap":
        """The map Phi with Psi(Phi(y)) = y through the truncation order.

        Phi is the fixed point of Phi = Linv (y - h(Phi)), found degree by
        degree from Phi = Linv y.  Since h starts at degree 2, an error of
        degree d in Phi moves h(Phi) only from degree d + 1 on; so if Phi
        is right through degree w - 1, one pass makes it right through
        degree w, and nothing above w can be right yet.  Each pass
        therefore works at truncation order w = 2, 3, ..., N only.
        """
        linv = mat_inverse(self.linear)
        if self.h.is_zero():
            return NearIdentityMap(linv, order=self.order)
        dim = self.dim
        ys = [PolyScalar.variable(dim, 1, j) for j in range(dim)]
        phi = [_linear_combo(linv[i], ys) for i in range(dim)]
        for work in range(2, self.order + 1):
            lifted = [PolyScalar(dim, work, p.terms) for p in phi]
            rhs = [PolyScalar.variable(dim, work, j)
                   - c.truncated(work).substitute(lifted)
                   for j, c in enumerate(self.h.components)]
            phi = [_linear_combo(linv[i], rhs) for i in range(dim)]
        return NearIdentityMap.from_components(phi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NearIdentityMap):
            return NotImplemented
        return (self.linear == other.linear and self.h == other.h
                and self.order == other.order)

    def __repr__(self) -> str:
        return (f"NearIdentityMap(dim={self.dim}, order={self.order}, "
                f"components={[str(c) for c in self.component_polys()]})")


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
    comps = [c.truncated(order) if c.order > order else c
             for c in phi_map.component_polys()]
    rhs = [c.substitute(comps) for c in f.components]
    linv = mat_inverse(phi_map.linear)
    acc = [_linear_combo(linv[i], rhs) for i in range(f.dim)]
    total = [dict(a.terms) for a in acc]
    if not phi_map.h.is_zero():
        # Map components are exact polynomials, so differentiating them
        # loses nothing; re-tag the Jacobian entries at the working order.
        dh = [[PolyScalar(f.dim, order, entry.terms) for entry in row]
              for row in jacobian(phi_map.h)]
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
