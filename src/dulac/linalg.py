"""Exact dense and sparse linear algebra over the Gaussian rationals.

Small and purpose-built: one Gauss-Jordan pass for the inverse and the
determinant of a constant linear part (dimension stays in single
digits), and a sparse reduced-row-echelon nullspace for the graded
centralizer systems.  Being over a field, plain elimination is exact;
pivots are chosen by first nonzero position so results are deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import SingularLinearPartError
from .scalars import ONE, ZERO, GaussianRational, add_scaled

Matrix = List[List[GaussianRational]]
SparseRow = Dict[int, GaussianRational]


def identity_matrix(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _gauss_jordan(matrix: Sequence[Sequence[GaussianRational]]
                  ) -> Tuple[GaussianRational, Optional[Matrix]]:
    """(det, inverse), reducing [matrix | I] to [I | inverse]: det is the
    product of the pivots, negated per row swap.  (ZERO, None) when the
    matrix is singular."""
    n = len(matrix)
    work = [list(row) + unit for row, unit in zip(matrix, identity_matrix(n))]
    det = ONE
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            return ZERO, None
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col].inverse()
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * p for v, p in zip(work[r], work[col])]
    return det, [row[n:] for row in work]


def mat_inverse(matrix: Sequence[Sequence[GaussianRational]]) -> Matrix:
    inverse = _gauss_jordan(matrix)[1]
    if inverse is None:
        raise SingularLinearPartError("linear part is singular")
    return inverse


def mat_det(matrix: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
    return _gauss_jordan(matrix)[0]


def nullspace(rows: Sequence[SparseRow], ncols: int) -> List[SparseRow]:
    """Basis of the kernel of a sparse matrix, as sparse column vectors.

    Rows map column index to coefficient.  The basis is the canonical one
    read off the reduced row echelon form: one vector per free column,
    with a 1 in that column, listed in increasing column order.
    """
    pivots: Dict[int, SparseRow] = {}
    # columns that a row reduced to its lead alone forces to zero; their
    # entries leave every row without arithmetic
    zeros: Set[int] = set()
    for original in rows:
        row = {c: v for c, v in original.items() if c not in zeros}
        while row:
            lead = min(row)
            if lead in zeros:
                del row[lead]
                continue
            pivot = pivots.get(lead)
            if pivot is not None:
                add_scaled(row, pivot, -row[lead])
                continue
            for col in zeros.intersection(row):
                del row[col]
            if len(row) == 1:
                zeros.add(lead)
            else:
                inv = row[lead].inverse()
                pivots[lead] = {c: v * inv for c, v in row.items()}
            break
    # Back substitution to full reduced form.  Rows with larger leads are
    # reduced already, so subtracting one brings in no pivot column.
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for col in [c for c in row if c != lead]:
            if col in zeros:
                del row[col]
            elif col in pivots:
                add_scaled(row, pivots[col], -row[col])
    basis: List[SparseRow] = []
    for col in range(ncols):
        if col in pivots or col in zeros:
            continue
        vec: SparseRow = {col: ONE}
        for lead, prow in pivots.items():
            coeff = prow.get(col)
            if coeff:
                vec[lead] = -coeff
        basis.append(vec)
    return basis
