import random

import pytest
import sympy

from dulac.errors import SingularLinearPartError
from dulac.linalg import (
    identity_matrix,
    mat_det,
    mat_inverse,
    nullspace,
)
from dulac.scalars import I, ONE, ZERO, as_scalar

from oracle import random_scalar, scalar_to_sympy


def random_matrix(rng, n):
    return [[random_scalar(rng) for _ in range(n)] for _ in range(n)]


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)]
            for row in a]


def to_sympy_matrix(matrix):
    return sympy.Matrix([[scalar_to_sympy(v) for v in row]
                         for row in matrix])


def test_det_against_sympy():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            m = random_matrix(rng, n)
            expect = sympy.expand(to_sympy_matrix(m).det())
            got = scalar_to_sympy(mat_det(m))
            assert sympy.simplify(got - expect) == 0


def test_det_known_values():
    assert mat_det([[as_scalar(2)]]) == 2
    assert mat_det([[ONE, as_scalar(2)], [as_scalar(3), as_scalar(4)]]) == -2
    assert mat_det([[I, ONE], [-I, ONE]]) == 2 * I
    assert mat_det(identity_matrix(5)) == ONE


def test_inverse_round_trip():
    rng = random.Random(4)
    for n in (2, 3, 4):
        for _ in range(6):
            m = random_matrix(rng, n)
            if not mat_det(m):
                continue
            inv = mat_inverse(m)
            assert mat_mul(m, inv) == identity_matrix(n)
            assert mat_mul(inv, m) == identity_matrix(n)


def test_inverse_rejects_singular():
    singular = [[ONE, ONE], [ONE, ONE]]
    with pytest.raises(SingularLinearPartError):
        mat_inverse(singular)
    assert mat_det(singular) == ZERO


def test_nullspace_known_kernel():
    # x + y + z = 0, x - z = 0  ->  kernel spanned by (1, -2, 1)
    rows = [{0: ONE, 1: ONE, 2: ONE}, {0: ONE, 2: -ONE}]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    scale = vec.get(0, ZERO)
    assert scale
    normalized = {k: v / scale for k, v in vec.items()}
    assert normalized == {0: ONE, 1: as_scalar(-2), 2: ONE}


def test_nullspace_dimension_matches_sympy():
    rng = random.Random(5)
    for _ in range(10):
        nrows, ncols = rng.randint(1, 4), rng.randint(2, 5)
        dense = [[random_scalar(rng) if rng.random() < 0.6 else ZERO
                  for _ in range(ncols)] for _ in range(nrows)]
        rows = [{j: v for j, v in enumerate(row) if v} for row in dense]
        basis = nullspace([r for r in rows if r], ncols)
        expect = to_sympy_matrix(dense).nullspace() if any(rows) else None
        expect_dim = (len(expect) if expect is not None
                      else ncols)
        assert len(basis) == expect_dim
        # every basis vector actually solves the system
        for vec in basis:
            for row in rows:
                total = ZERO
                for j, coeff in row.items():
                    total = total + coeff * vec.get(j, ZERO)
                assert total == ZERO


def test_nullspace_trivial_kernel():
    rows = [{0: ONE}, {1: ONE}]
    assert nullspace(rows, 2) == []


def test_nullspace_deterministic():
    rows = [{0: ONE, 1: as_scalar(2), 2: as_scalar(3)}]
    first = nullspace(rows, 3)
    second = nullspace([dict(r) for r in rows], 3)
    assert first == second
