"""Parameter families, the nondegeneracy matrix, and suspension."""

import pytest

from dulac.bifurcation import (
    LAYOUT_NAMES,
    ParamFamily,
    build_D,
    oscillator_pattern,
    suspend,
)
from dulac.corpus import hopf_family, oscillator_family
from dulac.errors import (
    DegenerateEigenvaluesError,
    InputFormatError,
    ParameterCountError,
)
from dulac.fieldfile import family_from_dict
from dulac.linalg import mat_det
from dulac.poly import PolyVectorField, Spectrum
from dulac.scalars import I, as_scalar


def family(matrix, order=2, names=("eta",)):
    """The family of a document with the given matrix cells and no
    terms."""
    built, _, _ = family_from_dict({
        "dim": len(matrix), "order": order,
        "params": {"names": list(names), "matrix": matrix}})
    return built


def saddle_family(order=2):
    # lambda(eta) = (1 + eta, -1 + eta)
    return family([
        [[{"coeff": "1", "exps": [0]}, {"coeff": "1", "exps": [1]}], "0"],
        ["0", [{"coeff": "-1", "exps": [0]}, {"coeff": "1", "exps": [1]}]],
    ], order=order)


def test_family_coercion_and_eigenvalues():
    fam = saddle_family()
    assert (fam.n, fam.p, fam.order) == (2, 1, 2)
    assert fam.eigenvalues() == Spectrum([1, -1])
    # the family is its suspension, known one degree past its order
    assert fam.field.order == 3
    assert [str(c) for c in fam.field.components] == [
        "x1 + x1*x3", "-1*x2 + x2*x3", "0"]
    with pytest.raises(AttributeError):
        fam.p = 3


def test_family_rejects_offdiagonal_constant():
    with pytest.raises(InputFormatError, match="must be diagonal"):
        family([[1, 1], [0, -1]])


@pytest.mark.parametrize("terms, p, message", [
    ([(0, (1, 0, 0), 1), (0, (0, 1, 0), 2), (1, (1, 0, 0), 3)], 1,
     r"the critical matrix A\(0\) must be diagonal; entry \(1,2\) has a "
     r"constant term"),
    ([(0, (1, 0, 0), 1), (0, (0, 0, 1), 1)], 1, "x-degree at least 1"),
    ([(0, (1, 0, 0), 1), (2, (1, 0, 0), 1)], 1, "parameter components"),
    ([], 3, "need n >= 1"),
])
def test_family_refuses_a_field_that_is_no_suspension(terms, p, message):
    with pytest.raises(InputFormatError, match=message):
        ParamFamily(PolyVectorField.from_terms(3, 3, terms), p)


def test_build_d_saddle():
    D = build_D(saddle_family())
    assert LAYOUT_NAMES == {"standard": "eigenvalue-first",
                            "oscillator": "oscillator"}
    assert [[str(e) for e in row] for row in D] == [["1", "1"], ["-1", "1"]]
    assert mat_det(D) == as_scalar(2)


def test_order_one_family_keeps_its_derivatives_and_suspends_linearly():
    # the held field runs through degree 2, so x_i * eta stays readable
    fam = saddle_family(order=1)
    D = build_D(fam)
    assert [[str(e) for e in row] for row in D] == [["1", "1"], ["-1", "1"]]
    field = suspend(fam)
    assert field.order == 1
    assert [str(p) for p in field.components] == ["x1", "-1*x2", "0"]


def test_build_d_constant_family_is_singular():
    assert mat_det(build_D(family([[1, 0], [0, -1]]))) == 0


def test_build_d_hopf():
    D = build_D(hopf_family())
    assert [[str(e) for e in row] for row in D] == [
        ["1*i", "1+2*i"],
        ["-1*i", "1-2*i"],
    ]
    assert str(mat_det(D)) == "2*i"


def test_build_d_requires_p_equal_n_minus_1():
    fam = family([[1, 0], [0, -1]], names=("a", "b"))
    with pytest.raises(ParameterCountError, match="p = n - 1"):
        build_D(fam)


def test_build_d_rejects_degenerate_eigenvalues():
    with pytest.raises(DegenerateEigenvaluesError, match="symmetry arguments"):
        build_D(family([[1, 0], [0, 1]]))
    mixed = family([["1+i", 0], [0, -1]])
    with pytest.raises(DegenerateEigenvaluesError,
                       match="real or purely imaginary"):
        build_D(mixed)


def test_oscillator_pattern():
    assert oscillator_pattern(Spectrum([I, -I, 2 * I, -2 * I])) == (I, 2)
    assert oscillator_pattern(Spectrum([3 * I, -3 * I, 9 * I, -9 * I])) == (3 * I, 3)
    assert oscillator_pattern(Spectrum([1, -1])) is None
    assert oscillator_pattern(Spectrum([I, -I, I + 1, -I - 1])) is None
    # ratio must be an integer >= 2
    assert oscillator_pattern(Spectrum([2 * I, -2 * I, 3 * I, -3 * I])) is None


def test_oscillator_layout_and_determinant_relation():
    fam = oscillator_family()
    D_osc = build_D(fam, "oscillator")
    assert [[str(e) for e in row] for row in D_osc] == [
        ["1", "0", "0", "1"],
        ["1", "0", "-1", "-1"],
        ["0", "1", "1", "2"],
        ["0", "1", "0", "-2"],
    ]
    assert str(mat_det(D_osc)) == "-2"
    D_std = build_D(fam)
    assert str(mat_det(D_std)) == "2*i"
    i_omega0, m = oscillator_pattern(fam.eigenvalues())
    assert m == 2
    # det(eigenvalue-first) = -i*w0 * det(oscillator)
    assert mat_det(D_std) == as_scalar(-1) * i_omega0 * mat_det(D_osc)


def test_oscillator_layout_needs_the_pattern():
    with pytest.raises(DegenerateEigenvaluesError, match="oscillator layout"):
        build_D(saddle_family(), "oscillator")


def test_suspend_constant_family():
    field = suspend(family([[1, 0], [0, -1]]))
    assert field.dim == 3
    assert [str(p) for p in field.components] == ["x1", "-1*x2", "0"]
    assert field.spectrum == Spectrum([1, -1, 0])


def test_suspend_hopf():
    field = suspend(hopf_family())
    assert [str(p) for p in field.components] == [
        "1*i*x1 + (1+2*i)*x1*x3 + x1^2*x2",
        "-1*i*x2 + (1-2*i)*x2*x3",
        "0",
    ]
    assert field.spectrum == Spectrum([I, -I, 0])
    assert field.order == 3
