import random
from fractions import Fraction

import pytest

from dulac.errors import ScalarParseError
from dulac.poly import PolyScalar
from dulac.scalars import GaussianRational, I, ONE, ZERO, as_scalar


def test_parse_canonical_round_trip():
    for text in ["0", "1", "-1", "7", "3/4", "-2/7", "1*i", "-1*i",
                 "2/3*i", "1+1*i", "1-2*i", "1/2-3/4*i", "-5/2+1/3*i"]:
        value = GaussianRational.parse(text)
        assert str(value) == text
        assert GaussianRational.parse(str(value)) == value


def test_parse_loose_spellings():
    assert GaussianRational.parse("i") == I
    assert GaussianRational.parse("-i") == -I
    assert GaussianRational.parse("+i") == I
    assert GaussianRational.parse("3i") == GaussianRational(0, 3)
    assert GaussianRational.parse("2*i") == GaussianRational(0, 2)
    assert GaussianRational.parse(" 1 + 2i ") == GaussianRational(1, 2)
    assert GaussianRational.parse("1-i") == GaussianRational(1, -1)
    assert GaussianRational.parse("-3/4") == GaussianRational(Fraction(-3, 4))


def test_parse_rejects_garbage():
    for text in ["", "   ", "x", "1+", "1/2+i*i", "1//2", "2+3j"]:
        with pytest.raises(ScalarParseError):
            GaussianRational.parse(text)


@pytest.mark.parametrize("text", ["1e3", "0.25", "1_000", "1e999999999"])
def test_parse_rejects_forms_outside_the_grammar(text):
    # Fraction would take each of these; the grammar is [+-]digits[/digits]
    for spelling in (text, f"{text}*i", f"1+{text}*i", f"{text}-2*i"):
        with pytest.raises(ScalarParseError, match="expected an integer or a/b"):
            GaussianRational.parse(spelling)


def test_constructor_accepts_strings_and_fractions():
    assert GaussianRational("1/2-3/4*i") == GaussianRational(
        Fraction(1, 2), Fraction(-3, 4))
    assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))
    assert as_scalar(3) == GaussianRational(3)
    assert as_scalar(Fraction(1, 3)).real == Fraction(1, 3)
    assert as_scalar(ONE) is ONE


def test_arithmetic_basics():
    a = GaussianRational(1, 2)
    b = GaussianRational(1, -2)
    assert a * b == GaussianRational(5)
    assert a + b == GaussianRational(2)
    assert a - a == ZERO
    assert -a == GaussianRational(-1, -2)
    assert a * 0 == ZERO
    assert 2 - a == GaussianRational(1, -2)
    assert I * I == -ONE
    assert I * I * I * I == ONE
    assert (ONE + I) * (ONE + I) == 2 * I


def test_inverse_and_division():
    a = GaussianRational(3, 4)
    assert a * a.inverse() == ONE
    assert (a / a) == ONE
    assert ONE / I == -I
    assert 1 / I == -I
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugate_and_abs2():
    a = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    conjugate = GaussianRational(Fraction(3, 5), Fraction(-4, 5))
    assert a.abs2() == Fraction(1)
    assert a * conjugate == a.abs2()
    assert ZERO.abs2() == 0


def test_equality_and_hash():
    assert GaussianRational(2) == 2
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(0, 1) != 1
    assert hash(GaussianRational(5)) == hash(GaussianRational(5))
    assert not ZERO
    assert I


def test_real_values_hash_like_int_and_fraction():
    # equal values must hash equal across the three types
    assert hash(GaussianRational(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert hash(GaussianRational(Fraction(-6, 4))) == hash(Fraction(-3, 2))
    assert hash(GaussianRational(2)) == hash(2)
    assert GaussianRational(2) == 2
    assert {GaussianRational(2): "x"}[2] == "x"
    a = GaussianRational(Fraction(2, 6), Fraction(-1, 2))
    assert type(a.real) is Fraction and a.real == Fraction(1, 3)
    assert type(a.imag) is Fraction and a.imag == Fraction(-1, 2)
    for part in ("real", "imag"):
        with pytest.raises(AttributeError):
            setattr(a, part, Fraction(1))


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.real = Fraction(2)


def test_field_axioms_randomized():
    rng = random.Random(20260822)
    for _ in range(200):
        a = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        c = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert str(GaussianRational.parse(str(a))) == str(a)
        if a:
            assert a * a.inverse() == ONE
            assert a.abs2() == a.real ** 2 + a.imag ** 2


def test_an_unreadable_operand_defers_to_its_own_arithmetic():
    # GaussianRational returns NotImplemented, so PolyScalar's reflected
    # operator answers instead of a TypeError from as_scalar
    p = PolyScalar.variable(2, 3, 0)
    two = GaussianRational(2)
    assert two * p == p * 2
    assert two + p == p + 2
    assert two - p == 2 - p
    with pytest.raises(TypeError, match="unsupported operand"):
        two / p
