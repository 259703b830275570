import math
import random
from fractions import Fraction

import pytest

from corec.coeffs import (
    Rational,
    dot,
    format_coeff,
    rational,
    scalar_exp,
    scalar_log,
    scalar_pow,
    scalar_recip,
    scalar_sqrt,
)
from corec.dif import Dif
from corec.series import ZERO, Series


def test_addition_example():
    assert Rational(1, 4) + Rational(1, 32) == Rational(9, 32)


def test_multiplicative_inverse():
    assert Rational(3, 4) * Rational(4, 3) == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Rational(1, 1) / Rational(0, 1)
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


def test_from_parts_reduces_and_normalizes_sign():
    assert rational(6, 4) == Fraction(3, 2)
    assert rational(-2, -4) == Fraction(1, 2)
    assert rational(0, 7) == 0
    assert rational(3, -6).denominator == 2
    assert rational(3, -6).numerator == -1


def test_formatting():
    assert format_coeff(Fraction(75, 2048)) == "75/2048"
    assert format_coeff(Fraction(5, 1)) == "5"
    assert format_coeff(Fraction(-3, 128)) == "-3/128"
    assert format_coeff(0.5) == "0.5"
    assert format_coeff(7) == "7"


@pytest.mark.parametrize("value", [
    0, -7, 10**40,
    Fraction(5, 1), Fraction(-(10**30) - 1, 7**20),
    -0.0, math.inf, math.nan, 5e-324, 1e300,
])
def test_formatting_is_str(value):
    assert format_coeff(value) == str(value)


def test_an_empty_dot_is_zero():
    assert dot([], []) == 0
    assert dot([], [], start=Fraction(1, 2)) == Fraction(1, 2)


def test_reduction_invariant_after_random_ops():
    rng = random.Random(20240811)
    import math
    for _ in range(300):
        a = rational(rng.randint(-50, 50), rng.randint(1, 50))
        b = rational(rng.randint(-50, 50), rng.randint(1, 50))
        for value in (a + b, a - b, a * b):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1
        if b != 0:
            q = a / b
            assert q.denominator > 0
            assert math.gcd(abs(q.numerator), q.denominator) == 1


def test_field_laws_on_random_triples():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rational(rng.randint(-20, 20), rng.randint(1, 20))
                   for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_unbounded_magnitudes():
    # 200 iterated squarings; far beyond any fixed width.
    big = Fraction(7040125, 1024)
    value = Fraction(1)
    for _ in range(20):
        value = value * big + 1
    assert value.numerator.bit_length() > 200


def test_scalar_functions_exact_special_points():
    assert scalar_exp(0) == 1
    assert scalar_log(1) == 0
    assert scalar_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert scalar_pow(Fraction(2, 3), -2) == Fraction(9, 4)
    assert scalar_pow(Fraction(2, 3), Fraction(-2)) == Fraction(9, 4)
    assert scalar_recip(4) == Fraction(1, 4)


def test_scalar_functions_reject_irrational_exact_results():
    with pytest.raises(ValueError):
        scalar_exp(Fraction(1, 2))
    with pytest.raises(ValueError):
        scalar_log(Fraction(2))
    with pytest.raises(ValueError):
        scalar_sqrt(Fraction(2))


def test_scalar_functions_float_path():
    import math
    assert scalar_exp(1.0) == math.exp(1.0)
    assert scalar_log(2.0) == math.log(2.0)
    assert scalar_sqrt(2.0) == math.sqrt(2.0)


@pytest.mark.parametrize("build, error, message", [
    (lambda: ZERO.recip(), ZeroDivisionError, "recip: the value must be nonzero"),
    (lambda: Dif.const(0).recip(), ZeroDivisionError,
     "recip: the value must be nonzero"),
    (lambda: Dif.var(0.0).log(), ValueError,
     "log: the value must be positive, not 0.0"),
    (lambda: Dif.const(-2.0).asin(), ValueError,
     "asin: the value must be in [-1, 1], not -2.0"),
    (lambda: Series.from_list([-0.5]).sqrt(), ValueError,
     "sqrt: the value must be >= 0, not -0.5"),
    (lambda: Dif.const(math.inf).sin(), ValueError,
     "sin: the value must be finite, not inf"),
    (lambda: scalar_pow(0, -2), ZeroDivisionError, "pow: the value must be nonzero"),
    (lambda: scalar_pow(0, Fraction(-2)), ZeroDivisionError,
     "pow: the value must be nonzero"),
    (lambda: Dif.var(0.0).recip(), ZeroDivisionError,
     "recip: the value must be nonzero"),
    (lambda: Series.from_list([0.0, 1.0]).recip(), ZeroDivisionError,
     "recip: the value must be nonzero"),
    (lambda: Series.from_list([Dif.var(0.0), 1]).recip(), ZeroDivisionError,
     "recip: the value must be nonzero"),
    (lambda: scalar_sqrt(Fraction(-4)), ValueError, "sqrt: negative exact value"),
    (lambda: scalar_pow(Fraction(2), Fraction(1, 2)), ValueError,
     "non-integer power of an exact value is irrational"),
    (lambda: Series.from_list([1]).compose(3), TypeError,
     "compose expects a Series argument"),
], ids=["ZERO.recip", "const(0).recip", "var(0.0).log", "const(-2.0).asin",
        "series.sqrt", "const(inf).sin", "pow(0, -2)", "pow(0, F(-2))",
        "var(0.0).recip", "series(0.0).recip", "series(var(0.0)).recip",
        "sqrt(F(-4))", "pow(F(2), F(1, 2))",
        "compose(3)"])
def test_errors_outside_the_domain_name_the_function(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
