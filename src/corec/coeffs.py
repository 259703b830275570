"""Coefficient domains shared by the algebraic modules.

Two domains are supported everywhere: exact rationals over Python's
arbitrary-precision integers (``fractions.Fraction``, re-exported as
:data:`Rational`), and double-precision floats. Plain ``int`` values mix
freely with both and are treated as exact.

Exact values stay exact: magnitudes are unbounded, results are always
reduced with a positive denominator, and the elementary functions below
refuse an exact argument unless the result is itself exact (for example
``exp 0``, ``log 1``, or the square root of a perfect square). Derivative
towers supply their own elementary-function co-recursions and are
dispatched to their methods.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "Rational",
    "rational",
    "format_coeff",
    "is_exact",
    "divide",
    "scalar_exp",
    "scalar_log",
    "scalar_sqrt",
    "scalar_sin",
    "scalar_cos",
    "scalar_atan",
    "scalar_asin",
    "scalar_pow",
    "scalar_recip",
]

Rational = Fraction


def rational(numerator: int, denominator: int = 1) -> Fraction:
    """Reduced rational with the sign carried by the numerator.

    Raises ``ZeroDivisionError`` for a zero denominator.
    """
    return Fraction(numerator, denominator)


def format_coeff(value) -> str:
    """Canonical text for a coefficient.

    Exact values render as ``p/q`` (or just ``p`` for integers); floats
    use Python's shortest round-trip representation.
    """
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def divide(x, y):
    """``x / y``, except that ``int / int`` stays exact as a ``Fraction``."""
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y)
    return x / y


def _exact_sqrt(q: Fraction) -> Fraction:
    if q < 0:
        raise ValueError("sqrt: negative exact value")
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(
            "sqrt of %s is irrational; use float coefficients" % q
        )
    return Fraction(rn, rd)


# Scalar elementary functions with three-way dispatch: exact values are
# accepted only where the result stays exact, floats go to math.*, and
# anything carrying its own method (derivative towers) handles itself.

def scalar_exp(x):
    if is_exact(x):
        if x == 0:
            return 1
        raise ValueError("exp of a nonzero exact value is irrational")
    if hasattr(x, "exp"):
        return x.exp()
    return math.exp(x)


def scalar_log(x):
    if is_exact(x):
        if x == 1:
            return 0
        raise ValueError("log of an exact value other than 1 is irrational")
    if hasattr(x, "log"):
        return x.log()
    return math.log(x)


def scalar_sqrt(x):
    if is_exact(x):
        return _exact_sqrt(Fraction(x))
    if hasattr(x, "sqrt"):
        return x.sqrt()
    return math.sqrt(x)


def scalar_sin(x):
    if is_exact(x):
        if x == 0:
            return 0
        raise ValueError("sin of a nonzero exact value is irrational")
    if hasattr(x, "sin"):
        return x.sin()
    return math.sin(x)


def scalar_cos(x):
    if is_exact(x):
        if x == 0:
            return 1
        raise ValueError("cos of a nonzero exact value is irrational")
    if hasattr(x, "cos"):
        return x.cos()
    return math.cos(x)


def scalar_atan(x):
    if is_exact(x):
        if x == 0:
            return 0
        raise ValueError("atan of a nonzero exact value is irrational")
    if hasattr(x, "atan"):
        return x.atan()
    return math.atan(x)


def scalar_asin(x):
    if is_exact(x):
        if x == 0:
            return 0
        raise ValueError("asin of a nonzero exact value is irrational")
    if hasattr(x, "asin"):
        return x.asin()
    return math.asin(x)


def scalar_pow(x, a):
    if is_exact(x):
        if isinstance(a, int):
            return Fraction(x) ** a
        if isinstance(a, Fraction) and a.denominator == 1:
            return Fraction(x) ** int(a)
        if x == 1:
            return 1
        raise ValueError("non-integer power of an exact value is irrational")
    return x ** a


def scalar_recip(x):
    if isinstance(x, int):
        return Fraction(1, x)
    if isinstance(x, Fraction):
        return 1 / x
    if hasattr(x, "recip"):
        return x.recip()
    return 1.0 / x
