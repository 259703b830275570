"""Coefficient domains shared by the algebraic modules.

Two domains are supported everywhere: exact rationals over Python's
arbitrary-precision integers (``fractions.Fraction``, re-exported as
:data:`Rational`), and double-precision floats. Plain ``int`` values mix
freely with both and are treated as exact.

Exact values stay exact: magnitudes are unbounded, results are always
reduced with a positive denominator, and the elementary functions below
refuse an exact argument unless the result is itself exact (for example
``exp 0``, ``log 1``, or the square root of a perfect square).
``scalar_exp/log/sin/cos/atan/asin`` come from one factory, each with its
one exact argument that has an exact result. Series and derivative towers
are dispatched to their own methods, which both inherit from
:class:`corec.series.Analytic`.
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
# anything carrying its own method (series, derivative towers) handles
# itself.

def _scalar(name, point, value):
    # scalar_<name>, whose one exact argument with an exact result is
    # ``point``, where it is ``value``.
    float_fn = getattr(math, name)

    def scalar(x):
        if is_exact(x):
            if x == point:
                return value
            raise ValueError("%s of an exact value other than %s is irrational"
                             % (name, point))
        method = getattr(x, name, None)
        return float_fn(x) if method is None else method()

    scalar.__name__ = scalar.__qualname__ = "scalar_" + name
    return scalar


scalar_exp = _scalar("exp", 0, 1)
scalar_log = _scalar("log", 1, 0)
scalar_sin = _scalar("sin", 0, 0)
scalar_cos = _scalar("cos", 0, 1)
scalar_atan = _scalar("atan", 0, 0)
scalar_asin = _scalar("asin", 0, 0)


def scalar_sqrt(x):
    if is_exact(x):
        return _exact_sqrt(Fraction(x))
    if hasattr(x, "sqrt"):
        return x.sqrt()
    return math.sqrt(x)


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
