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

:func:`dot` is the one kernel behind every series product and quotient and
every Leibniz sum of a derivative tower: a fold of weighted products in
the order its caller gives, which puts exact terms over one common
denominator. :func:`divide` is the one exact-division rule: ``int / int``
is a ``Fraction`` and anything else divides as ``/`` does. Series divided
by a scalar, :func:`scalar_recip`, integrals and quotients all use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import add, attrgetter, floordiv, mul, sub

__all__ = [
    "Rational",
    "rational",
    "format_coeff",
    "is_exact",
    "divide",
    "dot",
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
    """Canonical text for a coefficient: ``str(value)``.

    Exact values render as ``p/q`` (or just ``p`` for integers); floats
    use Python's shortest round-trip representation.
    """
    return str(value)


def is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def divide(x, y):
    """``x / y``, except that ``int / int`` stays exact as a ``Fraction``."""
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y)
    return x / y


_EXACT_TYPES = {int, Fraction}
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def dot(xs, ys, weights=None, start=None, subtract=False):
    """The fold ``start + w_0 x_0 y_0 + w_1 x_1 y_1 + ...``, left to right.

    Each term is ``(w * x) * y``, or ``x * y`` without ``weights``, and is
    combined as ``acc + term``, or ``acc - term`` with ``subtract``. Without
    ``start`` the fold begins at the first term (negated with ``subtract``),
    and an empty fold is 0. Floats are so rounded in exactly the order the
    caller gives; a fold that adds to a ``start`` is ``sum(terms, start)``,
    whose float loop is faster (and compensates its rounding from Python
    3.12 on). When every operand is an int or a Fraction and at least one
    is a Fraction, the terms are put over one common denominator and the
    sum is reduced once instead of at every addition; int operands alone
    give the plain int sum.
    """
    # The types of the first term decide whether the rest are scanned, so a
    # float fold pays no scan.
    if xs and type(xs[0]) in _EXACT_TYPES and type(ys[0]) in _EXACT_TYPES:
        types = {*map(type, xs), *map(type, ys)}
        if start is not None:
            types.add(type(start))
        if Fraction in types and types <= _EXACT_TYPES:
            return _common_denominator_dot(xs, ys, weights, start, subtract)
    if weights is None:
        terms = map(mul, xs, ys)
    else:
        terms = map(mul, map(mul, weights, xs), ys)
    if start is None:
        start = next(terms, None)
        if start is None:
            return 0
        if subtract:
            start = -start
    elif not subtract:
        return sum(terms, start)
    return reduce(sub if subtract else add, terms, start)


def _common_denominator_dot(xs, ys, weights, start, subtract):
    dens = list(map(mul, map(_denominator, xs), map(_denominator, ys)))
    nums = map(mul, map(_numerator, xs), map(_numerator, ys))
    if weights is not None:
        nums = map(mul, weights, nums)
    common = math.lcm(1 if start is None else start.denominator, *dens)
    total = sum(map(mul, nums, map(floordiv, repeat(common), dens)))
    if subtract:
        total = -total
    if start is not None:
        total += start.numerator * (common // start.denominator)
    return Fraction(total, common)


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

def _float(name, domain, x):
    # math.<name>(x), whose error outside the domain names the function.
    try:
        return getattr(math, name)(x)
    except ValueError:
        raise ValueError("%s: the value must be %s, not %r"
                         % (name, domain, x)) from None


def _scalar(name, point, value, domain=None):
    # scalar_<name>, whose one exact argument with an exact result is
    # ``point``, where it is ``value``; a float must be ``domain`` (exp
    # and atan take every float).
    def scalar(x):
        if is_exact(x):
            if x == point:
                return value
            raise ValueError("%s of an exact value other than %s is irrational"
                             % (name, point))
        method = getattr(x, name, None)
        return _float(name, domain, x) if method is None else method()

    scalar.__name__ = scalar.__qualname__ = "scalar_" + name
    return scalar


scalar_exp = _scalar("exp", 0, 1)
scalar_log = _scalar("log", 1, 0, "positive")
scalar_sin = _scalar("sin", 0, 0, "finite")
scalar_cos = _scalar("cos", 0, 1, "finite")
scalar_atan = _scalar("atan", 0, 0)
scalar_asin = _scalar("asin", 0, 0, "in [-1, 1]")


def scalar_sqrt(x):
    if is_exact(x):
        return _exact_sqrt(Fraction(x))
    if hasattr(x, "sqrt"):
        return x.sqrt()
    return _float("sqrt", ">= 0", x)


def scalar_pow(x, a):
    if is_exact(x):
        if isinstance(a, (int, Fraction)) and a.denominator == 1:
            if a < 0 and not x:
                raise ZeroDivisionError("pow: the value must be nonzero")
            return Fraction(x) ** a
        if x == 1:
            return 1
        raise ValueError("non-integer power of an exact value is irrational")
    # Series and towers repeat an int power >= 0 as products, so a zero
    # value is allowed; every other power is their own pow.
    return x ** a


def scalar_recip(x):
    if hasattr(x, "recip"):
        return x.recip()
    if not x:
        raise ZeroDivisionError("recip: the value must be nonzero")
    return divide(1, x)
