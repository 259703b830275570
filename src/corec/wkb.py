"""Semiclassical (WKB) double expansion at a point.

For the singularly perturbed equation ``eps^2 y'' = Q(x) y`` the solution
is written as ``exp(S0/eps + U + eps*V)`` where U and V are series in
eps^2 whose coefficients depend on x. Matching powers of eps gives the
coupled closed forms

    U  = -1/2 * log(S0' + eps^2 V')
    V' = -1/(2 S0') * (U'^2 + U'' + eps^2 V'^2)

with every prime a derivative in x. They look circular (V' wants U'',
which wants V'' and so on), but the eps^2 shifts make the dependency
well-founded: coefficient k of V' needs U only up to order k and V' only
up to order k-1. :func:`wkb_expand` writes V' as this equation, with the
factor eps^2 as ``.shift(1)`` in the series in eps^2; the sum passes the
other terms through for the shift's zero, so it is never built.

Here the x-dependence is carried by derivative towers (:class:`~corec.dif.Dif`)
evaluated at the point of interest, so "series whose coefficients are
functions of x" becomes a :class:`~corec.series.Series` with ``Dif``
coefficients. Differentiating one of these mixed series maps the tower
derivation over its coefficients, and laziness decides how many derivative
levels each tower actually materializes. S0 itself must be found by an
explicit integration elsewhere; this module takes the tower of S0' at the
point as its input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .dif import Dif
from .series import Series, _coeff_derivation, _rows

__all__ = ["WkbResult", "add_to_tail", "wkb_expand", "airy_s0_prime"]


class WkbResult(NamedTuple):
    """Both expansions plus their per-coefficient values at the point.

    ``u`` and ``v_prime`` have derivative-tower coefficients indexed by
    powers of eps^2; ``u_main``/``v_prime_main`` are the same series with
    each tower collapsed to its value.
    """

    u: Series
    v_prime: Series
    u_main: Series
    v_prime_main: Series


def add_to_tail(a: Series, z: Series) -> Series:
    """Add ``z`` one order up: result_0 = a_0, result_{k+1} = a_{k+1} + z_k."""
    return a + z.shift(1)


def wkb_expand(s0_prime: Dif, orders: int) -> WkbResult:
    """Solve the U / V' recurrences at a point, to at least ``orders`` terms.

    ``s0_prime`` is the derivative tower of S0' = sqrt(Q) at the point; its
    value must be positive so the logarithm and the divisions exist. The
    returned series remain lazily extendable beyond ``orders``; the first
    ``orders`` coefficients are forced here so that bad input fails fast.
    """
    if orders < 1:
        raise ValueError("wkb_expand: orders must be >= 1")
    if not s0_prime.value > 0:
        raise ValueError("wkb_expand: S0' must have a positive value")

    # -1/2 in the domain of S0': a Fraction keeps exact input exact, and a
    # float keeps float towers off Fraction's arithmetic, which runs in Python.
    half = -0.5 if isinstance(s0_prime.value, float) else -Fraction(1, 2)
    u = Series.defer(
        lambda: Series.cons(s0_prime, lambda: v_prime).log().scale(half)
    )
    u_prime = u.map(_coeff_derivation)
    half_over_s0 = half / s0_prime
    v_prime = Series.defer(
        lambda: (u_prime * u_prime + u_prime.map(_coeff_derivation)
                 + (v_prime * v_prime).shift(1)).scale(half_over_s0)
    )

    u_main = _rows(u)(0)
    v_prime_main = _rows(v_prime)(0)
    u_main.take(orders)
    v_prime_main.take(orders)
    return WkbResult(u=u, v_prime=v_prime,
                     u_main=u_main, v_prime_main=v_prime_main)


def airy_s0_prime(x0: float) -> Dif:
    """Tower of sqrt(x) at ``x0`` (> 0), the S0' for Q(x) = x."""
    if not x0 > 0:
        raise ValueError("airy_s0_prime: x0 must be > 0")
    return Dif.var(x0).sqrt()
