"""Connected amplitudes of a zero-dimensional scalar field theory.

With the bare propagator fixed to 1 and coupling gamma, the generating
function of connected amplitudes in the source J obeys the self-consistency
equation

    phi = J + (gamma / 2) * (phi' + phi^2)

where the prime is d/dJ. The equation itself is the program: phi is a
series in gamma whose coefficients are polynomials in J, and the gamma/2
factor shifts every self-reference one gamma-order up, which is exactly
what makes the definition productive (coefficient k+1 only needs
coefficients up to k).

The recurrence is solved over the integers: with t = gamma/2 and
phi_k = c_k / 2^k, the equation reads c = J + t * (c' + c^2), and every
coefficient of c is an int. Each inner series c_k is scaled by 1/2^k,
exactly, as it is read and before any entry of it is, so the entries
that a polynomial's compact zero tail supplies stay the plain int 0.

Amplitudes are rows of the double series: G_n is the gamma-series of
J^(n-1) coefficients, entry n-1 of each inner series, read by a loop of
its tails that stops where the polynomial ends. So reading G_n nests no
deeper for a large n than for n = 2. Everything is exact rational.
"""

from __future__ import annotations

from fractions import Fraction

from .series import Series, _coeff_derivation, _indices, _map, _rows

__all__ = ["dyson_schwinger", "greens", "parity_check"]


def dyson_schwinger() -> Series:
    """The series solution phi: gamma-outer, J-inner, exact coefficients.

    The gamma^0 coefficient is the identity polynomial J (no interaction);
    each later coefficient is produced by one application of the right-hand
    side to the prefix already known. The recurrence runs in t = gamma/2,
    where it reads c = J + t * (c' + c^2) and every coefficient of c is an
    int; phi_k = c_k / 2^k scales each inner series as it is read.
    """
    source = Series.from_list([0, 1])
    c = Series.cons(source, lambda: c.map(_coeff_derivation) + c * c)
    return _map(_unscale, c, _indices(0))


def _unscale(inner, k):
    # phi_k = c_k / 2^k; phi_0 = c_0 = J keeps its int coefficients.
    return inner.scale(Fraction(1, 2 ** k)) if k else inner


def greens(n: int, order: int | None = None) -> Series:
    """The amplitude G_n as a series in gamma.

    Row n-1 of phi: coefficient k is the J^(n-1) coefficient of phi's
    gamma^k term, with no factorial normalization, read without walking the
    rows before it. If ``order`` is given, coefficients 0..order are forced
    before returning.
    """
    if n < 2:
        raise ValueError("greens: n must be >= 2")
    row = _rows(dyson_schwinger())(n - 1)
    if order is not None:
        row.take(_order(order) + 1)
    return row


def _order(order: int) -> int:
    """``order``, refused below 0 by the name of :func:`greens`."""
    if order < 0:
        raise ValueError("greens: order must be >= 0")
    return order


def parity_check(max_order: int) -> bool:
    """True iff coefficient (gamma^k, J^a) vanishes whenever a + k is even.

    Checked for all k <= max_order over the full polynomial width k + 1
    (plus a margin), with exact arithmetic.
    """
    phi = dyson_schwinger()
    for k, inner in enumerate(phi.take(max_order + 1)):
        for a, c in enumerate(inner.coefficients(k + 4)):
            if (a + k) % 2 == 0 and c != 0:
                return False
    return True
