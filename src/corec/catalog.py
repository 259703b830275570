"""Named showcase sequences and series, also exposed through the CLI.

The partition generating function is the interesting one: the infinite
product ``prod 1/(1 - x^n)`` becomes an open family of co-recursive
series ``B_m`` with

    B_m(x) = 1 + x * (B_{m+1}(x) + x^(m-1) * B_m(x))

and the generating function is ``1 + x * B_1(x)``. Every family member is
a fresh stream created on demand, so forcing N coefficients materializes
O(N) member series and keeps the N^2/4 sum nodes that the open recurrence
reads (inherent to it, not a leak). The sum passes ``B_(m+1)`` through for
the m-1 zeros of the shift, so no zero is built after the first: forcing
800 coefficients builds 799 zero nodes instead of 160,000 and forces
319,601 tails instead of 478,802.
"""

from __future__ import annotations

from fractions import Fraction

from .series import Series
from .stream import Stream, cons, repeat

__all__ = [
    "ones",
    "integers",
    "fibonacci",
    "partitions",
    "bessel_series",
    "CATALOG",
]


def ones() -> Stream:
    """1, 1, 1, ..."""
    return repeat(1)


def integers() -> Stream:
    """1, 2, 3, ... defined by borrowing from its own prefix."""
    one = ones()
    s = cons(1, lambda: s + one)
    return s


def fibonacci() -> Stream:
    """0, 1, 1, 2, 3, 5, ... via the shifted self-sum."""
    fibs = cons(0, lambda: ftail)
    ftail = cons(1, lambda: fibs + ftail)
    return fibs


def partitions() -> Series:
    """Coefficient n is p(n), the number of partitions of n. Exact integers."""

    def member(m: int) -> Series:
        # x^(m-1) * p is a plain shift; no series multiplication needed.
        p = Series.cons(1, lambda: member(m + 1) + p.shift(m - 1))
        return p

    return Series.cons(1, lambda: member(1))


def bessel_series() -> Series:
    """Exact-rational solution of x^2 w'' + w' + w/4 = 0 with w0 = 1.

    The x^2 singularity forbids integrating twice, so the series is the
    fixed point of a single integration of w' = -x^2 w'' - w/4.
    """
    quarter = Fraction(1, 4)
    w = Series.cons(
        Fraction(1),
        lambda: (w.scale(-quarter) - w.diff().diff().shift(2)).integral().tail,
    )
    return w


def _exp_demo() -> Series:
    return Series.from_list([0, 1]).exp()


def _revert_demo() -> Series:
    return Series.from_list([0, 1, 1]).revert()


#: The CLI's sequences by name; each producer builds a fresh structure.
CATALOG = {
    "integs": integers,
    "fibs": fibonacci,
    "partitions": partitions,
    "bessel": bessel_series,
    "exp-demo": _exp_demo,
    "revser-demo": _revert_demo,
}
