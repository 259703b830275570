"""Named showcase sequences and series, also exposed through the CLI.

The partition generating function is the interesting one: the infinite
product ``prod 1/(1 - x^n)`` becomes an open family of co-recursive
series ``B_m`` with

    B_m(x) = 1 + x * (B_{m+1}(x) + x^(m-1) * B_m(x))

and the generating function is ``1 + x * B_1(x)``. Every family member is
a fresh stream created on demand, so forcing N coefficients materializes
O(N) member series and keeps the N^2/4 sum nodes that the open recurrence
reads (inherent to it, not a leak); a shift builds only the zeros read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .cells import LazyPair
from .series import Series
from .stream import Stream, cons

__all__ = [
    "ones",
    "integers",
    "fibonacci",
    "partitions",
    "bessel_series",
    "CatalogEntry",
    "CATALOG",
]


def ones() -> Stream:
    """1, 1, 1, ..."""
    s = cons(1, lambda: s)
    return s


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
        lambda: _integral_body(w.scale(-quarter) - w.diff().diff().shift(2)),
    )
    return w


def _integral_body(u: Series) -> Series:
    # Tail of integral(u, c): coefficient k is u_k / (k + 1).
    return u.integral(0).tail


def _exp_demo() -> Series:
    return Series.from_list([0, 1]).exp()


def _revert_demo() -> Series:
    return Series.from_list([0, 1, 1]).revert()


class CatalogEntry(NamedTuple):
    name: str
    domain: str  # "exact" or "float"
    producer: Callable[[], LazyPair]


CATALOG = {
    entry.name: entry
    for entry in [
        CatalogEntry("integs", "exact", integers),
        CatalogEntry("fibs", "exact", fibonacci),
        CatalogEntry("partitions", "exact", partitions),
        CatalogEntry("bessel", "exact", bessel_series),
        CatalogEntry("exp-demo", "exact", _exp_demo),
        CatalogEntry("revser-demo", "exact", _revert_demo),
    ]
}
