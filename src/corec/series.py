"""Formal power series over an arbitrary coefficient domain.

A :class:`Series` is the lazy sequence of coefficients ``[u0, u1, u2, ...]``
of ``sum_k u_k x^k``; the variable is never evaluated and convergence never
enters. Coefficients may be exact (``int``/``Fraction``), floats, derivative
towers, or again series (series-of-series are how bivariate expansions are
represented here).

:data:`ZERO` is the compact all-zero series. It is purely constructional:
operations short-circuit on it when they can, but no attempt is made to
detect that an arbitrary lazy tail happens to be all zeros (that question
is undecidable). Its elements read as plain ``0``, which participates in
every supported coefficient domain.

Multiplication is the Cauchy product: coefficient n of ``u * v`` is
``sum_k u_k v_(n-k)``, computed from the memoized prefixes of the operands
and summed from the highest k down. Division solves the same sum for its
own coefficient, ``q_n = (u_n - sum_(j<n) q_j v_(n-j)) / v_0``, which needs
an invertible leading coefficient and never cancels powers of x. Either
way n coefficients cost O(n^2) coefficient operations, and exact terms are
put over one common denominator and reduced once per coefficient
(:func:`corec.coeffs.dot`). Coefficient n reads no operand coefficient
beyond n. A product of two polynomials ends in :data:`ZERO` past the sum
of their degrees, and a polynomial divided by a constant ends where the
polynomial does; to see where an operand ends, the result walks the
operand's tails, never reading a coefficient for it, so the end is found
even when only the result's tails are walked. The elementary functions
are defined by their integral equations, e.g. ``W = exp U`` satisfies
``W = exp(u0) + integral(W * U')``. Equality of series is deliberately not
an operation; tests and callers compare finite coefficient windows.

The elementary functions live on :class:`Analytic`, the base class that
series share with derivative towers (:class:`corec.dif.Dif`): both are
differential algebras, so one definition of each function serves both.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import add, mul, neg, sub
from typing import Callable

from .cells import LazyPair
from .coeffs import (
    divide,
    dot,
    scalar_asin,
    scalar_atan,
    scalar_cos,
    scalar_exp,
    scalar_log,
    scalar_pow,
    scalar_recip,
    scalar_sin,
    scalar_sqrt,
)

__all__ = ["Analytic", "Series", "ZERO", "sint", "transpose"]

_HALF = Fraction(1, 2)


def _invertible(c):
    # Derivative towers are invertible iff their value is; plain
    # coefficients iff they are nonzero.
    lead = getattr(c, "value", c)
    return not (lead == 0)


class Analytic(LazyPair):
    """The elementary functions of a differential algebra, defined once.

    Each function of ``a`` is the w whose value is the scalar function of
    the value of ``a`` and whose derivative is an expression in a' and w;
    ``exp a`` is the w with w' = a' * w. A subclass supplies its derivation
    ``_derivation()``, ``_solve(value, derivative)`` that builds w from its
    value and a thunk for w', and its compact constants (``_compact`` and
    ``_constant(value)``), on which only the value is mapped.
    """

    __slots__ = ()

    _compact = False

    def _define(self, value, derivative):
        # The w with this value and w' = derivative(a', w).
        if self._compact:
            return self._constant(value)
        a = self
        w = a._solve(value, lambda: derivative(a._derivation(), w))
        return w

    def _nonzero(self, name):
        if not _invertible(self.head):
            raise ValueError("%s: the value must be nonzero" % name)

    def exp(self):
        return self._define(scalar_exp(self.head), lambda da, w: da * w)

    def log(self):
        return self._define(scalar_log(self.head), lambda da, w: da / self)

    def sqrt(self):
        self._nonzero("sqrt")
        return self._define(scalar_sqrt(self.head),
                            lambda da, w: (da / w) * _HALF)

    def pow(self, e):
        """self ** e for a scalar exponent ``e``."""
        self._nonzero("pow")
        return self._define(scalar_pow(self.head, e),
                            lambda da, w: (da * w / self) * e)

    def atan(self):
        return self._define(scalar_atan(self.head),
                            lambda da, w: da / (self * self + 1))

    def asin(self):
        return self._define(scalar_asin(self.head),
                            lambda da, w: da / (1 - self * self).sqrt())

    def recip(self):
        """Multiplicative inverse; the value must be invertible."""
        return self._define(scalar_recip(self.head),
                            lambda da, w: -(da * (w * w)))

    def sin(self):
        return _sin_cos(self)[0]

    def cos(self):
        return _sin_cos(self)[1]


def _sin_cos(a):
    # The coupled pair s' = a' c, c' = -a' s, built once so that each
    # product shares the prefix of the other function.
    s = a._define(scalar_sin(a.head), lambda da, w: da * c)
    c = a._define(scalar_cos(a.head), lambda da, w: -(da * s))
    return s, c


class Series(Analytic):
    """Coefficient stream of a formal power series."""

    __slots__ = ()

    @classmethod
    def _constant(cls, value):
        return Series.cons(value, ZERO)

    @classmethod
    def _solve(cls, value, derivative):
        # W = value + integral(W')
        return Series.cons(value, lambda: _integral_tail(derivative(), 1))

    # -- construction ------------------------------------------------

    @classmethod
    def from_list(cls, values) -> "Series":
        """Polynomial with the given coefficients, then the compact zero tail."""
        node = ZERO
        for v in reversed(values):
            node = cls.cons(v, node)
        return node

    @classmethod
    def monomial(cls, m: int) -> "Series":
        """x**m: coefficient m is 1, every other coefficient 0."""
        if m < 0:
            raise ValueError("monomial: power must be >= 0")
        return cls.from_list([0] * m + [1])

    # -- reading -----------------------------------------------------

    def coefficients(self, n: int) -> list:
        """The first ``n`` coefficients as a list."""
        return self.take(n)

    # -- pointwise structure -----------------------------------------

    def map(self, f: Callable) -> "Series":
        """Apply ``f`` to every coefficient; the compact zero tail is preserved
        without applying ``f`` (so ``f`` is assumed to fix zero)."""
        return _map(f, self)

    def scale(self, c) -> "Series":
        """Multiply every coefficient by ``c``.

        ``c`` lives in the coefficient domain; for series-of-series this is
        how an inner-series scalar multiplies an outer series (the ``*``
        operator would mean the outer Cauchy product instead).
        """
        return _map(partial(mul, c), self)

    def shift(self, m: int) -> "Series":
        """Multiply by x**m: ``m`` zeros, each built when read, then self."""
        if m < 0:
            raise ValueError("shift: m must be >= 0")
        return ZERO if self is ZERO else Series.delayed(m, self, 0)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, Series):
            return _zip(add, self, other)
        # scalar: adds to the constant term
        if self is ZERO:
            return Series.cons(other, ZERO)
        u = self
        return Series(lambda: u.head + other, lambda: u.tail)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            return _zip(sub, self, other)
        u = self
        if u is ZERO:
            return Series.cons(-other, ZERO)
        return Series(lambda: u.head - other, lambda: u.tail)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _map(neg, self)

    def __mul__(self, other):
        if isinstance(other, Series):
            if self is ZERO or other is ZERO:
                return ZERO
            pu = _Prefix(self)
            pv = pu if other is self else _Prefix(other)

            def element(n):
                # sum_k u_k v_(n-k) over the k where both operands have a
                # node, from the highest k down
                x, y = pu.upto(n), pv.upto(n)
                lo, hi = max(0, n + 1 - len(y)), min(n, len(x) - 1)
                return dot(x[lo:hi + 1][::-1], y[n - hi:n - lo + 1])

            def done(n):
                # u*v ends after n once len(u) + len(v) <= n + 2
                lu = pu.length(n + 1)
                return lu is not None and pv.length(n + 2 - lu) is not None

            return _chain(Series, element, done)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, other):
        if isinstance(other, Series):
            v = other
            if v is ZERO:
                raise ZeroDivisionError("series division by the zero series")
            if not _invertible(v.head):
                raise ZeroDivisionError(
                    "series division needs an invertible leading coefficient"
                )
            if self is ZERO:
                return ZERO
            pu, pv = _Prefix(self), _Prefix(v)

            def element(n):
                # v_0 q_n = u_n - sum_j q_j v_(n-j), subtracted in ascending j
                x, y, q = pu.upto(n), pv.upto(n), pq.upto(n - 1)
                lo = max(0, n + 1 - len(y))
                u_n = x[n] if n < len(x) else None
                return divide(dot(q[lo:n], y[n - lo:0:-1], start=u_n,
                                  subtract=True), y[0])

            def done(n):
                # Divided by a constant, a polynomial stays one.
                return pv.length(1) == 1 and pu.length(n + 1) is not None

            w = _chain(Series, element, done)
            pq = _Prefix(w)
            return w
        c = Fraction(other) if isinstance(other, int) else other
        return self.map(lambda x: x / c)

    def __rtruediv__(self, other):
        return Series.cons(other, ZERO) / self

    def __pow__(self, a):
        if isinstance(a, int) and a >= 0:
            # Repeated multiplication: total, and exact for any head.
            result = Series.cons(1, ZERO)
            base, k = self, a
            while k:
                if k & 1:
                    result = result * base
                k >>= 1
                if k:
                    base = base * base
            return result
        return self.pow(a)

    # -- calculus ------------------------------------------------------

    def diff(self) -> "Series":
        """Coefficient k of the result is (k+1) * u_{k+1}."""
        u = self
        if u is ZERO:
            return ZERO
        return Series.defer(lambda: _diff_node(u.tail))

    _derivation = diff

    def integral(self, constant=0) -> "Series":
        """Antiderivative with the given constant term."""
        if self is ZERO:
            if isinstance(constant, (int, float, Fraction)) and constant == 0:
                return ZERO
            return Series.cons(constant, ZERO)
        u = self
        return Series.cons(constant, lambda: _integral_tail(u, 1))

    # -- composition ----------------------------------------------------

    def compose(self, v: "Series") -> "Series":
        """U(V(x)) for V with zero constant term, as a nested Horner scheme."""
        if not isinstance(v, Series):
            raise TypeError("compose expects a Series argument")
        if v is ZERO:
            vbar = ZERO
        else:
            if v.head != 0:
                raise ValueError(
                    "compose: inner series must have a zero constant term"
                )
            vbar = v.tail

        def horner(node):
            if node is ZERO:
                return ZERO
            return Series(lambda: node.head,
                          lambda: vbar * horner(node.tail))

        return horner(self)

    def revert(self) -> "Series":
        """The series T with V(T(z)) = z, for V = z + v2 z^2 + ...

        Requires a zero constant term and a unit linear coefficient. The
        naive fixed point t = z - v2 t^2 - ... is not productive; writing
        t = z*p makes it one.
        """
        v = self
        if v is ZERO or v.head != 0:
            raise ValueError("revert: constant term must be 0")
        if v.tail.head != 1:
            raise ValueError("revert: linear coefficient must be 1")
        vb = v.tail.tail
        t = Series.cons(0, lambda: p)
        p = Series.cons(1, lambda: -(p * p * vb.compose(t)))
        return t


class _ZeroSeries(Series):
    __slots__ = ()

    _compact = True

    def __repr__(self):
        return "<Series 0>"


#: The compact all-zero series; its tail is itself.
ZERO = _ZeroSeries.cons(0, None)
ZERO._t = ZERO


def sint(constant, u: Series) -> Series:
    """Antiderivative of ``u`` with constant term ``constant``."""
    return u.integral(constant)


def transpose(m: Series) -> Series:
    """Swap the two index levels of a series of series.

    Coefficient (i, j) of the result is coefficient (j, i) of the input;
    both directions stay lazy. Plain scalar entries produced by a compact
    zero tail are treated as zero series.
    """
    if m is ZERO:
        return ZERO
    return Series(lambda: m.map(_coeff_head),
                  lambda: transpose(m.map(_coeff_tail)))


def _coeff_head(c):
    return c.head if isinstance(c, Series) else c


def _coeff_tail(c):
    return c.tail if isinstance(c, Series) else ZERO


# -- prefix kernels shared with derivative towers -------------------------

class _Prefix:
    """The elements of a series or tower read so far, each forced once.

    It also learns where the operand reaches the compact :data:`ZERO`,
    from the operand's tails; derivative towers never reach it.
    """

    __slots__ = ("_node", "_values", "_end", "_far", "_reach")

    def __init__(self, node):
        self._node = node    # the node of the last element read, or the first
        self._values = []
        self._end = None
        self._far = node     # the furthest node reached, at position _reach
        self._reach = 0

    def upto(self, n):
        """The list of elements 0..n: shorter if the operand ends first,
        longer if more were read before."""
        values, node = self._values, self._node
        while len(values) <= n and len(values) != self._end:
            if values:
                node = node.tail
                if node is ZERO:
                    self._end = len(values)
                    break
            values.append(node.head)
            self._node = node
        if len(values) > self._reach + 1:
            self._far, self._reach = self._node, len(values) - 1
        return values

    def length(self, limit):
        """The number of nodes before ZERO if it is at most ``limit``, else
        None. This forces tails up to the node at position ``limit``, never
        an element."""
        node, k = self._far, self._reach
        while self._end is None and k < limit:
            node = node.tail
            k += 1
            if node is ZERO:
                self._end = k
            else:
                self._far, self._reach = node, k
        end = self._end
        return end if end is not None and end <= limit else None


def _chain(cls, element, done=None, n=0):
    # The cls node whose element n is element(n): one memoized node per
    # index, each tail the next node of the same chain, or ZERO once
    # done(n) says that every element after n is zero.
    def rest():
        if done is not None and done(n):
            return ZERO
        return _chain(cls, element, done, n + 1)

    return cls(lambda: element(n), rest)


# -- lazy helpers (forcing only happens inside thunks) -------------------

def _map(f, u):
    # f is assumed to fix zero, so the compact zero tail maps to itself.
    if u is ZERO:
        return ZERO
    return Series.pointwise(_map, (f, u, None))


def _zip(op, u, v):
    # u + v or u - v, with the short-cuts of ZERO on either side.
    if v is ZERO:
        return u
    if u is ZERO:
        return v if op is add else -v
    return Series.pointwise(_zip, (op, u, v))


def _diff_node(t):
    if t is ZERO:
        return ZERO
    return _diff_scaled(t, 1)


def _diff_scaled(t, k):
    return Series(lambda: t.head * k, lambda: _diff_scaled_rest(t, k))


def _diff_scaled_rest(t, k):
    tt = t.tail
    return ZERO if tt is ZERO else _diff_scaled(tt, k + 1)


def _integral_tail(u, k):
    if u is ZERO:
        return ZERO
    return Series(lambda: divide(u.head, k),
                  lambda: _integral_rest(u, k))


def _integral_rest(u, k):
    return _integral_tail(u.tail, k + 1)
