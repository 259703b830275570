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
and summed from the highest k down. A square ``u * u`` whose values are
exact, or are series, sums each pair once: ``s + s``, s over k > n - k,
plus ``u_(n/2)^2`` for an even n. Floats, towers and mixed values keep the
general fold: doubling a rounded half-sum doubles its error, where the
fold rounds the two halves apart. Division solves the same sum for its
own coefficient, ``q_n = (u_n - sum_(j<n) q_j v_(n-j)) / v_0``, which needs
an invertible leading coefficient and never cancels powers of x. Either is
a pointwise node that maps its element function over the series of indices
0, 1, 2, ..., much as an integral maps ``u_(k-1) / k`` and a derivative
``u_(k+1) * (k+1)`` over a series and the indices from 1. All of these go
through one map rule, ``_map``, of one operand or two; with ``_zip``
(sums) and ``_passing`` (a sum with a shift) it is one of the three tail
rules of a series. Either way n coefficients cost O(n^2) coefficient
operations, and exact terms are put over one common denominator and
reduced once per coefficient (:func:`corec.coeffs.dot`). Coefficient n
reads no operand coefficient beyond n. A product of two polynomials ends
in :data:`ZERO` past the sum of their degrees, and a polynomial divided by
a constant ends where the polynomial does; to see where an operand ends,
the result walks the operand's tails, never reading a coefficient for it,
so the end is found even when only the result's tails are walked. The
index series asks this in the thunk of its own tail, so only reading the
result's tail walks the operands. The elementary functions are defined by
their integral equations, e.g. ``W = exp U`` satisfies ``W = exp(u0) +
integral(W * U')``. Equality of series is deliberately not an operation;
tests and callers compare finite coefficient windows.

The elementary functions live on :class:`Analytic`, the base class that
series share with derivative towers (:class:`corec.dif.Dif`): both are
differential algebras, so one definition of each function serves both.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import add, mul, neg, sub
from typing import Callable

from .cells import LazyPair, _head, _Prefix, _tail, delayed_run, pointwise
from .coeffs import (
    _EXACT_TYPES,
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


def _invertible(c):
    # Derivative towers are invertible iff their value is; plain
    # coefficients iff they are nonzero.
    lead = getattr(c, "value", c)
    return not (lead == 0)


def _power(u, a, one):
    # u ** a for a series or tower u. An int a >= 0 is repeated squaring
    # from the unit ``one``: total, and exact for any value, 0 included.
    # Other powers are u.pow(a).
    if not (isinstance(a, int) and a >= 0):
        return u.pow(a)
    result, base = one, u
    while a:
        if a & 1:
            result = result * base
        a >>= 1
        if a:
            base = base * base
    return result


class Analytic(LazyPair):
    """The elementary functions of a differential algebra, defined once.

    Each function of ``a`` is the w whose value is the scalar function of
    the value of ``a`` and whose derivative is an expression in a' and w;
    ``exp a`` is the w with w' = a' * w. A subclass supplies its derivation
    ``_derivation()`` and ``_solve(value, derivative)``, which builds w
    from its value and a thunk for w'. A compact constant (``ZERO``, a
    tower constant) overrides ``_define`` to map only the value.
    """

    __slots__ = ()

    def _define(self, value, derivative):
        # The w with this value and w' = derivative(a', w).
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
        # w' = a'/(2w), with 2w as w + w: doubling is exact in every domain.
        return self._define(scalar_sqrt(self.head), lambda da, w: da / (w + w))

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
    def _solve(cls, value, derivative):
        # W = value + integral(W')
        return Series.cons(value, lambda: _tail(derivative().integral()))

    # -- construction ------------------------------------------------

    @classmethod
    def from_list(cls, values) -> "Series":
        """Polynomial with the given coefficients, then the compact zero tail."""
        return cls.cons_all(values, ZERO)

    @classmethod
    def monomial(cls, m: int) -> "Series":
        """x**m: coefficient m is 1, every other coefficient 0."""
        if m < 0:
            raise ValueError("monomial: power must be >= 0")
        return cls.cons(1, ZERO).shift(m)

    # -- reading -----------------------------------------------------

    # The first n coefficients as a list: take itself, so that no frame
    # between the caller and the walker keeps the first node.
    coefficients = Analytic.take

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
        if not isinstance(other, Series):
            # scalar: adds to the constant term
            other = Series.cons(other, ZERO)
        return _sum(add, self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Series):
            if self is ZERO:
                return Series.cons(-other, ZERO)
            other = Series.cons(other, ZERO)
        return _sum(sub, self, other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _map(neg, self)

    def __mul__(self, other):
        if isinstance(other, Series):
            if self is ZERO or other is ZERO:
                return ZERO
            pu = _Prefix(self, ZERO)
            pv = pu if other is self else _Prefix(other, ZERO)

            def element(n):
                # sum_k u_k v_(n-k) over the k where both operands have a
                # node, from the highest k down
                x, y = pu.upto(n), pv.upto(n)
                lo, hi = max(0, n + 1 - len(y)), min(n, len(x) - 1)
                return dot(x[lo:hi + 1][::-1], y[n - hi:n - lo + 1])

            def square(n):
                # Over exact values or series, each pair k > n - k once:
                # s + s, plus u_(n/2)^2 for an even n. Other values take the
                # fold of element, which rounds the two halves apart.
                x = pu.upto(n)
                hi = min(n, len(x) - 1)
                lo, half = n - hi, n // 2
                values = x[lo:hi + 1]
                kinds = set(map(type, values))
                if not (kinds <= _EXACT_TYPES
                        or all(issubclass(k, Series) for k in kinds)):
                    return dot(values[::-1], values)
                total = None
                if hi > half:
                    s = dot(x[hi:half:-1], x[lo:n - half])
                    total = s + s
                if not n & 1:
                    middle = x[half] * x[half]
                    total = middle if total is None else total + middle
                return total

            def done(n):
                # u*v ends after n once len(u) + len(v) <= n + 2
                lu = pu.length(n + 1)
                return lu is not None and pv.length(n + 2 - lu) is not None

            return _map(square if pv is pu else element, _indices(0, done))
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
            pu, pv = _Prefix(self, ZERO), _Prefix(v, ZERO)

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

            w = _map(element, _indices(0, done))
            pq = _Prefix(w, ZERO)
            return w
        if not _invertible(other):
            raise ZeroDivisionError("series division by zero")
        return _map(lambda x: divide(x, other), self)

    def __rtruediv__(self, other):
        return Series.cons(other, ZERO) / self

    def __pow__(self, a):
        return _power(self, a, Series.cons(1, ZERO))

    # -- calculus ------------------------------------------------------

    def diff(self) -> "Series":
        """Coefficient k of the result is (k+1) * u_{k+1}."""
        u = self
        if u is ZERO:
            return ZERO
        return Series.defer(lambda: _map(mul, _tail(u), _indices(1)))

    _derivation = diff

    def integral(self, constant=0) -> "Series":
        """Antiderivative with the given constant term."""
        if self is ZERO:
            if isinstance(constant, (int, float, Fraction)) and constant == 0:
                return ZERO
            return Series.cons(constant, ZERO)
        return Series.cons(constant, _map(divide, self, _indices(1)))

    # -- composition ----------------------------------------------------

    def compose(self, v: "Series") -> "Series":
        """U(V(x)) for V with zero constant term, as a nested Horner scheme."""
        if not isinstance(v, Series):
            raise TypeError("compose expects a Series argument")
        if v.head != 0:
            raise ValueError(
                "compose: inner series must have a zero constant term"
            )
        vbar = v.tail

        def horner(node):
            if node is ZERO:
                return ZERO
            return Series(lambda: _head(node),
                          lambda: vbar * horner(_tail(node)))

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

    def _define(self, value, derivative):
        # A function of a constant is a constant.
        return Series.cons(value, ZERO)

    def __repr__(self):
        return "<Series 0>"


#: The compact all-zero series; its tail is itself.
ZERO = _ZeroSeries.fixed(0)


def sint(constant, u: Series) -> Series:
    """Antiderivative of ``u`` with constant term ``constant``."""
    return u.integral(constant)


def transpose(m: Series) -> Series:
    """Swap the two index levels of a series of series or of towers.

    Coefficient (i, j) of the result is coefficient (j, i) of the input;
    both directions stay lazy. Each coefficient keeps the list of the tail
    nodes that reads of its entries have reached, and a read extends that
    list in a loop: rows read in turn cost one tail step an entry, and
    reading any row nests no deeper than reading row 0. A plain scalar
    coefficient, such as the 0 that a compact zero tail produces, is
    treated as a constant series.
    """
    if m is ZERO:
        return ZERO
    return _map(_rows(m), _indices(0))


# A coefficient of a series of series or of towers is such a node, or a
# plain scalar, such as the 0 read from a ZERO tail, which is read as the
# constant series of that scalar: row 0 is the scalar, every later row the
# int 0.

def _rows(m):
    # The row reader of a series of series or of towers m: row i is entry i
    # of each coefficient, ending where m ends. Its rows share one walk a
    # coefficient: the list of it and of the tails read from it so far.
    walks = m.map(lambda c: [c if isinstance(c, Analytic)
                             else Series.cons(c, ZERO)])
    return lambda i: walks.map(partial(_entry, i))


def _entry(i, walk):
    # Entry i of the coefficient that starts the walk. The walk is extended
    # in a loop from the deepest node an earlier read reached, so the depth
    # of a read does not grow with i; it stops at ZERO, whose head is 0.
    while len(walk) <= i and walk[-1] is not ZERO:
        walk.append(_tail(walk[-1]))
    return _head(walk[min(i, len(walk) - 1)])


def _coeff_derivation(c):
    return c._derivation() if isinstance(c, Analytic) else 0


# -- the index series, shared with derivative towers -----------------------

def _indices(n, done=None, cls=Series):
    # The cls nodes n, n + 1, ...; each tail builds the next node when read.
    # A map of class cls over them has its successors built by the forcing
    # machine, without a call to its rule. With done, they end in ZERO
    # after the first m for which done(m) is true.
    def rest(n=n, done=done, cls=cls):
        # done walks operand tails. Asked here, when a result's tail is
        # forced, it ends the indices, so the result's rule runs only at its
        # end and every other successor is built without a call. The
        # arguments are defaults, not free variables: locals are cheaper.
        if done is not None and done(n):
            return ZERO
        return _indices(n + 1, done, cls)

    return cls.cons(n, rest)


# -- lazy helpers (forcing only happens inside thunks) -------------------
#
# _map (of one operand or two), _zip and _passing are also tail rules. The
# forcing machine calls one as rule(op, a, b), with b None for a unary node,
# only at .tail, and only where an operand tail is ZERO or not a Series
# node; given Series tails, a rule must return pointwise(Series, rule, op,
# a, b), the node that the machine builds in its place.

def _map(f, u, v=None):
    # Element k is f(u_k), or f(u_k, v_k) with v, and the result ends where
    # u does: f is assumed to fix zero, so the compact zero tail of u maps
    # to itself.
    if u is ZERO:
        return ZERO
    return pointwise(Series, _map, f, u, v)


def _sum(op, u, v):
    # u + v or u - v as written. When v is k zeros of a shift, none built
    # yet, and then p, u passes through: k nodes op(u_j, 0) over ZERO, then
    # u_k with p. Only here is v checked for a shift; a run met further on
    # is summed node by node.
    run = None if u is ZERO or v is ZERO else delayed_run(v, 0)
    if run is None:
        return _zip(op, u, v)
    return pointwise(Series, partial(_passing, *run), op, u, ZERO)


def _zip(op, u, v):
    # The tail rule of a sum, with the short-cuts of ZERO on either side.
    if v is ZERO:
        return u
    if u is ZERO:
        return v if op is add else -v
    return pointwise(Series, _zip, op, u, v)


def _passing(k, p, op, u, zero):
    # The tail rule of a pass-through node with k zeros left, this one's too.
    # Its right operand is ZERO, so the machine calls it at every node; it
    # returns the next pass-through node, with k - 1 zeros left.
    if k == 1:
        return _zip(op, u, p)
    if u is ZERO:
        return _zip(op, u, Series.delayed(k - 1, p, 0))
    return pointwise(Series, partial(_passing, k - 1, p), op, u, ZERO)
