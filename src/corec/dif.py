"""Derivative towers: values carrying all their derivatives.

A :class:`Dif` is the lazy chain ``[e, e', e'', ...]`` of an expression and
its derivatives with respect to one implicit variable, evaluated at a
point. The chain forms a differential algebra: the derivation (``deriv``)
is linear and obeys the Leibniz rule, and the arithmetic below realizes
both co-recursively, so the derivatives compute themselves as the
expression is manipulated. No expression tree is kept.

Element k is the k-th derivative itself, not the Taylor coefficient
e^(k)/k!, which would underflow a float past k = 170. The linear
operations work elementwise. A product computes its element n from the
memoized prefixes of its operands by the Leibniz sum
``sum_k comb(n, k) a_k b_(n-k)``, and a quotient solves that sum for its
own element n; either is a pointwise node that maps that element function
over the indices 0, 1, 2, ..., themselves Dif nodes, so that the forcing
machine builds each successor without calling its rule.
The elementary functions (exp, log, sqrt, pow, sin, cos, atan, asin,
recip) are inherited from :class:`corec.series.Analytic`, which defines
each once for series and towers as a co-recursion over products and
quotients, so n elements of any tower cost O(n^2) operations. In float
towers the weights comb(n, k) leave the float range near n = 1030, where a
product raises ``OverflowError``. Exact towers stay exact, square roots
included, and sqrt and pow need a nonzero value; an int ``**`` is
repeated products, as for a series, and allows a zero value.

Constants get the compact :meth:`Dif.const` form (a value followed by
zeros); the differentiation variable at a point x0 is ``Dif.var(x0)``,
the chain ``[x0, 1, 0, 0, ...]``. Plain numbers lift to constants
automatically in mixed arithmetic.

When numerator and denominator both have value 0, division returns the
tower of the extended quotient: near the point a = x*A, where element k
of A is element k+1 of a divided by k+1, likewise b = x*B, and a/b = A/B,
lowered again while both values stay 0. Towers that both vanish to order
1000 raise ``ZeroDivisionError`` as an indeterminate 0/0.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import add, mul, neg, sub

from .cells import _head, _tail, pointwise
from .coeffs import divide, dot, scalar_cos, scalar_exp, scalar_recip, scalar_sin
from .series import Analytic, Series, ZERO as SERIES_ZERO, _indices, _power, _Prefix

__all__ = ["Dif", "ZERO_TOWER", "damped_sine", "lambert_w_tower", "taylor_from_tower"]


#: Orders of vanishing tried before a 0/0 of two towers is given up.
_MAX_LOWERINGS = 1000


class Dif(Analytic):
    """A value and, lazily, all of its derivatives."""

    __slots__ = ()

    @classmethod
    def _solve(cls, value, derivative):
        return Dif.cons(value, derivative)

    @classmethod
    def const(cls, value) -> "Dif":
        """Compact constant: ``value`` followed by zero derivatives."""
        return _Const.cons(value, _zero_tower)

    @classmethod
    def var(cls, x0) -> "Dif":
        """The differentiation variable with value ``x0``: [x0, 1, 0, 0, ...]."""
        return cls.cons(x0, Dif.const(1))

    # -- reading -------------------------------------------------------

    @property
    def value(self):
        return _head(self)

    def deriv(self) -> "Dif":
        """The derivative tower: element k of the result is element k+1 here."""
        return _tail(self)

    _derivation = deriv

    # The first n elements as a list: take itself, as Series.coefficients.
    elements = Analytic.take

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return _combine(add, self, _lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _combine(sub, self, _lift(other))

    def __rsub__(self, other):
        return _combine(sub, _lift(other), self)

    def __neg__(self):
        return _map(neg, self)

    def scale(self, c) -> "Dif":
        """Multiply the whole tower by the scalar ``c``."""
        return _map(partial(mul, c), self)

    def __mul__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if isinstance(a, _Const):
            return b.scale(a.value)
        if isinstance(b, _Const):
            return a.scale(b.value)
        pa = _Prefix(a)
        pb = pa if b is a else _Prefix(b)

        def element(n):
            # sum_k comb(n, k) a_k b_(n-k), from k = 0 up
            return dot(pa.upto(n)[:n + 1], pb.upto(n)[n::-1],
                       weights=_binomials(n), start=0)

        return _map(element, _indices(0, cls=Dif))

    __rmul__ = __mul__

    def sqr(self) -> "Dif":
        """self * self."""
        return self * self

    def __truediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if isinstance(b, _Const):
            if b.value == 0:
                if isinstance(a, _Const) and a.value == 0:
                    return ZERO_TOWER
                raise ZeroDivisionError("division by a zero tower")
            return a.scale(scalar_recip(b.value))
        if b.value == 0:
            if a.value == 0:
                return _extended_quotient(a, b)
            raise ZeroDivisionError(
                "pole: division by a tower with zero value"
            )
        pa, pb = _Prefix(a), _Prefix(b)

        def element(n):
            # b_0 q_n = a_n - sum_{k>=1} comb(n, k) b_k q_(n-k)
            y = pb.upto(n)
            rest = dot(y[1:n + 1], pq.upto(n - 1)[:n][::-1],
                       weights=_binomials(n)[1:], start=0)
            return divide(pa.upto(n)[n] - rest, y[0])

        w = _map(element, _indices(0, cls=Dif))
        pq = _Prefix(w)
        return w

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, a):
        return _power(self, a, Dif.const(1))


class _Const(Dif):
    """Value followed by zeros, kept compact."""

    __slots__ = ()

    def _define(self, value, derivative):
        # A function of a constant is a constant.
        return Dif.const(value)


#: The all-zero tower (the compact constant 0); its tail is itself.
ZERO_TOWER = _Const.cons(0, None)
ZERO_TOWER._t = ZERO_TOWER


def _zero_tower():
    # The tail of every other constant: ZERO_TOWER, shared and read lazily.
    return ZERO_TOWER


_NUMBER_TYPES = (int, float, complex)


# _map and _zip are also tail rules. The forcing machine calls one as
# rule(op, a, b), with b None for a unary node, only at .tail, and only
# where an operand tail is a compact constant or not a Dif node; given Dif
# tails, a rule must return pointwise(Dif, rule, op, a, b), the node that
# the machine builds in its place.

def _map(op, a, b=None):
    # Elementwise op; it maps a compact constant to a compact constant. b is
    # the None that the machine passes to the rule of a unary node.
    if isinstance(a, _Const):
        return Dif.const(op(a.value))
    return pointwise(Dif, _map, op, a)


def _combine(op, a, b):
    # a + b or a - b, elementwise; two compact constants stay compact. An
    # operand that _lift refused is NotImplemented, and so is the sum.
    if a is NotImplemented or b is NotImplemented:
        return NotImplemented
    if isinstance(a, _Const) and isinstance(b, _Const):
        return Dif.const(op(a.value, b.value))
    return pointwise(Dif, _zip, op, a, b)


def _zip(op, a, b):
    # The tail rule of a + b and a - b: a constant operand contributes
    # ZERO_TOWER from its first tail on, which leaves the other operand.
    if a is ZERO_TOWER:
        return b if op is add else -b
    if b is ZERO_TOWER:
        return a
    return _combine(op, a, b)


def _lift(x):
    if isinstance(x, Dif):
        return x
    if isinstance(x, _NUMBER_TYPES) or hasattr(x, "numerator"):
        return Dif.const(x)
    return NotImplemented


@lru_cache(maxsize=16)
def _binomials(n):
    # Row n of Pascal's triangle. Forcing in order asks for the same few
    # rows many times, and math.comb is slow for large n.
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return tuple(row)


def _extended_quotient(a, b):
    # a / b where both values are 0: with k the first order at which a or b
    # is nonzero, a = x^k A and b = x^k B near the point, and a/b = A/B.
    pa, pb = _Prefix(a), _Prefix(b)
    for k in range(1, _MAX_LOWERINGS + 1):
        if pa.upto(k)[k] != 0 or pb.upto(k)[k] != 0:
            return _lowered(a, pa, k) / _lowered(b, pb, k)
    raise ZeroDivisionError(
        "indeterminate 0/0: both towers vanish to order %d" % _MAX_LOWERINGS
    )


def _lowered(a, pa, k):
    # A with a = x^k A near the point: element i is a_(i+k) i! / (i+k)!,
    # divided one factor at a time as k single lowerings would.
    if isinstance(a, _Const):
        return ZERO_TOWER

    def element(i):
        v = pa.upto(i + k)[i + k]
        for j in range(i + k, i, -1):
            v = divide(v, j)
        return v

    return _map(element, _indices(0, cls=Dif))


# -- showcase towers ------------------------------------------------------


def damped_sine(x: Dif) -> Dif:
    """Tower of sin(x) * exp(-x) for a variable tower ``x`` (derivative 1).

    Sine and cosine generate the same terms with alternating signs, so a
    coupled pair of linear co-recursions, p' = q - p and q' = -p - q,
    produces element n in O(1) work from element n-1, with no binomial
    weights. It therefore costs O(n) for n elements, against O(n^2) for
    ``x.sin() * (-x).exp()``, and reaches elements past n = 1030, where the
    weights of that product overflow a float. Each step of the pair is one
    rule-less pointwise node, so a derivative costs two nodes, whose
    successors the forcing machine builds, and the values are those of
    ``q - p`` and ``-p - q`` bit for bit.
    """
    x0 = x.value
    decay = scalar_exp(-x0)
    p = Dif.cons(scalar_sin(x0) * decay,
                 lambda: pointwise(Dif, None, sub, q, p))
    q = Dif.cons(scalar_cos(x0) * decay,
                 lambda: pointwise(Dif, None, _negated_sum, p, q))
    return p


def _negated_sum(a, b):
    # -a - b, the two float operations of ``-p - q`` in the same order.
    return -a - b


def lambert_w_tower() -> Dif:
    """Derivatives of the Lambert W function at z = 0.

    W is defined implicitly by W(z) * exp(W(z)) = z; differentiating gives
    dW/dz = exp(-W) / (1 + W), which together with W(0) = 0 is the whole
    definition. Element n of the result is n-th derivative of W at 0,
    i.e. (-n)**(n-1) up to floating error.
    """
    w = Dif.cons(0.0, lambda: (-w).exp() / (1.0 + w))
    return w


def taylor_from_tower(d: Dif) -> Series:
    """Series whose coefficient k is element k of ``d`` divided by k!.

    Bridges derivative towers at a point to the power-series module.
    """
    def go(node, k, fact):
        if node is ZERO_TOWER:
            return SERIES_ZERO
        return Series(lambda: divide(_head(node), fact),
                      lambda: go(_tail(node), k + 1, fact * (k + 1)))

    return go(d, 0, 1)
