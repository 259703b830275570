"""WKB orders against the closed-form asymptotic series of the Airy function.

For ``eps^2 y'' = x y`` the growing solution is Bi(x eps^(-2/3)), and its
asymptotic series (DLMF 9.7.2) gives every WKB order in closed form. With
``S0 = (2/3) x^(3/2)`` and ``L(z) = log sum_k u_k z^k``, where

    u_k = (2k+1)(2k+3)...(6k-1) / (216^k k!),

the orders are

    U_0 = -(1/4) log x,    U_j = L_(2j) S0^(-2j)  (j >= 1),
    V'_j = -(2j+1) L_(2j+1) S0^(-2j-2) sqrt(x).

The coefficients of L are computed here exactly, in ``Fraction``s, by
code that shares nothing with the library.
"""

import math
import sys
import threading
from fractions import Fraction

import pytest

from corec.dif import Dif
from corec.wkb import airy_s0_prime, wkb_expand
from support import on_a_deep_thread

ORDERS = 30


def _airy_u(n):
    """u_0 .. u_(n-1) of DLMF 9.7.2."""
    out = []
    for k in range(n):
        num = 1
        for f in range(2 * k + 1, 6 * k, 2):
            num *= f
        out.append(Fraction(num, 216 ** k * math.factorial(k)))
    return out


def _log_coefficients(a):
    """Coefficients of log A for A = a_0 + a_1 z + ... with a_0 = 1, from
    n L_n = n a_n - sum_(k=1)^(n-1) k L_k a_(n-k)."""
    assert a[0] == 1
    logs = [Fraction(0)]
    for n in range(1, len(a)):
        acc = n * a[n]
        for k in range(1, n):
            acc -= k * logs[k] * a[n - k]
        logs.append(acc / n)
    return logs


_L = _log_coefficients(_airy_u(2 * ORDERS))


def _oracle(x0):
    """(U_0 .. U_(ORDERS-1), V'_0 .. V'_(ORDERS-1)) at x0."""
    s0 = 2.0 / 3.0 * x0 ** 1.5
    u = [-0.25 * math.log(x0)]
    u += [float(_L[2 * j]) / s0 ** (2 * j) for j in range(1, ORDERS)]
    v = [-(2 * j + 1) * float(_L[2 * j + 1]) * math.sqrt(x0) / s0 ** (2 * j + 2)
         for j in range(ORDERS)]
    return u, v


def test_the_oracle_starts_as_dlmf_does():
    # DLMF 9.7.2: u_1 = 5/72 and u_2 = 385/10368; L_1 = u_1.
    assert _airy_u(3) == [1, Fraction(5, 72), Fraction(385, 10368)]
    assert _L[1] == Fraction(5, 72)
    assert _L[2] == Fraction(385, 10368) - Fraction(5, 72) ** 2 / 2


@pytest.mark.parametrize("x0", [0.7, 1.3, 2.0])
def test_every_order_matches_the_airy_series(x0):
    before = (sys.getrecursionlimit(), threading.stack_size())

    def expand():
        result = wkb_expand(airy_s0_prime(x0), ORDERS)
        return result.u_main.take(ORDERS), result.v_prime_main.take(ORDERS)

    got_u, got_v = on_a_deep_thread(expand)
    assert (sys.getrecursionlimit(), threading.stack_size()) == before
    want_u, want_v = _oracle(x0)
    for name, got, want in (("U", got_u, want_u), ("V'", got_v, want_v)):
        for j, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= 1e-12 * abs(w), (name, j, x0, g, w)


def _falling(a, k):
    """a (a - 1) ... (a - k + 1): element k of the tower of x^a at x = 1."""
    out = 1
    for i in range(k):
        out *= a - i
    return out


def test_an_exact_s0_prime_at_one_gives_the_exact_orders():
    # At x = 1, S0 = 2/3 and sqrt(x) = 1, so with an exact S0' every order
    # equals the oracle exactly. For j >= 1, U_j = L_(2j) (3/2)^(2j) x^(-3j),
    # and V'_j = -(2j+1) L_(2j+1) (3/2)^(2j+2) x^(-3j-5/2); the derivatives of
    # U_0 = -(1/4) log x at 1 are (-1)^k (k-1)! / 4.
    orders, levels = 8, 4
    result = wkb_expand(Dif.var(Fraction(1)).sqrt(), orders)
    s0 = Fraction(2, 3)
    u = [_L[2 * j] / s0 ** (2 * j) for j in range(orders)]
    v = [-(2 * j + 1) * _L[2 * j + 1] / s0 ** (2 * j + 2) for j in range(orders)]
    assert result.u_main.take(orders) == [0] + u[1:]
    assert result.v_prime_main.take(orders) == v
    assert result.u_main.at(1) == Fraction(5, 64)
    assert result.v_prime_main.take(2) == [Fraction(-5, 32), Fraction(-1105, 2048)]
    for got in (result.u_main.take(orders), result.v_prime_main.take(orders)):
        assert all(type(c) is Fraction for c in got)
    towers_u = [t.take(levels) for t in result.u.take(levels)]
    towers_v = [t.take(levels) for t in result.v_prime.take(levels)]
    assert towers_u[0] == [0] + [Fraction((-1) ** k, 4) * math.factorial(k - 1)
                                 for k in range(1, levels)]
    for j in range(1, levels):
        assert towers_u[j] == [u[j] * _falling(-3 * j, k) for k in range(levels)]
    for j in range(levels):
        assert towers_v[j] == [v[j] * _falling(Fraction(-6 * j - 5, 2), k)
                               for k in range(levels)]


def test_an_exact_x0_other_than_one_ends_in_a_clean_error():
    # The logarithm of U_0 needs S0' = 1; a rational square root other than 1
    # reaches it, any other exact x0 already stops at the square root.
    with pytest.raises(ValueError) as info:
        wkb_expand(airy_s0_prime(Fraction(4)), 3)
    assert str(info.value) == "log of an exact value other than 1 is irrational"
    with pytest.raises(ValueError, match="^sqrt of 2 is irrational"):
        wkb_expand(airy_s0_prime(Fraction(2)), 3)
