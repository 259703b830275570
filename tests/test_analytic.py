"""The elementary functions that series and derivative towers share.

Both inherit one definition of each function from ``corec.series.Analytic``,
so the checks here run the same function in both algebras.
"""

import math
from fractions import Fraction

import pytest

from corec.coeffs import scalar_pow
from corec.dif import Dif, ZERO_TOWER, _Const, taylor_from_tower
from corec.series import Series, ZERO


def test_series_atan_asin_recip_match_sympy_series():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    n = 10
    u = Series.from_list([0, 1, 1])  # x + x^2
    cases = [
        (u.atan(), sp.atan(x + x**2)),
        (u.asin(), sp.asin(x + x**2)),
        # recip needs an invertible constant term
        ((u + 1).recip(), 1 / (1 + x + x**2)),
    ]
    for series, expr in cases:
        poly = sp.series(expr, x, 0, n).removeO()
        want = [Fraction(int(c.p), int(c.q))
                for c in (poly.coeff(x, k) for k in range(n))]
        assert series.coefficients(n) == want, expr


def test_sqrt_and_pow_need_a_nonzero_value():
    for zero in (ZERO, Dif.const(0), Dif.var(0.0)):
        with pytest.raises(ValueError):
            zero.sqrt()
        with pytest.raises(ValueError):
            zero.pow(Fraction(1, 2))


def test_a_float_sqrt_halves_by_a_float_with_the_same_values():
    # The root's derivative is a'/(2w); halving by a Fraction gives the
    # same floats, since doubling and halving are exact for floats.
    x = Dif.var(1.3)
    w = x.sqrt()
    with_fraction = x._define(math.sqrt(1.3),
                              lambda da, v: (da / v) * Fraction(1, 2))
    got = w.take(60)
    assert [type(v) for v in got] == [float] * 60
    assert got == with_fraction.take(60)


def test_an_exact_sqrt_stays_exact():
    assert Dif.var(Fraction(4)).sqrt().take(5) == [
        2, Fraction(1, 4), Fraction(-1, 32), Fraction(3, 256), Fraction(-15, 2048)]
    assert Series.from_list([4, 1]).sqrt().take(4) == [
        2, Fraction(1, 4), Fraction(-1, 64), Fraction(1, 512)]
    for root in (Dif.var(Fraction(4)).sqrt(), Series.from_list([4, 1]).sqrt()):
        assert {type(v) for v in root.take(20)} == {Fraction}


def test_compact_constants_stay_compact():
    c = Dif.const(0.5).atan()
    assert c.tail.tail is c.tail  # the shared all-zero tail
    assert c.elements(3) == [math.atan(0.5), 0, 0]
    assert ZERO.exp().coefficients(3) == [1, 0, 0]
    assert ZERO.cos().coefficients(3) == [1, 0, 0]
    # Every function of a compact constant is a compact constant.
    half = Dif.const(0.5)
    towers = {"exp": half.exp(), "log": half.log(), "sqrt": half.sqrt(),
              "pow": half.pow(3), "sin": half.sin(), "cos": half.cos(),
              "atan": half.atan(), "asin": half.asin(), "recip": half.recip()}
    for name, w in towers.items():
        assert isinstance(w, _Const), name
        assert w.tail is ZERO_TOWER, name
    assert towers["recip"].value == 2.0
    assert towers["pow"].value == 0.125
    for name in ("exp", "sin", "cos", "atan", "asin"):
        w = getattr(ZERO, name)()
        assert isinstance(w, Series), name
        # Built whole: the forced prefix already reaches the ZERO tail.
        head = {"exp": 1, "cos": 1}.get(name, 0)
        assert w._forced_prefix(3) == [head, 0, 0], name
        assert w.tail is ZERO, name


def test_series_and_tower_agree_through_the_bridge():
    x = Dif.var(Fraction(0))
    u = Series.from_list([0, 1])
    for name in ("atan", "asin"):
        tower = taylor_from_tower(getattr(x, name)()).coefficients(8)
        series = getattr(u, name)().coefficients(8)
        assert tower == series, name


def test_series_pow_of_tower_coefficients_matches_sqrt():
    # The value of pow is scalar_pow of a tower, which is the tower's pow.
    u = Series.cons(Dif.var(2.0), Series.cons(Dif.const(1.0), ZERO))
    got, want = u.pow(0.5).coefficients(5), u.sqrt().coefficients(5)
    for g, w in zip(got, want):
        for a, b in zip(g.elements(5), w.elements(5)):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_a_series_with_a_tower_head_hands_the_head_to_the_tower():
    # The value of each function is the scalar function of the head tower:
    # recip is the tower's recip, and an int pow is the tower's **, so
    # u.pow(2) has the values of u * u.
    head = Series.cons(Dif.var(2.0), ZERO).recip().at(0)
    assert head.elements(3) == [0.5, -0.25, 0.25]
    u = Series.from_list([Dif.var(1.0), 1])
    got, want = u.pow(2).coefficients(5), (u * u).coefficients(5)
    for g, w in zip(got, want):
        assert _elements(g, 4) == _elements(w, 4)


def _elements(c, n):
    # A coefficient of a series of towers, or the plain 0 or 1 that stands
    # for a constant tower.
    return c.elements(n) if isinstance(c, Dif) else [c] + [0] * (n - 1)


def test_scalar_pow_keeps_int_powers_of_a_series_as_products():
    # An int power is repeated multiplication, so a zero head is allowed;
    # any other power is the series' own pow, which needs a nonzero value.
    x = Series.from_list([0, 1])
    assert scalar_pow(x, 2).coefficients(4) == [0, 0, 1, 0]
    with pytest.raises(ValueError):
        scalar_pow(x, Fraction(1, 2))
