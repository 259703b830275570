import math
import operator
import random
from fractions import Fraction

import pytest

from corec.dif import (
    Dif,
    ZERO_TOWER,
    _Const,
    damped_sine,
    lambert_w_tower,
    taylor_from_tower,
)
from corec.series import Series

from support import damped_sine_with_operators


def close(xs, ys, tol=1e-9):
    return all(abs(a - b) <= tol for a, b in zip(xs, ys))


def test_var_and_const():
    assert Dif.var(2.5).elements(4) == [2.5, 1, 0, 0]
    c = Dif.const(math.pi).elements(3)
    assert c == [math.pi, 0, 0]
    v = Dif.var(0)
    assert v.value == 0 and v.deriv().value == 1


def test_square():
    a = 3.0
    assert Dif.var(a).sqr().elements(5) == [a * a, 2 * a, 2, 0, 0]


def test_const_times_tower_is_scale():
    u = Dif.var(2.0).exp()
    lhs = (Dif.const(3.0) * u).elements(6)
    rhs = u.scale(3.0).elements(6)
    assert lhs == rhs


def test_var_times_var():
    assert (Dif.var(1) * Dif.var(1)).elements(3) == [1, 2, 2]


def test_recip_at_two_exact():
    got = Dif.var(Fraction(2)).recip().elements(9)
    expected = [Fraction((-1) ** n * math.factorial(n), 2 ** (n + 1))
                for n in range(9)]
    assert got == expected


def test_recip_times_self_is_one():
    u = Dif.var(Fraction(3, 2)).sqr() + 1
    prod = (u * u.recip()).elements(10)
    assert prod == [1] + [0] * 9


def test_recip_rejects_zero_value():
    with pytest.raises(ZeroDivisionError):
        Dif.var(0).recip()


def test_division_default_branch():
    u = Dif.var(2.0).exp()
    v = Dif.var(2.0)
    got = (u / v).elements(5)
    # (e^x / x) derivatives at 2, hand-differentiated
    e2 = math.exp(2.0)
    expected = [e2 / 2, e2 / 4, e2 * 2 / 8, e2 * 2 / 16, e2 * 8 / 32]
    assert close(got, expected, 1e-9)


def test_division_by_constant_one_is_identity():
    u = Dif.var(1.2).sin()
    assert close((u / Dif.const(1)).elements(8), u.elements(8), 0)


def test_division_lhopital_limit_value():
    # sin(x)/x at 0: the value is the limit, 1
    q = Dif.var(0.0).sin() / Dif.var(0.0)
    assert abs(q.value - 1.0) < 1e-15


def test_division_pole_error():
    with pytest.raises(ZeroDivisionError):
        (Dif.var(0.0) + 1) / Dif.var(0.0)


def test_division_zero_over_zero_is_tower_of_extended_quotient():
    # sin(x)/x = 1 - x^2/3! + x^4/5! - ...: derivatives 1, 0, -1/3, 0, 1/5
    x = Dif.var(0.0)
    assert close((x.sin() / x).elements(5), [1, 0, -1 / 3, 0, 1 / 5], 1e-15)
    assert (x * x / x).elements(4) == [0, 1, 0, 0]
    # x^3 / x^2 = x, exactly, through two levels of the extended quotient
    x = Dif.var(0)
    assert ((x * x * x) / (x * x)).elements(4) == [0, 1, 0, 0]


def test_division_zero_over_zero_towers():
    assert (Dif.const(0) / Dif.const(0)).elements(4) == [0, 0, 0, 0]
    # 0 over x at 0 is 0 over 1 once lowered, read exactly.
    got = (Dif.const(0) / Dif.var(0)).elements(4)
    assert got == [0, 0, 0, 0]
    assert all(type(v) is Fraction for v in got)


def test_division_zero_over_zero_to_every_order_is_indeterminate():
    # Both towers vanish at every order: lowering never reaches a nonzero
    # element, and the search ends in a clean error, not RecursionError.
    x = Dif.var(0.5)
    for num, den in ((x - x, x - x),
                     (x.sin() - x.sin(), x.sin() - x.sin())):
        with pytest.raises(ZeroDivisionError, match="indeterminate 0/0"):
            num / den


def test_exp_derivative_cycle():
    assert close(Dif.var(0.0).exp().elements(5), [1, 1, 1, 1, 1], 0)


def test_sin_derivative_cycle():
    got = Dif.var(0.0).sin().elements(5)
    assert close(got, [0, 1, 0, -1, 0], 1e-15)


def test_log_exp_roundtrip():
    got = Dif.var(1.5).exp().log().elements(4)
    assert close(got, [1.5, 1, 0, 0], 1e-12)


def test_sqrt_squared():
    u = Dif.var(2.0).sqrt()
    assert close(u.sqr().elements(6), [2.0, 1, 0, 0, 0, 0], 1e-12)


def test_sqrt_of_exact_tower_stays_exact():
    # sqrt(x) at 4: 2, 1/(2*2), -1/(4*8), 3/(8*32)
    got = Dif.var(Fraction(4)).sqrt().elements(4)
    assert got == [2, Fraction(1, 4), Fraction(-1, 32), Fraction(3, 256)]
    assert all(isinstance(v, (int, Fraction)) for v in got)


def test_pow_towers():
    # x^-2 at 2, exactly: 1/4, -2/8, 6/16, -24/32
    got = Dif.var(Fraction(2)).pow(-2).elements(4)
    assert got == [Fraction(1, 4), Fraction(-1, 4), Fraction(3, 8),
                   Fraction(-3, 4)]
    # x^1.5 at 4: 8, 1.5*2, 0.75/2, -0.375/8
    got = Dif.var(4.0).pow(1.5).elements(4)
    assert close(got, [8.0, 3.0, 0.375, -0.046875], 1e-12)


def test_int_power_operator_is_repeated_products():
    # ** with an int >= 0 multiplies, as for a series, so a zero value is
    # allowed where pow refuses it; any other exponent is pow.
    assert (Dif.var(2) ** 3).elements(5) == [8, 12, 12, 6, 0]
    zero = Dif.var(0.0)
    assert (zero ** 2).elements(3) == [0.0, 0.0, 2.0]
    with pytest.raises(ValueError):
        zero.pow(2)
    one = Dif.var(2.0) ** 0
    assert type(one) is _Const and one.value == 1
    x = Dif.var(Fraction(2))
    assert (x ** -1).elements(5) == x.pow(-1).elements(5)


def test_atan_asin_values():
    x = Dif.var(0.5)
    assert abs(x.atan().value - math.atan(0.5)) < 1e-15
    assert abs(x.atan().deriv().value - 1 / 1.25) < 1e-12
    assert abs(x.asin().value - math.asin(0.5)) < 1e-15
    assert abs(x.asin().deriv().value - 1 / math.sqrt(0.75)) < 1e-12


def test_domain_errors():
    with pytest.raises(ValueError):
        Dif.var(-1.0).log()
    with pytest.raises(ValueError):
        Dif.var(-1.0).sqrt()
    with pytest.raises(ValueError):
        Dif.var(2.0).asin()


def test_deriv_examples():
    assert Dif.var(3.7).deriv().elements(3) == [1, 0, 0]
    assert Dif.const(9).deriv().elements(3) == [0, 0, 0]
    e = Dif.var(0.0).exp()
    assert close(e.deriv().elements(6), e.elements(6), 0)


def test_derivation_on_constants_is_trivial():
    assert Dif.const(42.0).deriv() is ZERO_TOWER


def test_const_behaves_like_padded_tower():
    # Dif.const(c) must act exactly like the tower [c, 0, 0, ...]
    rng = random.Random(3)
    for _ in range(10):
        c = rng.uniform(-3, 3)
        padded = Dif.cons(c, Dif.cons(0.0, ZERO_TOWER))
        compact = Dif.const(c)
        other = Dif.var(rng.uniform(0.5, 2.0)).exp()
        for op in (lambda a, b: a + b, lambda a, b: a * b,
                   lambda a, b: a - b, lambda a, b: b / a):
            assert close(op(compact, other).elements(8),
                         op(padded, other).elements(8), 1e-12)
        pos = abs(c) + 0.5
        for fn in (lambda d: d.exp(), lambda d: d.log(),
                   lambda d: d.sqrt(), lambda d: d.sqr()):
            assert close(fn(Dif.const(pos)).elements(6),
                         fn(Dif.cons(pos, Dif.cons(0.0, ZERO_TOWER))).elements(6),
                         1e-12)


def test_sqr_equals_self_product():
    rng = random.Random(4)
    for _ in range(8):
        u = Dif.var(rng.uniform(0.3, 2.0)).sin() + rng.uniform(-1, 1)
        lhs = u.sqr().elements(10)
        rhs = (u * u).elements(10)
        assert close(lhs, rhs, 1e-9 * max(1.0, max(map(abs, rhs))))


def test_leibniz_rule_towers():
    rng = random.Random(8)
    for _ in range(8):
        u = Dif.var(rng.uniform(0.2, 2.0)).sin()
        v = Dif.var(rng.uniform(0.2, 2.0)).exp()
        lhs = (u * v).deriv().elements(10)
        rhs = (u.deriv() * v + u * v.deriv()).elements(10)
        assert close(lhs, rhs, 1e-9 * max(1.0, max(map(abs, rhs))))


def test_chain_rule_consistency():
    # deriv(f(u)) == f'(u) * deriv(u) for several f
    x0 = 0.6
    u = Dif.var(x0).sqr() + 1  # u = x^2 + 1 at 0.6
    cases = [
        (u.exp(), u.exp()),
        (u.sin(), u.cos()),
        (u.cos(), -u.sin()),
        (u.atan(), (u.sqr() + 1).recip()),
    ]
    for fu, fprime in cases:
        lhs = fu.deriv().elements(8)
        rhs = (fprime * u.deriv()).elements(8)
        assert close(lhs, rhs, 1e-9 * max(1.0, max(map(abs, rhs))))


def test_scalar_lifting_in_mixed_arithmetic():
    w = Dif.var(1.0)
    assert (1 + w).elements(3) == [2.0, 1, 0]
    assert (2 * w).elements(3) == [2.0, 2, 0]
    assert (1 - w).elements(3) == [0.0, -1, 0]
    assert close((1 / (1 + w)).elements(3), [0.5, -0.25, 0.25], 1e-12)


@pytest.mark.parametrize("other", ["x", None])
def test_non_number_operands_raise_type_error_on_both_sides(other):
    w = Dif.var(1.0)
    for op in [operator.add, operator.sub, operator.mul, operator.truediv]:
        with pytest.raises(TypeError):
            op(w, other)
        with pytest.raises(TypeError):
            op(other, w)


def test_tower_plus_series_falls_back_to_the_series_sum():
    s = Dif.var(1.0) + Series.from_list([1, 2])
    assert isinstance(s, Series)
    assert s.head.elements(3) == [2.0, 1, 0]
    assert s.coefficients(3)[1:] == [2, 0]


# -- showcase towers -------------------------------------------------------

def test_damped_sine_value():
    x0 = 1.3
    p = damped_sine(Dif.var(x0))
    assert abs(p.value - math.sin(x0) * math.exp(-x0)) < 1e-15


def test_damped_sine_matches_naive_product():
    x = Dif.var(0.7)
    fast = damped_sine(x).elements(15)
    naive = (x.sin() * (-x).exp()).elements(15)
    for a, b in zip(fast, naive):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_damped_sine_at_zero():
    assert close(damped_sine(Dif.var(0.0)).elements(3), [0, 1, -2], 1e-15)


@pytest.mark.parametrize("x0", [0.0, -0.0, 0.3, 1.1, -2.5])
def test_damped_sine_is_bit_identical_to_the_operators(x0):
    # repr tells -0.0 from 0.0, and every float digit.
    fast = damped_sine(Dif.var(x0)).take(2000)
    slow = damped_sine_with_operators(Dif.var(x0)).take(2000)
    assert list(map(repr, fast)) == list(map(repr, slow))


def test_damped_sine_of_exact_input():
    fast = damped_sine(Dif.var(0)).take(60)
    assert fast == damped_sine_with_operators(Dif.var(0)).take(60)
    assert fast[:8] == [0, 1, -2, 2, 0, -4, 8, -8]
    assert all(type(v) is int for v in fast)
    # exp(-1/3) is irrational, so an exact 1/3 is refused at the call.
    for build in (damped_sine, damped_sine_with_operators):
        with pytest.raises(ValueError, match="^exp of an exact value other "
                           "than 0 is irrational$"):
            build(Dif.var(Fraction(1, 3)))


def lambert_series_oracle(n):
    """Exact Maclaurin coefficients of W via reversion of z * e^z."""
    z_exp_z = Series.from_list(
        [Fraction(0)] + [Fraction(1, math.factorial(k)) for k in range(n)])
    return z_exp_z.revert().coefficients(n + 1)


def test_lambert_head():
    w = lambert_w_tower().elements(2)
    assert w[0] == 0.0 and abs(w[1] - 1.0) < 1e-12


def test_lambert_magnitudes():
    w = lambert_w_tower().elements(9)
    for n in range(1, 9):
        assert abs(abs(w[n]) - n ** (n - 1)) <= 1e-6 * n ** (n - 1)


def test_lambert_thirty_elements_closed_form():
    w = lambert_w_tower().elements(30)
    assert w[0] == 0.0
    for n in range(1, 30):
        exact = (-n) ** (n - 1)
        assert abs(w[n] - exact) <= 1e-12 * abs(exact)


def test_exact_towers_stay_fraction():
    x = Dif.var(Fraction(1, 3))
    u = x * x / (x + 1) - (x.sqr() + 2).recip()
    got = u.elements(8)
    assert all(isinstance(v, Fraction) for v in got)
    # u = x^2/(x+1) - 1/(x^2+2), exactly, by the Taylor coefficients at 1/3
    t = Series.from_list([Fraction(1, 3), 1])
    direct = (t * t / (t + 1) - Series.from_list([1]) / (t * t + 2)).coefficients(8)
    assert got == [c * math.factorial(k) for k, c in enumerate(direct)]


def test_lambert_signs_against_reversion_oracle():
    coeffs = lambert_series_oracle(10)
    w = lambert_w_tower().elements(9)
    for n in range(1, 9):
        exact = coeffs[n] * math.factorial(n)  # tower element n, exactly
        assert (w[n] > 0) == (exact > 0)
        assert abs(w[n] - float(exact)) <= 1e-6 * abs(float(exact))


# -- bridge to power series -------------------------------------------------

def test_taylor_from_tower_exp():
    t = taylor_from_tower(Dif.var(0.0).exp())
    assert close(t.coefficients(4), [1, 1, 0.5, 1 / 6], 1e-15)


def test_taylor_from_tower_constant_is_compact():
    s = taylor_from_tower(Dif.const(5))
    assert s.coefficients(3) == [5, 0, 0]


def test_taylor_bridge_matches_series_sin():
    tower = taylor_from_tower(Dif.var(0.0).sin()).coefficients(10)
    direct = Series.from_list([0, 1]).sin().coefficients(10)
    assert close(tower, [float(c) for c in direct], 1e-12)
