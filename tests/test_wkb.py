import math

import pytest

from corec.dif import Dif
from corec.series import Series, ZERO
from corec.wkb import WkbResult, add_to_tail, airy_s0_prime, wkb_expand


def classical_v0_oracle(x0):
    """S2' at x0 for Q(x) = x, from the order-by-order recurrence
    S_n' = -(S_{n-1}'' + sum_{j+k=n, j,k>=1} S_j' S_k') / (2 S_0'),
    evaluated directly in floating point (hand-differentiated)."""
    s0p = math.sqrt(x0)
    s0pp = 0.5 / math.sqrt(x0)
    s0ppp = -0.25 * x0 ** -1.5
    s1p = -s0pp / (2 * s0p)
    s1pp = -s0ppp / (2 * s0p) + s0pp * s0pp / (2 * s0p * s0p)
    return -(s1pp + s1p * s1p) / (2 * s0p)


def test_add_to_tail_examples():
    a = Series.from_list([5])
    assert add_to_tail(a, ZERO).coefficients(2) == [5, 0]
    two = add_to_tail(Series.from_list([10, 20]), Series.from_list([7]))
    assert two.coefficients(3) == [10, 27, 0]
    assert add_to_tail(ZERO, ZERO) is ZERO


def test_add_to_tail_index_bookkeeping():
    # coefficient k of the result depends on z only through index k-1
    z = Series.from_list([1, 2, 3])
    out = add_to_tail(Series.from_list([0, 0, 0, 0]), z)
    assert out.coefficients(4) == [0, 1, 2, 3]


def test_airy_tower_at_one():
    got = airy_s0_prime(1.0).elements(4)
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, [1.0, 0.5, -0.25, 0.375]))


def test_airy_tower_at_four():
    assert airy_s0_prime(4.0).value == 2.0


def test_airy_tower_squares_to_x():
    tower = airy_s0_prime(1.7)
    got = tower.sqr().elements(6)
    expected = [1.7, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, expected))


def test_airy_rejects_nonpositive():
    with pytest.raises(ValueError):
        airy_s0_prime(0.0)
    with pytest.raises(ValueError):
        airy_s0_prime(-2.0)


def test_order_zero_amplitude_law():
    for x0 in (1.0, 2.0, 5.5):
        result = wkb_expand(airy_s0_prime(x0), 1)
        u0 = result.u_main.at(0)
        s0v = math.sqrt(x0)
        assert abs(u0 - (-0.5) * math.log(s0v)) < 1e-12
        assert abs(math.exp(u0) - s0v ** -0.5) < 1e-12


def test_v_prime_order_zero_matches_classical_recurrence():
    for x0 in (1.0, 2.0):
        result = wkb_expand(airy_s0_prime(x0), 1)
        got = result.v_prime_main.at(0)
        assert abs(got - classical_v0_oracle(x0)) < 1e-10


def test_defining_recurrence_residual():
    # Rebuild the v' recurrence from the forced towers and check it holds
    # coefficientwise at the value level.
    x0 = 1.0
    orders = 4
    result = wkb_expand(airy_s0_prime(x0), orders + 1)
    up = [result.u.at(k).deriv().value for k in range(orders + 1)]
    upp = [result.u.at(k).deriv().deriv().value for k in range(orders + 1)]
    vp = result.v_prime_main.take(orders + 1)
    s0v = math.sqrt(x0)
    for k in range(orders):
        rhs = -(sum(up[i] * up[k - i] for i in range(k + 1))
                + upp[k]
                + sum(vp[i] * vp[k - 1 - i] for i in range(k))) / (2 * s0v)
        assert abs(vp[k] - rhs) < 1e-12


def test_result_mains_are_tower_values():
    result = wkb_expand(airy_s0_prime(2.0), 3)
    for k in range(3):
        assert result.u_main.at(k) == result.u.at(k).value
        assert result.v_prime_main.at(k) == result.v_prime.at(k).value


def test_forced_tower_depth_is_bounded():
    # Requesting K orders must terminate having forced O(K^2) tower cells.
    def forced_len(tower, cap=200):
        return len(tower._forced_prefix(cap))

    for orders in (5, 12):
        result = wkb_expand(airy_s0_prime(1.0), orders)
        total = sum(forced_len(result.u.at(k)) for k in range(orders))
        total += sum(forced_len(result.v_prime.at(k)) for k in range(orders))
        assert total <= 12 * orders * orders


def test_preconditions():
    with pytest.raises(ValueError):
        wkb_expand(airy_s0_prime(1.0), 0)
    with pytest.raises(ValueError):
        wkb_expand(Dif.var(-1.0), 2)


def test_result_type():
    result = wkb_expand(airy_s0_prime(1.0), 2)
    assert isinstance(result, WkbResult)
    assert isinstance(result.u, Series)
    assert isinstance(result.v_prime, Series)
