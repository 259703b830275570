import gc
import random
from fractions import Fraction

import pytest

from corec.dif import Dif, ZERO_TOWER
from corec.series import Series, ZERO, sint, transpose

from support import run_python


# -- independent oracles on truncated coefficient lists -------------------

def poly_mul(a, b, n):
    """First n coefficients of the product of coefficient lists a and b."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        for j, bj in enumerate(b[:n]):
            if i + j < n:
                out[i + j] += ai * bj
    return out


def poly_compose(u, v, n):
    """First n coefficients of u(v(x)) for truncated lists, v[0] == 0."""
    out = [0] * n
    power = [1] + [0] * (n - 1)  # v^k, truncated
    for uk in u[:n]:
        for i in range(n):
            out[i] += uk * power[i]
        power = poly_mul(power, v, n)
    return out


def random_poly(rng, degree, lo=-4, hi=4):
    return [Fraction(rng.randint(lo, hi)) for _ in range(degree + 1)]


def pad(xs, n):
    return list(xs[:n]) + [0] * (n - len(xs))


def wins(s, n):
    return [Fraction(c) for c in s.coefficients(n)]


def counted_series(counter):
    def node(k):
        def head():
            counter[0] += 1
            return k + 1
        return Series(head, lambda: node(k + 1))
    return node(0)


# -- arithmetic -----------------------------------------------------------

def test_add_examples():
    assert (Series.from_list([1, 2]) + Series.from_list([3])).coefficients(3) == [4, 2, 0]
    u = Series.from_list([5, 6, 7])
    assert (u + ZERO) is u
    assert (ZERO + u) is u
    diff = Series.from_list([1, 1]) - Series.from_list([1, 1])
    assert diff.coefficients(5) == [0, 0, 0, 0, 0]


def test_scalar_add():
    assert (Series.from_list([1, 2]) + 10).coefficients(3) == [11, 2, 0]
    assert (10 + ZERO).coefficients(2) == [10, 0]
    assert (5 - Series.from_list([1, 1])).coefficients(3) == [4, -1, 0]


def test_mul_examples():
    prod = Series.from_list([1, 1]) * Series.from_list([1, -1])
    assert prod.coefficients(3) == [1, 0, -1]
    assert (Series.from_list([1, 2]) * ZERO) is ZERO
    assert (ZERO * Series.from_list([1, 2])) is ZERO


def test_mul_all_ones_against_oracle():
    ones = Series.cons(1, lambda: ones)
    sq = ones * ones
    assert sq.coefficients(5) == [1, 2, 3, 4, 5]
    assert sq.coefficients(5) == poly_mul([1] * 5, [1] * 5, 5)


def test_mul_random_against_convolution_oracle():
    rng = random.Random(99)
    for _ in range(25):
        a = random_poly(rng, rng.randint(0, 6))
        b = random_poly(rng, rng.randint(0, 6))
        got = wins(Series.from_list(a) * Series.from_list(b), 12)
        assert got == poly_mul(pad(a, 12), pad(b, 12), 12)


def test_div_geometric():
    geo = Series.from_list([1]) / Series.from_list([1, -1])
    assert geo.coefficients(6) == [1, 1, 1, 1, 1, 1]


def test_div_self_is_one():
    u = Series.from_list([3, 1, 4, 1])
    assert wins(u / u, 5) == [1, 0, 0, 0, 0]
    assert ZERO / u is ZERO


def test_div_rejects_zero_head():
    with pytest.raises(ZeroDivisionError):
        Series.from_list([0, 1]) / Series.from_list([0, 1, 2])
    with pytest.raises(ZeroDivisionError):
        Series.from_list([1]) / ZERO


def test_division_by_scalar_zero_raises_at_the_call():
    u = Series.from_list([1, 2])
    for s, zero in [(ZERO, 0), (u, 0), (u, 0.0)]:
        with pytest.raises(ZeroDivisionError, match="series division by zero"):
            s / zero


@pytest.mark.parametrize("zero", [Dif.const(0), ZERO_TOWER, Dif.var(0)],
                         ids=["const", "ZERO_TOWER", "var"])
@pytest.mark.parametrize("numerator", [Series.from_list([1, 2]),
                                       Series.from_list([0, 0]), ZERO],
                         ids=["poly", "zeros", "ZERO"])
def test_division_by_a_zero_tower_raises_at_the_call(numerator, zero):
    # A tower divisor follows the rule of a series divisor's head: its
    # value must be invertible, whatever the numerator.
    with pytest.raises(ZeroDivisionError, match="^series division by zero$"):
        numerator / zero


def test_division_by_a_tower_with_nonzero_value():
    q = Series.from_list([1, 2]) / Dif.var(2.0)
    assert q.at(0).elements(3) == [0.5, -0.25, 0.25]
    assert q.at(1).elements(3) == [1.0, -0.5, 0.5]


def test_div_roundtrip_property():
    rng = random.Random(5)
    for _ in range(20):
        u = Series.from_list(random_poly(rng, 5))
        v_coeffs = random_poly(rng, 5)
        v_coeffs[0] = Fraction(rng.choice([1, 2, -1, 3]))
        v = Series.from_list(v_coeffs)
        assert wins((u / v) * v, 16) == wins(u, 16)


def test_scalar_division_stays_exact():
    q = Series.from_list([1, 2, 3]) / 2
    assert q.coefficients(3) == [Fraction(1, 2), 1, Fraction(3, 2)]
    # Float coefficients divided by an int stay floats.
    f = (Series.from_list([1.5, 0.7]) / 3).take(3)
    assert f == [0.5, 0.7 / 3, 0]
    assert [type(x) for x in f[:2]] == [float, float]


def test_ring_laws_to_order_16():
    rng = random.Random(161616)
    for _ in range(12):
        u = Series.from_list(random_poly(rng, 6))
        v = Series.from_list(random_poly(rng, 6))
        w = Series.from_list(random_poly(rng, 6))
        assert wins((u + v) * w, 16) == wins(u * w + v * w, 16)
        assert wins(u * v, 16) == wins(v * u, 16)
        assert wins((u * v) * w, 16) == wins(u * (v * w), 16)


# -- calculus -------------------------------------------------------------

def test_diff_examples():
    assert Series.from_list([1, 1, 1, 1]).diff().coefficients(4) == [1, 2, 3, 0]
    assert ZERO.diff() is ZERO
    assert Series.from_list([5]).diff().coefficients(3) == [0, 0, 0]


def test_integral_examples():
    s = Series.from_list([1, 2, 3]).integral(5)
    assert s.coefficients(4) == [5, 1, 1, 1]
    assert ZERO.integral(0) is ZERO
    assert sint(0, ZERO) is ZERO
    assert sint(3, ZERO).coefficients(2) == [3, 0]


def test_diff_integral_inverse():
    rng = random.Random(11)
    u = Series.from_list(random_poly(rng, 7))
    assert wins(u.integral(9).diff(), 12) == wins(u, 12)


def test_leibniz_rule_to_order_16():
    rng = random.Random(13)
    for _ in range(10):
        u = Series.from_list(random_poly(rng, 6))
        v = Series.from_list(random_poly(rng, 6))
        lhs = (u * v).diff()
        rhs = u.diff() * v + u * v.diff()
        assert wins(lhs, 16) == wins(rhs, 16)


# -- elementary functions ---------------------------------------------------

def test_exp_taylor():
    e = Series.from_list([0, 1]).exp()
    assert e.coefficients(5) == [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]


def test_log_taylor():
    l = Series.from_list([1, 1]).log()
    assert l.coefficients(5) == [0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)]


def test_log_exp_roundtrip_exact():
    rng = random.Random(17)
    for _ in range(8):
        coeffs = random_poly(rng, 6)
        coeffs[0] = Fraction(0)  # exact exp needs a zero head
        u = Series.from_list(coeffs)
        assert wins(u.exp().log(), 13) == wins(u, 13)


def test_log_exp_roundtrip_float():
    rng = random.Random(19)
    for _ in range(20):
        coeffs = [rng.uniform(-0.5, 0.5) for _ in range(7)]
        u = Series.from_list(coeffs)
        back = u.exp().log().coefficients(13)
        ref = u.coefficients(13)
        assert all(abs(a - b) < 1e-9 for a, b in zip(back, ref))


def test_sqrt_of_perfect_square():
    r = Series.from_list([1, 2, 1]).sqrt()
    assert wins(r, 5) == [1, 1, 0, 0, 0]


def test_sqrt_squared_roundtrip_float():
    rng = random.Random(23)
    for _ in range(20):
        coeffs = [rng.uniform(0.5, 2.0)] + [rng.uniform(-0.5, 0.5) for _ in range(6)]
        u = Series.from_list(coeffs)
        sq = u.sqrt()
        back = (sq * sq).coefficients(13)
        ref = u.coefficients(13)
        assert all(abs(a - b) < 1e-9 for a, b in zip(back, ref))


def test_sqrt_rejects_zero_head():
    with pytest.raises(ValueError):
        Series.from_list([0, 1]).sqrt()
    with pytest.raises(ValueError):
        ZERO.sqrt()


def test_pow_identity_and_geometric():
    u = Series.from_list([2, 1, 5])
    assert wins(u.pow(1), 8) == wins(u, 8)
    geo = Series.from_list([1, 1]).pow(-1)
    assert wins(geo, 4) == [1, -1, 1, -1]
    # Any exponent other than an int >= 0 makes ** the series' pow.
    v = Series.from_list([4.0, 1.0])
    half = Fraction(1, 2)
    assert (v ** half).coefficients(6) == v.pow(half).coefficients(6)


def test_pow_inverse_pair_float():
    rng = random.Random(29)
    for _ in range(20):
        coeffs = [rng.uniform(0.5, 2.0)] + [rng.uniform(-0.4, 0.4) for _ in range(6)]
        u = Series.from_list(coeffs)
        a = rng.uniform(-2.0, 2.0)
        prod = (u.pow(a) * u.pow(-a)).coefficients(13)
        assert abs(prod[0] - 1.0) < 1e-9
        assert all(abs(c) < 1e-9 for c in prod[1:])


def test_pow_rejects_zero_head():
    with pytest.raises(ValueError):
        Series.from_list([0, 1]).pow(Fraction(1, 2))


def test_int_power_operator():
    u = Series.from_list([1, 1])
    assert wins(u ** 2, 4) == [1, 2, 1, 0]
    assert wins(u ** 0, 3) == [1, 0, 0]
    assert wins(Series.monomial(1) ** 3, 5) == [0, 0, 0, 1, 0]


def test_sin_cos_taylor_and_pythagoras():
    x = Series.from_list([0, 1])
    s, c = x.sin(), x.cos()
    assert wins(s, 6) == [0, 1, 0, Fraction(-1, 6), 0, Fraction(1, 120)]
    assert wins(c, 5) == [1, 0, Fraction(-1, 2), 0, Fraction(1, 24)]
    unit = (s * s + c * c).coefficients(12)
    assert unit[0] == 1 and all(v == 0 for v in unit[1:])


# -- composition and reversion -----------------------------------------------

def test_compose_with_identity():
    u = Series.from_list([3, 1, 4, 1, 5])
    assert wins(u.compose(Series.from_list([0, 1])), 8) == wins(u, 8)


def test_compose_fibonacci_generating_function():
    ones = Series.cons(1, lambda: ones)
    fib_gf = ones.compose(Series.from_list([0, 1, 1]))
    assert wins(fib_gf, 6) == [1, 1, 2, 3, 5, 8]


def test_compose_random_against_oracle():
    rng = random.Random(31)
    for _ in range(15):
        u = random_poly(rng, 5)
        v = random_poly(rng, 5)
        v[0] = Fraction(0)
        got = wins(Series.from_list(u).compose(Series.from_list(v)), 10)
        assert got == poly_compose(pad(u, 10), pad(v, 10), 10)


def test_compose_with_zero_series():
    u = Series.from_list([3, 1, 4])
    assert u.compose(ZERO).coefficients(4) == [3, 0, 0, 0]


def test_compose_rejects_nonzero_head():
    with pytest.raises(ValueError):
        Series.from_list([1, 1]).compose(Series.from_list([1, 1]))


def test_compose_associativity():
    rng = random.Random(37)
    for _ in range(8):
        u = Series.from_list(random_poly(rng, 4))
        v = Series.from_list([Fraction(0)] + random_poly(rng, 3))
        w = Series.from_list([Fraction(0)] + random_poly(rng, 3))
        lhs = u.compose(v).compose(w)
        rhs = u.compose(v.compose(w))
        assert wins(lhs, 10) == wins(rhs, 10)


def test_revert_identity():
    t = Series.from_list([0, 1]).revert()
    assert wins(t, 5) == [0, 1, 0, 0, 0]


def test_revert_known_series():
    t = Series.from_list([0, 1, 1]).revert()
    assert wins(t, 6) == [0, 1, -1, 2, -5, 14]
    # verify against composition, the defining property
    v = Series.from_list([0, 1, 1])
    assert wins(v.compose(t), 9) == pad([0, 1], 9)


def test_revert_roundtrip_random():
    rng = random.Random(41)
    for _ in range(50):
        coeffs = [Fraction(0), Fraction(1)] + random_poly(rng, rng.randint(0, 5), -3, 3)
        v = Series.from_list(coeffs)
        t = v.revert()
        composed = wins(v.compose(t), 13)
        assert composed == pad([0, 1], 13)


def test_revert_rejects_bad_form():
    with pytest.raises(ValueError):
        Series.from_list([1, 1]).revert()
    with pytest.raises(ValueError):
        Series.from_list([0, 2]).revert()
    with pytest.raises(ValueError):
        ZERO.revert()


# -- structure ---------------------------------------------------------------

def test_monomial():
    assert Series.monomial(0).coefficients(3) == [1, 0, 0]
    assert Series.monomial(3).coefficients(5) == [0, 0, 0, 1, 0]
    u = Series.from_list([5, 6])
    shifted = Series.monomial(2) * u
    assert shifted.coefficients(5) == [0, 0, 5, 6, 0]
    assert u.shift(2).coefficients(5) == [0, 0, 5, 6, 0]
    with pytest.raises(ValueError):
        Series.monomial(-1)


def test_monomial_builds_its_zeros_when_read():
    m = Series.monomial(10 ** 6)
    assert repr(m) == "<Series [0...]>"
    assert m.take(2) == [0, 0]


def test_shift_builds_its_zeros_when_read():
    u = Series.from_list([5, 6])
    assert u.shift(0) is u
    assert ZERO.shift(5) is ZERO
    shifted = u.shift(3)
    assert repr(shifted) == "<Series [0...]>"
    assert shifted.coefficients(2) == [0, 0]
    assert repr(shifted) == "<Series [0, 0...]>"
    assert Series.from_list([1]).shift(10**9).take(3) == [0, 0, 0]
    with pytest.raises(TypeError):
        u.shift(2.5)
    with pytest.raises(ValueError):
        u.shift(-1)


def test_partitions_keep_only_the_window_the_recurrence_reads():
    # Member m of the family adds x^(m-1) * B_m to B_(m+1), and the sum
    # reads about n - m zeros of that shift; the zeros past them must not
    # be built and pinned inside the finished cycle (n^2/2 nodes, against
    # the n^2/4 sum nodes the recurrence itself keeps).
    from corec.catalog import partitions

    def live_series():
        return sum(1 for o in gc.get_objects() if isinstance(o, Series))

    gc.collect()
    before = live_series()
    p = partitions()
    assert p.take(200)[-1] == 3646072432125
    assert live_series() - before < 0.3 * 200 ** 2


def test_transpose_window():
    m = Series.from_list([Series.from_list([1, 2]),
                          Series.from_list([3, 4])])
    t = transpose(m)
    rows = t.take(2)
    assert [r.coefficients(2) for r in rows] == [[1, 3], [2, 4]]


def test_transpose_involution():
    m = Series.from_list([Series.from_list([1, 2, 3]),
                          Series.from_list([4, 5]),
                          Series.from_list([6])])
    tt = transpose(transpose(m))
    for i in range(4):
        a = m.at(i)
        b = tt.at(i)
        av = a.coefficients(4) if isinstance(a, Series) else [a] * 4
        bv = b.coefficients(4) if isinstance(b, Series) else [b] * 4
        assert av == bv


def test_transpose_of_zero():
    assert transpose(ZERO) is ZERO


def test_transpose_reads_tower_coefficients_as_rows():
    # Row k holds element k of each tower: its k-th derivative.
    m = Series.from_list([Dif.var(0.5), Dif.const(2.0), 0])
    rows = transpose(m).take(3)
    assert [r.coefficients(3) for r in rows] == [[0.5, 2.0, 0], [1, 0, 0],
                                                 [0, 0, 0]]


def test_transpose_reads_a_scalar_coefficient_as_a_constant_series():
    # Row 0 holds the scalar itself; every later row the int 0.
    m = Series.from_list([5, Series.from_list([1, 2]), 0.5])
    rows = [r.coefficients(3) for r in transpose(m).take(3)]
    assert rows == [[5, 1, 0.5], [0, 2, 0], [0, 0, 0]]
    assert [[type(v) for v in row] for row in rows] == [[int, int, float],
                                                        [int] * 3, [int] * 3]


def test_row_3000_of_a_transpose_reads_under_limit_150():
    # Entry i of a coefficient is read by a loop over its tails, so the
    # depth of a read does not grow with the row.
    script = (
        "import sys\n"
        "from corec.qft import dyson_schwinger\n"
        "from corec.series import transpose\n"
        "sys.setrecursionlimit(150)\n"
        "row = transpose(dyson_schwinger()).at(3000).take(4)\n"
        "sys.setrecursionlimit(1000)\n"
        "assert row == [0, 0, 0, 0], row\n"
        "assert all(type(v) is int for v in row), row\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr[-500:]


def test_rows_read_in_turn_take_one_tail_step_an_entry(monkeypatch):
    # Each coefficient keeps the tails that reads of its entries reached,
    # so a window of n rows reads each of the n - 1 tails it needs once.
    import corec.series as series
    n = 30
    m = Series.from_list([1 / (1 - Series.from_list([0, k + 1]))
                          for k in range(n)])
    for c in m.take(n):
        c.coefficients(n)
    steps, tail = [0], series._tail

    def counting(node):
        steps[0] += 1
        return tail(node)

    monkeypatch.setattr(series, "_tail", counting)
    rows = [r.coefficients(n) for r in transpose(m).take(n)]
    assert rows[n - 1][:3] == [1, 2 ** (n - 1), 3 ** (n - 1)]
    assert steps[0] == n * (n - 1)


def test_mul_laziness_bound():
    ca, cb = [0], [0]
    a = counted_series(ca)
    b = counted_series(cb)
    (a * b).coefficients(6)
    assert ca[0] <= 6 and cb[0] <= 6


def test_zero_tail_reads_as_zero_forever():
    assert ZERO.coefficients(4) == [0, 0, 0, 0]
    assert Series.from_list([1]).coefficients(4) == [1, 0, 0, 0]
