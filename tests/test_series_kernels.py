"""Series products and quotients against dense references written here.

Operands are random rational or float coefficient lists, either ending in
the compact ZERO (``from_list``) or infinite (a prefix followed by a
repeating cycle of nodes). The references work on plain Python lists.
"""

from fractions import Fraction

import pytest

from corec.catalog import bessel_series, partitions
from corec.cells import LazyPair, NonProductiveError
from corec.qft import dyson_schwinger
from corec.series import Series, ZERO
from corec.wkb import airy_s0_prime, wkb_expand

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

N = 12

ints = st.integers(-9, 9)
rationals = st.builds(Fraction, ints, st.integers(1, 9))
# Mixed ints and Fractions, so that the int-only and Fraction terms differ.
exacts = st.one_of(ints, rationals)
floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _infinite(prefix, cycle):
    # prefix, then cycle repeated forever as a ring of nodes
    ring = Series.cons(cycle[-1], lambda: start)
    for v in reversed(cycle[:-1]):
        ring = Series.cons(v, ring)
    start = ring
    node = ring
    for v in reversed(prefix):
        node = Series.cons(v, node)
    return node


def _operands(values):
    """(series, its first N coefficients, its length or None if infinite)."""
    return st.one_of(
        st.lists(values, min_size=1, max_size=N).map(_polynomial),
        st.tuples(st.lists(values, max_size=4),
                  st.lists(values, min_size=1, max_size=4)).map(
            lambda pc: (_infinite(*pc), _repeat(*pc), None)),
    )


def _polynomial(xs):
    return Series.from_list(xs), xs + [0] * (N - len(xs)), len(xs)


def _repeat(prefix, cycle):
    out = list(prefix)
    while len(out) < N:
        out += cycle
    return out[:N]


def _terms(n, la, lb):
    # The k for which both operands have a node: k < la and n - k < lb.
    lo = 0 if lb is None else max(0, n + 1 - lb)
    hi = n if la is None else min(n, la - 1)
    return range(lo, hi + 1)


def _product(a, la, b, lb):
    """Coefficient n is the sum of a_k b_(n-k), nested to the right."""
    out = []
    for n in range(N):
        ks = _terms(n, la, lb)
        if not ks:
            out.append(0)
            continue
        acc = a[ks[-1]] * b[n - ks[-1]]
        for k in reversed(ks[:-1]):
            acc = a[k] * b[n - k] + acc
        out.append(acc)
    return out


def _quotient(a, la, b, lb):
    """Long division: q_n = (a_n - q_0 b_n - q_1 b_(n-1) - ...) / b_0."""
    q = []
    for n in range(N):
        r = a[n] if la is None or n < la else None
        for j in range(0 if lb is None else max(0, n + 1 - lb), n):
            t = q[j] * b[n - j]
            r = -t if r is None else r - t
        if r is None:
            # a polynomial divided by a constant has ended
            q.append(0)
            continue
        exact_ints = isinstance(r, int) and isinstance(b[0], int)
        q.append(Fraction(r, b[0]) if exact_ints else r / b[0])
    return q


def _same(got, want):
    # Equal values of the same type; floats bit for bit, signed zeros too.
    assert [type(g) for g in got] == [type(w) for w in want], (got, want)
    assert [repr(g) for g in got] == [repr(w) for w in want], (got, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(u=_operands(exacts), v=_operands(exacts))
def test_exact_products_match_the_dense_sum(u, v):
    (su, a, la), (sv, b, lb) = u, v
    _same((su * sv).coefficients(N), _product(a, la, b, lb))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(u=_operands(floats), v=_operands(floats))
def test_float_products_are_the_right_nested_sum(u, v):
    (su, a, la), (sv, b, lb) = u, v
    _same((su * sv).coefficients(N), _product(a, la, b, lb))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(u=_operands(exacts), v=_operands(exacts))
def test_exact_quotients_match_long_division(u, v):
    (su, a, la), (sv, b, lb) = u, v
    assume(b[0] != 0)
    got = (su / sv).coefficients(N)
    want = _quotient(a, la, b, lb)
    _same(got, want)
    assert _product(got, None, b, lb) == a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(u=_operands(floats), v=_operands(floats))
def test_float_quotients_match_long_division(u, v):
    (su, a, la), (sv, b, lb) = u, v
    assume(b[0] != 0)
    _same((su / sv).coefficients(N), _quotient(a, la, b, lb))


# -- sums with a shifted operand ----------------------------------------------

def _shifted_sum(sign, a, la, b, lb, k):
    """Dense u + x^k v or u - x^k v, read as the pointwise sum reads it:
    where only one operand has a node the result is that node's value,
    negated for v under subtraction; the zeros of x^k are the int 0."""
    out = []
    for j in range(N):
        in_u = la is None or j < la
        in_v = lb is None or j < k + lb
        x = 0 if j < k else b[j - k]
        if in_u and in_v:
            out.append(a[j] + x if sign == "+" else a[j] - x)
        elif in_u:
            out.append(a[j])
        elif in_v:
            out.append(x if sign == "+" else -x)
        else:
            out.append(0)
    return out


def _plus_or_minus(sign, u, v):
    return u + v if sign == "+" else u - v


# -0.0 is drawn often, so that it falls inside the shift's zeros.
signed_floats = st.one_of(st.just(-0.0), floats)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(u=_operands(exacts), v=_operands(exacts), k=st.integers(0, N),
       sign=st.sampled_from("+-"))
def test_exact_sums_with_a_shift_match_the_dense_sum(u, v, k, sign):
    (su, a, la), (sv, b, lb) = u, v
    got = _plus_or_minus(sign, su, sv.shift(k)).coefficients(N)
    _same(got, _shifted_sum(sign, a, la, b, lb, k))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(u=_operands(signed_floats), v=_operands(signed_floats),
       k=st.integers(0, N), sign=st.sampled_from("+-"))
def test_float_sums_with_a_shift_match_the_dense_sum(u, v, k, sign):
    (su, a, la), (sv, b, lb) = u, v
    got = _plus_or_minus(sign, su, sv.shift(k)).coefficients(N)
    _same(got, _shifted_sum(sign, a, la, b, lb, k))


def test_signed_zeros_over_a_shift_keep_their_sum():
    u = Series.from_list([-0.0, 1.5, -0.0, -0.0])
    v = Series.from_list([-0.0, 2.0])
    _same((u + v.shift(2)).coefficients(5), [0.0, 1.5, -0.0, 2.0, 0])
    _same((u - v.shift(2)).coefficients(5), [-0.0, 1.5, 0.0, -2.0, 0])
    _same((u + v.shift(6)).coefficients(8), [0.0, 1.5, 0.0, 0.0, 0, 0, -0.0, 2.0])


def test_a_sum_builds_none_of_the_zeros_of_a_shift():
    u = Series.from_list([1, 2, 3, 4, 5, 6])
    v = Series.from_list([7, Fraction(1, 2)])
    shifted = v.shift(4)
    _same((u + shifted).coefficients(8), [1, 2, 3, 4, 12, Fraction(13, 2), 0, 0])
    _same((u - shifted).coefficients(8), [1, 2, 3, 4, -2, Fraction(11, 2), 0, 0])
    # Only the first zero exists, built by shift; its tail is still unread.
    assert repr(shifted) == "<Series [0...]>"
    # u ends inside the shift: the rest of the zeros, then v (negated).
    short = Series.from_list([1])
    _same((short + shifted).coefficients(7), [1, 0, 0, 0, 7, Fraction(1, 2), 0])
    _same((short - shifted).coefficients(7), [1, 0, 0, 0, -7, Fraction(-1, 2), 0])
    assert repr(shifted) == "<Series [0...]>"


@pytest.mark.parametrize("walked", range(7))
def test_a_shift_walked_by_another_reader_gives_the_same_sum(walked):
    u = _infinite([], [1, Fraction(1, 3)])
    v = Series.from_list([7, 8])
    want = [1, Fraction(1, 3), 1, Fraction(1, 3), 8, Fraction(25, 3), 1]
    shifted = v.shift(4)
    assert shifted.take(walked) == [0, 0, 0, 0, 7, 8, 0][:walked]
    _same((u + shifted).coefficients(7), want)
    _same((u - shifted.tail.tail).coefficients(5),
          [1, Fraction(1, 3), -6, Fraction(-23, 3), 1])


def test_nested_shifts_and_monomials_pass_through_lazily():
    u = _infinite([], [1])
    v = Series.from_list([5])
    assert (u + v.shift(2).shift(3)).coefficients(8) == [1, 1, 1, 1, 1, 6, 1, 1]
    assert (u + Series.monomial(3)).coefficients(5) == [1, 1, 1, 2, 1]
    # Far shifts cost nothing until their positions are read.
    assert (u + v.shift(10 ** 9)).take(3) == [1, 1, 1]


def test_int_operands_give_int_coefficients():
    got = (Series.from_list([1, 2, 3]) * Series.from_list([4, 5])).coefficients(5)
    _same(got, [4, 13, 22, 15, 0])
    mixed = Series.from_list([Fraction(1, 2), 2, 3]) * Series.from_list([4, 5])
    # Coefficients 2 and 3 have no Fraction operand, so they stay ints.
    _same(mixed.coefficients(5), [Fraction(2), Fraction(21, 2), 22, 15, 0])


def _nodes_before_zero(node, limit=20):
    # Read in order, as take does: the ends are learned from what is read.
    count = 0
    while node is not ZERO and count < limit:
        node.head
        node = node.tail
        count += 1
    return count


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=st.lists(exacts, min_size=1, max_size=6),
       b=st.lists(exacts, min_size=1, max_size=6))
def test_polynomial_products_end_in_zero_past_their_degree(a, b):
    u, v = Series.from_list(a), Series.from_list(b)
    assert _nodes_before_zero(u * v) == len(a) + len(b) - 1
    # Divided by a constant, a polynomial stays one.
    c = Series.from_list([b[0] or 1])
    assert _nodes_before_zero(u / c) == len(a)


def _counted_polynomial(values, forced):
    # values, then ZERO; every coefficient read is recorded in forced.
    node = ZERO
    for k in reversed(range(len(values))):
        node = Series(lambda k=k: forced.append(k) or values[k],
                      lambda node=node: node)
    return node


def _tails_before_zero(node, limit=20):
    # Walk by .tail alone, reading no coefficient.
    count = 0
    while node is not ZERO and count < limit:
        node = node.tail
        count += 1
    return count


@settings(max_examples=20, deadline=None, derandomize=True)
@given(a=st.lists(exacts, min_size=1, max_size=6),
       b=st.lists(exacts, min_size=1, max_size=6))
def test_polynomial_ends_are_found_from_tails_alone(a, b):
    forced = []
    u, v = _counted_polynomial(a, forced), _counted_polynomial(b, forced)
    assert _tails_before_zero(u * v) == len(a) + len(b) - 1
    assert forced == []
    # A quotient reads the divisor's constant term up front, and no more.
    c = Series.from_list([b[0] or 1])
    assert _tails_before_zero(u / c) == len(a)
    assert forced == []


@settings(max_examples=20, deadline=None, derandomize=True)
@given(a=st.lists(exacts, min_size=1, max_size=6))
def test_a_polynomial_square_ends_where_the_general_product_does(a):
    forced = []
    u = _counted_polynomial(a, forced)
    v, w = _counted_polynomial(a, forced), _counted_polynomial(a, forced)
    assert _tails_before_zero(u * u) == _tails_before_zero(v * w) == 2 * len(a) - 1
    assert forced == []
    s = Series.from_list(a)
    assert _nodes_before_zero(s * s) == 2 * len(a) - 1


def test_tails_of_a_product_of_two_polynomials_reach_zero():
    p = Series.from_list([1, 2]) * Series.from_list([3, 4, 5])
    for _ in range(4):
        p = p.tail
    assert p is ZERO


def _tail_recording(values, tails):
    # values, then ZERO; the position of every tail forced is recorded.
    node = ZERO
    for k in reversed(range(len(values))):
        node = Series.cons(values[k],
                           lambda k=k, node=node: tails.append(k) or node)
    return node


def test_the_head_of_a_product_or_quotient_forces_no_operand_tail():
    # Where a polynomial result ends is asked only when its tail is read.
    tails = []
    u = _tail_recording([1, 2, 3], tails)
    v = _tail_recording([2, Fraction(1, 2)], tails)
    assert (u * v).head == 2
    assert (u / v).head == Fraction(1, 2)
    assert tails == []


def _counting(values, forced):
    # An infinite series that records the index of every coefficient forced.
    def at(k):
        def head():
            forced.append(k)
            return values[k % len(values)]
        return Series(head, lambda: at(k + 1))
    return at(0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(0, N - 1), op=st.sampled_from(["*", "/", "square"]))
def test_element_n_forces_no_operand_element_beyond_n(n, op):
    fu, fv = [], []
    u = _counting([Fraction(1, 2), 3, -1], fu)
    v = _counting([2, Fraction(-1, 3)], fv)
    w = {"*": lambda: u * v, "/": lambda: u / v, "square": lambda: u * u}[op]()
    for _ in range(n):
        w = w.tail
    w.head
    assert max(fu + fv) <= n


# -- squares: u * u against u * w, w a distinct copy of u ----------------------

def _copies(values):
    """A constructor of equal series: a polynomial or an infinite one."""
    return st.one_of(
        st.lists(values, min_size=1, max_size=N).map(
            lambda xs: lambda: Series.from_list(xs)),
        st.tuples(st.lists(values, max_size=4),
                  st.lists(values, min_size=1, max_size=4)).map(
            lambda pc: lambda: _infinite(*pc)),
    )


def _bits(value, n=6):
    # The type and the value; a float bit for bit, a tower or an inner series
    # by its first n elements.
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, LazyPair):
        return type(value).__name__, [_bits(v) for v in value.take(n)]
    return type(value).__name__, repr(value)


def _read(s, n):
    return [_bits(c) for c in s.take(n)], repr(s)


def _square_and_product(make):
    # u * u and v * w, for three series built by one constructor
    u, v, w = make(), make(), make()
    return _read(u * u, N), _read(v * w, N)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(make=_copies(exacts))
def test_exact_squares_match_the_product_of_two_copies(make):
    square, product = _square_and_product(make)
    assert square == product


@settings(max_examples=60, deadline=None, derandomize=True)
@given(make=_copies(st.one_of(floats, st.just(-0.0), ints)))
def test_float_and_mixed_squares_are_the_general_fold_bit_for_bit(make):
    square, product = _square_and_product(make)
    assert square == product


@pytest.mark.parametrize("make", [
    lambda: Series.from_list([1, 2, 3, -4]),
    lambda: Series.from_list([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]),
    lambda: Series.from_list([1, Fraction(1, 2), 0, 3, Fraction(-1, 9)]),
    lambda: Series.from_list([0, 1]).exp(),
    partitions,
    bessel_series,
    lambda: Series.from_list([1.3, 0.7, -0.2, 0.11]),
    lambda: Series.from_list([1.3, 0.7, -0.2, 0.11]).recip(),
    lambda: Series.from_list([1, 0.5, 2]),
    lambda: wkb_expand(airy_s0_prime(1.3), 4).u,
], ids=["int", "fraction", "int-and-fraction", "exp", "partitions", "bessel",
        "float", "float-recip", "int-and-float", "towers"])
def test_squares_are_the_product_of_two_copies(make):
    # Exact values keep their types and reprs; floats, towers and mixed
    # values are the general fold, bit for bit.
    square, product = _square_and_product(make)
    assert square == product


def _counting_products(monkeypatch):
    # Every product of two series built from now on, counted as it is built.
    calls = []
    mul = Series.__mul__

    def counted(self, other):
        if isinstance(other, Series):
            calls.append(self is other)
        return mul(self, other)

    monkeypatch.setattr(Series, "__mul__", counted)
    return calls


def test_a_square_of_a_series_of_series_builds_half_the_inner_products(
        monkeypatch):
    # Coefficient k + 1 of c = J + t (c' + c^2) reads coefficient k of the
    # square c * c: one product a pair of inner series, and one inner square
    # for the middle term of an even k. The leading 1 is c * c itself.
    calls = _counting_products(monkeypatch)
    dyson_schwinger().take(12)
    assert len(calls) == 1 + sum(k // 2 + 1 for k in range(11)) == 37
    assert calls.count(True) == 1 + 6
    # Over the same prefix, a product of two distinct copies builds one
    # inner product for each k.
    phi, copy = dyson_schwinger(), dyson_schwinger()
    phi.take(12)
    copy.take(12)
    calls.clear()
    (phi * copy).take(11)
    assert len(calls) == 1 + sum(k + 1 for k in range(11)) == 67
    calls.clear()
    (phi * phi).take(11)
    assert len(calls) == 37


# -- self-referential definitions through the product and quotient ----------

def test_exp_recip_and_revert_through_the_kernel():
    x = Series.from_list([0, 1])
    factorials = [1]
    for k in range(1, 15):
        factorials.append(factorials[-1] * k)
    assert x.exp().coefficients(15) == [Fraction(1, f) for f in factorials]
    assert Series.from_list([1, -1]).recip().coefficients(15) == [1] * 15
    # x/(1 - x - x^2) = 1/(1 - x - x^2) shifted: the Fibonacci numbers
    fib = Series.from_list([0, 1]) / Series.from_list([1, -1, -1])
    assert fib.coefficients(12) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    # revert(x + x^2) is sum (-1)^(n-1) Catalan(n-1) x^n
    catalan = [1]
    for n in range(1, 14):
        catalan.append(catalan[-1] * 2 * (2 * n - 1) // (n + 1))
    want = [0] + [(-1) ** (n - 1) * catalan[n - 1] for n in range(1, 15)]
    assert Series.from_list([0, 1, 1]).revert().coefficients(15) == want


def test_partitions_from_the_divisor_sums():
    # x P' = P * sigma: P is its own product's integral, p_0 = 1.
    n = 60
    sigma = [sum(d for d in range(1, k + 2) if (k + 1) % d == 0)
             for k in range(n)]
    p = Series.defer(lambda: (p * Series.from_list(sigma)).integral(1))
    assert p.coefficients(n) == partitions().coefficients(n)


def test_non_productive_products_and_quotients_raise():
    s = Series.defer(lambda: s * s)
    with pytest.raises(NonProductiveError):
        s.head
    q = Series.defer(lambda: Series.from_list([1, 1]) / q)
    with pytest.raises(NonProductiveError):
        q.head
