"""Derivative towers against an independent oracle: sympy's ``diff``.

Random expression trees over ``+ - * /`` and ``exp log sqrt sin cos atan
asin recip`` and a fixed power are built twice, once as a tower at a point
and once as a sympy expression, and the first tower elements are compared
with the symbolic derivatives evaluated at that point.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from corec.dif import Dif  # noqa: E402

ELEMENTS = 8
UNARY = ("exp", "log", "sqrt", "sin", "cos", "atan", "asin", "recip", "pow")
BINARY = ("+", "-", "*", "/")
# "pow" raises to this fixed exponent.
POWER = -1.5
# The sympy forms of the tower methods that sympy has no function for.
SYMPY_FORMS = {"recip": lambda u: 1 / u, "pow": lambda u: u ** sp.Rational(-3, 2)}

# The variable is drawn three times as often as a constant, so that most
# trees are towers rather than compact constants.
leaves = st.sampled_from([("x",)] * 3 + [("c", -2.0), ("c", 0.75), ("c", 1.5)])


def _trees(ops):
    """Expression trees with exactly ``ops`` operators.

    sympy's cost for eight derivatives grows steeply with nesting, so the
    trees stay small enough that every example runs in well under a second.
    """
    if ops == 0:
        return leaves
    return st.one_of(
        st.tuples(st.sampled_from(UNARY), _trees(ops - 1)),
        st.integers(0, ops - 1).flatmap(lambda k: st.tuples(
            st.sampled_from(BINARY), _trees(k), _trees(ops - 1 - k))),
    )


class _OutOfDomain(Exception):
    """A denominator near 0 or an asin argument near +-1; the example is skipped."""


def _build(tree, x, const, fn, check):
    """Fold ``tree`` with leaves ``x``/``const(c)`` and functions ``fn(name, arg)``.

    log, sqrt and pow see ``u*u + 1``, so their arguments are always in
    their domains. ``check(u, inside=r)`` or ``check(u, outside=r)`` may
    reject an asin argument or a denominator (of ``/`` or recip) whose value
    is not inside or outside (-r, r).
    """
    op = tree[0]
    if op == "x":
        return x
    if op == "c":
        return const(tree[1])
    args = [_build(t, x, const, fn, check) for t in tree[1:]]
    if op in UNARY:
        (u,) = args
        if op in ("log", "sqrt", "pow"):
            u = u * u + 1
        elif op == "asin":
            check(u, inside=0.9)
        elif op == "recip":
            check(u, outside=0.25)
        return fn(op, u)
    a, b = args
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    check(b, outside=0.25)
    return a / b


def _tower(tree, x0):
    def check(u, inside=math.inf, outside=0.0):
        if not outside <= abs(u.value) < inside:
            raise _OutOfDomain

    def fn(name, u):
        return u.pow(POWER) if name == "pow" else getattr(u, name)()

    return _build(tree, Dif.var(x0), Dif.const, fn, check).elements(ELEMENTS)


def _sympy_derivatives(tree, x0):
    x = sp.Symbol("x")
    def fn(name, u):
        return SYMPY_FORMS.get(name, getattr(sp, name, None))(u)

    expr = _build(tree, x, sp.Float, fn, lambda u, **limits: None)
    derivatives = []
    for _ in range(ELEMENTS):
        derivatives.append(expr)
        expr = sp.diff(expr, x)
    # Evaluated in 30-digit arithmetic, far beyond the towers' doubles.
    at = sp.lambdify(x, derivatives, modules="mpmath")
    with mpmath.workdps(30):
        return [complex(v) for v in at(mpmath.mpf(x0))]


def _matches_sympy(got, tree, x0):
    # The elements of the tower against sympy's derivatives of the tree.
    want = _sympy_derivatives(tree, x0)
    for k, (g, w) in enumerate(zip(got, want)):
        assert abs(w.imag) <= 1e-20 * max(1.0, abs(w))
        # Float rounding grows with the size of the terms that cancel, which
        # the largest element so far bounds from below.
        scale = max(1.0, max(abs(v) for v in want[:k + 1]))
        assert abs(g - w.real) <= 1e-8 * scale, (k, got, want)


def _in_range(got):
    return all(math.isfinite(v) and abs(v) < 1e12 for v in got)


# A fixed sequence of examples keeps the suite's run time the same from run
# to run; the cost of one example varies a hundredfold with its tree.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(tree=st.integers(1, 3).flatmap(_trees), x0=st.sampled_from([-1.3, -0.4, 0.3, 0.9, 1.7]))
def test_towers_match_sympy_derivatives(tree, x0):
    try:
        got = _tower(tree, x0)
    except (_OutOfDomain, OverflowError):
        assume(False)
    assume(_in_range(got))
    _matches_sympy(got, tree, x0)


# The derandomized examples above draw no cos and compare no asin; these
# fixed trees do. Each lies inside the domain guards and its elements are in
# range, so every one reaches the comparison.
@pytest.mark.parametrize("tree, x0", [
    (("cos", ("x",)), 1.7),
    (("cos", ("*", ("x",), ("x",))), -0.4),
    (("asin", ("x",)), 0.3),
    (("asin", ("*", ("c", 0.75), ("sin", ("x",)))), 0.9),
])
def test_cos_and_asin_towers_match_sympy_derivatives(tree, x0):
    got = _tower(tree, x0)
    assert _in_range(got)
    _matches_sympy(got, tree, x0)
