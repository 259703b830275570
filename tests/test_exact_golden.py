"""Exact results against a golden file of their types and reprs.

Each line of ``data/exact_golden.txt`` is a label, the type of the result
and its ``repr``, tab-separated. A series or tower result is shown unread,
then its first elements, then again once they are read, so that a change
in what an operation builds shows up as well as a change in its values.
Only exact (int and Fraction) results are kept; floats depend on the
platform's libm.

After a change that is meant to alter results, regenerate the file with
``PYTHONPATH=src python tests/test_exact_golden.py --write`` and review
the diff.
"""

import os
import sys
from fractions import Fraction as F

from corec.catalog import bessel_series, fibonacci, integers, partitions
from corec.cells import LazyPair, NonProductiveError
from corec.dif import Dif, ZERO_TOWER, taylor_from_tower
from corec.qft import greens
from corec.series import ZERO, Series, transpose

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "exact_golden.txt")

_POLYS = {
    "a": [1, 2, 3],
    "b": [F(1, 2), -1],
    "c": [0, 1],
    "d": [0, 1, 1],
    "e": [2],
    "f": [0, 0, 3],
    "g": [1, -1],
    "h": [F(3, 4), 0, F(-2, 5), 1],
}


def _poly(name):
    return Series.from_list(_POLYS[name])


def _cases():
    yield "partitions", 301, partitions
    yield "bessel", 61, bessel_series
    yield "integers", 40, integers
    yield "fibonacci", 40, fibonacci
    for n in (2, 3, 4):
        yield "greens(%d, 15)" % n, 16, lambda n=n: greens(n, 15)
    yield "ZERO", 3, lambda: ZERO
    yield "ZERO - 3", 3, lambda: ZERO - 3
    yield "ZERO + 3", 3, lambda: ZERO + 3
    yield "3 - ZERO", 3, lambda: 3 - ZERO
    for p in _POLYS:
        u = lambda p=p: _poly(p)
        yield p, 6, u
        yield "%s + 5" % p, 6, lambda u=u: u() + 5
        yield "%s - 1/3" % p, 6, lambda u=u: u() - F(1, 3)
        yield "7 - %s" % p, 6, lambda u=u: 7 - u()
        yield "%s.diff()" % p, 6, lambda u=u: u().diff()
        yield "%s.diff().diff()" % p, 6, lambda u=u: u().diff().diff()
        yield "%s.integral()" % p, 6, lambda u=u: u().integral()
        yield "%s.integral(2)" % p, 6, lambda u=u: u().integral(2)
        yield "%s * %s" % (p, p), 8, lambda u=u: (lambda s: s * s)(u())
        yield "%s ** 3" % p, 12, lambda u=u: u() ** 3
        yield "%s.scale(3)" % p, 6, lambda u=u: u().scale(3)
        yield "%s / 3" % p, 6, lambda u=u: u() / 3
        yield "-%s" % p, 6, lambda u=u: -u()
        yield "%s.shift(2)" % p, 8, lambda u=u: u().shift(2)
        yield "%s.recip()" % p, 10, lambda u=u: u().recip()
        yield "1 / %s" % p, 10, lambda u=u: 1 / u()
        yield "%s.compose(d)" % p, 10, lambda u=u: u().compose(_poly("d"))
        for q in ("a", "b", "c", "g", "h"):
            yield ("%s * %s" % (p, q), 10,
                   lambda u=u, q=q: u() * _poly(q))
            yield ("%s / %s" % (p, q), 10,
                   lambda u=u, q=q: u() / _poly(q))
        yield "%s.exp()" % p, 10, lambda u=u: u().exp()
        yield "%s.log()" % p, 10, lambda u=u: u().log()
        yield "%s.sqrt()" % p, 10, lambda u=u: u().sqrt()
        yield "%s.revert()" % p, 10, lambda u=u: u().revert()
    for p in ("a", "g"):
        for op in ("sin", "cos", "atan", "asin"):
            yield ("(%s - 1).%s()" % (p, op), 8,
                   lambda p=p, op=op: getattr(_poly(p) - 1, op)())
    yield "(1 + x).pow(1/2)", 10, lambda: Series.from_list([1, 1]).pow(F(1, 2))
    yield "(1 - x).pow(-2)", 10, lambda: _poly("g").pow(-2)
    yield "x e^x reverted", 10, lambda: (_poly("c") * _poly("c").exp()).revert()
    yield "exp(x).compose(x + x^2)", 10, lambda: _poly("c").exp().compose(_poly("d"))
    yield "diff(exp(x))", 10, lambda: _poly("c").exp().diff()
    yield "integral(exp(x), 1)", 10, lambda: _poly("c").exp().integral(1)
    yield "exp(x) * exp(-x)", 10, lambda: _poly("c").exp() * (-_poly("c")).exp()
    yield "exp(x) / (1 - x)", 10, lambda: _poly("c").exp() / _poly("g")
    yield "transpose", 4, lambda: transpose(
        Series.from_list([_poly("a"), _poly("b"), 3]))
    yield "a / c", 4, lambda: _poly("a") / _poly("c")
    yield "a / ZERO", 4, lambda: _poly("a") / ZERO
    yield "ZERO * a", 4, lambda: ZERO * _poly("a")
    yield "ZERO.diff()", 4, lambda: ZERO.diff()
    yield "ZERO.integral(0)", 4, lambda: ZERO.integral(0)
    yield "ZERO.integral(5)", 4, lambda: ZERO.integral(5)
    for x0 in (0, F(1, 2), 2):
        x = lambda x0=x0: Dif.var(x0)
        yield "var(%s)" % x0, 6, x
        yield "var(%s) + 3" % x0, 6, lambda x=x: x() + 3
        yield "1 - var(%s)" % x0, 6, lambda x=x: 1 - x()
        yield "var(%s)^3" % x0, 6, lambda x=x: x() * x() * x()
        yield "1 / (1 + var(%s))" % x0, 8, lambda x=x: 1 / (1 + x())
        yield ("(var^2 + 1) / (var + 2) at %s" % x0, 8,
               lambda x=x: (x() * x() + 1) / (x() + 2))
        yield "(1 + var(%s)).recip()" % x0, 8, lambda x=x: (1 + x()).recip()
        yield ("(1 + var(%s))^2 sqrt" % x0, 8,
               lambda x=x: ((1 + x()) * (1 + x())).sqrt())
        yield ("taylor of 1/(2 - var(%s))" % x0, 8,
               lambda x=x: taylor_from_tower(1 / (2 - x())))
        yield ("taylor of var(%s)^3" % x0, 8,
               lambda x=x: taylor_from_tower(x() * x() * x()))
    yield "exp(var(0))", 10, lambda: Dif.var(0).exp()
    yield "log(1 + var(0))", 10, lambda: (1 + Dif.var(0)).log()
    yield "sin(var(0))", 10, lambda: Dif.var(0).sin()
    yield "cos(var(0))", 10, lambda: Dif.var(0).cos()
    yield "atan(var(0))", 10, lambda: Dif.var(0).atan()
    yield "taylor of exp(var(0))", 10, lambda: taylor_from_tower(Dif.var(0).exp())
    yield "var(0) / var(0)", 6, lambda: Dif.var(0) / Dif.var(0)
    yield ("var(0)^2 / var(0)", 6,
           lambda: (Dif.var(0) * Dif.var(0)) / Dif.var(0))
    yield ("sin(var(0)) / var(0)", 8,
           lambda: Dif.var(0).sin() / Dif.var(0))
    yield "const(0) / const(0)", 3, lambda: Dif.const(0) / Dif.const(0)
    yield "var(1) / const(0)", 3, lambda: Dif.var(1) / Dif.const(0)
    yield "1 / var(0)", 3, lambda: 1 / Dif.var(0)
    yield "taylor of ZERO_TOWER", 3, lambda: taylor_from_tower(ZERO_TOWER)
    # Squares: a series times itself, directly or inside a definition.
    yield "greens(2, 40)", 41, lambda: greens(2, 40)
    yield ("partitions() * partitions()", 30,
           lambda: (lambda s: s * s)(partitions()))
    yield "(x e^x) ** 4", 12, lambda: (_poly("c") * _poly("c").exp()) ** 4
    yield ("(x + x^2/3).atan()", 12,
           lambda: Series.from_list([0, 1, F(1, 3)]).atan())
    yield ("(1 + x + x^2/3).recip()", 12,
           lambda: Series.from_list([1, 1, F(1, 3)]).recip())


def _line(label, n, make):
    try:
        result = make()
        if not isinstance(result, LazyPair):
            return "%s\t%s\t%r" % (label, type(result).__name__, result)
        before = repr(result)
        items = result.take(n)
        return "%s\t%s\t%s\t%r\t%r" % (label, type(result).__name__, before,
                                       items, result)
    except NonProductiveError:
        return "%s\t!NonProductiveError" % label
    except (ArithmeticError, ValueError, TypeError) as exc:
        return "%s\t!%s\t%s" % (label, type(exc).__name__, exc)


def lines():
    return [_line(label, n, make) for label, n, make in _cases()]


def test_exact_results_match_the_golden_file():
    with open(GOLDEN) as fh:
        expected = fh.read().splitlines()
    got = lines()
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_exact_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.write("\n".join(lines()) + "\n")
