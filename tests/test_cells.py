"""Pointwise nodes, deferred nodes and the non-productivity message."""

import os
import sys
import weakref
from operator import add

import pytest

from corec.cells import NonProductiveError
from corec.dif import Dif, ZERO_TOWER
from corec.series import Series, ZERO
from corec.stream import Stream, defer, repeat, zip_with

from support import run_python


class _Tracked(Stream):
    # Stream nodes that accept weak references.
    __slots__ = ("__weakref__",)


class _TrackedSeries(Series):
    __slots__ = ("__weakref__",)


_FILE = os.path.basename(__file__)


def _where(marker):
    # "file:line" of the line of this file that ends with the comment marker.
    with open(__file__) as fh:
        for number, line in enumerate(fh, 1):
            if line.rstrip().endswith("# " + marker):
                return "%s:%d" % (_FILE, number)
    raise AssertionError(marker)


def _non_productive_message(node):
    with pytest.raises(NonProductiveError) as info:
        node.head
    return str(info.value)


def test_zip_with_node_releases_its_operands_once_forced():
    a = _Tracked.cons(1, repeat(1))
    b = _Tracked.cons(2, repeat(2))
    refs = [weakref.ref(a), weakref.ref(b)]
    z = zip_with(add, a, b)
    del a, b
    assert z.head == 3
    # Both operand tails are forced, so the head builds the successor too.
    assert all(ref() is None for ref in refs)
    assert z.tail.head == 3


def test_zip_with_node_keeps_its_operands_while_a_tail_is_unforced():
    a = _Tracked.cons(1, repeat(1))
    b = _Tracked.cons(2, lambda: repeat(2))
    refs = [weakref.ref(a), weakref.ref(b)]
    z = zip_with(add, a, b)
    del a, b
    assert z.head == 3
    assert all(ref() is not None for ref in refs)  # the tail still needs them
    assert z.tail.head == 3
    assert all(ref() is None for ref in refs)


def test_head_runs_the_op_once_and_no_user_code_for_the_successor():
    calls = []

    def f(v):
        calls.append(v)
        return -v

    m = Stream.cons(2, repeat(3)).map(f)
    assert m.head == -2
    assert calls == [2]
    assert m.take(3) == [-2, -3, -3]
    assert calls == [2, 3, 3]


def test_a_failing_successor_leaves_the_head_and_fails_at_the_tail():
    # The successor of the sum adds the two constant tails, and 10**400
    # does not fit a float.
    d = Dif.cons(1.0, Dif.const(10 ** 400)) + Dif.cons(2.0, Dif.const(1.5))
    assert d.head == 3.0
    for _ in range(2):
        with pytest.raises(OverflowError):
            d.tail


def test_deep_pointwise_chains_force_their_head_without_a_crash():
    # Forcing a pointwise operand is a plain Python call, which CPython
    # 3.11 runs without C stack; a deeper C recursion would crash.
    script = (
        "import sys\n"
        "sys.setrecursionlimit(100_000)\n"
        "from corec.series import Series\n"
        "from corec.stream import repeat\n"
        "s = repeat(-1.0)\n"
        "for _ in range(40_000):\n"
        "    s = s.map(abs)\n"
        "u = Series.from_list([1, 2])\n"
        "for _ in range(40_000):\n"
        "    u = -u\n"
        "print(s.head, u.head)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1.0", "1"]


@pytest.mark.parametrize("level", [
    lambda p: Stream(lambda: p.head + 1, lambda: p),
    lambda p: p.map(abs),
], ids=["thunk", "map"])
def test_every_consumer_forces_under_the_callers_limit(level):
    # No consumer raises the recursion limit, so a chain too deep for it
    # fails the same way whichever consumer reads it and however much.
    limit = sys.getrecursionlimit()
    s = repeat(0)
    for _ in range(2500):
        s = level(s)
    for read in (lambda: s.take(1), lambda: s.take(100), lambda: s.take(1000),
                 lambda: next(iter(s)), lambda: s.head):
        with pytest.raises(RecursionError):
            read()
        assert sys.getrecursionlimit() == limit


def test_a_long_take_of_a_deep_thunk_chain_raises_without_a_signal():
    # Thunks use C stack per level; a limit raised for a long take would
    # let this chain overflow the main thread's stack and kill the process.
    script = (
        "from corec.stream import Stream, repeat\n"
        "p = repeat(0)\n"
        "for _ in range(20_000):\n"
        "    p = Stream(lambda p=p: p.head + 1, lambda p=p: p)\n"
        "p.take(4000)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 1, (proc.returncode, proc.stderr[-500:])
    assert "RecursionError" in proc.stderr


def test_map_node_releases_its_operand_once_forced():
    a = _Tracked.cons(5, repeat(1))
    ref = weakref.ref(a)
    m = a.map(lambda v: -v)
    del a
    assert m.tail.head == -1
    assert ref() is not None  # the head still needs it
    assert m.head == -5
    assert ref() is None


def test_series_sum_releases_its_operands_once_forced():
    u = _TrackedSeries.cons(1, Series.from_list([2, 3]))
    v = _TrackedSeries.cons(10, ZERO)
    refs = [weakref.ref(u), weakref.ref(v)]
    w = u - v
    del u, v
    assert w.coefficients(4) == [-9, 2, 3, 0]
    # The tail of u - v is u's own tail, since v ends there.
    assert w.tail.tail.tail is ZERO
    assert all(ref() is None for ref in refs)


def test_deferred_sum_is_non_productive():
    ones = repeat(1)
    s = defer(lambda: s + ones)  # defer-stream-sum
    message = _non_productive_message(s)
    assert _where("defer-stream-sum") in message
    # The same definition fails the same way every time.
    assert _non_productive_message(s) == message


def test_deferred_series_sum_is_non_productive():
    s = Series.defer(lambda: s + Series.from_list([1]))  # defer-series-sum
    assert _where("defer-series-sum") in _non_productive_message(s)


def test_deferred_tower_sum_is_non_productive():
    d = Dif.defer(lambda: d + 1.0)  # defer-tower-sum
    assert _where("defer-tower-sum") in _non_productive_message(d)


def test_message_names_the_deferred_function():
    x = defer(lambda: x.map(lambda v: v + 1))  # defer-map
    message = _non_productive_message(x)
    assert _where("defer-map") in message
    assert "cells.py:" not in message.replace(_FILE, "")


def test_message_names_the_op_of_a_pointwise_node():
    def bump(v):
        return v + 1

    x = defer(lambda: y)
    y = x.map(bump)
    message = _non_productive_message(y)
    assert "%s:%d" % (_FILE, bump.__code__.co_firstlineno) in message
    assert "bump" in message


def test_a_cycle_at_a_later_node_of_a_stream_sum_names_its_op():
    # Element 2 of y reads z_2, which reads y_2 itself; the node of y_2 is
    # built by the forcing machine, not by a rule.
    x = Stream.cons(1, lambda: y)
    z = Stream.cons(0, lambda: Stream.cons(
        0, lambda: Stream(lambda: y.at(2), lambda: repeat(0))))
    y = x + z
    assert y.take(2) == [1, 1]
    for _ in range(2):
        with pytest.raises(NonProductiveError) as info:
            y.at(2)
        assert "the head of the node computing <built-in function add>" in str(info.value)


def test_a_cycle_at_a_series_product_names_its_element_function():
    v = Series(lambda: p.head, lambda: ZERO)
    p = Series.from_list([1, 2]) * v
    assert "(Series.__mul__.<locals>.element)" in _non_productive_message(p)


def test_a_cycle_at_a_tower_product_names_its_element_function():
    v = Dif(lambda: p.head, lambda: ZERO_TOWER)
    p = Dif.var(1) * v
    assert "(Dif.__mul__.<locals>.element)" in _non_productive_message(p)


def test_message_names_a_thunk_node():
    s = Stream(lambda: s.head + 1, lambda: s)  # thunk-node
    assert _where("thunk-node") in _non_productive_message(s)


def test_failed_forcing_can_be_retried():
    calls = []

    def flaky(v):
        calls.append(v)
        if len(calls) == 1:
            raise RuntimeError("first attempt")
        return v * 2

    m = repeat(3).map(flaky)
    with pytest.raises(RuntimeError):
        m.head
    assert m.head == 6
    assert m.take(2) == [6, 6]


# -- reading: n elements force n heads and n - 1 tails ------------------------

def _counted_chain(forced, k=0):
    # A thunk node per element whose thunks record what they force.
    def head():
        forced.append(("head", k))
        return k

    def tail():
        forced.append(("tail", k))
        return _counted_chain(forced, k + 1)

    return Stream(head, tail)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_take_forces_n_heads_and_n_minus_1_tails(n):
    forced = []
    assert _counted_chain(forced).take(n) == list(range(n))
    assert sorted(forced) == sorted([("head", k) for k in range(n)]
                                    + [("tail", k) for k in range(n - 1)])


@pytest.mark.parametrize("k", [0, 1, 4])
def test_at_forces_k_plus_1_heads_and_k_tails(k):
    forced = []
    assert _counted_chain(forced).at(k) == k
    assert sorted(forced) == sorted([("head", j) for j in range(k + 1)]
                                    + [("tail", j) for j in range(k)])


def test_reading_stops_at_the_last_element_returned():
    s = Stream.cons(1, lambda: 1 // 0)
    assert s.take(1) == [1]
    assert s.at(0) == 1
    assert Series.cons(1, lambda: 1 // 0).coefficients(1) == [1]
    # A pointwise node reads no operand tail that is not yet forced.
    assert zip_with(add, s, s).take(1) == [2]
    with pytest.raises(ZeroDivisionError):
        s.take(2)


def test_a_non_productive_tail_is_met_only_when_read():
    s = Stream.cons(1, lambda: s.tail)
    assert s.take(1) == [1]
    with pytest.raises(NonProductiveError):
        s.take(2)


def test_take_and_at_refuse_an_index_that_is_not_an_int():
    s = repeat(1)
    with pytest.raises(TypeError):
        s.take(2.5)
    with pytest.raises(TypeError):
        s.at(1.5)
