"""Pointwise nodes, deferred nodes and the non-productivity message."""

import ast
import cmath
import os
import sys
import weakref
from fractions import Fraction
from math import factorial
from operator import add, sub

import pytest

from corec import cells, dif, series, stream
from corec.catalog import partitions
from corec.cells import NonProductiveError, pointwise
from corec.dif import Dif, ZERO_TOWER, _Const, damped_sine
from corec.series import Series, ZERO, _Prefix
from corec.stream import Stream, defer, repeat, zip_with

from support import (deep_chains, on_a_deep_thread, pentagonal_partitions,
                     run_python)


class _Tracked(Stream):
    # Stream nodes that accept weak references.
    __slots__ = ("__weakref__",)


class _TrackedSeries(Series):
    __slots__ = ("__weakref__",)


class _TrackedDif(Dif):
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


def _counted(monkeypatch, module, name):
    # Wrap module.name so that its calls are counted. Nodes built from here
    # on carry the wrapper as their tail rule.
    calls = []
    rule = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_the_machine_builds_a_tower_recurrences_successors(monkeypatch):
    # damped_sine's steps are rule-less Dif nodes, which never end: no
    # rule of the tower algebra runs, to build a node or a successor.
    calls = [_counted(monkeypatch, dif, name) for name in ("_zip", "_map")]
    values = damped_sine(Dif.var(0.4)).take(500)
    # sin(x) exp(-x) is the imaginary part of exp((i - 1) x).
    for n in (1, 2, 499):
        want = ((1j - 1) ** n * cmath.exp((1j - 1) * 0.4)).imag
        assert values[n] == pytest.approx(want, rel=1e-9)
    assert calls == [[], []]


def _built_at_the_tail(monkeypatch):
    # The calls of pointwise() made by the forcing machine's _tail.
    calls = []
    build = cells.pointwise

    def counting(*args):
        if sys._getframe(1).f_code is cells._tail.__code__:
            calls.append(args)
        return build(*args)

    monkeypatch.setattr(cells, "pointwise", counting)
    return calls


def test_tails_read_first_build_successors_without_a_call(monkeypatch):
    # _Prefix reads each tail before the head it leads to, as a product
    # reads its operands, so every successor below is built by _tail.
    calls = _built_at_the_tail(monkeypatch)
    u = Series.from_list([0, 1]).exp()
    v = Series.from_list([0, 2]).exp()
    total = _Prefix(u + v).upto(200)
    product = _Prefix((u + v) * (u - v)).upto(200)
    # exp(x) + exp(2x), and exp(2x) - exp(4x).
    assert total == [Fraction(1 + 2 ** n, factorial(n)) for n in range(201)]
    assert product == [Fraction(2 ** n - 4 ** n, factorial(n))
                       for n in range(201)]
    assert calls == []


def test_partitions_read_tails_first(monkeypatch):
    # Each member of partitions() is a sum that passes the series through
    # a shift, read here by tails first; both paths build their successors.
    calls = _built_at_the_tail(monkeypatch)
    values = _Prefix(partitions()).upto(300)
    assert values == pentagonal_partitions(300)
    assert all(type(v) is int for v in values)
    assert calls == []


def test_the_machine_builds_a_sum_of_infinite_series_successors(monkeypatch):
    calls = _counted(monkeypatch, series, "_zip")
    s = Series.from_list([0, 1]).exp() + Series.from_list([0, 2]).exp()
    values = s.take(500)
    assert values[:4] == [2, 3, Fraction(5, 2), Fraction(3, 2)]
    assert values[499] == Fraction(1 + 2 ** 499, factorial(499))
    assert len(calls) <= 1


def test_a_rule_runs_only_at_the_tail(monkeypatch):
    # Each head is forced while an operand's tail is already a compact
    # form: no successor is built then, and the rule runs when .tail is read.
    calls = [_counted(monkeypatch, series, "_zip"),
             _counted(monkeypatch, dif, "_map")]
    s = Series.from_list([1, 2]) + Series.from_list([3])
    d = Dif.var(2.0) * 3 + 1
    built = [len(c) for c in calls]
    assert (s.head, d.head) == (4, 7.0)
    assert [len(c) for c in calls] == built
    assert s.tail.head == 2 and type(d.tail) is _Const
    assert [len(c) for c in calls] == [n + 1 for n in built]


def _same_class_operands(cls):
    # A thunk node, a node with a known head, and a pointwise node, each
    # of exactly the class cls.
    thunk = cls(lambda: 1, lambda: ZERO if cls is Series else Dif.const(0))
    known = cls.cons(2, thunk)
    return [thunk, known, pointwise(cls, None, add, known, thunk)]


_RULES = [(Series, series._map, 1), (Series, series._map, 2),
          (Series, series._zip, 2), (Dif, dif._map, 1), (Dif, dif._zip, 2)]


@pytest.mark.parametrize("cls, rule, arity", _RULES,
                         ids=["series._map", "series._map2", "series._zip",
                              "dif._map", "dif._zip"])
@pytest.mark.parametrize("op", [add, sub], ids=["add", "sub"])
def test_a_rule_maps_same_class_tails_to_the_node_the_machine_builds(cls, rule,
                                                                     arity, op):
    # The forcing machine builds pointwise(cls, rule, op, a, b) itself when
    # every operand tail has the node's class; each rule must build the same.
    nodes = _same_class_operands(cls)
    for a in nodes:
        for b in (nodes if arity == 2 else [None]):
            node = rule(op, a) if b is None else rule(op, a, b)
            assert type(node) is cls
            # Each cell holds the recipe (op, a, b, rule) until it is forced.
            assert node._h == node._t == (op, a, b, rule)


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.maxsize < 2**32,
                    reason="the node size is that of 64-bit CPython")
def test_a_node_has_four_slots_and_no_dict():
    # Four 8-byte slots after the object and GC headers: one 64-byte
    # pymalloc block a node, where a fifth slot takes an 80-byte one.
    nodes = [repeat(1), zip_with(add, repeat(1), repeat(2)),
             Series.from_list([1, 2]), Series.from_list([1]) * Series.from_list([2]),
             ZERO, Dif.var(2.0), Dif.var(2.0) * 3, Dif.const(1), ZERO_TOWER]
    for node in nodes:
        assert sys.getsizeof(node) == 64, type(node)
        assert not hasattr(node, "__dict__"), type(node)


@pytest.mark.parametrize("head_first", [False, True])
def test_sums_still_end_at_a_compact_form(head_first):
    s = Series.from_list([1, 2]) + Series.from_list([3])
    d = Dif.var(2.0) * 3 + 1
    if head_first:
        # Each head is forced before its tail, while an operand's tail is
        # already a compact form; the rule still runs at .tail.
        assert (s.head, d.head) == (4, 7.0)
        assert (s.tail.head, d.tail.head) == (2, 3.0)
    assert s.tail.tail is ZERO
    assert s.take(3) == [4, 2, 0]
    assert type(d.tail) is _Const and d.tail.value == 3.0
    assert d.tail.tail is ZERO_TOWER


def test_element_400_of_a_tower_product_read_through_its_tails_under_limit_100():
    # Reading the head after 400 tails nests a few frames, not 400: the
    # index nodes know their heads when they are built.
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from math import factorial\n"
        "from corec.dif import Dif\n"
        "x = Dif.var(Fraction(1, 3))\n"
        "p = (1 / (x - 2)) * (1 / (x - 2))\n"
        "sys.setrecursionlimit(100)\n"
        "for _ in range(400):\n"
        "    p = p.tail\n"
        "value = p.head\n"
        "sys.setrecursionlimit(1000)\n"
        "assert value == factorial(401) * Fraction(3, 5) ** 402\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr[-500:]


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


def test_a_deep_defer_chain_and_deep_products_read_under_the_cli_settings():
    # The machine calls defer's thunks and every index tail as Python
    # functions, so the recursion limit alone bounds these depths, on
    # CPython 3.12 and 3.13 as on 3.11. CI runs it on all three; from 3.12
    # on, a C frame per level would exceed the C recursion cap.
    assert on_a_deep_thread(lambda: deep_chains(10_000)) == (10_000, [1, 10_001])


def test_deep_defer_chains_and_products_nest_no_c_frame():
    # 20,000 levels of each forced on a 256 KiB thread stack: a C frame per
    # level, such as a functools.partial between the machine and a recipe,
    # would overflow it and crash the process. Only the forcing runs there:
    # CPython 3.13 frees a chain this deep with nested C calls, so the
    # structures are built and freed on the main thread.
    script = (
        "import sys, threading\n"
        "sys.path.insert(0, %r)\n"
        "from support import deep_structures\n"
        "q, u = deep_structures(20_000)\n"
        "sys.setrecursionlimit(1_000_000)\n"
        "threading.stack_size(256 << 10)\n"
        "out = []\n"
        "worker = threading.Thread(target=lambda: out.append((q.head, u.take(2))))\n"
        "worker.start()\n"
        "worker.join()\n"
        "del q, u\n"
        "print(out)\n"
    ) % os.path.dirname(os.path.abspath(__file__))
    proc = run_python("-c", script)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-500:])
    assert proc.stdout == "[(20000, [1, Fraction(20001, 1)])]\n"


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


def test_take_and_at_refuse_an_index_past_sys_maxsize():
    s = repeat(1)
    with pytest.raises(ValueError, match=r"^take: n must be at most sys\.maxsize$"):
        s.take(sys.maxsize + 1)
    with pytest.raises(ValueError, match=r"^at: index must be at most sys\.maxsize$"):
        s.at(sys.maxsize + 1)


def test_take_and_at_refuse_an_index_that_is_not_an_int():
    s = repeat(1)
    with pytest.raises(TypeError):
        s.take(2.5)
    with pytest.raises(TypeError):
        s.at(1.5)


# -- a read keeps only its frontier --------------------------------------------

_LONG = 4_000
_TRACKED = {Stream: _Tracked, Series: _TrackedSeries, Dif: _TrackedDif}


def _tracked_then_probed(cls, refs, seen):
    # A weak-referenceable first node, then a map over an endless run of
    # ones whose function records each call and looks, at element
    # _LONG // 2 of the structure, whether that first node is still alive.
    def probe(x):
        seen.append(refs[0]() is None if len(seen) == _LONG // 2 - 1 else None)
        return x

    ones = cls.cons(1, lambda: ones)
    first = _TRACKED[cls].cons(0, pointwise(cls, None, probe, ones))
    refs.append(weakref.ref(first))
    return first


@pytest.mark.parametrize("reader", ["take", "at", "coefficients", "elements",
                                    "stream.take"])
def test_a_read_of_a_temporary_frees_the_nodes_behind_the_walker(reader):
    # Each read is called here, on the temporary itself: a wrapper frame
    # or a C caller in between would hold the first node.
    refs, seen = [], []
    if reader == "take":
        out = _tracked_then_probed(Stream, refs, seen).take(_LONG)
    elif reader == "at":
        out = [_tracked_then_probed(Stream, refs, seen).at(_LONG - 1)]
    elif reader == "coefficients":
        out = _tracked_then_probed(Series, refs, seen).coefficients(_LONG)
    elif reader == "elements":
        out = _tracked_then_probed(Dif, refs, seen).elements(_LONG)
    else:
        out = stream.take(_LONG, _tracked_then_probed(Stream, refs, seen))
    assert out == ([1] if reader == "at" else [0] + [1] * (_LONG - 1))
    assert len(seen) == _LONG - 1
    assert seen[_LONG // 2 - 1] is True
    assert refs[0]() is None


@pytest.mark.parametrize("reader", ["take", "at", "coefficients", "elements",
                                    "stream.take"])
def test_a_held_structure_keeps_its_first_node_and_its_memo(reader):
    cls = {"coefficients": Series, "elements": Dif}.get(reader, Stream)
    read = {"take": lambda s: s.take(_LONG),
            "at": lambda s: s.at(_LONG - 1),
            "coefficients": lambda s: s.coefficients(_LONG),
            "elements": lambda s: s.elements(_LONG),
            "stream.take": lambda s: stream.take(_LONG, s)}[reader]
    refs, seen = [], []
    s = _tracked_then_probed(cls, refs, seen)
    first = read(s)
    runs = len(seen)
    assert runs == _LONG - 1 and seen[_LONG // 2 - 1] is False
    # The second read runs the op no more times: every cell is memoized.
    assert read(s) == first
    assert len(seen) == runs
    assert refs[0]() is s


def test_a_far_read_of_a_temporary_stays_under_a_memory_cap():
    # Kept nodes would take about 200 MB for 2,000,000 samples, far past
    # the 64 MiB of address space allowed beyond what the import mapped.
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("needs /proc/self/statm to size the cap")
    script = ("import math, resource\n"
              "from corec.dsp import sine\n"
              "with open('/proc/self/statm') as fh:\n"
              "    size = int(fh.read().split()[0]) * resource.getpagesize()\n"
              "cap = size + (64 << 20)\n"
              "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
              "x = sine(0.001).at(2_000_000)\n"
              "assert math.isclose(x, math.sin(2_000_001 * 0.001), abs_tol=1e-6)\n")
    proc = run_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")


# -- only cells knows the node layout ------------------------------------------

_SLOTS = {"_hs", "_h", "_ts", "_t"}
# The stores that the cells docstring names: the self-tails of the two
# compact zeros, and nothing else.
_LAYOUT_EXCEPTIONS = {
    ("dif.py", "<module>", "ZERO_TOWER._t"),
    ("series.py", "<module>", "ZERO._t"),
}


def _slot_stores(path):
    # (file, enclosing function, target) of each store or delete of a slot,
    # whether by assignment or by setattr/delattr with the name spelt out.
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        slot = None
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            slot = node.attr
        elif (isinstance(node, ast.Call) and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and ast.unparse(node.func).strip("_").endswith(("setattr", "delattr"))):
            slot = node.args[1].value
        if slot in _SLOTS:
            found.append((os.path.basename(path), where, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    with open(path) as fh:
        visit(ast.parse(fh.read(), path), "<module>")
    return found


def test_only_cells_stores_into_a_node_s_slots():
    package = os.path.dirname(cells.__file__)
    stores = [store for name in sorted(os.listdir(package))
              if name.endswith(".py") and name != "cells.py"
              for store in _slot_stores(os.path.join(package, name))]
    assert set(stores) <= _LAYOUT_EXCEPTIONS, sorted(set(stores) - _LAYOUT_EXCEPTIONS)
    # The walk sees the stores it allows, so it is not blind.
    assert set(stores) == _LAYOUT_EXCEPTIONS


def test_the_layout_check_sees_every_kind_of_store(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(n):\n    n._h = 1\n    n._t += 1\n    del n._hs\n"
                    "    setattr(n, '_ts', 0)\n    object.__setattr__(n, '_h', 0)\n"
                    "    n.head = n._h\n")
    assert [where for _, where, _ in _slot_stores(str(path))] == ["f"] * 5
