import threading

import pytest

from corec.cells import _FORCED as FORCED
from corec.series import ZERO, Series
from corec.stream import (
    NonProductiveError,
    Stream,
    cons,
    defer,
    delay,
    prepend,
    repeat,
    scale,
    take,
    zip_with,
)


def counting_source(counter):
    # Infinite 0, 1, 2, ... whose producer increments counter[0] per head.
    def node(k):
        def head():
            counter[0] += 1
            return k
        return Stream(head, lambda: node(k + 1))
    return node(0)


def make_ones():
    s = cons(1, lambda: s)
    return s


def make_integs():
    one = make_ones()
    s = cons(1, lambda: s + one)
    return s


def make_fibs():
    fibs = cons(0, lambda: ftail)
    ftail = cons(1, lambda: zip_with(lambda a, b: a + b, fibs, ftail))
    return fibs


def test_self_referential_ones():
    assert take(5, make_ones()) == [1, 1, 1, 1, 1]


def test_cons_heads():
    s = cons(0, cons(1, lambda: make_ones()))
    assert take(2, s) == [0, 1]


def test_integs_prefix():
    assert take(4, make_integs()) == [1, 2, 3, 4]


def test_fibs_prefix():
    assert take(10, make_fibs()) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_map_doubles():
    assert take(3, make_integs().map(lambda v: 2 * v)) == [2, 4, 6]


def test_map_identity():
    s = make_fibs()
    assert take(8, s.map(lambda v: v)) == take(8, make_fibs())


def test_map_negate_fibs():
    assert take(4, make_fibs().map(lambda v: -v)) == [0, -1, -1, -2]
    assert take(4, -make_fibs()) == [0, -1, -1, -2]


def test_zip_with_add():
    assert take(3, zip_with(lambda a, b: a + b, make_ones(), make_ones())) == [2, 2, 2]


def test_zip_with_sub():
    assert take(3, make_integs() - make_ones()) == [0, 1, 2]


def test_scale():
    assert take(3, scale(0, make_integs())) == [0, 0, 0]
    assert take(5, scale(2, make_fibs())) == [0, 2, 2, 4, 6]
    assert take(6, scale(1, make_fibs())) == take(6, make_fibs())
    assert take(3, 2 * make_ones()) == [2, 2, 2]
    assert take(4, make_fibs() * 3) == take(4, 3 * make_fibs()) == [0, 3, 3, 6]


def test_delay():
    assert take(5, delay(2, make_integs(), 0)) == [0, 0, 1, 2, 3]
    assert take(3, delay(1, make_ones(), 0)) == [0, 1, 1]
    s = make_integs()
    assert delay(0, s, 0) is s
    with pytest.raises(ValueError):
        delay(-1, s, 0)


def test_delay_builds_its_fill_when_read():
    s = make_integs()
    d = delay(3, s, 0)
    assert repr(d) == "<Stream [0...]>"
    assert take(5, d) == [0, 0, 0, 1, 2]
    assert take(3, delay(10**9, s, 0.5)) == [0.5, 0.5, 0.5]
    with pytest.raises(TypeError):
        delay(2.5, s, 0)


def test_prepend():
    assert take(3, prepend([9], make_ones())) == [9, 1, 1]
    s = make_integs()
    assert prepend([], s) is s
    assert take(4, prepend([7, 8], make_ones())) == [7, 8, 1, 1]


def test_prepend_and_from_list_build_forced_nodes_of_the_class_asked_for():
    class Sub(Series):
        __slots__ = ()

    # Every slot of the prefix is forced, so reading it runs no recipe, and
    # an empty prefix is the node after it.
    ones = make_ones()
    for values, node, cls, rest in [
            ([7, 8], prepend([7, 8], ones), Stream, ones),
            ((), prepend((), ones), Stream, ones),
            ((1, 2, 3), Series.from_list((1, 2, 3)), Series, ZERO),
            ([], Series.from_list([]), Series, ZERO),
            ([5, 6], Sub.from_list([5, 6]), Sub, ZERO)]:
        for value in values:
            assert type(node) is cls
            assert (node._hs, node._h, node._ts) == (FORCED, value, FORCED)
            node = node._t
        assert node is rest


def test_a_prefix_before_a_thunk_reads_it_once_from_its_last_node():
    calls = []
    ones = make_ones()

    def rest():
        calls.append(1)
        return ones

    s = Stream.cons_all([1, 2], rest)
    assert s._t._ts != FORCED and calls == []
    assert take(4, s) == [1, 2, 1, 1] and calls == [1]
    assert Stream.cons_all([], rest) is rest


@pytest.mark.parametrize("values", [{1, 2}, iter([1, 2]), (v for v in [1])],
                         ids=["set", "iterator", "generator"])
def test_a_prefix_that_cannot_be_reversed_raises_type_error(values):
    with pytest.raises(TypeError):
        prepend(values, make_ones())
    with pytest.raises(TypeError):
        Series.from_list(values)


def test_prepend_and_from_list_keep_their_reprs():
    assert repr(prepend([7, 8], make_ones())) == "<Stream [7, 8, 1...]>"
    assert repr(Series.from_list([1, 2])) == "<Series [1, 2, 0, 0, 0, 0, 0, 0...]>"


def test_take_edge_cases():
    assert take(0, make_ones()) == []
    assert take(3, make_integs()) == [1, 2, 3]
    with pytest.raises(ValueError):
        take(-1, make_ones())


def test_repeat():
    assert take(4, repeat(7)) == [7, 7, 7, 7]


def test_a_stream_plus_or_minus_a_scalar_is_refused():
    # Stream sums are elementwise over two streams; a scalar has no
    # elements, so the operators return NotImplemented and Python raises.
    with pytest.raises(TypeError):
        repeat(2) + 1
    with pytest.raises(TypeError):
        repeat(2) - 1


def test_elementwise_product():
    assert take(4, make_integs() * make_integs()) == [1, 4, 9, 16]


def test_memoization_single_evaluation():
    counter = [0]
    s = counting_source(counter)
    first = take(5, s)
    assert counter[0] == 5
    second = take(5, s)
    assert counter[0] == 5  # producers did not run again
    assert first == second


def test_laziness_take_forces_exactly_n():
    counter = [0]
    s = counting_source(counter)
    take(3, s)
    assert counter[0] == 3


def test_non_productive_definition_errors_fast():
    # x defined as x + 1 with no prefix: must raise, not hang.
    x = defer(lambda: x.map(lambda v: v + 1))
    outcome = {}

    def run():
        try:
            take(1, x)
            outcome["error"] = None
        except NonProductiveError as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(1.0)
    assert not worker.is_alive(), "guard failed: forcing hung"
    assert isinstance(outcome["error"], NonProductiveError)


def test_non_productive_deferred_node_cycle():
    y = defer(lambda: y)
    with pytest.raises(NonProductiveError):
        take(1, y)


def test_non_productive_error_repeats_deterministically():
    x = defer(lambda: x.map(lambda v: v + 1))
    for _ in range(3):
        with pytest.raises(NonProductiveError):
            take(1, x)


def test_fib_recurrence_holds_for_1000_terms():
    vals = take(1002, make_fibs())
    for n in range(1000):
        assert vals[n + 2] == vals[n + 1] + vals[n]


def test_repr_shows_only_forced_prefix():
    counter = [0]
    s = counting_source(counter)
    take(2, s)
    repr(s)
    assert counter[0] == 2  # repr forced nothing new


def _chain(counter, calls):
    # A zip_with of a scaled map and a fibs sum over a counting source;
    # calls records every element op run.
    def f(v):
        calls.append(v)
        return v * v - 1

    def g(a, b):
        calls.append((a, b))
        return a - 3 * b

    s = counting_source(counter)
    return zip_with(g, scale(2, s.map(f)), make_fibs() + s)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_a_chain_walked_by_tails_alone_reads_as_one_read_head_first(n):
    counter, calls = [0], []
    nodes = [_chain(counter, calls)]
    for _ in range(n):
        nodes.append(nodes[-1].tail)
    # Walking by tails built every node and ran no element op.
    assert counter == [0] and calls == []
    assert all(type(node) is Stream for node in nodes)
    want = take(n + 1, _chain([0], []))
    # Heads read last first give what a fresh chain gives read in order.
    assert [node.head for node in reversed(nodes)][::-1] == want
    assert counter == [n + 1]
    assert take(n + 1, nodes[0]) == want
