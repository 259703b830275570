"""Memoized lazy cells with a re-entrancy guard.

Everything in this package is built from nodes that pair two lazy cells:
a head cell and a tail cell, each holding either a recipe or an already
forced value. Self-referential definitions work because a producer may
capture a handle to the structure it is defining; they are sound whenever
forcing element k only ever needs elements at indices strictly below k
("finite progress").

A node is one of two kinds, and one state machine, :attr:`LazyPair.head`
and :attr:`LazyPair.tail`, forces both:

- a *thunk node* holds a zero-argument thunk for each cell;
- a *pointwise node* holds ``(op, a, b)`` and a tail rule. Its head is
  ``op(a.head, b.head)`` and its tail is ``rule(op, a.tail, b.tail)``; a
  unary node holds ``(op, a, None)``, so the machine unpacks it without a
  length test. Elementwise operations (``map``, ``zip_with``, ``+``,
  ``-``, negation, ``scale``) thus allocate one node per element and no
  closures. The rule is where an algebra keeps its short-cuts (a series
  plus ``ZERO`` is the series). As soon as both cells of a pointwise node
  are forced it drops its operands, so a forced prefix pins no operand
  nodes.

A deferred node (:meth:`LazyPair.defer`) is a thunk node that reads the
head and the tail of the node its function returns; that function runs
once, as the head thunk of a private cell forced by the same machine.
:meth:`LazyPair.delayed` (``shift``, ``delay``) builds each fill when read.

Each cell moves through three states: unevaluated, in progress, evaluated.
A definition that is not productive, i.e. one whose cell k transitively
demands cell k itself, re-enters an in-progress cell. That re-entry raises
:class:`NonProductiveError` instead of looping forever. The message names
where the re-entered node was defined: the file, first line and qualified
name of its thunk, of the function given to ``defer``, or of a pointwise
node's op. It is worked out only when the error is raised.

There is one node class per algebra (``Stream``, ``Series``, ``Dif``), not
one subclass per kind of node. CPython 3.11 specializes attribute and
call sites per code object; with per-kind subclasses sharing the inherited
``head``/``tail``, those sites see many types and stay generic. In a
prototype on CPython 3.11.7, 44,100 samples of ``dsp.sine`` took 0.125 s
that way against 0.119 s for the former closure pairs, and 0.085 s with
data-driven pointwise nodes in one class.

Forced values are retained for as long as the structure is referenced;
there is no eviction. Forcing is not re-entrant-safe across threads: a
lazy structure (and everything it references) must be driven by one
logical thread at a time. Fully forced prefixes may be read concurrently.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import partial
from operator import index

_UNFORCED = 0
_FORCING = 1
_FORCED = 2

_STACK_CAP = 50_000


class NonProductiveError(RuntimeError):
    """A self-referential definition demanded itself with no prefix to stand on."""


@contextmanager
def _stack_headroom(wanted):
    # Deep co-recursive definitions cost one Python frame per dependency
    # level, so consuming long prefixes may need more than the default
    # recursion limit. Raised temporarily, never lowered.
    old = sys.getrecursionlimit()
    new = max(old, min(_STACK_CAP, wanted))
    sys.setrecursionlimit(new)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class LazyPair:
    """Base for head/tail structures built from guarded memoized cells.

    ``_h``/``_t`` hold the head and tail once forced. Before that, a thunk
    node (``_ops is None``) keeps a zero-argument thunk in each; a
    pointwise node keeps its operands ``(op, a, b)`` (``b`` None for a
    unary op) in ``_ops`` and its tail rule in ``_t``.
    """

    __slots__ = ("_hs", "_h", "_ts", "_t", "_ops")

    def __init__(self, head, tail):
        self._hs = _UNFORCED
        self._h = head
        self._ts = _UNFORCED
        self._t = tail
        self._ops = None

    @classmethod
    def cons(cls, value, tail):
        """Node with an already-known head; ``tail`` is a node or a thunk."""
        node = cls.__new__(cls)
        node._hs = _FORCED
        node._h = value
        if callable(tail):
            node._ts = _UNFORCED
        else:
            node._ts = _FORCED
        node._t = tail
        node._ops = None
        return node

    @classmethod
    def pointwise(cls, rule, ops):
        """Node whose head is ``op(a.head)`` and whose tail is
        ``rule(op, a.tail)`` for ``ops = (op, a, None)``; with ``ops =
        (op, a, b)`` they are ``op(a.head, b.head)`` and
        ``rule(op, a.tail, b.tail)``."""
        node = cls.__new__(cls)
        node._hs = _UNFORCED
        node._ts = _UNFORCED
        node._t = rule
        node._ops = ops
        return node

    @classmethod
    def delayed(cls, m, node, fill):
        """``m`` copies of ``fill``, each built when read, then ``node``."""
        if index(m) == 0:
            return node
        return cls.cons(fill, partial(cls.delayed, m - 1, node, fill))

    @classmethod
    def defer(cls, fn):
        """A node computed entirely on demand; ``fn`` returns the real node.

        This is the hook for definitions that mention the structure being
        defined in head position, where ``cons`` cannot be used.
        """
        # The cell's head is the real node. Its tail is never forced; the
        # slot keeps fn so that a cycle through this node can name it.
        cell = LazyPair(fn, fn)
        return cls(partial(_real_head, cell), partial(_real_tail, cell))

    @property
    def head(self):
        state = self._hs
        if state == _FORCED:
            return self._h
        if state == _FORCING:
            raise _cycle(self, "head")
        self._hs = _FORCING
        ops = self._ops
        try:
            if ops is None:
                value = self._h()
            else:
                # A forced operand is read from its slot, without a call.
                op, a, b = ops
                a = a._h if a._hs == _FORCED else a.head
                if b is None:
                    value = op(a)
                else:
                    value = op(a, b._h if b._hs == _FORCED else b.head)
        except BaseException:
            self._hs = _UNFORCED
            raise
        self._h = value
        self._hs = _FORCED
        if self._ts == _FORCED:
            self._ops = None
        return value

    @property
    def tail(self):
        state = self._ts
        if state == _FORCED:
            return self._t
        if state == _FORCING:
            raise _cycle(self, "tail")
        self._ts = _FORCING
        ops = self._ops
        try:
            if ops is None:
                node = self._t()
            else:
                op, a, b = ops
                a = a._t if a._ts == _FORCED else a.tail
                if b is None:
                    node = self._t(op, a)
                else:
                    node = self._t(op, a, b._t if b._ts == _FORCED else b.tail)
        except BaseException:
            self._ts = _UNFORCED
            raise
        self._t = node
        self._ts = _FORCED
        if self._hs == _FORCED:
            self._ops = None
        return node

    def take(self, n):
        """Force and return the first ``n`` elements as a list."""
        if n < 0:
            raise ValueError("take: n must be >= 0")
        out = []
        node = self
        with _stack_headroom(2048 + 16 * n):
            for _ in range(n):
                out.append(node.head)
                node = node.tail
        return out

    def at(self, k):
        """Force and return element ``k`` (elements 0..k-1 are forced too)."""
        if k < 0:
            raise ValueError("at: index must be >= 0")
        return self.take(k + 1)[-1]

    def __iter__(self):
        # The generator holds only the node it has reached, so iterating
        # does not keep the first node alive.
        return _elements(self)

    def _forced_prefix(self, limit=8):
        # Repr helper: report only what is already materialized, so that
        # printing a structure never forces (or fails) anything.
        out = []
        node = self
        while len(out) < limit and node._hs == _FORCED:
            out.append(node._h)
            if node._ts != _FORCED:
                break
            node = node._t
        return out

    def __repr__(self):
        shown = self._forced_prefix()
        inner = ", ".join(repr(v) for v in shown)
        return "<%s [%s...]>" % (type(self).__name__, inner)


def _elements(node):
    while True:
        yield node.head
        node = node.tail


def _real_head(cell):
    return cell.head.head


def _real_tail(cell):
    return cell.head.tail


def _cycle(node, part):
    # Built only when a cycle is found, so forcing pays nothing for it.
    return NonProductiveError(
        "non-productive definition: the %s of the node %s depends on "
        "itself before any prefix is available" % (part, _definition(node, part))
    )


def _definition(node, part):
    # Where the recipe of the in-progress cell was written.
    if node._ops is not None:
        fn = node._ops[0]
    else:
        fn = node._h if part == "head" else node._t
    if isinstance(fn, partial) and fn.func in (_real_head, _real_tail):
        fn = fn.args[0]._t
    code = getattr(fn, "__code__", None)
    if code is None:
        return "computing %r" % (fn,)
    return "defined at %s:%d (%s)" % (code.co_filename, code.co_firstlineno,
                                      code.co_qualname)
