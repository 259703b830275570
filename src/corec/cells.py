"""Memoized lazy cells with a re-entrancy guard.

Everything in this package is built from nodes that pair two lazy cells:
a head cell and a tail cell, each holding either a recipe or an already
forced value. Self-referential definitions work because a producer may
capture a handle to the structure it is defining; they are sound whenever
forcing element k only ever needs elements at indices strictly below k
("finite progress").

A node is one of two kinds, and one state machine, the functions
:func:`_head` and :func:`_tail` (the ``head``/``tail`` properties wrap
them), forces both:

- a *thunk node* holds a zero-argument thunk for each cell;
- a *pointwise node* (:func:`pointwise`) holds one recipe ``(op, a, b,
  rule)`` in both cells, with a tail rule or None. Its head is ``op(a.head,
  b.head)``. Its tail is the successor, the pointwise node ``(op, a.tail,
  b.tail, rule)``, which the machine builds itself, inline and without a
  call: at ``.head`` when the head is forced after the operands' tails
  (as in a recurrence), and at ``.tail`` when that comes first (as
  ``series._Prefix`` reads a product's operands). A unary node has ``b``
  None, so the machine unpacks it, and calls its rule, without a length
  test. Elementwise operations (``map``, ``zip_with``, ``+``, ``-``,
  negation, ``scale``) thus allocate one node per element and no closures.

A tail rule is the end handler of an algebra, and nothing more. It runs
only at ``.tail``, and only where an operand tail is not exactly of the
node's class: a compact form (``ZERO``, a ``_Const`` tower) or a node of
another algebra. There the tail is ``rule(op, a.tail, b.tail)``, with
``b.tail`` None for a unary node: a series plus ``ZERO`` is the series, a
tower plus a constant's ``ZERO_TOWER`` tail is the tower, a map of a
constant is a constant, and a series plus ``x^k p`` passes the series
through for the k zeros of the shift, which are never built (its right
operand is ``ZERO``, so that rule runs at every node). Every rule keeps
one invariant, on which this short-cut rests: given operand tails of
exactly the node's class, it returns ``pointwise(cls, rule, op, a.tail,
b.tail)``, the node the machine builds. A stream has no rule, so a
recurrence's successors cost no Python call, and neither do those of a
tower recurrence or of a sum of series that never end. A head forced
where an operand ends leaves the node's tail, and its operands, to
``.tail``. Forcing a cell overwrites its recipe, so a forced prefix pins
no operand nodes.

Products, quotients, integrals and derivatives of series and towers are
pointwise nodes over a series of indices (``series._indices``): element n
is ``element(n)``, and the result ends where the indices end. The index
nodes have the class of the result, so the machine builds its successors.
Where a polynomial product ends is known only by walking operand tails,
so that question (``done``) is asked in the thunk of the index node's
tail, which runs only when the result's tail is forced; every other
successor of the result is then built without a call. ``transpose`` maps
its row reader over the indices in the same way: row i is a map over the
input that reads entry i of each coefficient in a loop of tails, from the
deepest tail that an earlier row reached.
The library's thunk nodes are the user-level definitions of the catalog,
``dsp`` and ``qft``, ``defer`` and ``delayed``, and a few that build one
node per level or row rather than per element, or whose end needs a rule
of its own: ``compose``'s Horner scheme and ``taylor_from_tower``.

A deferred node (:meth:`LazyPair.defer`) is a thunk node that reads the
head and the tail of the node its function returns; that function runs
once, as the head thunk of a private cell forced by the same machine.
:meth:`LazyPair.delayed` (``shift``, ``delay``) builds each fill when read,
and :func:`delayed_run` reads how many fills of such a run are left and
the node after them, so that only this module knows how a run is laid out.
:meth:`LazyPair.cons_all` builds a prefix of known heads
(``stream.prepend``, ``Series.from_list``): the nodes that ``cons`` would
build, in one loop with no call per element.

Each cell moves through three states: unevaluated (its state tells a
thunk from a pointwise recipe), in progress, evaluated. A definition that
is not productive, i.e. one whose cell k transitively demands cell k
itself, re-enters an in-progress cell. That re-entry raises
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
data-driven pointwise nodes in one class. The two compact forms are the
only exception: ``ZERO`` and the tower constants (``Dif.const``,
``ZERO_TOWER``) are subclasses built by :meth:`LazyPair.cons` that share
one all-zero tail and override ``_define``, so that a function of a
constant stays compact. Outside this module, only the self-tails of
``ZERO`` and ``ZERO_TOWER`` write a slot; ``tests/test_cells.py`` checks
this.

``take``, ``at`` and iteration read through one walker: ``n`` elements
force ``n`` heads and ``n - 1`` tails, never a cell past the last element
returned. The only read-ahead is the successor built when a pointwise
node's head is forced, which allocates a node and forces nothing. No read
keeps the first node: the walker holds only the node it has reached, and
``take`` and ``at`` drop their own reference before they read. CPython
3.11-3.13 move a Python call's arguments into the callee's frame, so when
the caller holds no other reference (``sine(h).at(k)`` on a temporary),
the nodes behind the walker are freed as it passes them. A C caller
(``map(Series.take, ...)``) holds its argument for the whole call, and so
does any Python frame in between: ``Series.coefficients`` and
``Dif.elements`` are ``take`` itself, and ``stream.take`` drops its
argument as ``take`` does.

Forcing a cell nests one Python frame or more per level of the cells it
demands, and only Python frames: every recipe that forces further cells
(a thunk, the two thunks of ``defer``, the tail of an index node, an
element function) is a Python function that the machine calls directly,
and the library's algebra reads cells with plain calls to :func:`_head`
and :func:`_tail`. What the machine reaches through a C callable (a
``functools.partial`` fill, rule or op, ``operator.add`` of two towers)
builds nodes and forces none, so it never nests. CPython 3.11-3.13 run
nested Python calls without C stack, so the recursion limit alone bounds
the algebra's forcing on all three. A thunk that reads ``.head`` or
``.tail`` through the property (a user's definition, or one of the
catalog's, written as a user writes it) uses C stack per level on 3.11;
3.12 and later inline the property call. One that calls back through a C
function (``sorted`` with a key, say) does on every version, and from
3.12 on it also counts against CPython's own C recursion cap.

Every consumer (``.head``, ``.tail``, ``take``, ``at``, iteration) forces
under the caller's recursion limit. This module never changes interpreter
state: a definition deeper than the limit raises ``RecursionError``,
whatever consumer reads it and however many elements it asks for. To go
deeper, force on a thread with a larger stack and raise the limit in
proportion to that stack, as the CLI does. Freeing a deep structure
nests C calls too: on CPython 3.13, dropping the last reference to a
1,000-level lazy chain on a thread with a 256 KiB stack can segfault,
while on the CLI's 64 MiB worker it freed 3,000,000-level chains.

Forced values are retained for as long as the structure is referenced;
there is no eviction. Forcing is not re-entrant-safe across threads: a
lazy structure (and everything it references) must be driven by one
logical thread at a time. Fully forced prefixes may be read concurrently.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from operator import index
from sys import maxsize

# Cell states; the two unforced ones name the recipe the cell holds.
_THUNK = 0
_FORCING = 1
_FORCED = 2
_OPS = 3


class NonProductiveError(RuntimeError):
    """A self-referential definition demanded itself with no prefix to stand on."""


def _head(node):
    """The head of ``node``, forced once; operand heads are forced first."""
    state = node._hs
    if state == _FORCED:
        return node._h
    if state == _FORCING:
        raise _cycle(node, "head")
    node._hs = _FORCING
    try:
        if state == _THUNK:
            value = node._h()
        else:
            # A forced operand is read from its slot, without a call.
            op, a, b, rule = node._h
            x = a._h if a._hs == _FORCED else _head(a)
            if b is None:
                value = op(x)
            else:
                value = op(x, b._h if b._hs == _FORCED else _head(b))
    except BaseException:
        node._hs = state
        raise
    node._h = value
    node._hs = _FORCED
    if (state == _THUNK or node._ts != _OPS or a._ts != _FORCED
            or b is not None and b._ts != _FORCED):
        return value
    # The successor's operands are at hand: build it now unless, by _tail's
    # test, it needs the rule; where an operand ends, the rule runs at .tail.
    # This is pointwise() inline, not a call to it: nearly every successor
    # of a stream or tower recurrence (each dsp sample) is built here. The
    # rule is tested first so that a stream pays no class test, and the
    # early returns keep every jump of its path short (no EXTENDED_ARG
    # prefix in CPython 3.11).
    if rule is not None:
        cls = type(node)
        if type(a._t) is not cls or b is not None and type(b._t) is not cls:
            return value
    rest = object.__new__(type(node))
    rest._hs = rest._ts = _OPS
    rest._h = rest._t = (op, a._t, None if b is None else b._t, rule)
    node._t = rest
    node._ts = _FORCED
    return value


def _tail(node):
    """The tail of ``node``, forced once; operand tails are forced first."""
    state = node._ts
    if state == _FORCED:
        return node._t
    if state == _FORCING:
        raise _cycle(node, "tail")
    node._ts = _FORCING
    try:
        if state == _THUNK:
            rest = node._t()
        else:
            op, a, b, rule = node._t
            a = a._t if a._ts == _FORCED else _tail(a)
            if b is not None:
                b = b._t if b._ts == _FORCED else _tail(b)
            cls = type(node)
            if rule is None or type(a) is cls and (b is None or type(b) is cls):
                # pointwise() inline, as in _head: a series operand read
                # tails first (a product's, by _Prefix) builds each here.
                rest = object.__new__(cls)
                rest._hs = rest._ts = _OPS
                rest._h = rest._t = (op, a, b, rule)
            else:
                rest = rule(op, a, b)
    except BaseException:
        node._ts = state
        raise
    node._t = rest
    node._ts = _FORCED
    return rest


def pointwise(cls, rule, op, a, b=None):
    """A ``cls`` node whose head is ``op(a.head)``, or ``op(a.head,
    b.head)`` with ``b``. Its tail is the same node over the operands'
    tails, which the forcing machine builds inline, at ``.head`` or at
    ``.tail``, without calling this function; it is the algebra's
    constructor of a first node. Where an operand tail is not exactly of
    class ``cls``, the tail is ``rule(op, a.tail, b.tail)``, with
    ``b.tail`` None for a unary node, called only when ``.tail`` is read.
    The rule is the end handler, given only where the algebra has a
    short-cut to take; given tails of class ``cls``, it must return
    ``pointwise(cls, rule, op, a.tail, b.tail)``."""
    node = cls.__new__(cls)
    node._hs = node._ts = _OPS
    node._h = node._t = (op, a, b, rule)
    return node


class LazyPair:
    """Base for head/tail structures built from guarded memoized cells.

    ``_h``/``_t`` hold the head and tail once forced, ``_hs``/``_ts``
    their states. Before that, a thunk node keeps a zero-argument thunk in
    each; a pointwise node keeps its recipe ``(op, a, b, rule)`` in both.
    Four slots and no ``__dict__``: 64 bytes a node on 64-bit CPython.
    """

    __slots__ = ("_hs", "_h", "_ts", "_t")

    def __init__(self, head, tail):
        self._hs = _THUNK
        self._h = head
        self._ts = _THUNK
        self._t = tail

    @classmethod
    def cons(cls, value, tail):
        """Node with an already-known head; ``tail`` is a node or a thunk."""
        node = cls.__new__(cls)
        node._hs = _FORCED
        node._h = value
        node._ts = _THUNK if callable(tail) else _FORCED
        node._t = tail
        return node

    @classmethod
    def cons_all(cls, values, tail):
        """The elements of ``values`` as forced heads, then ``tail``, a
        node or a thunk as for :meth:`cons`; ``tail`` itself if there are
        none. ``values`` must be reversible."""
        # cons inline, one node an element and no call; only the last
        # node's tail can be a thunk, so callable() runs once.
        state = _THUNK if callable(tail) else _FORCED
        for value in reversed(values):
            node = object.__new__(cls)
            node._hs = _FORCED
            node._h = value
            node._ts = state
            node._t = tail
            tail = node
            state = _FORCED
        return tail

    @classmethod
    def delayed(cls, m, node, fill):
        """``m`` copies of ``fill``, each built when read, then ``node``."""
        return _delayed(cls, index(m), node, fill)

    @classmethod
    def defer(cls, fn):
        """A node computed entirely on demand; ``fn`` returns the real node.

        This is the hook for definitions that mention the structure being
        defined in head position, where ``cons`` cannot be used.
        """
        # The cell's head is the real node; its tail is never forced. Both
        # thunks are Python functions, so the machine calls them without a
        # C frame, and each names fn for a cycle through this node.
        cell = LazyPair(fn, None)

        def head():
            return _head(_head(cell))

        def tail():
            return _tail(_head(cell))

        head.__wrapped__ = tail.__wrapped__ = fn
        return cls(head, tail)

    head = property(_head)
    tail = property(_tail)

    def take(self, n):
        """Force and return the first ``n`` elements as a list.

        It reads as iteration does, through the same walker: ``n`` heads
        and ``n - 1`` tails, so no cell past element ``n - 1`` and, for
        ``n = 0``, none at all. Like ``.head``, it forces under the
        caller's recursion limit; a definition nested deeper raises
        ``RecursionError``. ``n`` past ``sys.maxsize`` raises ``ValueError``.
        Like iteration, it keeps no node behind the walker's: a structure
        that the caller holds no other reference to is freed as it is read.
        A C caller, or a wrapper frame, holds it and so its first node.
        """
        walker = _elements(self)
        del self
        return list(islice(walker, _count(n, "take: n")))

    def at(self, k):
        """Force and return element ``k``: ``k + 1`` heads and ``k`` tails,
        read through the walker of :meth:`take`, with no list built and, as
        there, no node kept behind the walker's. ``k`` past ``sys.maxsize``
        raises ``ValueError``."""
        walker = _elements(self)
        del self
        return next(islice(walker, _count(k, "at: index"), None))

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


def _count(n, name):
    # take's n or at's k as an int in [0, sys.maxsize]; name starts the error.
    n = index(n)
    if 0 <= n <= maxsize:
        return n
    limit = ">= 0" if n < 0 else "at most sys.maxsize"
    raise ValueError("%s must be %s" % (name, limit))


def _delayed(cls, m, node, fill):
    if m == 0:
        return node
    return cls.cons(fill, partial(_delayed, cls, m - 1, node, fill))


def delayed_run(node, fill):
    """``(k, rest)`` if ``node`` starts a run of :meth:`LazyPair.delayed`:
    ``k`` copies of ``fill`` and then ``rest``, none past ``node`` built
    yet. Otherwise, and once ``node``'s tail is forced, None."""
    rest = node._t
    if node._ts == _THUNK and type(rest) is partial and rest.func is _delayed:
        _, m, rest, f = rest.args
        if f is fill:
            return m + 1, rest
    return None


def _elements(node):
    # The one walker of take, at and iteration. A tail is forced only when
    # the next element is asked for, so n elements force n - 1 tails.
    while True:
        yield node._h if node._hs == _FORCED else _head(node)
        node = node._t if node._ts == _FORCED else _tail(node)


def _cycle(node, part):
    # Built only when a cycle is found, so forcing pays nothing for it.
    return NonProductiveError(
        "non-productive definition: the %s of the node %s depends on "
        "itself before any prefix is available" % (part, _definition(node, part))
    )


def _definition(node, part):
    # Where the recipe of the in-progress cell was written.
    fn = node._h if part == "head" else node._t
    if type(fn) is tuple:
        fn = fn[0]
    fn = getattr(fn, "__wrapped__", fn)
    code = getattr(fn, "__code__", None)
    if code is None:
        return "computing %r" % (fn,)
    return "defined at %s:%d (%s)" % (code.co_filename, code.co_firstlineno,
                                      code.co_qualname)
