"""Co-recursive infinite streams.

A :class:`Stream` is a memoized, lazily produced infinite sequence. The
point of the representation is that a stream may be defined in terms of
itself, as long as every element only needs strictly earlier elements::

    ones = cons(1, lambda: ones)
    nums = cons(1, lambda: nums + ones)          # 1, 2, 3, 4, ...

    fibs = cons(0, lambda: ftail)
    ftail = cons(1, lambda: fibs + ftail)        # 0, 1, 1, 2, 3, 5, ...

Reading an element twice yields the identical value and runs the producer
at most once per cell. A definition with no usable prefix (``x`` defined
as ``x + 1``) raises :class:`NonProductiveError` when read instead of
hanging. Indices are 0-based throughout.
"""

from __future__ import annotations

from functools import partial
from operator import add, mul, neg, sub
from typing import Callable, Sequence

from .cells import LazyPair, NonProductiveError

__all__ = [
    "Stream",
    "NonProductiveError",
    "cons",
    "defer",
    "zip_with",
    "scale",
    "delay",
    "prepend",
    "take",
    "repeat",
]


class Stream(LazyPair):
    """An infinite sequence of values backed by guarded lazy cells."""

    __slots__ = ()

    def map(self, f: Callable) -> "Stream":
        """Elementwise ``f``, lazily; forces this stream only as far as read."""
        return _map(f, self)

    # Arithmetic is elementwise, matching how recurrences are written.
    # A scalar multiplier scales every element.

    def __add__(self, other):
        if isinstance(other, Stream):
            return zip_with(add, self, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Stream):
            return zip_with(sub, self, other)
        return NotImplemented

    def __neg__(self):
        return _map(neg, self)

    def __mul__(self, other):
        if isinstance(other, Stream):
            return zip_with(mul, self, other)
        return scale(other, self)

    def __rmul__(self, other):
        return scale(other, self)


def cons(head, tail) -> Stream:
    """Stream starting with ``head``; ``tail`` is a Stream or a thunk.

    The thunk runs at most once, when the tail is first needed, which is
    what makes self-referential definitions expressible: by the time the
    tail is forced, the name being defined is bound.
    """
    return Stream.cons(head, tail)


def defer(fn: Callable[[], Stream]) -> Stream:
    """Stream whose whole definition is produced on first demand."""
    return Stream.defer(fn)


def zip_with(f: Callable, a: Stream, b: Stream) -> Stream:
    """Stream whose element k is ``f(a_k, b_k)``."""
    return Stream.pointwise(zip_with, (f, a, b))


def _map(f, a):
    return Stream.pointwise(_map, (f, a, None))


def scale(c, s: Stream) -> Stream:
    """Multiply every element by the scalar ``c``."""
    return _map(partial(mul, c), s)


def delay(m: int, s: Stream, fill=0) -> Stream:
    """``m`` copies of ``fill``, each built when read, then ``s``."""
    if m < 0:
        raise ValueError("delay: m must be >= 0")
    return Stream.delayed(m, s, fill)


def prepend(prefix: Sequence, s: Stream) -> Stream:
    """The elements of ``prefix`` followed by ``s``."""
    node = s
    for value in reversed(prefix):
        node = Stream.cons(value, node)
    return node


def take(n: int, s: Stream) -> list:
    """Materialize exactly the first ``n`` elements.

    Forces no cell beyond index ``n - 1``. A non-productive definition
    surfaces here as :class:`NonProductiveError`.
    """
    return s.take(n)


def repeat(value) -> Stream:
    """The constant stream value, value, value, ..."""
    s = Stream.cons(value, lambda: s)
    return s
