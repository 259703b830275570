"""Co-recursive lazy streams and the semi-numerical structures built on them.

The engine (:mod:`corec.stream`) provides memoized infinite sequences that
may be defined in terms of themselves, with a guard that turns unsound
self-reference into an error instead of a hang. On top of it sit formal
power series (:mod:`corec.series`), derivative towers (:mod:`corec.dif`),
audio generators (:mod:`corec.dsp`), the semiclassical double expansion
(:mod:`corec.wkb`), and the zero-dimensional field-theory amplitudes
(:mod:`corec.qft`). ``corec.cli`` exposes the showcases as a command line.

Importing the package loads none of these modules. The names below are
lazy: the first access to one imports its module and binds the name here,
so ``corec.Series`` and ``from corec import *`` work as if imported eagerly.

- :mod:`corec.cells`: ``NonProductiveError``
- :mod:`corec.stream`: ``Stream``, ``cons``, ``defer``, ``zip_with``,
  ``scale``, ``delay``, ``prepend``, ``take``, ``repeat``
- :mod:`corec.series`: ``Series``, ``ZERO``, ``sint``, ``transpose``
- :mod:`corec.dif`: ``Dif``, ``ZERO_TOWER``, ``damped_sine``,
  ``lambert_w_tower``, ``taylor_from_tower``
- :mod:`corec.coeffs`: ``Rational``, ``rational``, ``format_coeff``
"""

from importlib import import_module

# Each public name and the submodule that defines it.
_LAZY = {
    "NonProductiveError": "cells",
    "Stream": "stream",
    "cons": "stream",
    "defer": "stream",
    "zip_with": "stream",
    "scale": "stream",
    "delay": "stream",
    "prepend": "stream",
    "take": "stream",
    "repeat": "stream",
    "Series": "series",
    "ZERO": "series",
    "sint": "series",
    "transpose": "series",
    "Dif": "dif",
    "ZERO_TOWER": "dif",
    "damped_sine": "dif",
    "lambert_w_tower": "dif",
    "taylor_from_tower": "dif",
    "Rational": "coeffs",
    "rational": "coeffs",
    "format_coeff": "coeffs",
}

__all__ = list(_LAZY)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name)) from None
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
