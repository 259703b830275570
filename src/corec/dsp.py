"""Audio sample streams: generators, filters, and a WAV writer.

A sound here is just an infinite stream of float64 samples, nominally in
[-1, 1]; every generator and filter below is a direct transcription of its
defining recurrence into a self-referential stream. A step of a recurrence
is one ``zip_with`` of its taps, so it costs one stream node per sample
rather than one per operator; the Euler oscillator and vibrato each step
one stream of their two state variables, and map it to their output.
Quantization happens only when writing a file.

The noise source is fully bit-specified (splitmix64) so that renders are
reproducible across platforms and golden-file tests are portable.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import tempfile
from array import array
from itertools import islice
from operator import itemgetter
from typing import Sequence

from .stream import Stream, cons, defer, delay, prepend, zip_with

__all__ = [
    "sine",
    "euler_osc",
    "vibrato",
    "karplus_strong",
    "allpass",
    "noise",
    "write_wav",
]


def _finite_step(name: str, h: float) -> None:
    # A NaN or infinite step is refused at the call, by the generator's name.
    if not math.isfinite(h):
        raise ValueError("%s: h must be finite, not %r" % (name, h))


def sine(h: float) -> Stream:
    """Sinusoid from the two-tap recurrence; sample n is sin((n+1)*h).

    Uses sin(n h) = 2 cos(h) sin((n-1)h) - sin((n-2)h), seeded by its own
    prefix: the step is one ``zip_with`` of the stream and the stream one
    tap delayed. A NaN or infinite ``h`` raises ``ValueError``.
    """
    _finite_step("sine", h)
    k = 2.0 * math.cos(h)

    def step(y1, y0):
        return k * y1 - y0

    y = cons(math.sin(h), lambda: zip_with(step, y, delay(1, y, 0.0)))
    return y


def euler_osc(h: float) -> Stream:
    """Unit-frequency oscillator by the semi-implicit Euler step ``h``.

    y_{n+1} = y_n + h v_n and v_{n+1} = v_n - h y_{n+1}; the scheme is
    stable for small h and the step controls the output frequency. The
    oscillator is one stream of ``(y, v)`` states, a step one ``map`` of
    it, and the output maps each state to its ``y``. A NaN or infinite
    ``h`` raises ``ValueError``.
    """
    _finite_step("euler_osc", h)

    def step(state):
        y, v = state
        w = y + h * v
        return w, v - h * w

    states = cons((0.0, 1.0), lambda: states.map(step))
    return states.map(itemgetter(0))


def vibrato(h: float, mod: Stream) -> Stream:
    """Euler oscillator with both couplings weighted elementwise by ``mod``.

    A slowly varying ``mod`` near 1 wobbles the instantaneous frequency;
    the constant stream 1 reproduces :func:`euler_osc` exactly. The
    oscillator is one stream of ``(y, u)`` states: a step is one
    ``zip_with`` of the states and ``mod``, ``w = y + h * (m * u)`` and
    then ``u - h * (m * w)``, and the output maps each state to its ``y``.
    So a sample costs 2 nodes plus those of ``mod``, and n samples read
    n - 1 elements of ``mod``. A NaN or infinite ``h`` raises
    ``ValueError``.
    """
    _finite_step("vibrato", h)

    def step(state, m):
        y, u = state
        w = y + h * (m * u)
        return w, u - h * (m * w)

    states = cons((0.0, 1.0), lambda: zip_with(step, states, mod))
    return states.map(itemgetter(0))


def karplus_strong(length: int, excitation: Sequence[float],
                   blend: float = 0.5) -> Stream:
    """Plucked string: a delay line fed back through a two-tap average.

    The excitation (length ``length``) is the initial content of the delay
    line; after it, sample L+n is blend * (y_n + y_{n-1}), one ``zip_with``
    of the line and the line one tap delayed. That damps the high
    frequencies a little on every pass and leaves a tone at roughly
    rate / (length + 1/2).
    """
    if length < 2:
        raise ValueError("karplus_strong: length must be >= 2")
    excitation = list(excitation)
    if len(excitation) != length:
        raise ValueError("karplus_strong: excitation must have exactly "
                         "'length' samples")

    def average(a, b):
        return blend * (a + b)

    y = defer(lambda: prepend(
        excitation,
        zip_with(average, y, delay(1, y, 0.0)),
    ))
    return y


def allpass(m: int, b: float, x: Stream) -> Stream:
    """First-order all-pass section with delay ``m``: unit gain, phase only.

    v = x - b * delay(v); y = b * v + delay(v), each one ``zip_with`` of
    its two taps. Productive because the delayed branch starts with m
    known zeros.
    """
    if m < 1:
        raise ValueError("allpass: m must be >= 1")
    if not abs(b) < 1:
        raise ValueError("allpass: |b| must be < 1 for stability")

    def feedback(s, e):
        return s - b * e

    def output(s, e):
        return b * s + e

    v = defer(lambda: zip_with(feedback, x, d))
    d = delay(m, v, 0.0)
    return zip_with(output, v, d)


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def noise(seed: int) -> Stream:
    """Deterministic white noise in [-1, 1) from a splitmix64 generator.

    The top 53 output bits become a float in [0, 1), mapped affinely to
    [-1, 1). Same seed, same samples, on every platform.
    """
    def step(state: int) -> Stream:
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z ^= z >> 31
        sample = (z >> 11) * 2.0 ** -53 * 2.0 - 1.0
        return cons(sample, lambda: step(state))

    return defer(lambda: step(seed & _MASK64))


def _frames(rate: int, seconds: float) -> int:
    # The frames of a render, or the ValueError write_wav raises for it.
    if rate <= 0:
        raise ValueError("write_wav: rate must be > 0")
    if not 0 < seconds < math.inf:
        raise ValueError("write_wav: seconds must be > 0 and finite, not %r"
                         % seconds)
    frames = int(rate * seconds)
    if rate * 2 > 0xFFFFFFFF or 36 + 2 * frames > 0xFFFFFFFF:
        raise ValueError("write_wav: %d frames at %d Hz do not fit in a WAV "
                         "header" % (frames, rate))
    return frames


#: Samples quantized and written per chunk by :func:`write_wav`.
_CHUNK = 1 << 14


def write_wav(path: str, rate: int, s: Stream, seconds: float) -> str:
    """Render ``floor(rate * seconds)`` samples as a 16-bit mono PCM WAV.

    Samples are clamped to [-1, 1], scaled by 32767 and rounded to the
    nearest integer. The stream is consumed in chunks and nothing here
    keeps its first node, so memory stays bounded by what the definition
    itself keeps, if the caller keeps no reference either. The file is
    written to a temporary name in the target directory and renamed into
    place, so a failure never leaves a partial file at ``path``. Samples
    are forced as iteration forces them, under the caller's recursion
    limit, so a definition deeper than that limit raises ``RecursionError``.
    A render whose byte rate or file size does not fit the header's 32-bit
    fields raises ``ValueError`` before any file is made, and so does a NaN
    or infinite ``seconds``; a NaN sample raises ``ValueError`` naming its
    index. An ``OSError`` about a file names ``path``, never the temporary
    name.
    """
    frames = _frames(rate, seconds)
    data_size = 2 * frames
    samples = iter(s)
    del s

    header = b"RIFF" + struct.pack("<I", 36 + data_size) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate,
                                    rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", data_size)

    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".wav.part")
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            for start in range(0, frames, _CHUNK):
                values = list(islice(samples, min(_CHUNK, frames - start)))
                try:
                    # clamp to [-1, 1], scale and round; NaN passes the clamp
                    chunk = array("h", [
                        round((1.0 if x > 1.0 else -1.0 if x < -1.0 else x)
                              * 32767.0)
                        for x in values])
                except ValueError:
                    nans = [k for k, x in enumerate(values) if x != x]
                    if not nans:
                        raise
                    raise ValueError("write_wav: sample %d is nan"
                                     % (start + nans[0])) from None
                if sys.byteorder == "big":
                    chunk.byteswap()
                chunk.tofile(fh)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError) and exc.filename is not None:
            # The temporary name is random; name the file asked for.
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
    return path
