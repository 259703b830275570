import cmath
import hashlib
import math
import operator
import random
import struct
import sys
import weakref

import numpy as np
import pytest

from corec.dsp import (
    allpass,
    euler_osc,
    karplus_strong,
    noise,
    sine,
    vibrato,
    write_wav,
)
from corec.stream import (
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

from support import run_python


def impulse():
    return cons(1.0, lambda: repeat(0.0))


def single_bin_amplitude(samples, w, start, length):
    z = sum(samples[n] * cmath.exp(-1j * w * n)
            for n in range(start, start + length))
    return abs(z) * 2.0 / length


# -- sine --------------------------------------------------------------------

def test_sine_quarter_period():
    got = take(4, sine(math.pi / 2))
    expected = [1.0, 0.0, -1.0, 0.0]
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, expected))


def test_sine_zero_step():
    assert take(4, sine(0.0)) == [0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
def test_sine_refuses_a_step_that_is_not_finite(h):
    with pytest.raises(ValueError, match="^sine: h must be finite, not %r$" % h):
        sine(h)


@pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name, make", [
    ("euler_osc", euler_osc),
    ("vibrato", lambda h: vibrato(h, repeat(1.0))),
])
def test_euler_and_vibrato_refuse_a_step_that_is_not_finite(name, make, h):
    with pytest.raises(ValueError, match="^%s: h must be finite, not %r$" % (name, h)):
        make(h)


@pytest.mark.parametrize("h", [0.001, 0.01, 0.1])
def test_sine_drift_bound(h):
    n = 48000
    got = take(n, sine(h))
    drift = max(abs(v - math.sin((k + 1) * h)) for k, v in enumerate(got))
    assert drift < 1e-9


# -- euler oscillator ----------------------------------------------------------

def test_euler_hand_steps():
    y = take(3, euler_osc(0.1))
    assert abs(y[0]) == 0.0
    assert abs(y[1] - 0.1) < 1e-15
    assert abs(y[2] - 0.199) < 1e-15


def test_euler_velocity_first_steps():
    # u as seen through y: y2 - y1 = h * u1 with u1 = 1 - h * y1... check
    # directly through two streams' defining relation instead.
    y = take(4, euler_osc(0.1))
    # y1 = h, y2 = h + h*(1 - h^2), both exact in IEEE for h = 0.1? Not
    # exactly; compare against a float recurrence run independently.
    yy, u = 0.0, 1.0
    expected = []
    for _ in range(4):
        expected.append(yy)
        w = yy + 0.1 * u
        u = u - 0.1 * w
        yy = w
    assert all(abs(a - b) < 1e-15 for a, b in zip(y, expected))


def test_euler_stays_bounded():
    y = take(100000, euler_osc(0.01))
    assert max(abs(v) for v in y) <= 1.01


# -- vibrato -------------------------------------------------------------------

def test_vibrato_constant_modulation_scales_frequency():
    h, n = 0.05, 4096
    base = take(n, euler_osc(h))
    slowed = take(n, vibrato(h, repeat(0.5)))
    peak_base = int(np.argmax(np.abs(np.fft.rfft(base))))
    peak_slow = int(np.argmax(np.abs(np.fft.rfft(slowed))))
    assert abs(peak_slow - 0.5 * peak_base) <= 2


def test_vibrato_bounded_for_bounded_modulation():
    wobble = sine(0.001).map(lambda v: 1.0 + 0.05 * v)
    y = take(100000, vibrato(0.01, wobble))
    assert max(abs(v) for v in y) <= 1.1


def test_vibrato_reads_one_modulation_element_fewer_than_it_gives():
    reads = []

    def count(v):
        reads.append(v)
        return v

    assert len(take(100, vibrato(0.05, repeat(1.0).map(count)))) == 100
    assert len(reads) == 99


def test_vibrato_modulated_by_its_own_output():
    h, n = 0.05, 500
    y = vibrato(h, defer(lambda: y.map(lambda v: 1.0 + 0.1 * v)))
    expected, yy, u = [], 0.0, 1.0
    for _ in range(n):
        expected.append(yy)
        m = 1.0 + 0.1 * yy
        w = yy + h * (m * u)
        u = u - h * (m * w)
        yy = w
    assert take(n, y) == expected


# -- plucked string --------------------------------------------------------------

def test_karplus_strong_hand_iteration():
    got = take(8, karplus_strong(2, [1.0, 0.0]))
    expected = [1.0, 0.0, 0.5, 0.5, 0.25, 0.5, 0.375, 0.375]
    assert all(abs(a - b) < 1e-15 for a, b in zip(got, expected))


def test_karplus_strong_zero_excitation():
    assert take(12, karplus_strong(3, [0.0, 0.0, 0.0])) == [0.0] * 12


def test_karplus_strong_parameter_errors():
    with pytest.raises(ValueError):
        karplus_strong(1, [1.0])
    with pytest.raises(ValueError):
        karplus_strong(4, [1.0, 2.0])


def test_karplus_strong_spectral_peak():
    length = 100
    excitation = take(length, noise(3))
    y = take(length + 8192, karplus_strong(length, excitation))[length:]
    spectrum = np.abs(np.fft.rfft(y))
    peak = int(np.argmax(spectrum))
    expected_bin = 8192 / (length + 0.5)  # half-sample delay from the average
    assert abs(peak - expected_bin) <= 1.0


def test_karplus_strong_energy_decay():
    length = 100
    excitation = take(length, noise(42))
    window = 2 * length
    y = take(length + 16 * window, karplus_strong(length, excitation))[length:]
    rms = [math.sqrt(sum(v * v for v in y[i * window:(i + 1) * window]) / window)
           for i in range(16)]
    assert all(rms[i + 1] <= rms[i] + 1e-9 for i in range(15))


# -- all-pass ---------------------------------------------------------------------

def test_allpass_degenerates_to_delay_at_b_zero():
    x = cons(1.0, lambda: cons(2.0, lambda: repeat(0.0)))
    assert take(6, allpass(2, 0.0, x)) == [0.0, 0.0, 1.0, 2.0, 0.0, 0.0]


def test_allpass_impulse_response_closed_form():
    b = 0.5
    got = take(8, allpass(1, b, impulse()))
    expected = [b, 1 - b * b]
    for k in range(6):
        expected.append((-b) ** (k + 1) * (1 - b * b))
    assert all(abs(a - e) < 1e-12 for a, e in zip(got, expected))


def test_allpass_unit_impulse_energy():
    response = take(10000, allpass(3, 0.5, impulse()))
    energy = sum(v * v for v in response)
    assert abs(energy - 1.0) <= 1e-9


@pytest.mark.parametrize("w", [0.1, 0.5, 1.0])
def test_allpass_unit_gain_on_sinusoids(w):
    m, b = 3, 0.5
    cycles = max(1, round(w * 4000 / (2 * math.pi)))
    window = round(2 * math.pi * cycles / w)  # near-integer cycle count
    start = 10 * m
    total = start + window
    out = take(total, allpass(m, b, sine(w)))
    ref = take(total, sine(w))
    gain = (single_bin_amplitude(out, w, start, window)
            / single_bin_amplitude(ref, w, start, window))
    assert abs(gain - 1.0) <= 1e-3


def test_allpass_parameter_errors():
    with pytest.raises(ValueError):
        allpass(0, 0.5, impulse())
    with pytest.raises(ValueError):
        allpass(2, 1.0, impulse())


# -- noise -------------------------------------------------------------------------

def test_noise_is_deterministic():
    assert take(1000, noise(12345)) == take(1000, noise(12345))


def test_noise_stays_in_range():
    assert all(-1.0 <= v < 1.0 for v in take(5000, noise(99)))


def test_noise_mean_is_small():
    samples = take(100000, noise(7))
    assert abs(sum(samples) / len(samples)) < 0.02


def test_noise_seeds_differ():
    assert take(50, noise(1)) != take(50, noise(2))


# -- WAV writer ---------------------------------------------------------------------

def test_wav_header_and_sizes(tmp_path):
    path = tmp_path / "tone.wav"
    write_wav(str(path), 8000, repeat(0.0), 1.0)
    data = path.read_bytes()
    assert data[0:4] == b"RIFF"
    assert data[8:12] == b"WAVE"
    assert data[12:16] == b"fmt "
    (fmt_size, fmt_tag, channels, rate, byte_rate,
     block, bits) = struct.unpack("<IHHIIHH", data[16:36])
    assert (fmt_size, fmt_tag, channels, rate) == (16, 1, 1, 8000)
    assert (byte_rate, block, bits) == (16000, 2, 16)
    assert data[36:40] == b"data"
    assert struct.unpack("<I", data[40:44])[0] == 16000
    assert struct.unpack("<I", data[4:8])[0] == 36 + 16000
    assert len(data) == 44 + 16000


def test_wav_clamps_and_scales(tmp_path):
    path = tmp_path / "full.wav"
    write_wav(str(path), 100, repeat(1.5), 0.1)
    data = path.read_bytes()
    frames = struct.unpack("<10h", data[44:64])
    assert frames == (32767,) * 10


def test_wav_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    for path in (a, b):
        excitation = take(64, noise(2024))
        write_wav(str(path), 8000, karplus_strong(64, excitation), 0.25)
    assert a.read_bytes() == b.read_bytes()


def test_wav_golden_digest(tmp_path):
    # Fixed seed, integer-exact noise and dyadic filter arithmetic: the
    # rendered bytes are reproducible on any IEEE-754 platform.
    path = tmp_path / "golden.wav"
    excitation = take(100, noise(42))
    write_wav(str(path), 8000, karplus_strong(100, excitation), 0.5)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == ("a268eefd2f3aba66fbdbac68d0698bbececc65fa"
                      "652a301dd2fe69fad299d3d4")


# -- the generators against their operator chains --------------------------------
# Each generator written with one stream operation per operator (scale, +,
# -), as the recurrences read. A fused step must do the same float
# operations in the same order, so the samples are compared as bytes:
# -0.0 differs from 0.0 and the bits of a NaN count.

def _sine_chain(h):
    k = 2.0 * math.cos(h)
    y = cons(math.sin(h), lambda: scale(k, y) - cons(0.0, lambda: y))
    return y


def _euler_chain(h):
    y = cons(0.0, lambda: w)
    w = defer(lambda: y + scale(h, u))
    u = cons(1.0, lambda: u - scale(h, w))
    return y


def _vibrato_chain(h, mod):
    y = cons(0.0, lambda: w)
    w = defer(lambda: y + scale(h, zip_with(operator.mul, mod, u)))
    u = cons(1.0, lambda: u - scale(h, zip_with(operator.mul, mod, w)))
    return y


def _karplus_strong_chain(excitation, blend):
    y = defer(lambda: prepend(excitation, scale(blend, y + cons(0.0, lambda: y))))
    return y


def _allpass_chain(m, b, x):
    v = defer(lambda: x - scale(b, d))
    d = delay(m, v, 0.0)
    return scale(b, v) + d


def _bits(s, n=20_000):
    return struct.pack("<%dd" % n, *take(n, s))


def _wobble(rate=8000):
    # The CLI's vibrato modulation: 5 Hz, 5 % deep, carried by sine.
    return lambda: sine(2.0 * math.pi * 5.0 / rate).map(lambda v: 1.0 + 0.05 * v)


_RNG = random.Random(2011)
_CLI_H = 2.0 * math.pi * 440.0 / 8000
# 2.5 and -2.25 are past Euler's stability bound |h| < 2: those samples
# overflow to infinities and then to NaN.
_STEPS = ([0.0, -0.0, -0.3, _CLI_H, 2.5, -2.25]
          + [_RNG.uniform(-3.2, 3.2) for _ in range(4)])
_MODS = [_wobble(), _wobble(44100), lambda: noise(5)]
_STRINGS = [(2, 0.5, 1), (100, 0.5, 42)] + [
    (_RNG.randrange(2, 300), _RNG.uniform(-1.0, 1.0), _RNG.randrange(1 << 64))
    for _ in range(3)]
_SECTIONS = [(1, 0.0), (3, 0.5), (7, -0.9)] + [
    (_RNG.randrange(1, 60), _RNG.uniform(-0.99, 0.99)) for _ in range(3)]


@pytest.mark.parametrize("h", _STEPS)
def test_sine_and_euler_match_their_operator_chains_bit_for_bit(h):
    assert _bits(sine(h)) == _bits(_sine_chain(h))
    assert _bits(euler_osc(h)) == _bits(_euler_chain(h))


def test_vibrato_identity_modulation():
    # The constant stream 1 reproduces euler_osc as bytes, -0.0, overflow
    # and NaN included, at every step.
    for h in _STEPS:
        assert _bits(vibrato(h, repeat(1.0))) == _bits(euler_osc(h)), h


@pytest.mark.parametrize("mod", _MODS)
@pytest.mark.parametrize("h", [0.0, -0.05, _CLI_H, 2.5])
def test_vibrato_matches_its_operator_chain_bit_for_bit(h, mod):
    assert _bits(vibrato(h, mod())) == _bits(_vibrato_chain(h, mod()))


@pytest.mark.parametrize("length, blend, seed", _STRINGS)
def test_karplus_strong_matches_its_operator_chain_bit_for_bit(length, blend, seed):
    excitation = take(length, noise(seed))
    assert (_bits(karplus_strong(length, excitation, blend))
            == _bits(_karplus_strong_chain(excitation, blend)))


@pytest.mark.parametrize("m, b", _SECTIONS)
def test_allpass_matches_its_operator_chain_bit_for_bit(m, b):
    excitation = take(100, noise(m))
    for x in (lambda: karplus_strong(100, excitation), lambda: sine(_CLI_H),
              impulse):
        assert _bits(allpass(m, b, x())) == _bits(_allpass_chain(m, b, x()))


class _Tracked(Stream):
    # Stream nodes that accept weak references.
    __slots__ = ("__weakref__",)


def test_wav_writer_keeps_no_rendered_prefix(tmp_path):
    # The render is a tracked first node followed by a map whose function
    # looks, at sample 50,000, whether that first node is still alive.
    refs, seen = [], []

    def probe(x):
        if len(seen) == 49_999:
            seen.append(refs[0]() is None)
        else:
            seen.append(None)
        return x

    def tracked(rest):
        node = _Tracked.cons(0.0, rest)
        refs.append(weakref.ref(node))
        return node

    path = tmp_path / "long.wav"
    write_wav(str(path), 8000, tracked(sine(0.05).map(probe)), 7.0)
    assert len(seen) == 55_999
    assert seen[49_999] is True


def test_wav_never_leaves_partial_file(tmp_path):
    target = tmp_path / "out.wav"

    def explode():
        raise RuntimeError("producer failure")

    bad = cons(0.0, lambda: cons(explode(), lambda: repeat(0.0)))
    with pytest.raises(RuntimeError):
        write_wav(str(target), 8000, bad, 0.5)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_wav_renders_under_the_callers_recursion_limit(tmp_path):
    limits = set()

    def record(x):
        limits.add(sys.getrecursionlimit())
        return x

    write_wav(str(tmp_path / "s.wav"), 1000, sine(0.05).map(record), 4.0)
    # Every other consumer forces under the caller's limit too.
    assert len(sine(0.05).map(record).take(4000)) == 4000
    sine(0.05).map(record).at(3999)
    assert len(list(zip(range(4000), sine(0.05).map(record)))) == 4000
    assert limits == {sys.getrecursionlimit()}


def test_wav_of_a_too_deep_stream_raises_recursion_error(tmp_path):
    # A thunk chain uses C stack per level; under a raised limit this
    # one would overflow the main thread's stack and kill the process.
    script = (
        "import sys\n"
        "from corec.dsp import write_wav\n"
        "from corec.stream import Stream, repeat\n"
        "q = repeat(1.0)\n"
        "for _ in range(20_000):\n"
        "    q = Stream(lambda q=q: q.head * 0.5, lambda q=q: q)\n"
        "write_wav(sys.argv[1], 1000, q, 4.0)\n"
    )
    target = tmp_path / "deep.wav"
    proc = run_python("-c", script, str(target))
    assert proc.returncode == 1, (proc.returncode, proc.stderr[-500:])
    assert "RecursionError" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_wav_rejects_bad_parameters(tmp_path):
    with pytest.raises(ValueError):
        write_wav(str(tmp_path / "x.wav"), 0, repeat(0.0), 1.0)
    with pytest.raises(ValueError):
        write_wav(str(tmp_path / "x.wav"), 8000, repeat(0.0), 0.0)


def test_wav_too_large_for_its_header_is_refused_before_any_file(tmp_path):
    target = tmp_path / "big.wav"
    # The byte rate (2 * rate) and the RIFF size (36 + 2 * frames) are
    # 32-bit fields.
    for rate, seconds in [(2 ** 31, 1e-6), (3_000_000_000, 1e-6),
                          (1, 2_147_483_630.0), (44100, 100_000.0)]:
        with pytest.raises(ValueError, match="WAV header"):
            write_wav(str(target), rate, repeat(0.0), seconds)
        assert list(tmp_path.iterdir()) == []
    # The largest byte rate that fits still renders.
    write_wav(str(target), 2 ** 31 - 1, repeat(0.0), 1e-9)
    data = target.read_bytes()
    assert struct.unpack("<I", data[28:32]) == (0xFFFFFFFE,)
    assert len(data) == 44 + 2 * 2


@pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf])
def test_wav_refuses_a_seconds_that_is_not_finite(tmp_path, seconds):
    message = "write_wav: seconds must be > 0 and finite, not %r" % seconds
    with pytest.raises(ValueError, match="^%s$" % message):
        write_wav(str(tmp_path / "x.wav"), 8000, repeat(0.0), seconds)
    assert list(tmp_path.iterdir()) == []


def test_wav_names_the_index_of_a_nan_sample(tmp_path):
    # The clamp lets NaN through; the first one, in the second chunk, is
    # reported by its index in the whole render.
    index = (1 << 14) + 5
    s = prepend([0.25] * index + [math.nan, math.nan], repeat(0.0))
    with pytest.raises(ValueError, match="^write_wav: sample %d is nan$" % index):
        write_wav(str(tmp_path / "x.wav"), 8000, s, 4.0)
    assert list(tmp_path.iterdir()) == []
    # Infinities are clamped as before.
    write_wav(str(tmp_path / "inf.wav"), 100, cons(math.inf, lambda: repeat(-math.inf)), 0.02)
    assert struct.unpack("<2h", (tmp_path / "inf.wav").read_bytes()[44:]) == (32767, -32767)


def test_wav_errors_name_the_path_not_the_temporary_file(tmp_path):
    missing = str(tmp_path / "missing" / "x.wav")
    with pytest.raises(FileNotFoundError) as excinfo:
        write_wav(missing, 8000, repeat(0.0), 0.1)
    assert excinfo.value.filename == missing
    assert str(excinfo.value).endswith(": %r" % missing)
    # Renaming onto a directory fails after the render; its error names it too.
    with pytest.raises(OSError) as excinfo:
        write_wav(str(tmp_path), 8000, repeat(0.0), 0.1)
    assert excinfo.value.filename == str(tmp_path)
    assert list(tmp_path.iterdir()) == []
