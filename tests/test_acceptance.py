"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS line (visible with ``pytest -s`` or ``-rP``)
once its assertions have held. Oracles are implemented here, independently
of the code paths they check.
"""

import cmath
import hashlib
import math
import random
import threading
import time
from fractions import Fraction

import numpy as np

from corec.catalog import bessel_series, partitions
from corec.dif import Dif, damped_sine, lambert_w_tower, taylor_from_tower
from corec.dsp import allpass, karplus_strong, noise, sine, write_wav
from corec.qft import dyson_schwinger, greens, parity_check
from corec.series import Series
from corec.stream import NonProductiveError, Stream, cons, defer, repeat, take
from corec.wkb import airy_s0_prime, wkb_expand

from support import pentagonal_partitions


def _report(number, text, started):
    print("ACCEPTANCE %2d PASS: %s (%.2f s)" % (number, text,
                                                 time.perf_counter() - started))


# -- 1: partition numbers ----------------------------------------------------

def test_criterion_01_partitions():
    started = time.perf_counter()
    series = partitions()
    assert series.coefficients(17) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
                                       56, 77, 101, 135, 176, 231]
    oracle = pentagonal_partitions(100)
    assert oracle[100] == 190569292
    assert partitions().at(100) == oracle[100]
    _report(1, "partition numbers exact, p(100) matches pentagonal oracle",
            started)


# -- 2: modified Bessel series ------------------------------------------------

def test_criterion_02_bessel():
    started = time.perf_counter()
    w = bessel_series()
    assert w.coefficients(7) == [
        Fraction(1), Fraction(-1, 4), Fraction(1, 32), Fraction(-3, 128),
        Fraction(75, 2048), Fraction(-735, 8192), Fraction(19845, 65536)]
    residual = (w.diff().diff().shift(2) + w.diff()
                + w.scale(Fraction(1, 4)))
    assert residual.coefficients(20) == [0] * 20
    _report(2, "Bessel coefficients exact, ODE residual zero to order 20",
            started)


# -- 3: Dyson-Schwinger amplitudes ---------------------------------------------

def test_criterion_03_qft():
    started = time.perf_counter()
    g2 = greens(2).coefficients(13)
    table2 = {0: Fraction(1), 2: Fraction(1), 4: Fraction(25, 8),
              6: Fraction(15), 8: Fraction(12155, 128),
              10: Fraction(11865, 16), 12: Fraction(7040125, 1024)}
    for k in range(13):
        assert g2[k] == table2.get(k, Fraction(0))
    g4 = greens(4).coefficients(9)
    table4 = {2: Fraction(1, 2), 4: Fraction(4), 6: Fraction(525, 16),
              8: Fraction(300)}
    for k, expected in table4.items():
        assert g4[k] == expected
    assert parity_check(12)
    phi = dyson_schwinger()
    rhs = Series.cons(
        Series.from_list([0, 1]),
        lambda: (phi.map(lambda s: s.diff() if isinstance(s, Series) else 0)
                 + phi * phi).scale(Fraction(1, 2)))
    residual = phi - rhs
    for k in range(15):
        inner = residual.at(k)
        coeffs = (inner.coefficients(16) if isinstance(inner, Series)
                  else [inner] * 16)
        assert all(c == 0 for c in coeffs)
    _report(3, "G2/G4 exact, parity to order 12, fixed point exact to "
               "(gamma^14, J^15)", started)


# -- 4: reversion / composition --------------------------------------------------

def test_criterion_04_reversion():
    started = time.perf_counter()
    assert Series.from_list([0, 1, 1]).revert().coefficients(6) == \
        [0, 1, -1, 2, -5, 14]
    identity = [Fraction(0), Fraction(1)] + [Fraction(0)] * 11
    rng = random.Random(424242)
    for _ in range(50):
        extra = [Fraction(rng.randint(-3, 3))
                 for _ in range(rng.randint(0, 6))]
        v = Series.from_list([Fraction(0), Fraction(1)] + extra)
        got = [Fraction(c) for c in v.compose(v.revert()).coefficients(13)]
        assert got == identity
    _report(4, "50 random reversions compose back to the identity, exactly",
            started)


# -- 5: elementary round-trips (floats) -------------------------------------------

def test_criterion_05_elementary_roundtrips():
    started = time.perf_counter()
    rng = random.Random(55555)
    for _ in range(20):
        tail = [rng.uniform(-0.4, 0.4) for _ in range(9)]
        u_any = Series.from_list([rng.uniform(-0.5, 0.5)] + tail)
        u_pos = Series.from_list([rng.uniform(0.5, 2.0)] + tail)
        back = u_any.exp().log().coefficients(13)
        for a, b in zip(back, u_any.coefficients(13)):
            assert abs(a - b) <= 1e-9
        root = u_pos.sqrt()
        for a, b in zip((root * root).coefficients(13),
                        u_pos.coefficients(13)):
            assert abs(a - b) <= 1e-9
        a_exp = rng.uniform(-2.0, 2.0)
        prod = (u_pos.pow(a_exp) * u_pos.pow(-a_exp)).coefficients(13)
        assert abs(prod[0] - 1.0) <= 1e-9
        assert all(abs(c) <= 1e-9 for c in prod[1:])
    _report(5, "log/exp, sqrt^2, pow(a)*pow(-a) identities to order 12 "
               "within 1e-9", started)


# -- 6: derivative towers -----------------------------------------------------------

def test_criterion_06_towers():
    started = time.perf_counter()
    got = Dif.var(2.0).recip().elements(9)
    for n in range(9):
        expected = (-1) ** n * math.factorial(n) / 2.0 ** (n + 1)
        assert abs(got[n] - expected) <= 1e-12
    x = Dif.var(0.7)
    fast = damped_sine(x).elements(15)
    naive = (x.sin() * (-x).exp()).elements(15)
    for a, b in zip(fast, naive):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    w = lambert_w_tower().elements(9)
    for n in range(1, 9):
        assert abs(abs(w[n]) - n ** (n - 1)) <= 1e-6 * n ** (n - 1)
    # signs from the reversion oracle, not from any printed table
    z_exp_z = Series.from_list(
        [Fraction(0)] + [Fraction(1, math.factorial(k)) for k in range(10)])
    coeffs = z_exp_z.revert().coefficients(9)
    for n in range(2, 9):
        exact_element = coeffs[n] * math.factorial(n)
        assert exact_element != 0
        assert (w[n] > 0) == (exact_element > 0)
    _report(6, "recip tower exact, damped sine matches naive product, "
               "Lambert magnitudes and oracle signs", started)


# -- 7: tower-to-series bridge --------------------------------------------------------

def test_criterion_07_bridge():
    started = time.perf_counter()
    pairs = [
        (Dif.var(0.0).exp(), Series.from_list([0, 1]).exp()),
        (Dif.var(0.0).sin(), Series.from_list([0, 1]).sin()),
        ((1 + Dif.var(0.0)).log(), Series.from_list([1, 1]).log()),
    ]
    for tower, series in pairs:
        bridged = taylor_from_tower(tower).coefficients(10)
        direct = [float(c) for c in series.coefficients(10)]
        for a, b in zip(bridged, direct):
            assert abs(a - b) <= 1e-12
    _report(7, "tower Taylor coefficients equal direct series for exp, sin, "
               "log(1+x)", started)


# -- 8: WKB ----------------------------------------------------------------------------

def test_criterion_08_wkb():
    started = time.perf_counter()
    for x0 in (1.0, 2.0):
        result = wkb_expand(airy_s0_prime(x0), 5)
        s0v = math.sqrt(x0)
        assert abs(math.exp(result.u_main.at(0)) - s0v ** -0.5) <= 1e-12
        # classical recurrence, hand-differentiated, evaluated in floats
        s0p, s0pp, s0ppp = s0v, 0.5 / s0v, -0.25 * x0 ** -1.5
        s1p = -s0pp / (2 * s0p)
        s1pp = -s0ppp / (2 * s0p) + s0pp * s0pp / (2 * s0p * s0p)
        s2p = -(s1pp + s1p * s1p) / (2 * s0p)
        assert abs(result.v_prime_main.at(0) - s2p) <= 1e-10
        up = [result.u.at(k).deriv().value for k in range(5)]
        upp = [result.u.at(k).deriv().deriv().value for k in range(5)]
        vp = result.v_prime_main.take(5)
        for k in range(4):
            rhs = -(sum(up[i] * up[k - i] for i in range(k + 1)) + upp[k]
                    + sum(vp[i] * vp[k - 1 - i] for i in range(k))) / (2 * s0v)
            assert abs(vp[k] - rhs) <= 1e-12
    _report(8, "order-0 amplitude law, classical-recurrence oracle, "
               "defining residual for 4 orders", started)


# -- 9: DSP -------------------------------------------------------------------------------

def test_criterion_09_dsp(tmp_path):
    started = time.perf_counter()
    samples = take(48000, sine(0.01))
    drift = max(abs(v - math.sin((n + 1) * 0.01))
                for n, v in enumerate(samples))
    assert drift < 1e-9

    impulse = cons(1.0, lambda: repeat(0.0))
    energy = sum(v * v for v in take(10000, allpass(3, 0.5, impulse)))
    assert abs(energy - 1.0) <= 1e-9

    m, b = 3, 0.5
    for w in (0.1, 0.5, 1.0):
        cycles = max(1, round(w * 4000 / (2 * math.pi)))
        window = round(2 * math.pi * cycles / w)
        start = 10 * m
        out = take(start + window, allpass(m, b, sine(w)))
        ref = take(start + window, sine(w))

        def amp(sig):
            z = sum(sig[n] * cmath.exp(-1j * w * n)
                    for n in range(start, start + window))
            return abs(z) * 2.0 / window

        assert abs(amp(out) / amp(ref) - 1.0) <= 1e-3

    length = 100
    excitation = take(length, noise(3))
    string = take(length + 8192, karplus_strong(length, excitation))[length:]
    peak = int(np.argmax(np.abs(np.fft.rfft(string))))
    assert abs(peak - 8192 / (length + 0.5)) <= 1.0

    hand = take(8, karplus_strong(2, [1.0, 0.0]))
    expected = [1.0, 0.0, 0.5, 0.5, 0.25, 0.5, 0.375, 0.375]
    assert all(abs(a - e) <= 1e-15 for a, e in zip(hand, expected))

    path = tmp_path / "golden.wav"
    write_wav(str(path), 8000, karplus_strong(100, take(100, noise(42))), 0.5)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == ("a268eefd2f3aba66fbdbac68d0698bbececc65fa"
                      "652a301dd2fe69fad299d3d4")
    _report(9, "sine drift, all-pass energy and gain, string spectrum, "
               "hand-iterated pluck, golden WAV", started)


# -- 10: engine ------------------------------------------------------------------------------

def test_criterion_10_engine():
    started = time.perf_counter()
    counter = [0]

    def counted(k):
        def head():
            counter[0] += 1
            return k
        return Stream(head, lambda: counted(k + 1))

    s = counted(0)
    first = take(5, s)
    assert counter[0] == 5
    assert take(5, s) == first and counter[0] == 5  # memoized
    counter2 = [0]

    def counted2(k):
        def head():
            counter2[0] += 1
            return k
        return Stream(head, lambda: counted2(k + 1))

    take(3, counted2(0))
    assert counter2[0] == 3  # laziness: exactly n cells

    x = defer(lambda: x.map(lambda v: v + 1))
    outcome = {}

    def attempt():
        try:
            take(1, x)
            outcome["error"] = None
        except NonProductiveError as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=attempt, daemon=True)
    worker.start()
    worker.join(1.0)
    assert not worker.is_alive(), "non-productive definition hung"
    assert isinstance(outcome["error"], NonProductiveError)
    _report(10, "memoization, exact laziness, productivity guard under "
                "watchdog", started)
