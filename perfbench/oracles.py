"""Independent plain-Python reference values for every benchmark job.

Nothing here imports corec. Each function recomputes what a job should
produce from the mathematics (a closed form, a dense-list recurrence, or a
list-based render of a recurrence), so a job's output is never checked
against the code that produced it.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from fractions import Fraction

# -- exact sequences and series ------------------------------------------


def partitions(n):
    """p(0), ..., p(n-1) by Euler's pentagonal-number recurrence."""
    p = [1]
    for m in range(1, n):
        total, k = 0, 1
        while True:
            g1 = m - k * (3 * k - 1) // 2
            g2 = m - k * (3 * k + 1) // 2
            if g1 < 0:
                break
            sign = 1 if k % 2 else -1
            total += sign * (p[g1] + (p[g2] if g2 >= 0 else 0))
            k += 1
        p.append(total)
    return p[:n]


def cauchy(a, b, n):
    """First n coefficients of the product of two polynomials."""
    return [sum(a[i] * b[k - i]
                for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1))
            for k in range(n)]


def cauchy_abs(a, b, n):
    """Per-coefficient sum of |a_i b_j|: the scale of float rounding."""
    return cauchy([abs(x) for x in a], [abs(x) for x in b], n)


def quotient(a, b, n):
    """First n coefficients of a / b, for b[0] != 0, by long division."""
    q = []
    for k in range(n):
        acc = Fraction(a[k] if k < len(a) else 0)
        for i in range(1, min(k, len(b) - 1) + 1):
            acc -= b[i] * q[k - i]
        q.append(acc / b[0])
    return q


def exp_series(e, n):
    """First n coefficients of exp(e) for e[0] == 0: k w_k = sum j e_j w_{k-j}."""
    w = [Fraction(1)]
    for k in range(1, n):
        acc = sum(j * e[j] * w[k - j] for j in range(1, min(k, len(e) - 1) + 1))
        w.append(Fraction(acc, 1) / k)
    return w


def signed_catalan(n):
    """Reversion of x + x^2: 0, 1, -1, 2, -5, 14, ... (first n)."""
    out = [0]
    for k in range(1, n):
        m = k - 1
        out.append((-1) ** m * math.comb(2 * m, m) // (m + 1))
    return out[:n]


def greens(n, order):
    """G_n to gamma^order from phi_{k+1} = (phi_k' + sum phi_i phi_j) / 2.

    phi_k is a dense list of Fractions, the J-polynomial at gamma^k, and
    phi_0 = J. Coefficient k of G_n is the J^(n-1) coefficient of phi_k.
    """
    phi = [[Fraction(0), Fraction(1)]]
    for k in range(order):
        width = k + 3
        nxt = [Fraction(0)] * width
        for a, c in enumerate(phi[k][1:], start=1):
            nxt[a - 1] += a * c
        for i in range(k + 1):
            for a, ca in enumerate(phi[i]):
                if ca:
                    for b, cb in enumerate(phi[k - i]):
                        nxt[a + b] += ca * cb
        phi.append([c / 2 for c in nxt])
    return [p[n - 1] if n - 1 < len(p) else Fraction(0) for p in phi]


def format_exact(value):
    """Canonical text of an exact value: p, or p/q in lowest terms."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


# -- derivative towers ---------------------------------------------------------


def lambert(n):
    """Derivatives of Lambert W at 0: 0, then (-k)^(k-1)."""
    return [0.0] + [float((-k) ** (k - 1)) for k in range(1, n)]


def sincos(x0, n):
    """Derivatives of sin(x) cos(x) = sin(2x)/2: 2^(k-1) sin(2x + k pi/2)."""
    return [math.ldexp(math.sin(2 * x0 + k * math.pi / 2), k - 1)
            for k in range(n)]


def damped_sine(x0, n):
    """Derivatives of exp(-x) sin(x): sqrt2^k exp(-x) sin(x + 3k pi/4)."""
    return [math.sqrt(2) ** k * math.exp(-x0) * math.sin(x0 + 3 * k * math.pi / 4)
            for k in range(n)]


def close(got, want, scales, rel):
    """Elementwise |got - want| <= rel * scale, with equal lengths."""
    return (len(got) == len(want) == len(scales)
            and all(abs(g - w) <= rel * s for g, w, s in zip(got, want, scales)))


# -- WKB: the classical recurrence in dense truncated Taylor arithmetic ----
# A function of x near x0 is the list of its Taylor coefficients f^(j)/j!.


def _t_mul(a, b):
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _t_div(a, b):
    q = []
    for k in range(min(len(a), len(b))):
        q.append((a[k] - sum(b[i] * q[k - i] for i in range(1, k + 1))) / b[0])
    return q


def _t_deriv(a):
    return [(j + 1) * a[j + 1] for j in range(len(a) - 1)]


def _t_add(*terms):
    n = min(len(t) for t in terms)
    return [sum(t[j] for t in terms) for j in range(n)]


def _t_scale(c, a):
    return [c * x for x in a]


def _t_log(a):
    ratio = _t_div(_t_deriv(a), a)
    return [math.log(a[0])] + [ratio[j] / (j + 1) for j in range(len(ratio))]


def wkb(x0, orders):
    """Values of U_k and V'_k at x0 for eps^2 y'' = x y, k < orders.

    U = -1/2 log(S0' + eps^2 V') and V' = -(U'^2 + U'' + eps^2 V'^2)/(2 S0')
    with S0' = sqrt(x), solved order by order in eps^2.
    """
    m = 2 * orders + 3
    s = [math.sqrt(x0)]
    for j in range(1, m):
        s.append(s[-1] * (0.5 - (j - 1)) / j / x0)
    u = [_t_scale(-0.5, _t_log(s))]
    v, r, logs = [], [], [None]
    for k in range(orders):
        up = [_t_deriv(ui) for ui in u]
        terms = [_t_deriv(up[k])]
        terms += [_t_mul(up[i], up[k - i]) for i in range(k + 1)]
        terms += [_t_mul(v[i], v[k - 1 - i]) for i in range(k)]
        v.append(_t_div(_t_scale(-0.5, _t_add(*terms)), s))
        r.append(_t_div(v[k], s))
        # log(1 + y) with y_j = r_{j-1}: L_m = y_m - (1/m) sum j L_j y_{m-j}
        mm = k + 1
        acc = [_t_scale(j / mm, _t_mul(logs[j], r[mm - j - 1])) for j in range(1, mm)]
        logs.append(_t_add(r[k], *[_t_scale(-1.0, t) for t in acc]) if acc else r[k])
        u.append(_t_scale(-0.5, logs[mm]))
    return [ui[0] for ui in u[:orders]], [vi[0] for vi in v]


# -- audio: list-based renders of each generator's recurrence --------------

_MASK64 = (1 << 64) - 1


def splitmix(seed, n):
    """splitmix64 white noise mapped to [-1, 1): the bit-specified source."""
    state = seed & _MASK64
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        out.append((z >> 11) * 2.0 ** -53 * 2.0 - 1.0)
    return out


def sine_recurrence(h, n):
    """y_0 = sin h, y_{j+1} = 2 cos(h) y_j - y_{j-1}."""
    k = 2.0 * math.cos(h)
    y = array("d", [math.sin(h)])
    for j in range(1, n):
        y.append(k * y[j - 1] - (y[j - 2] if j >= 2 else 0.0))
    return y


def euler(h, n, mod=None):
    """Semi-implicit Euler oscillator, couplings optionally weighted by mod."""
    y = array("d", [0.0])
    u = 1.0
    for j in range(n - 1):
        c = 1.0 if mod is None else mod[j]
        w = y[j] + h * (u if mod is None else c * u)
        y.append(w)
        u = u - h * (w if mod is None else c * w)
    return y


def karplus_strong(excitation, n, blend=0.5):
    """y_j = excitation for j < L, then y_{L+j} = blend (y_j + y_{j-1})."""
    length = len(excitation)
    y = array("d", excitation[:n])
    for j in range(n - length):
        y.append(blend * (y[j] + (y[j - 1] if j >= 1 else 0.0)))
    return y


def allpass(m, b, x):
    """v = x - b delay_m(v); y = b v + delay_m(v)."""
    v = array("d")
    y = array("d")
    for j, xj in enumerate(x):
        d = v[j - m] if j >= m else 0.0
        v.append(xj - b * d)
        y.append(b * v[j] + d)
    return y


def quantize(samples):
    """16-bit PCM: clamp to [-1, 1], scale by 32767, round to nearest."""
    return array("h", (int(round(min(1.0, max(-1.0, x)) * 32767.0))
                       for x in samples))


def wav_header(rate, frames):
    size = 2 * frames
    return (b"RIFF" + struct.pack("<I", 36 + size) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
            + b"data" + struct.pack("<I", size))


def wav_bytes(rate, samples):
    """The exact bytes of a 16-bit mono WAV file holding ``samples``."""
    pcm = quantize(samples)
    if sys.byteorder != "little":
        pcm.byteswap()
    return wav_header(rate, len(pcm)) + pcm.tobytes()


def wav_pcm(data, rate, frames):
    """The PCM samples of WAV bytes, or None if the header is not the expected one."""
    header = wav_header(rate, frames)
    if len(data) != len(header) + 2 * frames or not data.startswith(header):
        return None
    pcm = array("h", data[len(header):])
    if sys.byteorder != "little":
        pcm.byteswap()
    return pcm


def sine_drift_ok(data, rate, h, frames):
    """Every WAV sample within one step of round(32767 sin((j+1) h))."""
    pcm = wav_pcm(data, rate, frames)
    return pcm is not None and all(
        abs(q - round(32767.0 * math.sin((j + 1) * h))) <= 1
        for j, q in enumerate(pcm))
