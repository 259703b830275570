"""The four workloads: seeded inputs, fixed job lists and oracle checks.

A workload is a fixed list of jobs. Each job calls corec's public
functions, with a span around every call into a layer, and its output is
checked against an independent oracle from :mod:`oracles` computed before
any timing starts. The seed picks the inputs (expansion points, rational
coefficients, noise seeds, frequencies, the CLI command order); the sizes
stay fixed, so every seed does the same amount of work.

Why these four:

- ``towers``: ``dif`` and ``wkb`` do nearly all the work and ``Fraction``
  none, so towers-as-Taylor-series work shows here and nowhere else.
- ``exact_series``: ``series``, ``catalog``, ``qft`` and ``coeffs`` over
  ``Fraction``, with long prefixes that stay live; ``dif`` never runs.
- ``audio``: one pass over a stream of floats, where ``exact_series``
  keeps its prefixes, so head pinning moves peak memory here only.
- ``cli``: interpreter start and import dominate, so work moved into
  import or set-up shows here as a loss.
"""

from __future__ import annotations

import math
import operator
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import oracles
from corec.catalog import integers, partitions
from corec.coeffs import format_coeff, rational
from corec.dif import Dif, damped_sine, lambert_w_tower
from corec.dsp import allpass, euler_osc, karplus_strong, noise, sine, vibrato, write_wav
from corec.qft import greens
from corec.series import Series
from corec.stream import prepend, repeat, take, zip_with
from corec.wkb import airy_s0_prime, wkb_expand


@dataclass
class Job:
    """One call sequence into corec, with the check of its output.

    ``run(tr)`` returns ``(output, structure)``; ``structure`` is the lazy
    value whose live blocks the traced run counts, for jobs with ``live``.
    ``units`` is the number of elements, orders or samples produced.
    """

    name: str
    layer: str
    run: Callable
    check: Callable
    units: int = 1
    live: bool = False


@dataclass
class Context:
    """Where a workload may write, and how to start the corec command."""

    root: str
    out_dir: str

    def corec_command(self, args):
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        return subprocess.run([sys.executable, "-m", "corec", *args],
                              cwd=self.root, env=env, capture_output=True,
                              text=True, check=False, timeout=60)


def build(workload, seed, z, ctx):
    rng = random.Random("%s-%d" % (workload, seed))
    return _BUILDERS[workload](rng, z, ctx)


def _close(got, want, rel=1e-12):
    return oracles.close(list(got), want, [max(1.0, abs(w)) for w in want], rel)


def _rational(rng):
    return rational(rng.randint(-9, 9), rng.randint(1, 9))


# -- towers ----------------------------------------------------------------------


def _towers(rng, z, ctx):
    jobs = []
    for i, (label, n) in enumerate(z["lambert"]):
        jobs.append(_lambert_job(label, n, live=i == len(z["lambert"]) - 1))
    for label, n in z["sincos"]:
        jobs.append(_sincos_job(label, n, rng.uniform(0.3, 1.3)))
    jobs.append(_damped_job(z["damped"], rng.uniform(0.2, 1.5)))
    for i, (label, k) in enumerate(z["wkb"]):
        jobs.append(_wkb_job(label, k, rng.uniform(0.5, 2.5),
                             live=i == len(z["wkb"]) - 1))
    return jobs


def _lambert_job(label, n, live):
    want = oracles.lambert(n)

    def run(tr):
        with tr.span("dif", "lambert_w_tower"):
            w = lambert_w_tower()
        with tr.span("stream", "take"):
            return w.take(n), w

    return Job("dif.lambert_s." + label, "dif", run,
               lambda out: _close(out, want), units=n, live=live)


def _sincos_job(label, n, x0):
    want = oracles.sincos(x0, n)
    scales = [math.ldexp(1.0, k - 1) for k in range(n)]

    def run(tr):
        with tr.span("dif", "sin_cos"):
            x = Dif.var(x0)
            t = x.sin() * x.cos()
        with tr.span("stream", "take"):
            return t.take(n), None

    return Job("dif.sincos_s." + label, "dif", run,
               lambda out: oracles.close(out, want, scales, 1e-10), units=n)


def _damped_job(n, x0):
    want = oracles.damped_sine(x0, n)
    scales = [math.sqrt(2) ** k * math.exp(-x0) for k in range(n)]

    def run(tr):
        with tr.span("dif", "damped_sine"):
            d = damped_sine(Dif.var(x0))
        with tr.span("stream", "take"):
            return d.take(n), None

    return Job("dif.damped_sine", "dif", run,
               lambda out: oracles.close(out, want, scales, 1e-9), units=n)


def _wkb_job(label, k, x0, live):
    want_u, want_v = oracles.wkb(x0, k)

    def run(tr):
        with tr.span("wkb", "wkb_expand"):
            result = wkb_expand(airy_s0_prime(x0), k)
        with tr.span("stream", "take"):
            out = result.u_main.take(k), result.v_prime_main.take(k)
        return out, result

    def check(out):
        return _close(out[0], want_u, 1e-9) and _close(out[1], want_v, 1e-9)

    return Job("wkb.expand_s." + label, "wkb", run, check, units=k, live=live)


# -- exact_series ---------------------------------------------------------------


def _exact_series(rng, z, ctx):
    jobs = [_cells_job(z["cells"])]
    p_want = oracles.partitions(max(n for _, n in z["partitions"]))
    for label, n in z["partitions"]:
        jobs.append(_partitions_job(label, n, p_want[:n]))
    for label, order in z["greens"]:
        jobs.append(_greens_job(label, order))
    for label, n in z["mul"]:
        a = [_rational(rng) for _ in range(n)]
        b = [_rational(rng) for _ in range(n)]
        exact = oracles.cauchy(a, b, n)
        jobs.append(_mul_job("series.mul_exact_s." + label, a, b,
                             lambda out, want=exact: out == want))
        fa, fb = [float(x) for x in a], [float(x) for x in b]
        want = oracles.cauchy(fa, fb, n)
        scales = [s + 1e-300 for s in oracles.cauchy_abs(fa, fb, n)]
        jobs.append(_mul_job("series.mul_float_s." + label, fa, fb,
                             lambda out, want=want, scales=scales:
                             oracles.close(out, want, scales, 1e-12)))
    jobs.append(_format_job(exact))
    n = z["div"]
    a = [_rational(rng) for _ in range(n)]
    b = [rational(rng.choice((-1, 1)), rng.randint(1, 4))]
    b += [_rational(rng) for _ in range(n - 1)]
    jobs.append(_series_job("series.div_exact_s", n, oracles.quotient(a, b, n),
                            lambda: Series.from_list(a) / Series.from_list(b)))
    e = [0] + [_rational(rng) for _ in range(z["exp_degree"])]
    jobs.append(_series_job("series.exp_exact_s", z["exp"],
                            oracles.exp_series(e, z["exp"]),
                            lambda: Series.from_list(e).exp()))
    jobs.append(_series_job("series.revert_s", z["revert"],
                            oracles.signed_catalan(z["revert"]),
                            lambda: Series.from_list([0, 1, 1]).revert()))
    return jobs


def _cells_job(n):
    want = list(range(1, n + 1))

    def run(tr):
        with tr.span("catalog", "integers"):
            s = integers()
        with tr.span("stream", "force"):
            forced = s.take(n)
        with tr.span("stream", "memo"):
            again = s.take(n)
        return (forced, again), s

    return Job("stream.cells", "stream", run,
               lambda out: out[0] == want and out[1] == want, units=n, live=True)


def _partitions_job(label, n, want):
    def run(tr):
        with tr.span("catalog", "partitions"):
            p = partitions()
        with tr.span("stream", "take"):
            return p.take(n), None

    return Job("catalog.partitions_s." + label, "catalog", run,
               lambda out: out == want, units=n)


def _greens_job(label, order):
    want = oracles.greens(2, order)

    def run(tr):
        with tr.span("qft", "greens"):
            row = greens(2, order)
        with tr.span("stream", "take"):
            return row.take(order + 1), None

    return Job("qft.greens_s." + label, "qft", run,
               lambda out: out == want, units=order + 1)


def _mul_job(name, a, b, check):
    n = len(a)

    def run(tr):
        with tr.span("series", "mul"):
            product = Series.from_list(a) * Series.from_list(b)
        with tr.span("stream", "take"):
            return product.take(n), None

    return Job(name, "series", run, check, units=n)


def _series_job(name, n, want, make):
    def run(tr):
        with tr.span("series", name.split(".")[1]):
            s = make()
        with tr.span("stream", "take"):
            return s.take(n), None

    return Job(name, "series", run, lambda out: out == want, units=n)


def _format_job(values):
    want = [oracles.format_exact(v) for v in values]

    def run(tr):
        with tr.span("coeffs", "format_coeff"):
            return [format_coeff(v) for v in values], None

    return Job("coeffs.format", "coeffs", run, lambda out: out == want,
               units=len(values))


# -- audio ----------------------------------------------------------------------


def _audio(rng, z, ctx):
    rate = z["rate"]
    frames = int(rate * z["dsp_s"])
    jobs = []

    length, seed = rng.randint(80, 200), rng.randrange(2 ** 32)
    excitation = oracles.splitmix(seed, length)
    ks_frames = int(rate * z["ks_s"])
    ks = oracles.karplus_strong(excitation, ks_frames)
    jobs.append(_render_job(
        "ks", ctx, rate, z["ks_s"], oracles.wav_bytes(rate, ks),
        lambda: karplus_strong(length, take(length, noise(seed)))))

    hs = 2.0 * math.pi * rng.uniform(220.0, 880.0) / rate
    path = os.path.join(ctx.out_dir, "audio-sine.wav")
    jobs.append(Job("dsp.sine", "dsp", _writer(path, rate, z["dsp_s"], lambda: sine(hs)),
                    _reads(path, lambda data: oracles.sine_drift_ok(data, rate, hs, frames)),
                    units=frames))

    he = 2.0 * math.pi * rng.uniform(220.0, 880.0) / rate
    jobs.append(_render_job("euler", ctx, rate, z["dsp_s"],
                            oracles.wav_bytes(rate, oracles.euler(he, frames)),
                            lambda: euler_osc(he)))

    hv = 2.0 * math.pi * rng.uniform(220.0, 880.0) / rate
    mod_h = 2.0 * math.pi * rng.uniform(3.0, 7.0) / rate
    mod = [1.0 + 0.05 * v for v in oracles.sine_recurrence(mod_h, frames)]
    jobs.append(_render_job(
        "vibrato", ctx, rate, z["dsp_s"],
        oracles.wav_bytes(rate, oracles.euler(hv, frames, mod)),
        lambda: vibrato(hv, sine(mod_h).map(lambda v: 1.0 + 0.05 * v))))

    m, b = rng.randint(2, 6), rng.uniform(0.3, 0.7)
    length2, seed2 = rng.randint(80, 200), rng.randrange(2 ** 32)
    string = oracles.karplus_strong(oracles.splitmix(seed2, length2), frames)
    jobs.append(_render_job(
        "allpass", ctx, rate, z["dsp_s"],
        oracles.wav_bytes(rate, oracles.allpass(m, b, string)),
        lambda: allpass(m, b, karplus_strong(length2, take(length2, noise(seed2))))))

    seed3 = rng.randrange(2 ** 64)
    jobs.append(_render_job("noise", ctx, rate, z["dsp_s"],
                            oracles.wav_bytes(rate, oracles.splitmix(seed3, frames)),
                            lambda: noise(seed3)))

    jobs.append(_write_job(ctx, rate, z["dsp_s"], ks[:frames]))
    jobs.append(_zip_job(z["zip"], rng.randrange(2 ** 32)))
    return jobs


def _writer(path, rate, seconds, make):
    # The stream is built inside the call, so no frame here holds its head.
    def run(tr):
        with tr.span("dsp", "write_wav"):
            write_wav(path, rate, make(), seconds)
        return None, None

    return run


def _reads(path, check):
    def read_and_check(out):
        with open(path, "rb") as fh:
            data = fh.read()
        os.unlink(path)
        return check(data)

    return read_and_check


def _render_job(kind, ctx, rate, seconds, want, make):
    path = os.path.join(ctx.out_dir, "audio-%s.wav" % kind)
    return Job("dsp." + kind, "dsp", _writer(path, rate, seconds, make),
               _reads(path, lambda data: data == want), units=int(rate * seconds))


def _write_job(ctx, rate, seconds, samples):
    """The writer alone, on a stream whose samples are already forced."""
    path = os.path.join(ctx.out_dir, "audio-write.wav")
    want = oracles.wav_bytes(rate, samples)
    values = list(samples)

    def run(tr):
        with tr.span("stream", "prepend"):
            s = prepend(values, repeat(0.0))
        with tr.span("dsp", "write_wav"):
            write_wav(path, rate, s, seconds)
        return None, None

    return Job("dsp.write_wav", "dsp", run, _reads(path, lambda data: data == want),
               units=len(values))


def _zip_job(n, seed):
    a, b = oracles.splitmix(seed, n), oracles.splitmix(seed + 1, n)
    want = [x + y for x, y in zip(a, b)]

    def run(tr):
        with tr.span("stream", "prepend"):
            sa, sb = prepend(a, repeat(0.0)), prepend(b, repeat(0.0))
        with tr.span("stream", "zip_with"):
            return zip_with(operator.add, sa, sb).take(n), None

    return Job("stream.zip", "stream", run, lambda out: out == want, units=n)


# -- cli ------------------------------------------------------------------------


def _cli(rng, z, ctx):
    jobs = []
    for kind, count in z["cli_counts"].items():
        for i in range(count):
            jobs.append(_CLI_COMMANDS[kind](rng, z, ctx, i))
    rng.shuffle(jobs)
    return jobs


def _cli_job(kind, ctx, args, check):
    def run(tr):
        with tr.span("cli", kind):
            return ctx.corec_command(args), None

    return Job("cli.cmd_s." + kind, "cli", run, check)


def _stdout_is(text):
    return lambda p: p.returncode == 0 and p.stdout == text


def _cli_series(rng, z, ctx, i):
    n = z["cli_partitions"]
    text = "".join("%d\n" % v for v in oracles.partitions(n))
    return _cli_job("series", ctx, ["series", "partitions", "--n", str(n)],
                    _stdout_is(text))


def _cli_lambertw(rng, z, ctx, i):
    n = z["cli_lambertw"]
    want = oracles.lambert(n)

    def check(p):
        return p.returncode == 0 and _close(map(float, p.stdout.split()), want)

    return _cli_job("lambertw", ctx, ["lambertw", "--n", str(n)], check)


def _cli_qft(rng, z, ctx, i):
    g, order = rng.randint(2, 4), z["cli_qft_order"]
    rows = oracles.greens(g, order)
    text = "index,value\n" + "".join(
        "%d,%s\n" % (k, oracles.format_exact(c)) for k, c in enumerate(rows))
    return _cli_job("qft", ctx, ["qft", "--g", str(g), "--order", str(order)],
                    _stdout_is(text))


def _cli_wkb(rng, z, ctx, i):
    x0, orders = round(rng.uniform(0.5, 2.5), 6), z["cli_wkb_orders"]
    want_u, want_v = oracles.wkb(x0, orders)

    def check(p):
        lines = p.stdout.splitlines()
        if p.returncode != 0 or lines[:1] != ["index,u_main,v_prime_main"]:
            return False
        rows = [line.split(",") for line in lines[1:]]
        if [r[0] for r in rows] != [str(k) for k in range(orders)]:
            return False
        return (_close([float(r[1]) for r in rows], want_u, 1e-9)
                and _close([float(r[2]) for r in rows], want_v, 1e-9))

    return _cli_job("wkb", ctx, ["wkb", "--x0", repr(x0), "--orders", str(orders)],
                    check)


def _cli_audio(rng, z, ctx, i):
    rate, seconds = z["rate"], z["cli_audio_s"]
    freq = round(rng.uniform(220.0, 880.0), 3)
    h = 2.0 * math.pi * freq / rate
    frames = int(rate * seconds)
    path = os.path.join(ctx.out_dir, "cli-sine-%d.wav" % i)
    text = "wrote %s (%d frames at %d Hz)\n" % (path, frames, rate)
    read = _reads(path, lambda data: oracles.sine_drift_ok(data, rate, h, frames))

    def check(p):
        return p.returncode == 0 and p.stdout == text and read(p)

    args = ["audio", "sine", "--out", path, "--rate", str(rate),
            "--dur", repr(seconds), "--freq", repr(freq)]
    return _cli_job("audio", ctx, args, check)


def _cli_error(rng, z, ctx, i):
    def check(p):
        return p.returncode == 2 and p.stdout == "" and p.stderr.startswith("error:")

    return _cli_job("error", ctx, ["lambertw", "--n", "-1"], check)


_CLI_COMMANDS = {
    "series": _cli_series,
    "lambertw": _cli_lambertw,
    "qft": _cli_qft,
    "wkb": _cli_wkb,
    "audio": _cli_audio,
    "error": _cli_error,
}

_BUILDERS = {
    "towers": _towers,
    "exact_series": _exact_series,
    "audio": _audio,
    "cli": _cli,
}
