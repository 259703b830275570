"""Command-line front end.

One subcommand per showcase area::

    corec series NAME --n N [--csv]
    corec lambertw --n N
    corec qft --g N --order K
    corec wkb --x0 F --orders K
    corec audio KIND --out PATH [--rate N] [--dur S] [--freq F]
                     [--seed K] [--len L] [--b B] [--m M]

Exit status: 0 on success, 1 on a usage error, 2 on a computation error
(domain violations, non-productive definitions, I/O failures, floats
that leave the float range, definitions too deep for the recursion limit,
running out of memory). Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager

from .catalog import CATALOG
from .cells import NonProductiveError
from .coeffs import format_coeff
from .dif import lambert_w_tower
from .dsp import allpass, euler_osc, karplus_strong, noise, sine, vibrato, write_wav
from .qft import greens
from .stream import take
from .wkb import airy_s0_prime, wkb_expand

_USAGE_EXIT = 1
_COMPUTE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # computation failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(_USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="corec")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_series = sub.add_parser("series", help="print a catalog sequence")
    p_series.add_argument("name", choices=sorted(CATALOG))
    p_series.add_argument("--n", type=int, default=10,
                          help="number of terms (default 10)")
    p_series.add_argument("--csv", action="store_true",
                          help="CSV with an index,value header")

    p_lambert = sub.add_parser("lambertw",
                               help="derivatives of Lambert W at 0")
    p_lambert.add_argument("--n", type=int, default=9,
                           help="number of tower elements (default 9)")

    p_qft = sub.add_parser("qft", help="connected amplitude G_n in gamma")
    p_qft.add_argument("--g", type=int, required=True,
                       help="amplitude index n (>= 2)")
    p_qft.add_argument("--order", type=int, required=True,
                       help="highest gamma power to print")

    p_wkb = sub.add_parser("wkb", help="semiclassical expansion for Q(x)=x")
    p_wkb.add_argument("--x0", type=float, required=True,
                       help="expansion point (> 0)")
    p_wkb.add_argument("--orders", type=int, required=True,
                       help="number of eps^2 orders")

    p_audio = sub.add_parser("audio", help="render a generator to a WAV file")
    p_audio.add_argument("kind",
                         choices=["sine", "euler", "vibrato", "ks",
                                  "allpass-demo"])
    p_audio.add_argument("--out", required=True, help="output WAV path")
    p_audio.add_argument("--rate", type=int, default=44100)
    p_audio.add_argument("--dur", type=float, default=1.0,
                         help="duration in seconds")
    p_audio.add_argument("--freq", type=float, default=440.0,
                         help="frequency in Hz (sine/euler/vibrato)")
    p_audio.add_argument("--seed", type=int, default=1,
                         help="noise seed (ks/allpass-demo)")
    p_audio.add_argument("--len", type=int, default=100, dest="length",
                         help="delay-line length (ks/allpass-demo)")
    p_audio.add_argument("--b", type=float, default=0.5,
                         help="all-pass coefficient")
    p_audio.add_argument("--m", type=int, default=3,
                         help="all-pass delay")
    return parser


@contextmanager
def _any_int_size():
    # Exact values are printed whatever their size. The interpreter's limit
    # on int-to-text conversion (Python >= 3.10.7) stays on everywhere
    # else, argument parsing included.
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _formatted(values, name="element") -> list:
    """The values as text; a float that is not finite is an error."""
    for k, v in enumerate(values):
        if isinstance(v, float) and not math.isfinite(v):
            raise OverflowError("%s %d is %r, not a finite float"
                                % (name, k, v))
    with _any_int_size():
        return [format_coeff(v) for v in values]


def _emit_values(values, csv: bool) -> None:
    text = _formatted(values)
    if csv:
        print("index,value")
        for k, v in enumerate(text):
            print("%d,%s" % (k, v))
    else:
        for v in text:
            print(v)


def _run_series(args) -> int:
    if args.n < 0:
        raise ValueError("series: --n must be >= 0")
    producer = CATALOG[args.name].producer
    _emit_values(producer().take(args.n), args.csv)
    return 0


def _run_lambertw(args) -> int:
    if args.n < 0:
        raise ValueError("lambertw: --n must be >= 0")
    _emit_values(lambert_w_tower().elements(args.n), csv=False)
    return 0


def _run_qft(args) -> int:
    series = greens(args.g, args.order)
    _emit_values(series.take(args.order + 1), csv=True)
    return 0


def _run_wkb(args) -> int:
    result = wkb_expand(airy_s0_prime(args.x0), args.orders)
    u_vals = _formatted(result.u_main.take(args.orders), "u_main element")
    v_vals = _formatted(result.v_prime_main.take(args.orders),
                        "v_prime_main element")
    print("index,u_main,v_prime_main")
    for k in range(args.orders):
        print("%d,%s,%s" % (k, u_vals[k], v_vals[k]))
    return 0


def _audio_stream(args):
    h = 2.0 * math.pi * args.freq / args.rate
    if args.kind == "sine":
        return sine(h)
    if args.kind == "euler":
        return euler_osc(h)
    if args.kind == "vibrato":
        # 5 Hz wobble, 5% depth, carried by the sine generator
        mod_h = 2.0 * math.pi * 5.0 / args.rate
        wobble = sine(mod_h).map(lambda v: 1.0 + 0.05 * v)
        return vibrato(h, wobble)
    excitation = take(args.length, noise(args.seed))
    string = karplus_strong(args.length, excitation)
    if args.kind == "ks":
        return string
    return allpass(args.m, args.b, string)


def _run_audio(args) -> int:
    # The stream goes straight to the writer, which keeps no reference to
    # its first node, so the rendered prefix is freed as it is written.
    # The rate is checked first because the generators divide by it.
    if args.rate <= 0:
        raise ValueError("write_wav: rate must be > 0")
    path = write_wav(args.out, args.rate, _audio_stream(args), args.dur)
    frames = int(args.rate * args.dur)
    print("wrote %s (%d frames at %d Hz)" % (path, frames, args.rate))
    return 0


_RUNNERS = {
    "series": _run_series,
    "lambertw": _run_lambertw,
    "qft": _run_qft,
    "wkb": _run_wkb,
    "audio": _run_audio,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except (NonProductiveError, ValueError, ZeroDivisionError,
            ArithmeticError, OSError, RecursionError, MemoryError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return _COMPUTE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
