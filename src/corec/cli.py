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
output. ``series`` and ``qft`` print each line as it is formatted, and
``qft`` flushes each, so its rows reach a pipe at once; an error after
the first line leaves the lines printed, writes one ``error:`` line and
exits 2. ``lambertw`` and ``wkb`` print nothing if a value is not a
finite float. A reader that closes standard output early (``corec series
fibs --n 3000 | head -n 2``) ends the command quietly with exit status 0:
what is left unprinted is dropped.

Parsing the arguments imports no library module, so ``--help`` and
usage errors import none. Each runner imports the modules its command
needs, after its own argument checks.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import threading

_USAGE_EXIT = 1
_COMPUTE_EXIT = 2
# The worker thread's stack, and a recursion limit of one frame per KiB of
# it. The forcing machine and the algebra nest only Python frames, so on
# CPython 3.11-3.13 the limit alone bounds their depth; the stack is there
# for a thunk that reads .head/.tail through the property on 3.11, or calls
# back through a C function, which uses C stack per level.
_STACK = 64 << 20
_LIMIT = _STACK // 1024
# The names of ``catalog.CATALOG``, sorted, written out so that parsing
# arguments imports no series code.
_SERIES_NAMES = ("bessel", "exp-demo", "fibs", "integs", "partitions",
                 "revser-demo")


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
    p_series.add_argument("name", choices=_SERIES_NAMES)
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


def _finite(values, name="element") -> list:
    """The values as a list; a float that is not finite is an error."""
    values = list(values)
    for k, v in enumerate(values):
        if isinstance(v, float) and not math.isfinite(v):
            raise OverflowError("%s %d is %r, not a finite float"
                                % (name, k, v))
    return values


def _write(columns, names=None, flush=False) -> None:
    """Print one line per row of ``columns``, as soon as it is formatted.

    The columns are iterables read in step. With ``names`` the output is
    CSV: a header of ``index`` and the names, then the row index and the
    values on each line. An error while iterating ends the output there;
    the lines already printed stay. A pipe buffers standard output in
    blocks; with ``flush`` each line is flushed, so that it reaches the
    reader before the next row is computed. Only ``qft``, whose rows each
    cost more than the last, asks for it: a flush is a write call a line,
    and ``series integs --n 1000000`` into a pipe takes 2-3 times as long
    flushed.
    """
    if names:
        print(",".join(("index",) + names))
    for k, row in enumerate(zip(*columns)):
        text = ",".join(map(str, row))
        print("%d,%s" % (k, text) if names else text, flush=flush)


def _at_most(value, name, most=sys.maxsize) -> None:
    """Refuse a count past what a read can take, naming the option."""
    if value > most:
        raise ValueError("%s must be at most %d" % (name, most))


def _run_series(args) -> None:
    if args.n < 0:
        raise ValueError("series: --n must be >= 0")
    _at_most(args.n, "series: --n")
    from itertools import islice

    from .catalog import CATALOG

    # islice keeps only the node it has reached, not the first one.
    _write([islice(CATALOG[args.name](), args.n)],
           ("value",) if args.csv else None)


def _run_lambertw(args) -> None:
    if args.n < 0:
        raise ValueError("lambertw: --n must be >= 0")
    _at_most(args.n, "lambertw: --n")
    from .dif import lambert_w_tower

    _write([_finite(lambert_w_tower().elements(args.n))])


def _run_qft(args) -> None:
    # It prints order + 1 values, each computed as it is printed and flushed:
    # a row costs more the higher its order, so a reader of a pipe would
    # otherwise wait for a block of them. The order is checked after greens
    # has checked n, as greens(n, order) does.
    _at_most(args.order, "qft: --order", sys.maxsize - 1)
    from itertools import islice

    from .qft import _order, greens

    _write([islice(greens(args.g), _order(args.order) + 1)], ("value",),
           flush=True)


def _run_wkb(args) -> None:
    _at_most(args.orders, "wkb: --orders")
    from .wkb import airy_s0_prime, wkb_expand

    result = wkb_expand(airy_s0_prime(args.x0), args.orders)
    _write([_finite(result.u_main.take(args.orders), "u_main element"),
            _finite(result.v_prime_main.take(args.orders),
                    "v_prime_main element")],
           ("u_main", "v_prime_main"))


def _audio_stream(args):
    from .dsp import (_frames, allpass, euler_osc, karplus_strong, noise,
                      sine, vibrato)

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
    # A length below 2 is refused by karplus_strong, by its own name.
    _at_most(args.length, "audio: --len")
    # Output sample n < L is excitation sample n, and the all-pass reads
    # the string only up to n, so a render reads no more of the excitation
    # than its frames: the string is that long, but never below 2. A render
    # that write_wav refuses reads none.
    try:
        frames = _frames(args.rate, args.dur)
    except ValueError:
        frames = 0
    length = min(args.length, max(frames, 2))
    string = karplus_strong(length, noise(args.seed).take(max(length, 0)))
    if args.kind == "ks":
        return string
    return allpass(args.m, args.b, string)


def _run_audio(args) -> None:
    # The stream goes straight to the writer, which keeps no reference to
    # its first node, so the rendered prefix is freed as it is written.
    # The rate is checked first because the generators divide by it.
    if args.rate <= 0:
        raise ValueError("write_wav: rate must be > 0")
    from .dsp import _frames, write_wav

    path = write_wav(args.out, args.rate, _audio_stream(args), args.dur)
    print("wrote %s (%d frames at %d Hz)"
          % (path, _frames(args.rate, args.dur), args.rate))


_RUNNERS = {
    "series": _run_series,
    "lambertw": _run_lambertw,
    "qft": _run_qft,
    "wkb": _run_wkb,
    "audio": _run_audio,
}


def main(argv=None) -> int:
    """Parse ``argv`` here, then run the command on one worker thread.

    The worker has a ``_STACK``-byte stack, a recursion limit of ``_LIMIT``
    and no limit on the digits of printed ints, and runs with the cyclic
    garbage collector off; all four are restored when it ends. What a
    command builds, its self-references included, stays live until the
    command ends, so the collector would only walk every forced node again
    and again; reference counting frees what the command drops. This
    thread only waits, so it never forces under the raised limit. An
    exception the CLI does not map is raised again here.
    """
    args = _build_parser().parse_args(argv)
    outcome = [0]

    def work():
        from .cells import NonProductiveError

        try:
            _RUNNERS[args.command](args)
        except BrokenPipeError:
            # The reader stopped early, as ``head`` does: not an error.
            # Standard output now goes to os.devnull, so that the flush of
            # what is left in its buffer at exit cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        except (NonProductiveError, ValueError, ArithmeticError, OSError,
                RecursionError, MemoryError) as exc:
            sys.stderr.write("error: %s\n" % exc)
            outcome[0] = _COMPUTE_EXIT
        except BaseException as exc:
            outcome[0] = exc

    limit, digits = sys.getrecursionlimit(), sys.get_int_max_str_digits()
    collecting = gc.isenabled()
    stack = threading.stack_size(_STACK)
    try:
        sys.setrecursionlimit(_LIMIT)
        sys.set_int_max_str_digits(0)
        gc.disable()
        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(stack)
        sys.setrecursionlimit(limit)
        sys.set_int_max_str_digits(digits)
        if collecting:
            gc.enable()
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


if __name__ == "__main__":
    raise SystemExit(main())
