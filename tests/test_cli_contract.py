"""The CLI contract, searched for counterexamples: every run ends in exit
0, 1 or 2, never with a traceback, and exit 2 prints one ``error:`` line.
``lambertw`` and ``wkb`` print nothing on stdout when they fail, and an
``audio`` run that fails leaves no file behind.

Each case runs in-process through ``cli.main``, one call at a time. A
count between about 10^4 and ``sys.maxsize`` runs for a very long time, so
counts are drawn small or past ``sys.maxsize``.
"""

import os
import sys
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from corec import cli  # noqa: E402

from support import run_cli  # noqa: E402

_SMALL = st.integers(-3, 8).map(str)
_PAST = st.sampled_from([sys.maxsize, sys.maxsize + 1]).map(str)
_TEXT = st.text(alphabet="abnx", min_size=1, max_size=3)
# A count that a command refuses before it reads: sys.maxsize itself would
# be read for ever where the output streams (series) or is built (wkb).
_BEYOND = st.sampled_from([sys.maxsize + 1, 10 ** 30]).map(str)


def _ends_cleanly(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: ")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(name=st.sampled_from(cli._SERIES_NAMES),
       n=st.one_of(st.integers(-3, 40).map(str), _BEYOND, _TEXT),
       csv=st.booleans())
def test_series_ends_in_n_lines_or_one_error_line(name, n, csv):
    code, out, err = run_cli(["series", name, "--n", n] + ["--csv"] * csv)
    _ends_cleanly(code, err)
    if code == 0:
        assert len(out.splitlines()) == int(n) + csv


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.one_of(st.integers(-3, 150).map(str), _BEYOND, _TEXT))
def test_lambertw_ends_in_n_lines_or_one_error_line_alone(n):
    code, out, err = run_cli(["lambertw", "--n", n])
    _ends_cleanly(code, err)
    if code == 0:
        assert len(out.splitlines()) == int(n)
    else:
        assert out == ""


@settings(max_examples=120, deadline=None, derandomize=True)
@given(x0=st.sampled_from(["0", "-0.0", "-1", "-1e-300", "-inf", "nan", "inf",
                           "1e308", "5e-324", "0.7", "1.3", "2", "x"]),
       orders=st.one_of(_SMALL, _BEYOND, _TEXT))
def test_wkb_ends_in_rows_or_one_error_line_alone(x0, orders):
    code, out, err = run_cli(["wkb", "--x0=" + x0, "--orders=" + orders])
    _ends_cleanly(code, err)
    if code == 0:
        assert len(out.splitlines()) == int(orders) + 1
    else:
        assert out == ""


@settings(max_examples=80, deadline=None, derandomize=True)
@given(g=st.one_of(_SMALL, st.sampled_from(["100000", str(10 ** 18)]), _PAST,
                   _TEXT),
       order=st.one_of(_SMALL, _PAST, _TEXT))
def test_qft_ends_in_rows_or_one_error_line(g, order):
    code, out, err = run_cli(["qft", "--g", g, "--order", order])
    _ends_cleanly(code, err)
    if code == 0:
        assert len(out.splitlines()) == int(order) + 2


# A render is tiny (at most 80 frames) or past what a WAV header holds, so
# every example is cheap; --len 2**62 and sys.maxsize draw only the
# excitation that the render reads. Each option takes a usable value about
# two times in three, so that some examples render.
def _mostly(good, bad):
    return st.sampled_from(good + good + bad)


_EDGES = ("0", "-0.0", "nan", "inf", "-inf", "x")
_COUNT = _mostly(("2", "3", "8", str(2 ** 62), str(sys.maxsize)),
                 ("1", "0", "-3", str(sys.maxsize + 1), "x"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["sine", "euler", "vibrato", "ks", "allpass-demo"]),
       length=_COUNT,
       rate=_mostly(("8000", "1"), ("0", "-8000", "3000000000",
                                    str(sys.maxsize + 1), "x")),
       dur=_mostly(("0.01", "0.001", "1e-300"), ("-1", "1e300") + _EDGES),
       freq=_mostly(("440", "-440", "0"), ("1e308", "nan", "inf", "-inf", "x")),
       m=_COUNT,
       b=_mostly(("0.5", "-0.99", "0"), ("1", "-1", "nan", "inf", "-inf", "x")))
def test_audio_ends_in_a_file_or_one_error_line_and_no_file(kind, length, rate, dur,
                                                           freq, m, b):
    with tempfile.TemporaryDirectory() as directory:
        target = os.path.join(directory, "x.wav")
        code, out, err = run_cli(["audio", kind, "--out", target,
                                  "--len=" + length, "--rate=" + rate,
                                  "--dur=" + dur, "--freq=" + freq,
                                  "--m=" + m, "--b=" + b])
        left = os.listdir(directory)
    _ends_cleanly(code, err)
    if code == 0:
        assert left == ["x.wav"] and out.startswith("wrote %s (" % target)
    else:
        # No file, and no .wav.part either.
        assert left == [] and out == ""
