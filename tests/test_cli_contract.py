"""The CLI contract, searched for counterexamples: every run ends in exit
0, 1 or 2, never with a traceback, and exit 2 prints one ``error:`` line.

Each case runs in-process through ``cli.main``, one call at a time. A
count between about 10^4 and ``sys.maxsize`` runs for a very long time, so
counts are drawn small or past ``sys.maxsize``.
"""

import contextlib
import io
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from corec import cli  # noqa: E402

_SMALL = st.integers(-3, 8).map(str)
_PAST = st.sampled_from([sys.maxsize, sys.maxsize + 1]).map(str)
_TEXT = st.text(alphabet="abnx", min_size=1, max_size=3)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(g=st.one_of(_SMALL, st.sampled_from(["100000", str(10 ** 18)]), _PAST,
                   _TEXT),
       order=st.one_of(_SMALL, _PAST, _TEXT))
def test_qft_ends_in_rows_or_one_error_line(g, order):
    code, out, err = _main(["qft", "--g", g, "--order", order])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: ")
    if code == 0:
        assert len(out.splitlines()) == int(order) + 2
