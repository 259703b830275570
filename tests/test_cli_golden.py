"""CLI runs against a golden table of their exit codes, stderr and output.

Each line of ``data/cli_golden.txt`` is one run, tab-separated: the argv,
the exit code and, unless it is a usage error (exit 1), the stderr text
and the sha256 of stdout. For ``audio``, stdout is kept as text and is
followed by the sha256 of the WAV, or ``-`` where the run left no file;
the output path reads ``OUT`` in the argv, in stdout and in stderr. A
usage error keeps its exit code only, since its text is argparse's and
changes between Python versions.

Only output that is the same on every platform and version is kept:
every ``series`` name, ``qft``, and the ``audio`` kinds that call no libm
function (``euler``, ``ks`` and ``allpass-demo``). ``wkb``, ``lambertw``,
``sine`` and ``vibrato`` print or render floats that differ between
CPython 3.11 and 3.12+ or with libm; their oracle tests cover them. Each
case runs in-process through ``cli.main``, one call at a time.

After a change that is meant to alter output, regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py --write`` and review the
diff.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

from corec import cli

from support import run_cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "cli_golden.txt")
_OUT = "OUT"
_PAST = str(sys.maxsize + 1)


def _cases():
    for name in cli._SERIES_NAMES:
        for n in ("0", "1", "7", "40", "-1", _PAST):
            yield ["series", name, "--n", n]
            yield ["series", name, "--n", n, "--csv"]
    for g in ("2", "3", "4", "5"):
        for order in ("0", "12", "60"):
            yield ["qft", "--g", g, "--order", order]
    yield ["qft", "--g", "100000", "--order", "3"]
    for g, order in [("1", "5"), ("0", "5"), ("-1", "5"), ("2", "-1"),
                     ("2", str(sys.maxsize)), ("2", _PAST), (_PAST, "3")]:
        yield ["qft", "--g", g, "--order", order]
    for kind, options in [
            ("euler", "--freq 440 --rate 8000 --dur 0.5"),
            ("euler", "--freq 1000 --rate 8000 --dur 0.5"),
            ("euler", "--freq 0 --rate 8000 --dur 0.5"),
            ("euler", "--rate 8000 --dur 0.1"),
            ("ks", "--seed 42 --len 100 --rate 8000 --dur 0.5"),
            ("ks", "--seed 7 --len 2 --rate 8000 --dur 0.5"),
            ("ks", "--len %d --rate 8000 --dur 0.01" % 2 ** 62),
            ("allpass-demo", "--seed 42 --len 100 --rate 8000 --dur 0.5"),
            ("allpass-demo", "--b -0.9 --m 7 --rate 8000 --dur 0.5")]:
        yield ["audio", kind, "--out", _OUT] + options.split()
    for kind, errors in [
            ("euler", "--freq=nan --freq=inf --rate=0 --rate=-1 "
                      "--rate=4294967295 --dur=0 --dur=-1 --dur=nan "
                      "--dur=inf --dur=1e12"),
            ("ks", "--len=1 --len=-5 --len=%s --rate=0 --dur=nan" % _PAST),
            ("allpass-demo", "--m=0 --b=1 --b=-1 --b=nan --len=1")]:
        for error in errors.split():
            yield ["audio", kind, "--out", _OUT, "--rate", "8000",
                   "--dur", "0.1", error]
    yield ["audio", "euler", "--out", _OUT + "/missing/e.wav"]
    # Usage errors.
    yield []
    yield ["bogus"]
    yield ["series", "bogus"]
    yield ["series", "fibs", "--n", "x"]
    yield ["series", "fibs", "--n", "1.5"]
    yield ["lambertw", "--n", "x"]
    yield ["qft", "--g", "2"]
    yield ["qft", "--g", "x", "--order", "3"]
    yield ["wkb", "--x0", "1"]
    yield ["wkb", "--x0", "x", "--orders", "2"]
    yield ["audio", "euler"]
    yield ["audio", "bogus", "--out", _OUT]
    yield ["audio", "ks", "--len", "x", "--out", _OUT]
    yield ["audio", "euler", "--dur", "x", "--out", _OUT]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _line(argv):
    audio = argv[:1] == ["audio"]
    with tempfile.TemporaryDirectory() as tmp:
        wav = os.path.join(tmp, "out.wav")
        code, out, err = run_cli([a.replace(_OUT, wav) for a in argv])
        fields = [" ".join(argv), str(code)]
        if code == 1:
            return "\t".join(fields)
        out, err = out.replace(wav, _OUT), err.replace(wav, _OUT)
        fields.append(repr(err))
        if not audio:
            fields.append(_sha256(out.encode()))
        else:
            fields.append(repr(out))
            fields.append(_sha256(Path(wav).read_bytes())
                          if os.path.exists(wav) else "-")
    return "\t".join(fields)


def lines():
    return [_line(argv) for argv in _cases()]


def test_cli_runs_match_the_golden_file():
    with open(GOLDEN) as fh:
        expected = fh.read().splitlines()
    got = lines()
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.write("\n".join(lines()) + "\n")
