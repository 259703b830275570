import gc
import hashlib
import io
import math
import struct
import subprocess
import sys
import threading

import pytest

from corec import catalog, cli, qft
from corec.cli import main

from support import pentagonal_partitions, python_env, run_python


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_partitions(capsys):
    code, out, _ = run(capsys, "series", "partitions", "--n", "17")
    assert code == 0
    values = out.strip().split("\n")
    assert values == ["1", "1", "2", "3", "5", "7", "11", "15", "22", "30",
                      "42", "56", "77", "101", "135", "176", "231"]


def test_series_bessel(capsys):
    code, out, _ = run(capsys, "series", "bessel", "--n", "5")
    assert code == 0
    assert out.strip().split("\n") == ["1", "-1/4", "1/32", "-3/128",
                                       "75/2048"]


def test_series_csv_mode(capsys):
    code, out, _ = run(capsys, "series", "fibs", "--n", "3", "--csv")
    assert code == 0
    assert out == "index,value\n0,0\n1,1\n2,1\n"


def test_series_exp_demo(capsys):
    code, out, _ = run(capsys, "series", "exp-demo", "--n", "5")
    assert code == 0
    assert out.strip().split("\n") == ["1", "1", "1/2", "1/6", "1/24"]


def test_series_revser_demo(capsys):
    code, out, _ = run(capsys, "series", "revser-demo", "--n", "6")
    assert code == 0
    assert out.strip().split("\n") == ["0", "1", "-1", "2", "-5", "14"]


def test_qft_csv_ends_with_order_12_value(capsys):
    code, out, _ = run(capsys, "qft", "--g", "2", "--order", "12")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,value"
    assert lines[-1] == "12,7040125/1024"
    assert len(lines) == 14


def test_qft_g4(capsys):
    code, out, _ = run(capsys, "qft", "--g", "4", "--order", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert "2,1/2" in lines and "4,4" in lines
    assert "6,525/16" in lines and "8,300" in lines


# The sha256 of `corec qft --g G --order 60` stdout: the first slice of a
# CLI golden file. Every value is exact, so the bytes are the same on every
# platform and version.
@pytest.mark.parametrize("g, digest", [
    (2, "045b9cefd429ac6f6b4dfc0a036850d0feb8e56befd61e8d6a4e7de1fa5657cb"),
    (3, "67ed634ef5378627d759fc041642d273b15cdf55d994ebddc320737881183302"),
    (4, "6641e55e720c2f76648bcf2f00bc2baf2b3419d9bc81d21e0aac939297e7a44c"),
    (5, "bb300631ba414605c14e975d225e8f9194109e74bc32e86568385adc82805895"),
])
def test_qft_order_60_stdout_digest(capsys, g, digest):
    code, out, err = run(capsys, "qft", "--g", str(g), "--order", "60")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lambertw(capsys):
    code, out, _ = run(capsys, "lambertw", "--n", "5")
    assert code == 0
    assert out.strip().split("\n") == ["0.0", "1.0", "-2.0", "9.0", "-64.0"]


def test_wkb_csv(capsys):
    code, out, _ = run(capsys, "wkb", "--x0", "1.0", "--orders", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,u_main,v_prime_main"
    assert len(lines) == 3
    assert lines[1].startswith("0,")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["series", "unknown-name"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_computation_error_exit_code(capsys):
    code = main(["wkb", "--x0", "-1.0", "--orders", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "x0" in err
    assert main(["series", "partitions", "--n", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["series", "fibs", "--n", str(sys.maxsize + 1)],
     "series: --n must be at most %d" % sys.maxsize),
    (["lambertw", "--n", str(sys.maxsize + 1)],
     "lambertw: --n must be at most %d" % sys.maxsize),
    # qft prints order + 1 values, so its bound is one lower.
    (["qft", "--g", "2", "--order", str(sys.maxsize)],
     "qft: --order must be at most %d" % (sys.maxsize - 1)),
    (["wkb", "--x0", "1.3", "--orders", str(sys.maxsize + 1)],
     "wkb: --orders must be at most %d" % sys.maxsize),
], ids=["series", "lambertw", "qft", "wkb"])
def test_a_count_past_sys_maxsize_names_the_command_and_option(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv, message", [
    (["lambertw", "--n", "-1"], "lambertw: --n must be >= 0"),
    (["qft", "--g", "2", "--order", "-1"], "greens: order must be >= 0"),
    (["wkb", "--x0", "1.3", "--orders", "0"], "wkb_expand: orders must be >= 1"),
], ids=["lambertw", "qft", "wkb"])
def test_a_negative_count_names_the_function_that_refuses_it(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("length, message", [
    ("-1", "karplus_strong: length must be >= 2"),
    (str(sys.maxsize + 1), "audio: --len must be at most %d" % sys.maxsize),
], ids=["negative", "past-maxsize"])
@pytest.mark.parametrize("kind", ["ks", "allpass-demo"])
def test_audio_len_out_of_range_names_the_check(tmp_path, capsys, kind, length,
                                                message):
    target = tmp_path / "x.wav"
    assert run(capsys, "audio", kind, "--out", str(target), "--len", length) \
        == (2, "", "error: %s\n" % message)
    assert not target.exists()


@pytest.mark.parametrize("g", [10 ** 5, 10 ** 18])
def test_qft_past_the_degree_bound_prints_zeros(capsys, g):
    # phi_k has degree k + 1, so G_g is 0 up to order g - 3.
    assert run(capsys, "qft", "--g", str(g), "--order", "3") \
        == (0, "index,value\n0,0\n1,0\n2,0\n3,0\n", "")


def test_deterministic_stdout(capsys):
    _, first, _ = run(capsys, "qft", "--g", "2", "--order", "10")
    _, second, _ = run(capsys, "qft", "--g", "2", "--order", "10")
    assert first == second


def test_audio_writes_wav(tmp_path, capsys):
    out_path = tmp_path / "pluck.wav"
    code, out, _ = run(capsys, "audio", "ks", "--out", str(out_path),
                       "--rate", "8000", "--dur", "0.5",
                       "--len", "100", "--seed", "42")
    assert code == 0
    data = out_path.read_bytes()
    assert data[:4] == b"RIFF" and len(data) == 44 + 8000
    digest = hashlib.sha256(data).hexdigest()
    assert digest == ("a268eefd2f3aba66fbdbac68d0698bbececc65fa"
                      "652a301dd2fe69fad299d3d4")
    assert str(out_path) in out


# Euler and the all-pass filter over the string call no libm function, so
# these bytes are the same on every IEEE-754 platform; CI checks them on
# CPython 3.11, 3.12 and 3.13.
@pytest.mark.parametrize("argv, digest", [
    (["euler", "--freq", "440"],
     "5074d3dcc13d2f5d661b1409b8733adee20b56794caa918086638e6ab8f471c4"),
    (["allpass-demo", "--seed", "42", "--len", "100"],
     "5b49ada263dbe8c6acd338d14add40b6dbf8e59a36990698dec1f35e1d107162"),
], ids=["euler", "allpass-demo"])
def test_audio_portable_digests(tmp_path, capsys, argv, digest):
    out_path = tmp_path / "out.wav"
    code, _, _ = run(capsys, "audio", *argv, "--out", str(out_path),
                     "--rate", "8000", "--dur", "0.5")
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_audio_sine_and_allpass(tmp_path, capsys):
    for kind in ("sine", "euler", "vibrato", "allpass-demo"):
        out_path = tmp_path / (kind + ".wav")
        code, _, _ = run(capsys, "audio", kind, "--out", str(out_path),
                         "--rate", "8000", "--dur", "0.1")
        assert code == 0
        assert out_path.read_bytes()[:4] == b"RIFF"


# Each audio kind's recurrence written out over plain lists, with the
# operations in the order the streams apply them, at the CLI's defaults
# (440 Hz, seed 1, a 100-sample string, b = 0.5, m = 3).

def _sine_list(h, n):
    k = 2.0 * math.cos(h)
    y = [math.sin(h)]
    while len(y) < n:
        y.append(k * y[-1] - (y[-2] if len(y) > 1 else 0.0))
    return y


def _euler_list(h, n, mod=None):
    mod = mod or [1.0] * n
    y, u = [0.0], [1.0]
    while len(y) < n:
        j = len(y) - 1
        w = y[j] + h * (mod[j] * u[j])
        y.append(w)
        u.append(u[j] - h * (mod[j] * w))
    return y


def _splitmix_list(seed, n):
    mask = (1 << 64) - 1
    state, out = seed & mask, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append((z >> 11) * 2.0 ** -53 * 2.0 - 1.0)
    return out


def _string_list(length, n):
    y = _splitmix_list(1, length)
    while len(y) < n:
        j = len(y) - length
        y.append(0.5 * (y[j] + (y[j - 1] if j else 0.0)))
    return y[:n]


def _allpass_list(x, m=3, b=0.5):
    v, y = [], []
    for j, xj in enumerate(x):
        d = v[j - m] if j >= m else 0.0
        v.append(xj - b * d)
        y.append(b * v[j] + d)
    return y


def _wav_bytes(rate, samples):
    data = b"".join(
        struct.pack("<h", round(max(-1.0, min(1.0, x)) * 32767.0))
        for x in samples)
    return (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, 2 * rate, 2, 16)
            + b"data" + struct.pack("<I", len(data)) + data)


@pytest.mark.parametrize("kind", ["sine", "euler", "vibrato", "ks", "allpass-demo"])
def test_every_audio_kind_matches_its_recurrence_over_lists(tmp_path, capsys, kind):
    rate, n = 8000, 2000
    h = 2.0 * math.pi * 440.0 / rate
    if kind == "sine":
        want = _sine_list(h, n)
    elif kind == "euler":
        want = _euler_list(h, n)
    elif kind == "vibrato":
        wobble = [1.0 + 0.05 * v for v in _sine_list(2.0 * math.pi * 5.0 / rate, n)]
        want = _euler_list(h, n, wobble)
    elif kind == "ks":
        want = _string_list(100, n)
    else:
        want = _allpass_list(_string_list(100, n))
    out_path = tmp_path / (kind + ".wav")
    code, _, _ = run(capsys, "audio", kind, "--out", str(out_path),
                     "--rate", str(rate), "--dur", "0.25")
    assert code == 0
    assert out_path.read_bytes() == _wav_bytes(rate, want)


def test_audio_error_leaves_no_file(tmp_path, capsys):
    target = tmp_path / "missing" / "out.wav"
    code = main(["audio", "sine", "--out", str(target),
                 "--rate", "8000", "--dur", "0.1"])
    assert code == 2
    capsys.readouterr()
    assert not target.exists()
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("rate", ["0", "-8000"])
def test_audio_rate_must_be_positive(tmp_path, capsys, rate):
    target = tmp_path / "out.wav"
    code = main(["audio", "sine", "--out", str(target), "--rate", rate])
    assert code == 2
    assert capsys.readouterr().err == "error: write_wav: rate must be > 0\n"
    assert not target.exists()


@pytest.mark.parametrize("argv", [["--dur", "100000"],
                                  ["--rate", "3000000000", "--dur", "0.000001"]])
def test_audio_too_large_for_a_wav_header_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "x.wav"
    code = main(["audio", "sine", "--out", str(target)] + argv)
    assert code == 2
    assert "do not fit in a WAV header" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc", [RecursionError("too deep"),
                                 MemoryError("out of memory")])
def test_depth_and_memory_errors_exit_2(monkeypatch, capsys, exc):
    def runner(args):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "series", runner)
    assert main(["series", "fibs"]) == 2
    assert capsys.readouterr().err == "error: %s\n" % exc


def _run_module(*argv):
    return run_python("-m", "corec", *argv)


def test_lambertw_stops_before_an_infinite_element():
    # Element 144 of the Lambert W tower is the first beyond the float range.
    proc = _run_module("lambertw", "--n", "144")
    assert proc.returncode == 0
    assert len(proc.stdout.split()) == 144
    proc = _run_module("lambertw", "--n", "145")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "element 144" in proc.stderr


def test_wkb_infinite_value_exits_2(capsys):
    code, out, err = run(capsys, "wkb", "--x0", "1e-300", "--orders", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_lambertw_past_float_binomials_exits_2():
    # Past n = 1030 the Leibniz weights comb(n, k) no longer fit in a float.
    proc = _run_module("lambertw", "--n", "1100")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_exact_values_print_past_the_int_digit_limit():
    # 1/1699! has about 4,700 digits, past CPython's default limit of 4,300
    # for int-to-text conversion; the values are exact, so they print.
    proc = _run_module("series", "exp-demo", "--n", "1700")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1700
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = "1/%d" % math.factorial(1699)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 4300 and lines[-1] == want


def test_arguments_keep_the_int_digit_limit():
    proc = _run_module("series", "fibs", "--n", "1" * 5000)
    assert proc.returncode == 1
    assert "invalid int value" in proc.stderr


def test_partitions_past_the_default_recursion_limit():
    proc = _run_module("series", "partitions", "--n", "1100")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(v) for v in pentagonal_partitions(1099)]


@pytest.mark.parametrize("depth, code", [(30_000, 0), (50_000, 2)])
def test_a_deep_thunk_chain_gives_a_value_or_exit_2(depth, code):
    # Thunks use C stack per level. On the worker's stack a chain either
    # gives its value or exceeds the recursion limit; no signal kills it.
    script = (
        "import sys\n"
        "from corec import cli\n"
        "from corec.stream import Stream, repeat\n"
        "def runner(args):\n"
        "    p = repeat(0)\n"
        "    for _ in range(%d):\n"
        "        p = Stream(lambda p=p: p.head + 1, lambda p=p: p)\n"
        "    print(p.take(3))\n"
        "cli._RUNNERS['series'] = runner\n"
        "raise SystemExit(cli.main(['series', 'fibs']))\n" % depth
    )
    proc = run_python("-c", script)
    assert proc.returncode == code, (proc.returncode, proc.stderr[-500:])
    if code == 0:
        assert proc.stdout == "[%d, %d, %d]\n" % (depth, depth - 1, depth - 2)
    else:
        assert proc.stderr == "error: maximum recursion depth exceeded\n"


def _settings():
    return (sys.getrecursionlimit(), threading.stack_size(),
            sys.get_int_max_str_digits(), gc.isenabled(), gc.get_threshold())


def test_main_leaves_the_interpreter_settings_as_they_were(monkeypatch, capsys):
    before = _settings()
    assert main(["series", "fibs", "--n", "3"]) == 0
    assert _settings() == before
    assert main(["series", "fibs", "--n", "-1"]) == 2
    assert _settings() == before
    seen = []

    def runner(args):
        seen.append((threading.current_thread() is threading.main_thread(),
                     sys.getrecursionlimit(), sys.get_int_max_str_digits(),
                     gc.isenabled()))
        raise KeyError("unmapped")

    monkeypatch.setitem(cli._RUNNERS, "series", runner)
    with pytest.raises(KeyError, match="unmapped"):
        main(["series", "fibs"])
    assert _settings() == before
    # The command ran on the worker, under the limits derived for it and
    # with the cyclic collector off.
    assert seen == [(False, cli._LIMIT, 0, False)]
    capsys.readouterr()


def test_main_leaves_the_collector_off_if_it_was_off(capsys):
    collecting = gc.isenabled()
    gc.disable()
    try:
        assert main(["series", "fibs", "--n", "3"]) == 0
        assert not gc.isenabled()
        assert main(["series", "fibs", "--n", "-1"]) == 2
        assert not gc.isenabled()
    finally:
        if collecting:
            gc.enable()
    capsys.readouterr()


def test_an_error_after_the_first_line_keeps_the_printed_lines(monkeypatch, capsys):
    # Element 3 of the patched sequence fails; elements 0-2 are printed.
    def failing():
        return catalog.integers().map(lambda v: v if v < 4 else math.sqrt(-1))

    monkeypatch.setitem(catalog.CATALOG, "integs", failing)
    code, out, err = run(capsys, "series", "integs", "--n", "10")
    assert (code, out, err) == (2, "1\n2\n3\n", "error: math domain error\n")
    code, out, err = run(capsys, "series", "integs", "--n", "10", "--csv")
    assert (code, out, err) == (2, "index,value\n0,1\n1,2\n2,3\n",
                                "error: math domain error\n")


def test_qft_prints_each_line_before_the_next_value_is_computed(monkeypatch, capsys):
    # Element 2 of the patched row fails; the header and elements 0-1 are
    # printed, so no value is computed before the first line.
    def failing(n, order=None):
        return catalog.integers().map(lambda v: v if v < 3 else 1 // 0)

    monkeypatch.setattr(qft, "greens", failing)
    code, out, err = run(capsys, "qft", "--g", "2", "--order", "1000")
    assert (code, out, err) == (2, "index,value\n0,1\n1,2\n",
                                "error: integer division or modulo by zero\n")


def test_qft_rows_reach_a_pipe_while_the_command_runs():
    # Without PYTHONUNBUFFERED a pipe is block-buffered, as on a CI runner.
    # Order 1000 runs for minutes, and its first rows come within a second.
    # Held in the buffer, they would wait for rows up to about order 158,
    # which take 20-60 s on CPython 3.11-3.13; the timer kills the process
    # first, and the read ends with fewer than two rows.
    env = python_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "corec", "qft", "--g", "2", "--order", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env)
    timer = threading.Timer(10, proc.kill)
    timer.start()
    try:
        rows = [proc.stdout.readline() for _ in range(2)]
        running = proc.poll() is None
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert rows == ["index,value\n", "0,1\n"]
    assert running


def test_each_line_is_written_before_the_next_element_is_forced(monkeypatch):
    printed = io.StringIO()
    seen = []

    def recording(v):
        seen.append(printed.getvalue())
        return v

    monkeypatch.setitem(catalog.CATALOG, "integs",
                        lambda: catalog.integers().map(recording))
    monkeypatch.setattr(sys, "stdout", printed)
    assert main(["series", "integs", "--n", "4"]) == 0
    assert seen == ["", "1\n", "1\n2\n", "1\n2\n3\n"]
    assert printed.getvalue() == "1\n2\n3\n4\n"


@pytest.mark.parametrize("argv, message", [
    (["--dur", "nan"], "write_wav: seconds must be > 0 and finite, not nan"),
    (["--dur", "inf"], "write_wav: seconds must be > 0 and finite, not inf"),
    # sine refuses the step h = 2 pi freq / rate itself, by name.
    pytest.param(["--freq", "nan"], "sine: h must be finite, not nan", id="freq-nan"),
    pytest.param(["--freq", "inf"], "sine: h must be finite, not inf", id="freq-inf"),
    pytest.param(["--freq=-inf"], "sine: h must be finite, not -inf", id="freq-minus-inf"),
])
def test_audio_nan_and_infinity_exit_2(tmp_path, capsys, argv, message):
    target = tmp_path / "x.wav"
    code, out, err = run(capsys, "audio", "sine", "--out", str(target),
                         "--rate", "8000", *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, name", [("euler", "euler_osc"), ("vibrato", "vibrato")])
@pytest.mark.parametrize("freq", ["nan", "inf", "-inf"])
def test_euler_and_vibrato_refuse_a_step_that_is_not_finite(tmp_path, capsys, kind,
                                                            name, freq):
    # The generator refuses the step h = 2 pi freq / rate by its own name,
    # before the writer could meet a NaN sample.
    code, out, err = run(capsys, "audio", kind, "--out", str(tmp_path / "x.wav"),
                         "--rate", "8000", "--freq=" + freq)
    assert (code, out, err) == (2, "", "error: %s: h must be finite, not %s\n"
                                % (name, freq))
    assert list(tmp_path.iterdir()) == []


def test_every_audio_kind_renders_under_a_recursion_limit_of_20(tmp_path):
    # Each kind as the CLI builds it, 2 s at 8 kHz, forced under a limit
    # of 20 instead of the CLI worker's.
    script = (
        "import sys\n"
        "from corec.cli import _audio_stream, _build_parser\n"
        "from corec.dsp import write_wav\n"
        "kinds = ['sine', 'euler', 'vibrato', 'ks', 'allpass-demo']\n"
        "streams = [_audio_stream(_build_parser().parse_args(\n"
        "    ['audio', kind, '--out', 'x', '--rate', '8000'])) for kind in kinds]\n"
        "sys.setrecursionlimit(20)\n"
        "for kind, stream in zip(kinds, streams):\n"
        "    write_wav('%s/%s.wav' % (sys.argv[1], kind), 8000, stream, 2.0)\n"
    )
    proc = run_python("-c", script, str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(p.stat().st_size for p in tmp_path.iterdir()) == [44 + 32000] * 5


def test_a_missing_output_directory_gives_the_same_error_each_time(tmp_path):
    target = str(tmp_path / "no" / "such" / "a.wav")
    first = _run_module("audio", "sine", "--out", target)
    second = _run_module("audio", "sine", "--out", target)
    assert first.returncode == second.returncode == 2
    assert first.stderr == second.stderr == (
        "error: [Errno 2] No such file or directory: %r\n" % target)
    assert list(tmp_path.iterdir()) == []


def test_a_reader_that_stops_early_is_not_an_error():
    # As in `corec series fibs --n 3000 | head -n 2`: the output is far
    # larger than a pipe holds, so the writer meets the closed pipe.
    proc = subprocess.Popen([sys.executable, "-m", "corec", "series", "fibs",
                             "--n", "3000"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=python_env())
    try:
        lines = [proc.stdout.readline(), proc.stdout.readline()]
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert lines == [b"0\n", b"1\n"]
    assert (code, err) == (0, b"")
