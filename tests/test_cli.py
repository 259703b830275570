import hashlib
import math
import os
import subprocess
import sys

import pytest

from corec import cli
from corec.cli import main


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


def test_audio_sine_and_allpass(tmp_path, capsys):
    for kind in ("sine", "euler", "vibrato", "allpass-demo"):
        out_path = tmp_path / (kind + ".wav")
        code, _, _ = run(capsys, "audio", kind, "--out", str(out_path),
                         "--rate", "8000", "--dur", "0.1")
        assert code == 0
        assert out_path.read_bytes()[:4] == b"RIFF"


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


@pytest.mark.parametrize("exc", [RecursionError("too deep"),
                                 MemoryError("out of memory")])
def test_depth_and_memory_errors_exit_2(monkeypatch, capsys, exc):
    def runner(args):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "series", runner)
    assert main(["series", "fibs"]) == 2
    assert capsys.readouterr().err == "error: %s\n" % exc


def _run_module(*argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "corec", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "corec", "lambertw", "--n", "1100"],
                          capture_output=True, text=True, env=env, timeout=60)
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
