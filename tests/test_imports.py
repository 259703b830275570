"""The package and the CLI import only what is used.

Each check of ``sys.modules`` runs in a fresh interpreter, since this test
session has already imported every module.
"""

import pytest

import corec
from corec import cli
from corec.catalog import CATALOG

from support import run_python

def _loaded_after(code):
    """The names in sys.modules after running ``code`` in a new interpreter."""
    script = code + "\nimport sys\nsys.stderr.write('\\n'.join(sorted(sys.modules)))\n"
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stderr.split("\n"))


def _cli(*argv):
    return ("from corec import cli\n"
            "try:\n"
            "    cli.main(%r)\n"
            "except SystemExit:\n"
            "    pass\n" % (list(argv),))


def test_importing_the_package_loads_no_submodule():
    loaded = _loaded_after("import corec")
    assert "corec" in loaded
    assert [name for name in loaded if name.startswith("corec.")] == []


def test_audio_loads_no_series_code(tmp_path):
    loaded = _loaded_after(_cli("audio", "sine", "--out", str(tmp_path / "a.wav"),
                                "--rate", "8000", "--dur", "0.1"))
    assert (tmp_path / "a.wav").exists()
    assert {"corec.dsp", "corec.stream"} <= loaded
    for name in ["corec.series", "corec.coeffs", "corec.dif", "corec.qft",
                 "corec.wkb", "corec.catalog", "fractions"]:
        assert name not in loaded


@pytest.mark.parametrize("argv", [["--help"], ["series", "--help"], ["series", "nope"]])
def test_parsing_arguments_loads_no_library_module(argv):
    loaded = _loaded_after(_cli(*argv))
    assert [name for name in loaded if name.startswith("corec.")] == ["corec.cli"]


def test_an_argument_error_of_a_runner_loads_no_series_code():
    loaded = _loaded_after(_cli("lambertw", "--n", "-1"))
    for name in ["corec.series", "corec.coeffs", "corec.dif", "corec.dsp",
                 "corec.catalog"]:
        assert name not in loaded


def test_star_import_binds_the_submodules_objects():
    loaded = _loaded_after(
        "from corec import *\n"
        "import importlib, corec\n"
        "for name in corec.__all__:\n"
        "    module = importlib.import_module('corec.' + corec._LAZY[name])\n"
        "    assert globals()[name] is getattr(module, name), name\n"
    )
    # The star import loads the modules that define the names, and only those.
    assert {"corec.cells", "corec.stream", "corec.coeffs", "corec.series",
            "corec.dif"} <= loaded
    assert not {"corec.dsp", "corec.qft", "corec.wkb", "corec.catalog"} & loaded


def test_dir_lists_the_lazy_names_and_unknown_names_raise():
    assert set(corec.__all__) <= set(dir(corec))
    assert "__version__" in dir(corec)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        corec.no_such_name
    assert not hasattr(corec, "no_such_name")


def test_the_clis_series_names_are_the_catalogs():
    assert cli._SERIES_NAMES == tuple(sorted(CATALOG))
