"""Import boundary: the geometry and field commands never load the FMCW chain."""

import ast
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import vanatta

SRC = Path(vanatta.__file__).resolve().parent.parent

# Runs the non-link commands in one fresh interpreter; argv: src dir, out dir.
# It prints the exit codes and which of the link-only modules got loaded.
_CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import vanatta.cli
runs = (["pattern"], ["sweep"], ["validate"], ["scale"], ["range"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [vanatta.cli.main([*argv, "--out", sys.argv[2]]) for argv in runs]
print((codes, [m for m in ("vanatta.fmcw", "vanatta.link", "json") if m in sys.modules]))
"""


def test_non_link_commands_leave_fmcw_link_and_json_unloaded(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    codes, loaded = ast.literal_eval(done.stdout.strip())
    assert codes == [0, 0, 0, 0, 0]
    assert loaded == []
    assert (tmp_path / "sweep_incidence.csv").is_file()


def test_package_names_load_on_first_use():
    from vanatta import ChirpParams, SurfaceLayout, run_link

    assert run_link is vanatta.link.run_link
    assert ChirpParams is vanatta.fmcw.ChirpParams
    assert SurfaceLayout is vanatta.geometry.SurfaceLayout


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vanatta.no_such_name  # noqa: B018


def test_each_lazy_name_is_its_module_attribute():
    wrong = [
        name
        for name, module in vanatta._LAZY.items()
        if getattr(vanatta, name) is not getattr(import_module(f"vanatta.{module}"), name)
    ]
    assert wrong == []
    assert sorted(vanatta.__all__) == sorted(vanatta._LAZY)
    assert set(vanatta._LAZY) <= set(dir(vanatta))
