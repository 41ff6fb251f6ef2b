"""Import boundary: the geometry and field commands never load the FMCW chain,
no command pays for numpy.ma, concurrent.futures or logging or, unless it
draws noise, numpy.random, and a CLI process runs one BLAS thread unless its
caller chose a count."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import vanatta

SRC = Path(vanatta.__file__).resolve().parent.parent

# Runs CLI commands in one fresh interpreter; argv: src dir, out dir, and the
# repr of a list of command argvs.  It prints the exit codes and which of the
# watched modules got loaded.
_CHILD = """
import ast, contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import vanatta.cli
runs = ast.literal_eval(sys.argv[3])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [vanatta.cli.main([*argv, "--out", sys.argv[2]]) for argv in runs]
watched = (
    "vanatta.fmcw", "vanatta.link", "json", "numpy.ma", "numpy.random", "concurrent.futures", "logging",
    "queue",
)
print((codes, [m for m in watched if m in sys.modules]))
"""


def _run_child(out_dir, runs):
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC), str(out_dir), repr(runs)],
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(done.stdout.strip())


def test_non_link_commands_leave_fmcw_link_and_json_unloaded(tmp_path):
    runs = [["pattern"], ["sweep"], ["validate"], ["scale"], ["range"]]
    codes, loaded = _run_child(tmp_path, runs)
    assert codes == [0, 0, 0, 0, 0]
    assert loaded == []  # nor numpy.ma, numpy.random or queue
    assert (tmp_path / "sweep_incidence.csv").is_file()


def test_noisy_link_leaves_numpy_ma_unloaded(tmp_path):
    config = tmp_path / "noisy.cfg"
    config.write_text("noise.power = 3e-2\nlink.random_bits = 64\n")
    codes, loaded = _run_child(tmp_path / "out", [["link", "--config", str(config)]])
    assert codes == [0]
    assert "numpy.random" in loaded  # the noise was drawn, on a plain thread
    assert not {"numpy.ma", "concurrent.futures", "logging"} & set(loaded)


# Imports numpy, vanatta.cli or both (argv[2], in order) in a fresh
# interpreter; prints whether os.environ is unchanged and how many native
# threads the process runs.
_BLAS_CHILD = """
import importlib, os, sys
sys.path.insert(0, sys.argv[1])
before = dict(os.environ)
for name in sys.argv[2].split(","):
    importlib.import_module(name)
print((dict(os.environ) == before, len(os.listdir("/proc/self/task"))))
"""

needs_task_list_and_two_cpus = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="counts threads in /proc/self/task; one CPU runs one BLAS thread anyway",
)


def _blas_child(modules, **setting):
    """(environment unchanged, native threads) of a child that imports modules
    with no BLAS setting but setting."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("OPENBLAS_") and k not in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_CHILD, str(SRC), modules],
        env={**env, **setting},
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(done.stdout.strip())


@needs_task_list_and_two_cpus
def test_cli_runs_one_blas_thread_and_leaves_the_environment_unchanged():
    assert _blas_child("vanatta.cli") == (True, 1)


@needs_task_list_and_two_cpus
def test_a_preset_blas_thread_count_is_kept():
    assert _blas_child("vanatta.cli", OPENBLAS_NUM_THREADS="2") == (True, 2)


@needs_task_list_and_two_cpus
def test_numpy_imported_first_keeps_its_blas_threads():
    _, threads = _blas_child("numpy")
    assert threads > 1  # OpenBLAS's default on more than one CPU
    assert _blas_child("numpy,vanatta.cli") == (True, threads)


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
