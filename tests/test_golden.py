"""Every CLI command's output, byte for byte.

Each case runs one command through ``cli.main`` and compares its stdout and
the sha256 of every file it writes with digests pinned from a tree that
formatted its CSVs with Python's ``%``.  The six commands run on
``configs/reference.cfg``; six more cases cover a 4-ring pattern, a noisy
512-bit link, the SNR sweep, a 121-angle incidence sweep that spans two
blocks of the batched sweep, and the benchmark's two field shapes: a
64-pair sweep on the 0.25 degree grid and a 4-ring pattern on the 0.05
degree grid, whose points are whole steps from broadside, exactly
antisymmetric and ending at 90.

The digests hold for numpy 2.4 with OpenBLAS on x86-64 under its FMA
kernels: the default pick on an AVX-512 host (SkylakeX), Haswell and Zen,
with one thread or two.  The field kernel's only BLAS calls are real
products whose bits those kernels agree on; the five cases that print a
switched null's roundoff residue (``BLAS_SENSITIVE``) run again in child
interpreters under ``OPENBLAS_CORETYPE=Haswell``, ``OPENBLAS_NUM_THREADS=1``
and ``OPENBLAS_NUM_THREADS=2``, each with that one BLAS setting alone: a
child that imports ``vanatta.cli`` before numpy runs one BLAS thread unless
it is told otherwise, so the two-thread bytes need a child of their own.
The non-FMA kernels (Sandybridge, Prescott) round each product before
adding it and change last digits of those five.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from vanatta.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "configs" / "reference.cfg"

# name: (command, config keys over the defaults or None for reference.cfg,
#        stdout, {output file: sha256})
CASES = {
    "validate": (
        "validate",
        None,
        "layout valid\n",
        {"validation.txt": "886e5c1f032228688701916b8a2100610587ab6ac1986779590ba2c6faa342da"},
    ),
    "pattern": (
        "pattern",
        None,
        "retro_peak_deg=30 null_depth_db=295.058 monostatic_gain_db=69.6024\n",
        {
            "pattern_constructive.csv": "dd34c0c949843af93fe5011122e70f052fc9d39bed757af2e25b1392fb6748f2",
            "pattern_destructive.csv": "368a6b69f1d5591538d8f75f6ff1c5d7b572d7b06d7fbf82b07126da2612e4a6",
            "pattern_plate.csv": "646d38759af6b12febd775b3ebacfbb3461105a98f50e7360c7fbd80cd93854f",
            "pattern_summary.txt": "1c9e931d36f3fc2b05e950e768fc6e4f4055238b7108f748b162e5f15d073d88",
        },
    ),
    "range": (
        "range",
        None,
        "gain_db=69.6024 range_extension=3020.8\n",
        {
            "range_amplitudes.csv": "621d88e87180455dbf1b9426b3e5771ad624f6642e9932a0507584fa4d0d8be3",
            "range_summary.txt": "6a44edc5252cdd2b0e3b95e31a7984dca720e470863fff592b1d9caa4bb6ba2d",
        },
    ),
    "scale": (
        "scale",
        None,
        "scaling ratios for n=2,4,8,16 written\n",
        {"scale.csv": "e413760aa76aa6a5f8c4cb42a59fbd39f5010032a0305aa2c9227643562c2517"},
    ),
    "link": (
        "link",
        None,
        "ber=0 snr_db=inf\n",
        {
            "link_report.txt": "90533e4f28d60a6fd68145e1c22a5d59bee3f0fe18b84de5b9ce8b0fb9c5f868",
            "per_chirp.csv": "a0aeb223b64b611d4f47c4e88a8b710c64053428fa24f946c7578cf4ce89469d",
        },
    ),
    "sweep": (
        "sweep",
        None,
        "incidence sweep over 25 angles written\n",
        {"sweep_incidence.csv": "8274ab33f01cfb236aa1a5e2bd81ee9fe39aa77ee5d963bd3d91ba2c41b7d3bb"},
    ),
    "sweep-snr": (
        "sweep",
        "sweep.parameter = snr\n",
        "snr sweep over 4 points written\n",
        {"sweep_snr.csv": "6d54f120ddfbef238f3175984dc99843dca4e4ffa7810b0a1857c3f34bf89acb"},
    ),
    "sweep-121-incidences": (
        "sweep",
        "sweep.step = 1\n",
        "incidence sweep over 121 angles written\n",
        {"sweep_incidence.csv": "afd6d19b0fa0b7a7a291eae424387a0a5174e0e4431a0db4f55599827b8c6dc9"},
    ),
    "pattern-4-rings": (
        "pattern",
        "layout.builder = concentric\nlayout.n_rings = 4\n",
        "retro_peak_deg=30 null_depth_db=306.157 monostatic_gain_db=87.6642\n",
        {
            "pattern_constructive.csv": "6954ccbb759b13f1d1bcc215288c14898042ee9589818425f54ace2e55c62270",
            "pattern_destructive.csv": "2a6bbc5ece976277b6b2ab9cfff3a987853ccf00b530cf39cc6b516d371c530e",
            "pattern_plate.csv": "646d38759af6b12febd775b3ebacfbb3461105a98f50e7360c7fbd80cd93854f",
            "pattern_summary.txt": "17bbe46d4794f07a2a03031301bacc4e7f9e229116acf55767cec12f4cc8e85e",
        },
    ),
    "sweep-64-pairs": (
        "sweep",
        "layout.n_pairs = 64\nsweep.step = 2.5\n",
        "incidence sweep over 49 angles written\n",
        {"sweep_incidence.csv": "632e5be2c74762f2674b45f71f050982c92b8c25ec04036e44658921fb8fbed4"},
    ),
    "pattern-4-rings-fine-grid": (
        "pattern",
        "layout.builder = concentric\nlayout.n_rings = 4\nlayout.base_radius_m = 0.05\n"
        "incidence_angle_deg = 12.35\npattern.grid_step_deg = 0.05\n",
        "retro_peak_deg=12.35 null_depth_db=295.278 monostatic_gain_db=51.2479\n",
        {
            "pattern_constructive.csv": "af897b75db29f746052dcaaf158f583a1433bb64952eb573c93c181eb6e2ffdc",
            "pattern_destructive.csv": "4b04e7bc310e527d17715457c57f5dd07a8172f60d71c0cd7c2bb5a961166cf5",
            "pattern_plate.csv": "6983722e63b322f3f1c58565e789ed8eff92c271343f7f891c3936e6f5a9cf26",
            "pattern_summary.txt": "bcc593ff9a694e31a75604617039a0abad3053b5e3bd36fada73f600b9f213be",
        },
    ),
    "link-noisy-512-bits": (
        "link",
        "link.random_bits = 512\nnoise.power = 3e-2\n",
        "ber=0 snr_db=18.6012\n",
        {
            "link_report.txt": "41818fc18eb92880516577b4ca3e95fb6e8ef7835348f3f4dfb11a809071a1db",
            "per_chirp.csv": "e1302904b2049d2821de241f712ed0546c35d7caba73bd523a0ef092c591f3b0",
        },
    ),
}


def run_case(tmp_path, command, overrides):
    """stdout and {file name: sha256} of one command run into tmp_path/out."""
    config = REFERENCE
    if overrides is not None:
        config = tmp_path / "case.cfg"
        config.write_text(overrides)
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    return stdout.getvalue(), digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_pinned_digests(tmp_path, name):
    command, overrides, stdout, digests = CASES[name]
    assert run_case(tmp_path, command, overrides) == (stdout, digests)


# The cases whose outputs carry the exact switched null's roundoff residue,
# the digits a BLAS kernel could round differently.
BLAS_SENSITIVE = ("link", "pattern", "pattern-4-rings", "pattern-4-rings-fine-grid", "range")


def _has_fma_kernels():
    """x86-64 with avx2 and fma: OpenBLAS can run its Haswell kernel here."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        flags = set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        return False
    return {"avx2", "fma"} <= flags


@pytest.mark.skipif(not _has_fma_kernels(), reason="needs x86-64 with avx2 and fma")
@pytest.mark.parametrize(
    "setting", ["OPENBLAS_CORETYPE=Haswell", "OPENBLAS_NUM_THREADS=1", "OPENBLAS_NUM_THREADS=2"]
)
def test_blas_sensitive_cases_hold_under_other_blas_settings(tmp_path, setting):
    # One child interpreter per setting, since OpenBLAS reads these variables
    # once, when numpy loads it.  The child inherits no other BLAS setting.
    key, value = setting.split("=")
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("OPENBLAS_") and k not in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env[key] = value
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, __file__, str(tmp_path), *BLAS_SENSITIVE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    expected = {name: [CASES[name][2], CASES[name][3]] for name in BLAS_SENSITIVE}
    assert json.loads(child.stdout) == expected


if __name__ == "__main__":
    # python tests/test_golden.py DIR NAME...: print each case's stdout and
    # digests as JSON, running case NAME in DIR/NAME.
    results = {}
    for name in sys.argv[2:]:
        work = Path(sys.argv[1]) / name
        work.mkdir(parents=True)
        results[name] = run_case(work, *CASES[name][:2])
    print(json.dumps(results))
