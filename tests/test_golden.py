"""Every CLI command's output, byte for byte.

Each case runs one command through ``cli.main`` and compares its stdout and
the sha256 of every file it writes with digests pinned from a tree that
formatted its CSVs with Python's ``%``.  The six commands run on
``configs/reference.cfg``; six more cases cover a 4-ring pattern, a noisy
512-bit link, the SNR sweep, a 121-angle incidence sweep that spans two
blocks of the batched sweep, and the benchmark's two field shapes: a
64-pair sweep on the 0.25 degree grid and a 4-ring pattern on the 0.05
degree grid, whose points are whole steps from broadside, exactly
antisymmetric and ending at 90.  The digests hold for numpy 2.4 with
OpenBLAS on x86-64; a BLAS that rounds a product differently changes last
digits, and with them the digests.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from vanatta.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"

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
        "retro_peak_deg=30 null_depth_db=295.102 monostatic_gain_db=69.6024\n",
        {
            "pattern_constructive.csv": "508298e380b2ec093311fa942993f3729ef4bda8ee29c23ae9df08058a836666",
            "pattern_destructive.csv": "00ce0018b176fed46b252019ef88658d760c98a336aa17fa3e690bb902959ae0",
            "pattern_plate.csv": "646d38759af6b12febd775b3ebacfbb3461105a98f50e7360c7fbd80cd93854f",
            "pattern_summary.txt": "74a989970e8d3534f962f244e6c7ac0c43d377c9ef2c2e93b6a88c55729a8d51",
        },
    ),
    "range": (
        "range",
        None,
        "gain_db=69.6024 range_extension=3020.8\n",
        {
            "range_amplitudes.csv": "a7997dc3af9a4d96fdecf5d4f2bb223ca024412858cea572219e041b7a86face",
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
            "per_chirp.csv": "18a1432ec97170149bf095beaa1abcf1145fcadfc0ae70e19ce234e57d1ecbc1",
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
        "retro_peak_deg=30 null_depth_db=305.962 monostatic_gain_db=87.6642\n",
        {
            "pattern_constructive.csv": "6954ccbb759b13f1d1bcc215288c14898042ee9589818425f54ace2e55c62270",
            "pattern_destructive.csv": "749f9d1ea016a6a14299db1ac5d0193fe1a880813166efc25861daddf38d9c90",
            "pattern_plate.csv": "646d38759af6b12febd775b3ebacfbb3461105a98f50e7360c7fbd80cd93854f",
            "pattern_summary.txt": "faa85037ad56aea477eabe822427a55ace10591169112f18738f2da8e21371ae",
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
        "retro_peak_deg=12.35 null_depth_db=295.254 monostatic_gain_db=51.2479\n",
        {
            "pattern_constructive.csv": "8a21ef954a5dac325144ce816fb2f5056f4577ef5b28b50fb49c66235595abbc",
            "pattern_destructive.csv": "70464776d05f3ddf0e27196cc423d3671cab2ba46d095fc524d7d26cc3fa0904",
            "pattern_plate.csv": "6983722e63b322f3f1c58565e789ed8eff92c271343f7f891c3936e6f5a9cf26",
            "pattern_summary.txt": "a1b7d86eb6417edc4aee066747830f6f3d55a4cd74f2be8843130cbcd45380a7",
        },
    ),
    "link-noisy-512-bits": (
        "link",
        "link.random_bits = 512\nnoise.power = 3e-2\n",
        "ber=0 snr_db=18.4706\n",
        {
            "link_report.txt": "0e3eafa173d720b6a1629e58f3477cff264348e3770986a032ece651f8a4ebec",
            "per_chirp.csv": "99288a714b46575bac2d53294d88592b15583afaf5df7c6572f64e0821d5b547",
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
