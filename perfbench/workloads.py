"""The benchmark's workloads: seeded CLI inputs and output checks.

Each op is one ``vanatta`` CLI command.  A workload turns a seeded
``random.Random`` into the op's config text and argv, and checks the files
the command wrote against values the benchmark derived itself, so the check
does not trust the program's own report of what it was asked to do.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ABSORPTION = 0.82
AMPLITUDE = 1.0


@dataclass(frozen=True)
class Op:
    """One CLI command: its subcommand, config text, extra argv and the
    values its outputs must show."""

    command: str
    config: str
    extra_argv: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir, *self.extra_argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    work_per_op: int
    # Fixed per workload so that one metric means one thing across commits:
    # the highest percentile with >= 10 ops beyond it at today's op rate.
    tail_pct: int
    make_op: Callable[[random.Random], Op]
    check: Callable[[Op, Path], list[str]]

    @property
    def min_ops(self) -> int:
        """Measured ops needed for 10 of them to lie beyond tail_pct."""
        return math.ceil(10 * 100 / (100 - self.tail_pct))


def _config(**values) -> str:
    return "".join(f"{key.replace('__', '.')} = {value}\n" for key, value in values.items())


def _data_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _checked(check: Callable[[Op, Path], list[str]]) -> Callable[[Op, Path], list[str]]:
    """Turn a missing or unparseable output into a failed check."""

    @functools.wraps(check)
    def guarded(op: Op, out: Path) -> list[str]:
        try:
            return check(op, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{type(exc).__name__}: {exc}"]

    return guarded


# --- surface-sweep -----------------------------------------------------------

SWEEP_PAIRS = 64
SWEEP_ANGLES = 25
SWEEP_STEP_DEG = 2.5


def _sweep_op(rng: random.Random) -> Op:
    # Start on the 0.25 deg grid in [-60, 0] so all 25 incidences fit in
    # [-60, 60] and every incidence is a grid point.
    start = -60.0 + 0.25 * rng.randint(0, 240)
    stop = start + SWEEP_STEP_DEG * (SWEEP_ANGLES - 1)
    config = _config(
        layout__builder="linear",
        layout__n_pairs=SWEEP_PAIRS,
        absorption_efficiency=ABSORPTION,
        amplitude=AMPLITUDE,
        sweep__parameter="incidence_angle",
        sweep__start=repr(start),
        sweep__stop=repr(stop),
        sweep__step=SWEEP_STEP_DEG,
        pattern__grid_step_deg=0.25,
    )
    thetas = [start + SWEEP_STEP_DEG * i for i in range(SWEEP_ANGLES)]
    # All traversals add in phase at the retro angle: |S| = N sqrt(eta) A.
    retro = 2 * SWEEP_PAIRS * math.sqrt(ABSORPTION) * AMPLITUDE
    return Op("sweep", config, expect={"thetas": thetas, "retro_mag": retro})


@_checked
def _sweep_check(op: Op, out: Path) -> list[str]:
    """Every incidence peaks at itself with the full N sqrt(eta) A return."""
    rows = _data_rows(out / "sweep_incidence.csv", "theta_deg,retro_mag,peak_deg")
    thetas, retro = op.expect["thetas"], op.expect["retro_mag"]
    if len(rows) != len(thetas):
        return [f"sweep has {len(rows)} rows, want {len(thetas)}"]
    errors = []
    for row, want in zip(rows, thetas):
        theta, mag, peak = (float(v) for v in row)
        if abs(theta - want) > 1e-9:
            errors.append(f"row theta {theta} is not the requested {want}")
        if abs(peak - theta) > 1e-9:
            errors.append(f"theta {theta}: peak at {peak}")
        if abs(mag - retro) > 1e-9 * retro:
            errors.append(f"theta {theta}: retro_mag {mag} != {retro}")
    return errors


# --- link-frame --------------------------------------------------------------

LINK_BITS = 1024
LINK_CHIRPS = 2 * LINK_BITS  # switch interval 1 ms / chirp 0.5 ms


def _link_op(rng: random.Random) -> Op:
    bits = format(rng.getrandbits(LINK_BITS), f"0{LINK_BITS}b")
    config = _config(
        layout__builder="linear",
        layout__n_pairs=2,
        absorption_efficiency=ABSORPTION,
        amplitude=AMPLITUDE,
        link__bits=f'"{bits}"',
        link__switch_interval_s=1e-3,
        radar__chirp_s=0.5e-3,
        noise__power=1e-6,
    )
    noise_seed = rng.randrange(2**31)
    return Op("link", config, ("--seed", str(noise_seed)), expect={"bits": bits})


@_checked
def _link_check(op: Op, out: Path) -> list[str]:
    """The decoded frame is the sent frame, the SNR is finite, one row per chirp."""
    report = {}
    for line in (out / "link_report.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        report[key] = value
    bits = op.expect["bits"]
    errors = []
    if report["transmitted_bits"] != bits:
        errors.append("transmitted bits differ from the bits asked for")
    if report["decoded_bits"] != bits:
        wrong = sum(a != b for a, b in zip(report["decoded_bits"], bits))
        errors.append(f"decoded bits differ from the sent bits ({wrong} wrong)")
    if not math.isfinite(float(report["snr_db"])):
        errors.append(f"snr_db is {report['snr_db']}")
    rows = _data_rows(out / "per_chirp.csv", "chirp_index,time_s,amplitude,bit_index")
    if len(rows) != LINK_CHIRPS:
        errors.append(f"per_chirp.csv has {len(rows)} rows, want {LINK_CHIRPS}")
    return errors


# --- ring-pattern ------------------------------------------------------------

RING_STEP_DEG = 0.05
RING_ANGLES = 3601  # -90..90 at 0.05 deg
RING_CSVS = ("pattern_constructive.csv", "pattern_destructive.csv", "pattern_plate.csv")


def _ring_op(rng: random.Random) -> Op:
    theta = round(-60.0 + RING_STEP_DEG * rng.randint(1, 2399), 2)  # open (-60, 60)
    config = _config(
        layout__builder="concentric",
        layout__n_rings=4,
        layout__base_radius_m=0.05,
        absorption_efficiency=ABSORPTION,
        amplitude=AMPLITUDE,
        incidence_angle_deg=repr(theta),
        pattern__grid_step_deg=RING_STEP_DEG,
    )
    return Op("pattern", config, expect={"theta": theta})


@_checked
def _ring_check(op: Op, out: Path) -> list[str]:
    """Peak at the incidence, a deep switched null, a full grid in each CSV."""
    summary = dict(
        part.split("=") for part in (out / "pattern_summary.txt").read_text().split()
    )
    theta = op.expect["theta"]
    errors = []
    peak = float(summary["retro_peak_deg"])
    if abs(peak - theta) > 1e-9:
        errors.append(f"retro peak at {peak}, incidence {theta}")
    depth = float(summary["null_depth_db"])
    if not depth >= 200.0:
        errors.append(f"null depth {depth} dB < 200 dB")
    header = "angle_deg,re_v_per_m,im_v_per_m,mag_v_per_m,mag_db"
    for name in RING_CSVS:
        n = len(_data_rows(out / name, header))
        if n != RING_ANGLES:
            errors.append(f"{name} has {n} rows, want {RING_ANGLES}")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "surface-sweep",
            "sweep of 25 incidences over a 721-point grid on a 64-pair linear "
            "array: stresses geometry validation and the pair-path field kernel",
            "incidences",
            SWEEP_ANGLES,
            80,
            _sweep_op,
            _sweep_check,
        ),
        Workload(
            "link-frame",
            "one noisy 1024-bit OOK frame (2048 chirps x 1000 samples) on a "
            "2-pair array: stresses beat synthesis, range FFT, modulation and decoding",
            "chirps",
            LINK_CHIRPS,
            90,
            _link_op,
            _link_check,
        ),
        Workload(
            "ring-pattern",
            "three 3601-angle patterns of a 128-element concentric surface: "
            "field kernel on a non-lattice layout, and large CSV output",
            "pattern samples",
            len(RING_CSVS) * RING_ANGLES,
            90,
            _ring_op,
            _ring_check,
        ),
    )
}
