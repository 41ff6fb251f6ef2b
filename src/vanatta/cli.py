"""Command-line front end.

Commands:
    validate   build or load a layout and run the geometry validator
    pattern    constructive/destructive/plate patterns over an angle grid
    range      amplitude vs distance and the range-extension factor
    scale      retro gain vs element count against the plate reference
    link       run one modulated frame and decode it
    sweep      incidence-angle or SNR parameter sweep

Configs are flat key-value text files with dotted section names::

    frequency_hz = 24e9
    layout.builder = linear
    layout.n_pairs = 2

Unknown keys are rejected, and every key is checked before the output
directory is made.  ``configs/reference.cfg`` in the repository lists every
key with its default.  Exit codes: 0 on success, 1 when a constraint or
validation fails, 2 on I/O or config parse errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

# A CLI process runs one BLAS thread unless its caller chose a count: every
# product here is small, and an idle OpenBLAS worker spins on the core the
# link's noise thread needs.  OpenBLAS reads the variable once, when numpy
# loads it, so it is unset again before any child process could inherit it.
_ONE_BLAS_THREAD = "numpy" not in sys.modules and not any(
    key in os.environ for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
)
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np

if _ONE_BLAS_THREAD:
    del os.environ["OPENBLAS_NUM_THREADS"]

from .emfield import (
    FieldPattern,
    PlaneWave,
    gain_over_plate,
    plate_baseline_pattern,
    plate_monostatic_amplitude,
    far_field_amplitude,
    range_extension,
    response_matrix,
    scaling_sweep,
    write_csv,
    write_pattern_csv,
)
from .errors import ConfigurationError, SimulationError, check_finite, check_number, check_seed
from .geometry import (
    build_concentric_surface,
    build_linear_array,
    load_layout,
    validate_layout,
    wavelength_of,
)
from .modulation import constructive_config, destructive_config, encode_bits

# fmcw and link are imported inside the functions that use them (the link
# command and the SNR sweep), so the other commands start without loading them.


class ConfigFileError(Exception):
    """Config file missing, unparseable, or carrying unknown keys."""


# Incidences per batched call in the incidence sweep; bounds the response
# matrix at SWEEP_BLOCK x (grid + SWEEP_BLOCK) entries for long sweeps.
SWEEP_BLOCK = 64


# Every accepted key with its default; None marks optional keys that have a
# context-dependent fallback (documented in configs/reference.cfg).
DEFAULTS: dict[str, object] = {
    "frequency_hz": 24e9,
    "incidence_angle_deg": 30.0,
    "amplitude": 1.0,
    "absorption_efficiency": 0.82,
    "seed": 12345,
    "layout.builder": "linear",
    "layout.n_pairs": 2,
    "layout.spacing_m": None,
    "layout.base_length_m": None,
    "layout.n_rings": 1,
    "layout.base_radius_m": None,
    "layout.path": None,
    "plate.width_m": 0.025,
    "validate.tolerance_m": None,
    "pattern.grid_step_deg": 0.25,
    "radar.bandwidth_hz": 250e6,
    "radar.chirp_s": 0.5e-3,
    "radar.sample_rate_hz": 2e6,
    "target.range_m": 50.0,
    "target.velocity_mps": 0.0,
    "noise.power": 0.0,
    "link.bits": "10110010",
    "link.random_bits": 0,
    "link.switch_interval_s": 1e-3,
    "range.distances_m": "1,2,4,8,16,32,64,128,256,512",
    "scale.n_elements": "2,4,8,16",
    "sweep.parameter": "incidence_angle",
    "sweep.start": -60.0,
    "sweep.stop": 60.0,
    "sweep.step": 5.0,
    "sweep.snr_db": "-30,-24,-18,-12",
    "sweep.bits_per_point": 256,
    "sweep.depth_db": 12.2,
}

# Optional keys that take a number when set: every None default but the path.
_OPTIONAL_NUMBERS = {key for key, value in DEFAULTS.items() if value is None} - {"layout.path"}
# Text keys that name one of a few choices, and comma-separated list keys
# with the kind of their entries.
_CHOICES = {
    "layout.builder": ("linear", "concentric", "file"),
    "sweep.parameter": ("incidence_angle", "snr"),
}
_LISTS = {"range.distances_m": float, "scale.n_elements": int, "sweep.snr_db": float}
# Maps link.bits' bytes b"0", b"1" to 0, 1: a 1024-bit frame parses in microseconds.
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def parse_config_text(text: str) -> dict[str, object]:
    """Parse flat ``key = value`` lines; # starts a comment line.

    A key whose default is text keeps its value as written, so
    ``link.bits = 0101`` stays the string "0101".
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigFileError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or " " in key:
            raise ConfigFileError(f"line {lineno}: bad key {key!r}")
        values[key] = _parse_value(value, isinstance(DEFAULTS.get(key), str))
    return values


def _parse_value(value: str, text: bool = False) -> object:
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    if text:
        return value
    low = value.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low == "none":
        return None
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def render_config(values: dict[str, object]) -> str:
    """Inverse of parse_config_text for scalar values."""
    lines = []
    for key in sorted(values):
        v = values[key]
        if isinstance(v, bool):
            text = "true" if v else "false"
        elif v is None:
            text = "none"
        elif isinstance(v, (int, float)):
            text = repr(v)
        else:
            text = str(v)
            if text != text.strip() or _parse_value(text) != text:
                text = f'"{text}"'
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def load_config(path: str | None) -> dict[str, object]:
    """Defaults merged with the file at path (all defaults when None)."""
    merged = dict(DEFAULTS)
    if path is None:
        return merged
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigFileError(f"cannot read config {path}: {exc}") from exc
    parsed = parse_config_text(text)
    unknown = sorted(set(parsed) - set(DEFAULTS))
    if unknown:
        raise ConfigFileError(f"unknown config keys: {', '.join(unknown)}")
    merged.update(parsed)
    return merged


def _checked(cfg: dict, config_dir: str) -> dict:
    """cfg with every key turned into the value the commands read, or the
    first fault refused by key.  A number takes the type of its key's default
    (a set optional number is a float), as errors.refusal has them; range
    checks that the library owns stay with the library."""
    out = dict(cfg)
    for key, default in DEFAULTS.items():
        value = cfg[key]
        if key in _OPTIONAL_NUMBERS and value is not None:
            default = 0.0
        if isinstance(default, (int, float)):
            check_number(key, value)
            if isinstance(default, int) and isinstance(value, float) and not value.is_integer():
                raise ConfigurationError(f"{key} must be an integer, got {value!r}")
            out[key] = type(default)(value)
    check_seed(out["seed"])
    for key, choices in _CHOICES.items():
        out[key] = str(cfg[key])
        if out[key] not in choices:
            raise ConfigFileError(f"unknown {key} {out[key]!r}")
    path = cfg["layout.path"]
    if path is not None:
        out["layout.path"] = os.path.join(config_dir, str(path))
    elif out["layout.builder"] == "file":
        raise ConfigFileError("layout.builder = file needs layout.path")
    for key, kind in _LISTS.items():
        out[key] = _numbers(key, cfg[key], kind)
    bits = str(cfg["link.bits"]).strip()
    if not bits or bits.strip("01"):
        raise ConfigFileError(f"link.bits must be a string of 0/1, got {cfg['link.bits']!r}")
    out["link.bits"] = tuple(bits.encode().translate(_BIT_VALUES))
    check_finite("link.random_bits", out["link.random_bits"], "non-negative")
    start, stop = out["sweep.start"], out["sweep.stop"]
    for key in ("sweep.start", "sweep.stop"):
        check_finite(key, out[key])
    if stop < start:
        raise ConfigurationError(f"sweep.stop must be >= sweep.start, got {stop} < {start}")
    return out


def _numbers(key: str, value, kind: type) -> list:
    """The numbers of a comma-separated list key, each of the kind; an empty
    list or an entry that is not one is refused, naming the key."""
    try:
        values = [float(part) for part in str(value).split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigurationError(f"{key} must list one or more numbers, got {value!r}")
    if kind is float:
        return values
    for f in values:
        if not f.is_integer():
            raise ConfigurationError(f"{key} must list integers, got {f!r}")
    return [int(f) for f in values]


def _spacing(cfg: dict, wavelength: float) -> float:
    """layout.spacing_m, or half the wavelength when it is unset."""
    spacing = cfg["layout.spacing_m"]
    return wavelength / 2.0 if spacing is None else spacing


def _resolve_layout(cfg: dict):
    lam = wavelength_of(cfg["frequency_hz"])
    builder = cfg["layout.builder"]
    absorption = cfg["absorption_efficiency"]
    if builder == "linear":
        return build_linear_array(
            cfg["layout.n_pairs"], _spacing(cfg, lam), lam, cfg["layout.base_length_m"], absorption
        )
    if builder == "concentric":
        radius = cfg["layout.base_radius_m"]
        radius = lam if radius is None else radius
        return build_concentric_surface(cfg["layout.n_rings"], radius, lam, absorption)
    import json  # as load_layout does: only a layout file needs it

    path = cfg["layout.path"]
    try:
        return load_layout(path)
    # A file that is not UTF-8 JSON is a parse error, not a bad layout.
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigFileError(f"cannot read layout {path}: {exc}") from exc


def _wave(cfg: dict) -> PlaneWave:
    return PlaneWave(
        frequency=cfg["frequency_hz"],
        incidence_angle_deg=cfg["incidence_angle_deg"],
        amplitude=cfg["amplitude"],
    )


def _chirp_params(cfg: dict):
    from .fmcw import ChirpParams

    return ChirpParams(
        start_frequency=cfg["frequency_hz"],
        bandwidth=cfg["radar.bandwidth_hz"],
        chirp_duration=cfg["radar.chirp_s"],
        sample_rate=cfg["radar.sample_rate_hz"],
    )


def _whole_steps(name: str, span: float, step: float) -> tuple[int, bool]:
    """(n, exact): the whole steps of step in span, and whether they fill it.

    A quotient within 1e-9 (relative) of an integer counts as that integer,
    so 0.05 leaves 3600 exact steps in 180 although 180 / 0.05 is inexact.
    A count past 2**53 (or none, for a subnormal step) is refused: float64
    no longer holds every integer there.
    """
    check_finite(name, step, "positive")
    q = span / step
    if not q <= 2.0**53:
        raise ConfigurationError(
            f"{name} must divide {span:g} deg into at most 2**53 steps, got {step!r}"
        )
    n = round(q)
    if abs(q - n) <= 1e-9 * q:
        return n, True
    return math.floor(q), False


def _angle_grid(step: float) -> np.ndarray:
    """The -90..90 deg grid at pattern.grid_step_deg (or --grid-step-deg).

    The N + 1 points are centred on broadside and spaced by whole steps:
    point i is (2i - N) * step / 2, computed as (2i - N) * 90 / N when the
    step divides 180.  Each point is then the negative of its mirror image
    bit for bit, so the field kernel computes one column per |sin|; 0 is on
    the grid when N is even, and +-90 are exact when the step divides 180.
    """
    n, exact = _whole_steps("pattern.grid_step_deg", 180.0, step)
    twice = np.arange(-n, n + 1, 2)
    grid = twice * 90.0 / n if exact else twice * (step / 2.0)
    return np.clip(grid, -90.0, 90.0, out=grid)


def _emit(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def cmd_validate(cfg: dict, out_dir: str) -> int:
    layout = _resolve_layout(cfg)
    report = validate_layout(layout, cfg["validate.tolerance_m"])
    summary = report.summary()
    _emit(out_dir, "validation.txt", summary + "\n")
    print(summary)
    return 0 if report.passed else 1


def _both_states(layout, wave: PlaneWave, angles) -> np.ndarray:
    """Constructive and destructive fields (2 x angles) of the wave, from one
    batched call: the switch state leaves the outbound factor unchanged."""
    configs = (constructive_config(), destructive_config(layout))
    theta = wave.incidence_angle_deg
    return response_matrix(layout, configs, wave.frequency, theta, angles, wave.amplitude)[:, 0]


def cmd_pattern(cfg: dict, out_dir: str) -> int:
    layout = _resolve_layout(cfg)
    wave = _wave(cfg)
    grid = _angle_grid(cfg["pattern.grid_step_deg"])
    theta = wave.incidence_angle_deg
    plate_width = cfg["plate.width_m"]
    # Both states observed over the grid followed by the incidence itself:
    # the grid columns give the two patterns, the last one the retro returns.
    values = _both_states(layout, wave, np.append(grid, theta))
    constructive, destructive = (FieldPattern(grid, v) for v in values[:, :-1])
    plate = plate_baseline_pattern(plate_width, wave, grid)
    write_pattern_csv(constructive, os.path.join(out_dir, "pattern_constructive.csv"))
    write_pattern_csv(destructive, os.path.join(out_dir, "pattern_destructive.csv"))
    write_pattern_csv(plate, os.path.join(out_dir, "pattern_plate.csv"))

    retro_on, retro_off = np.abs(values[:, -1]).tolist()
    depth = math.inf if retro_off == 0.0 else 20.0 * math.log10(retro_on / retro_off)
    gain = gain_over_plate(retro_on, plate_monostatic_amplitude(plate_width, wave))
    summary = (
        f"retro_peak_deg={constructive.peak_angle():.6g} "
        f"null_depth_db={depth:.6g} "
        f"monostatic_gain_db={gain:.6g}"
    )
    _emit(out_dir, "pattern_summary.txt", summary + "\n")
    print(summary)
    return 0


def cmd_range(cfg: dict, out_dir: str) -> int:
    layout = _resolve_layout(cfg)
    wave = _wave(cfg)
    theta = wave.incidence_angle_deg
    plate_width = cfg["plate.width_m"]
    amp_on, amp_off = np.abs(_both_states(layout, wave, theta)[:, 0]).tolist()
    amp_plate = plate_monostatic_amplitude(plate_width, wave)
    gain_db = gain_over_plate(amp_on, amp_plate)
    factor = range_extension(gain_db)

    distances = cfg["range.distances_m"]
    mags = ([far_field_amplitude(a, d) for d in distances] for a in (amp_plate, amp_on, amp_off))
    header = "distance_m,mag_plate,mag_constructive,mag_destructive"
    write_csv(os.path.join(out_dir, "range_amplitudes.csv"), header, distances, *mags)

    summary = f"gain_db={gain_db:.6g} range_extension={factor:.6g}"
    _emit(out_dir, "range_summary.txt", summary + "\n")
    print(summary)
    return 0


def cmd_scale(cfg: dict, out_dir: str) -> int:
    wave = _wave(cfg)
    ns = cfg["scale.n_elements"]
    ratios = [ratio for _, ratio in scaling_sweep(ns, _spacing(cfg, wave.wavelength), wave)]
    plate_mag = plate_monostatic_amplitude(cfg["plate.width_m"], wave)
    path = os.path.join(out_dir, "scale.csv")
    write_csv(path, "n_elements,gain_ratio,plate_mag", ns, ratios, [plate_mag] * len(ns))
    print(f"scaling ratios for n={','.join(str(n) for n in ns)} written")
    return 0


def cmd_link(cfg: dict, out_dir: str) -> int:
    from .link import LinkScenario, _payload_bits, run_link, write_link_report, write_per_chirp_csv

    layout = _resolve_layout(cfg)
    params = _chirp_params(cfg)
    n_random, bits = cfg["link.random_bits"], cfg["link.bits"]
    if n_random > 0:
        bits = _payload_bits(np.random.SeedSequence(cfg["seed"]), n_random)
    if len(set(bits)) < 2:  # the decoder's threshold splits a frame into two levels
        key = "link.random_bits" if n_random > 0 else "link.bits"
        raise ConfigurationError(
            f"{key}: on-off keying needs both a 0 and a 1, but all {len(bits)} bits are {bits[0]}"
        )
    schedule = encode_bits(bits, layout, cfg["link.switch_interval_s"])
    scenario = LinkScenario(
        layout=layout,
        schedule=schedule,
        params=params,
        range_m=cfg["target.range_m"],
        incidence_angle_deg=cfg["incidence_angle_deg"],
        velocity_mps=cfg["target.velocity_mps"],
        noise_power=cfg["noise.power"],
        seed=cfg["seed"],
        incident_amplitude=cfg["amplitude"],
    )
    result = run_link(scenario)
    write_link_report(result, os.path.join(out_dir, "link_report.txt"))
    write_per_chirp_csv(result, os.path.join(out_dir, "per_chirp.csv"))
    print(f"ber={result.ber:.6g} snr_db={result.snr_db:.6g}")
    return 0


def cmd_sweep(cfg: dict, out_dir: str) -> int:
    if cfg["sweep.parameter"] == "incidence_angle":
        layout = _resolve_layout(cfg)
        grid = _angle_grid(cfg["pattern.grid_step_deg"])
        start, stop = cfg["sweep.start"], cfg["sweep.stop"]
        inc = cfg["sweep.step"]
        n, _ = _whole_steps("sweep.step", stop - start, inc)
        thetas = start + inc * np.arange(n + 1)
        np.minimum(thetas, stop, out=thetas)  # a whole count may round past stop
        frequency, amplitude = cfg["frequency_hz"], cfg["amplitude"]
        configs = (constructive_config(),)
        retros, peaks = [], []
        # One batched call per block of incidences, observed over the grid
        # followed by the block itself: the grid columns give each pattern
        # peak and the diagonal of the block columns the retro returns.
        for lo in range(0, thetas.size, SWEEP_BLOCK):
            block = thetas[lo : lo + SWEEP_BLOCK]
            angles = np.concatenate((grid, block))
            mags = np.abs(response_matrix(layout, configs, frequency, block, angles, amplitude)[0])
            peaks.append(grid[np.argmax(mags[:, : grid.size], axis=1)])
            retros.append(np.diagonal(mags[:, grid.size :]))
        write_csv(
            os.path.join(out_dir, "sweep_incidence.csv"),
            "theta_deg,retro_mag,peak_deg",
            thetas,
            np.concatenate(retros),
            np.concatenate(peaks),
        )
        print(f"incidence sweep over {len(thetas)} angles written")
        return 0
    from .link import ook_ber_trial, whole_chirps

    params = _chirp_params(cfg)
    cpb = whole_chirps(cfg["link.switch_interval_s"], params.chirp_duration)
    snrs, seed = cfg["sweep.snr_db"], cfg["seed"]
    n_bits = cfg["sweep.bits_per_point"]
    depth = cfg["sweep.depth_db"]
    bers = [ook_ber_trial(params, snr, depth, n_bits, cpb, seed + i) for i, snr in enumerate(snrs)]
    write_csv(os.path.join(out_dir, "sweep_snr.csv"), "snr_db,ber", snrs, bers)
    print(f"snr sweep over {len(snrs)} points written")
    return 0


# name -> (handler(cfg, out_dir) -> exit code, help)
_COMMANDS = {
    "validate": (cmd_validate, "check layout constraints"),
    "pattern": (cmd_pattern, "angle patterns for both states and the plate"),
    "range": (cmd_range, "amplitude vs distance and range extension"),
    "scale": (cmd_scale, "retro gain vs element count"),
    "link": (cmd_link, "run one modulated frame"),
    "sweep": (cmd_sweep, "incidence-angle or SNR sweep"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command is a positional choice and the four
    options are shared, so they may come before or after it.  Built once per
    process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="vanatta",
        description="Retrodirective reflective surface simulator",
        epilog="commands:\n" + "".join(f"  {n:<10}{doc}\n" for n, (_, doc) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to run (see below)")
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--grid-step-deg",
        type=float,
        default=None,
        help="override pattern grid step",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config_dir = os.path.dirname(os.path.abspath(args.config)) if args.config else os.getcwd()
    try:
        cfg = load_config(args.config)
        # The two options set their keys, checked as a file's values are.
        for key, value in (("seed", args.seed), ("pattern.grid_step_deg", args.grid_step_deg)):
            if value is not None:
                cfg[key] = value
        cfg = _checked(cfg, config_dir)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command][0](cfg, args.out)
    except ConfigFileError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ValueError) as exc:
        print(f"constraint error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy refuses an array far beyond the host's memory at once, so a
        # grid step or bit count that asks for one ends here, not in a traceback.
        print(f"memory error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
