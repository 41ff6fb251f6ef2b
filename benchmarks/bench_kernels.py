"""Time the closed-form kernels and the bulk CSV writer against what they replace.

``kernels.accumulate_beat`` builds one target's beat frame as a rank-2
(chirps x 2) @ (2 x samples) product.  It is timed against the per-cell
formula a_c cos(2 pi f t + phase0 + c phase_step), one cosine per sample, on
a 64-chirp and a 2048-chirp frame of 1000 samples.

``kernels.pair_path_response`` takes one row of line lengths per switch
config and builds the config-independent outbound factor once.  Both states
of a 128-element surface over 3602 angles (the ``vanatta pattern`` call) are
timed in one call against one call per state.

``emfield.write_pattern_csv`` formats all rows from ``.tolist()`` values in
one write; it is timed against per-row f-strings over numpy scalars on a
3601-row pattern, and the two files are compared byte for byte.

The script prints the best per-call wall times, the speedup and the largest
deviation (for the CSV case, whether the bytes match).

Usage:
    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats 20]
"""

import argparse
import math
import os
import tempfile
import time

import numpy as np

from vanatta import kernels
from vanatta.emfield import (
    FieldPattern,
    _traversal_arrays,
    magnitude_db,
    write_pattern_csv,
)
from vanatta.fmcw import ChirpParams
from vanatta.geometry import C0, build_concentric_surface
from vanatta.modulation import constructive_config, destructive_config


def per_cell_beat(samples, amplitudes, beat_frequency, phase0, phase_step, dt):
    """The formula the closed form replaces: one cosine per cell."""
    n_chirps, n_samples = samples.shape
    t = np.arange(n_samples) * dt
    phases = phase0 + phase_step * np.arange(n_chirps)
    samples += amplitudes[:, None] * np.cos(
        2.0 * math.pi * beat_frequency * t[None, :] + phases[:, None]
    )
    return samples


def best_of(fn, args, repeats):
    """Best wall time over repeats, in seconds, each on a fresh frame."""
    best = math.inf
    for _ in range(repeats):
        frame = np.zeros_like(args[0])
        start = time.perf_counter()
        fn(frame, *args[1:])
        best = min(best, time.perf_counter() - start)
    return best


def beat_cases():
    """Frames of the link's operating point: a 50 m target at 24 GHz."""
    params = ChirpParams()
    range_m = 50.0
    rng = np.random.default_rng(11)
    for n_chirps in (64, 2048):
        n_samples = params.samples_per_chirp
        args = (
            np.zeros((n_chirps, n_samples)),
            rng.uniform(0.0, 1.0, n_chirps),
            params.beat_frequency(range_m),
            2.0 * math.pi * params.start_frequency * 2.0 * range_m / C0,
            0.01,
            1.0 / params.sample_rate,
        )
        yield f"{n_chirps} chirps x {n_samples} samples", args


def best_call(fn, repeats):
    """Best wall time of fn() over repeats, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def pair_path_case():
    """Both switch states of the ring-pattern surface: 4 rings, 128 elements."""
    wavelength = C0 / 24e9
    layout = build_concentric_surface(4, 0.05, wavelength)
    configs = (constructive_config(), destructive_config(layout))
    x_in, x_out, paths = _traversal_arrays(layout, configs)
    sin_inc = np.sin(np.radians([23.45]))
    grid = np.append(np.linspace(-90.0, 90.0, 3601), 23.45)
    return x_in, x_out, paths, 2.0 * math.pi / wavelength, sin_inc, np.sin(np.radians(grid))


def per_state_pair_path(x_in, x_out, paths, k, sin_inc, sin_obs):
    """One call per state: the outbound factor is built once per state."""
    return np.stack(
        [kernels.pair_path_response(x_in, x_out, row[None], k, sin_inc, sin_obs)[0] for row in paths]
    )


def per_row_pattern_csv(pattern, path):
    """The writer the bulk one replaces: one f-string per row over numpy scalars."""
    mags = pattern.magnitudes()
    dbs = magnitude_db(pattern.values)
    with open(path, "w") as fh:
        fh.write("angle_deg,re_v_per_m,im_v_per_m,mag_v_per_m,mag_db\n")
        for ang, val, mag, db in zip(pattern.angles_deg, pattern.values, mags, dbs):
            fh.write(f"{ang:.12g},{val.real:.12g},{val.imag:.12g},{mag:.12g},{db:.12g}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20, help="timing repeats per case")
    args = parser.parse_args(argv)

    print(f"{'case':<34} {'before':>10} {'after':>10} {'speedup':>8} {'max dev':>9}")

    def row(label, before, after, deviation):
        print(
            f"{label:<34} {before * 1e3:>8.3f}ms {after * 1e3:>8.3f}ms "
            f"{before / after:>7.1f}x {deviation:>9}"
        )

    for label, call_args in beat_cases():
        t_cell = best_of(per_cell_beat, call_args, args.repeats)
        t_closed = best_of(kernels.accumulate_beat, call_args, args.repeats)
        deviation = np.abs(
            kernels.accumulate_beat(np.zeros_like(call_args[0]), *call_args[1:])
            - per_cell_beat(np.zeros_like(call_args[0]), *call_args[1:])
        ).max()
        row(f"beat {label}", t_cell, t_closed, f"{deviation:.1e}")

    case = pair_path_case()
    t_each = best_call(lambda: per_state_pair_path(*case), args.repeats)
    t_once = best_call(lambda: kernels.pair_path_response(*case), args.repeats)
    deviation = np.abs(kernels.pair_path_response(*case) - per_state_pair_path(*case)).max()
    row("pair path 2 states x 128 x 3602", t_each, t_once, f"{deviation:.1e}")

    rng = np.random.default_rng(5)
    grid = np.linspace(-90.0, 90.0, 3601)
    values = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    values[::97] = 0.0  # exact nulls hit the -400 dB floor
    pattern = FieldPattern(grid, values)
    with tempfile.TemporaryDirectory() as tmp:
        old, new = os.path.join(tmp, "old.csv"), os.path.join(tmp, "new.csv")
        t_rows = best_call(lambda: per_row_pattern_csv(pattern, old), args.repeats)
        t_bulk = best_call(lambda: write_pattern_csv(pattern, new), args.repeats)
        with open(old, "rb") as a, open(new, "rb") as b:
            same = a.read() == b.read()
    row("pattern csv 3601 rows", t_rows, t_bulk, "same" if same else "DIFFERS")


if __name__ == "__main__":
    main()
