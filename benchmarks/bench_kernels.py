"""Time the closed-form beat kernel against the per-cell formula.

``kernels.accumulate_beat`` builds one target's beat frame as a rank-2
(chirps x 2) @ (2 x samples) product.  This script times it against the
per-cell formula a_c cos(2 pi f t + phase0 + c phase_step), one cosine per
sample, on a 64-chirp and a 2048-chirp frame of 1000 samples, and prints
the best per-call wall times, the speedup and the largest deviation.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats 20]
"""

import argparse
import math
import time

import numpy as np

from vanatta import kernels
from vanatta.fmcw import ChirpParams
from vanatta.geometry import C0


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20, help="timing repeats per case")
    args = parser.parse_args(argv)

    print(f"{'case':<28} {'per-cell':>10} {'closed':>10} {'speedup':>8} {'max dev':>9}")
    for label, call_args in beat_cases():
        t_cell = best_of(per_cell_beat, call_args, args.repeats)
        t_closed = best_of(kernels.accumulate_beat, call_args, args.repeats)
        deviation = np.abs(
            kernels.accumulate_beat(np.zeros_like(call_args[0]), *call_args[1:])
            - per_cell_beat(np.zeros_like(call_args[0]), *call_args[1:])
        ).max()
        print(
            f"{label:<28} {t_cell * 1e3:>8.3f}ms {t_closed * 1e3:>8.3f}ms "
            f"{t_cell / t_closed:>7.1f}x {deviation:>9.1e}"
        )


if __name__ == "__main__":
    main()
