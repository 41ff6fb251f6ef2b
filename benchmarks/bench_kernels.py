"""Time the numba beat kernel against the pure-numpy fallback.

Runs both implementations of beat-tone accumulation over a frame on
representative sizes and prints per-call wall times plus the speedup.  The
numba path is compiled once before timing so JIT cost never pollutes the
numbers.

Usage:
    python3 benchmarks/bench_kernels.py [--repeats 20]
"""

import argparse
import math
import time

import numpy as np

from vanatta import kernels


def best_of(fn, args, repeats):
    """Best wall time over repeats, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def accumulate_beat_cases():
    rng = np.random.default_rng(11)
    for label, n_chirps, n_samples in (
        ("64 chirps x 1000 samples", 64, 1000),
        ("2048 chirps x 1000 samples", 2048, 1000),
    ):
        args = (
            np.zeros((n_chirps, n_samples)),
            rng.uniform(0.0, 1.0, n_chirps),
            166782.0,
            0.3,
            0.01,
            5e-7,
        )
        yield label, args


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20, help="timing repeats per case")
    args = parser.parse_args(argv)

    if not kernels.HAS_NUMBA:
        print("numba unavailable (or VANATTA_BACKEND=numpy); timing the fallback only")

    name = "accumulate_beat"
    print(f"{'kernel':<20} {'case':<28} {'numpy':>10} {'numba':>10} {'speedup':>8}")
    for label, call_args in accumulate_beat_cases():
        t_numpy = best_of(kernels._accumulate_beat_numpy, call_args, args.repeats)
        if kernels.HAS_NUMBA:
            kernels._accumulate_beat_numba(*call_args)  # compile before timing
            t_numba = best_of(kernels._accumulate_beat_numba, call_args, args.repeats)
            print(
                f"{name:<20} {label:<28} {t_numpy * 1e3:>8.3f}ms "
                f"{t_numba * 1e3:>8.3f}ms {t_numpy / t_numba:>7.1f}x"
            )
        else:
            print(f"{name:<20} {label:<28} {t_numpy * 1e3:>8.3f}ms {'-':>10} {'-':>8}")

if __name__ == "__main__":
    main()
