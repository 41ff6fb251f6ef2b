"""Hot numeric kernels.

Two loops dominate every simulation here: summing round-trip path phasors
over pair traversals, and accumulating beat-tone samples over chirps.  The
phasor sum factorizes into one matrix product, which numpy hands to BLAS,
so it has a single implementation.  Beat accumulation has an njit
implementation, compiled with numba when available, and a pure-numpy
fallback with identical semantics.

Backend selection for beat accumulation, checked once at import:

    VANATTA_BACKEND=auto    njit if numba imports, else numpy (default)
    VANATTA_BACKEND=numba   require numba, raise if missing
    VANATTA_BACKEND=numpy   force the fallback

``benchmarks/bench_kernels.py`` times the two beat paths against each other.
"""

from __future__ import annotations

import math
import os

import numpy as np


def _accumulate_beat_numpy(samples, amplitudes, beat_frequency, phase0, phase_step, dt):
    n_chirps, n_samples = samples.shape
    t = np.arange(n_samples) * dt
    phases = phase0 + phase_step * np.arange(n_chirps)
    samples += amplitudes[:, None] * np.cos(
        2.0 * math.pi * beat_frequency * t[None, :] + phases[:, None]
    )
    return samples


_requested = os.environ.get("VANATTA_BACKEND", "auto").strip().lower()
if _requested not in ("auto", "numba", "numpy"):
    raise ValueError(f"VANATTA_BACKEND must be auto, numba or numpy, got {_requested!r}")

if _requested == "numpy":
    HAS_NUMBA = False
else:
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        if _requested == "numba":
            raise
        HAS_NUMBA = False

if HAS_NUMBA:

    @njit(cache=True)
    def _accumulate_beat_numba(samples, amplitudes, beat_frequency, phase0, phase_step, dt):
        n_chirps, n_samples = samples.shape
        w = 2.0 * math.pi * beat_frequency * dt
        for c in range(n_chirps):
            amp = amplitudes[c]
            if amp == 0.0:
                continue
            ph_c = phase0 + phase_step * c
            for n in range(n_samples):
                samples[c, n] += amp * np.cos(w * n + ph_c)
        return samples

    _accumulate_beat = _accumulate_beat_numba
    BACKEND = "numba"
else:
    _accumulate_beat = _accumulate_beat_numpy
    BACKEND = "numpy"


def active_backend() -> str:
    """Name of the backend selected at import ("numba" or "numpy")."""
    return BACKEND


def pair_path_response(x_in, x_out, path_extra, wavenumber, sin_incidence, sin_obs):
    """Sum exp(-j k (x_in sin_inc + path + x_out sin_obs)) over traversals.

    x_in, x_out and path_extra hold one entry per pair traversal;
    sin_incidence and sin_obs are 1-D arrays of sines.  Each phasor splits
    into an inbound and an outbound factor, so the sum is one (incidences x
    traversals) @ (traversals x observations) matrix product.  Returns the
    complex incidences x observations matrix.
    """
    inbound = np.exp(-1j * (wavenumber * (np.outer(sin_incidence, x_in) + path_extra)))
    outbound = np.exp(-1j * (wavenumber * np.outer(x_out, sin_obs)))
    return inbound @ outbound


def accumulate_beat(samples, amplitudes, beat_frequency, phase0, phase_step, dt):
    """Add one target's beat tone to samples (chirps x samples), in place.

    Chirp c gets amplitudes[c] * cos(2 pi f_beat t + phase0 + c * phase_step)
    with t sampled at dt.
    """
    amplitudes = np.ascontiguousarray(amplitudes, dtype=np.float64)
    if amplitudes.shape != (samples.shape[0],):
        raise ValueError("need one amplitude per chirp")
    _accumulate_beat(
        samples, amplitudes, float(beat_frequency), float(phase0), float(phase_step), float(dt)
    )
    return samples
