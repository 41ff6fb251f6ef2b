"""Hot numeric kernels.

Two loops dominate every simulation here: summing round-trip path phasors
over pair traversals, and accumulating beat-tone samples over chirps.  Both
factorize into one matrix product, which numpy hands to BLAS.
``tests/test_kernels.py`` checks both against what they replace: the
per-cell beat formula, one pair-path call per switch state, and every
outbound phasor computed with ``np.exp``.
"""

from __future__ import annotations

import math

import numpy as np


def pair_path_response(x_in, x_out, path_extra, wavenumber, sin_incidence, sin_obs):
    """Sum exp(-j k (x_in sin_inc + path + x_out sin_obs)) over traversals.

    x_in and x_out hold one entry per pair traversal, path_extra one row of
    line lengths per switch config (configs x traversals); sin_incidence and
    sin_obs are 1-D arrays of sines.  Each phasor splits into an inbound
    factor, which carries the config, and an outbound one, built once; the
    sum is one (incidences x traversals) @ (traversals x observations)
    product per config.  The products are stacked rather than merged into
    one (configs * incidences)-row product, which keeps each config's result
    bit-identical to a call with that config alone.  Returns the complex
    configs x incidences x observations array.

    The outbound matrix skips work that mirror symmetry makes redundant,
    without changing a bit of it, since cos is even, sin odd, and
    fl(x * -s) = -fl(x * s):

    - Rows: when the second half of x_out is exactly the first half negated,
      as the layout builders make it (each pair sits at +-x and is traversed
      both ways), only the first half's phasors are computed and the rest
      are their complex conjugates.  Any other x_out, such as a hand-built
      layout off by one ulp, takes every row through cos and sin.
    - Columns: cos and sin run once per distinct magnitude of sin_obs, into
      an m x distinct table (m the rows computed above), and each column
      copies its source column, conjugated when its sign bit differs.  An
      exactly antisymmetric angle grid, as the CLI builds at any step,
      repeats about half its magnitudes: on the benchmark's 0.05 degree ring
      pattern, 1,801 of the 3,602 columns.  With no repeat the copy is only
      a permutation; README (Kernels) gives its measured cost.
    """
    inbound = np.exp(-1j * (wavenumber * (np.outer(sin_incidence, x_in) + path_extra[:, None, :])))
    n = len(x_out)
    m = n // 2 if np.array_equal(x_out[n // 2 :], -x_out[: n // 2]) else n
    distinct, source, flipped = _mirrored_columns(sin_obs)
    phase = np.outer(x_out[:m], distinct)
    phase *= -wavenumber
    table = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=table.real)
    np.sin(phase, out=table.imag)
    outbound = np.empty((n, len(sin_obs)), dtype=np.complex128)
    # source is in range; mode "raise" would copy through a buffer.
    np.take(table, source, axis=1, out=outbound[:m], mode="clip")
    imag = outbound.imag[:m]
    np.negative(imag, out=imag, where=flipped)
    if m < n:
        np.conjugate(outbound[:m], out=outbound[m:])
    return inbound @ outbound


def _mirrored_columns(sin_obs):
    """(distinct, source, flipped): the distinct magnitudes of sin_obs.

    distinct holds one sine per magnitude, the first in sort order; sine i
    has the magnitude of distinct[source[i]], and flipped[i] is true when
    their sign bits differ.  Sorting and comparing neighbours stands in for
    np.unique, whose first call imports numpy.ma.
    """
    magnitude = np.abs(sin_obs)
    order = np.argsort(magnitude, kind="stable")
    ranked = magnitude[order]
    first = np.empty(len(ranked), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    distinct = sin_obs[order[first]]
    source = np.empty(len(ranked), dtype=np.intp)
    source[order] = np.cumsum(first) - 1
    return distinct, source, np.signbit(sin_obs) != np.signbit(distinct)[source]


def accumulate_beat(samples, amplitudes, beat_frequency, phase0, phase_step, dt):
    """Add one target's beat tone to samples (chirps x samples), in place.

    Chirp c gets amplitudes[c] * cos(2 pi f_beat t + phase0 + c * phase_step)
    with t sampled at dt.  By the angle-sum identity that is
    a_c cos(phi_c) cos(w t) - a_c sin(phi_c) sin(w t), one (chirps x 2) @
    (2 x samples) product: chirps + samples sines and cosines instead of
    chirps * samples cosines.

    phase0 may also be an array of per-chirp start phases, passed with
    phase_step = 0.0 (adding 0.0 keeps their bits).  fmcw computes a frame's
    phases once, with the expression above, and gives each block of chirps
    its slice.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    n_chirps, n_samples = samples.shape
    if amplitudes.shape != (n_chirps,):
        raise ValueError("need one amplitude per chirp")
    phases = phase0 + phase_step * np.arange(n_chirps)
    arg = 2.0 * math.pi * beat_frequency * (np.arange(n_samples) * dt)
    per_chirp = np.stack((amplitudes * np.cos(phases), -amplitudes * np.sin(phases)), axis=1)
    per_sample = np.stack((np.cos(arg), np.sin(arg)))
    samples += per_chirp @ per_sample
    return samples
