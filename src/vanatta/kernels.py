"""Hot numeric kernels.

Two loops dominate every simulation here: summing round-trip path phasors
over pair traversals, and accumulating beat-tone samples over chirps.  Both
factorize into real matrix products, which numpy hands to BLAS.

The pair-path sum folds first.  A Van Atta pair sits at exactly +-x and is
traversed both ways, so traversals share |x|, and an exactly antisymmetric
angle grid repeats |sin phi|.  The outbound phasor is cos - j sign sin of
one entry of a real table over distinct |x| x distinct |sin phi|: 64 of 128
rows on the benchmark's 64-pair sweep, 55 of 128 on its 4-ring pattern and
2 of 4 on its 2-pair link, and 361 of 746 and 1,801 of 3,602 columns on the
first two.  README (Kernels) gives the measured cost.

``tests/test_kernels.py`` checks both kernels against what they replace:
the per-cell beat formula, one pair-path call per switch state, and every
outbound phasor computed with ``np.exp`` in one complex product, the latter
within a roundoff bound derived from the traversal count.
"""

from __future__ import annotations

import math

import numpy as np


def pair_path_response(x_in, x_out, path_extra, wavenumber, sin_incidence, sin_obs):
    """Sum exp(-j k (x_in sin_inc + path + x_out sin_obs)) over traversals.

    x_in and x_out hold one entry per pair traversal, path_extra one row of
    line lengths per switch config (configs x traversals); sin_incidence and
    sin_obs are 1-D arrays of sines.  Returns the complex configs x
    incidences x observations array.

    Each phasor splits into an inbound factor, which carries the config, and
    an outbound one, exp(j theta) with theta = -k x_out sin_obs.  Row g is
    the first x_out of its magnitude in sort order, column d likewise for
    sin_obs; rho and tau are -1 where a traversal's or an observation's
    sign bit differs from its representative's.  Since fl(-a * b) =
    -fl(a * b), theta = rho tau theta[g, d] exactly, and with cos even and
    sin odd

        S = sum_g P_g cos theta[g, d] + j tau sum_g Q_g sin theta[g, d],

    where P_g sums the inbound factors of row g's traversals and Q_g sums
    them times rho.  So cos and sin run once per distinct row x distinct
    column, in turn into one real table, and the sum takes two real
    products per config, [Re P; Im P] @ cos and [Re Q; Im Q] @ sin: the
    parts of U = P cos and V = Q sin.  Each observation takes U + jV or U - jV at its
    column, as its tau says.

    The row sums use np.add.reduceat, not BLAS, so their order is fixed.
    The products run as one BLAS call per config rather than one merged
    (configs * 2 incidences)-row product, which keeps each config's result
    bit-identical to a call with that config alone.
    """
    inbound = np.exp(-1j * (wavenumber * (np.outer(sin_incidence, x_in) + path_extra[:, None, :])))
    rows, row_of, row_flipped = _distinct_magnitudes(x_out)
    order = np.argsort(row_of, kind="stable")
    grouped = inbound[..., order]
    starts = np.searchsorted(row_of[order], np.arange(len(rows)))
    p = np.add.reduceat(grouped, starts, axis=-1)
    np.negative(grouped, out=grouped, where=row_flipped[order])
    q = np.add.reduceat(grouped, starts, axis=-1)

    columns, column_of, column_flipped = _distinct_magnitudes(sin_obs)
    # One table holds cos theta, then sin theta: theta is computed again in
    # between, to the same bits, so only one rows x columns table is held.
    table = np.outer(rows, columns)
    table *= -wavenumber
    u = np.concatenate((p.real, p.imag), axis=-2) @ np.cos(table, out=table)
    np.outer(rows, columns, out=table)
    table *= -wavenumber
    v = np.concatenate((q.real, q.imag), axis=-2) @ np.sin(table, out=table)
    # U + jV for tau = 1, then U - jV for tau = -1, per distinct column.
    n, d = len(sin_incidence), len(columns)
    both = np.empty((len(path_extra), n, 2 * d), dtype=np.complex128)
    np.subtract(u[:, :n], v[:, n:], out=both.real[..., :d])
    np.add(u[:, n:], v[:, :n], out=both.imag[..., :d])
    np.add(u[:, :n], v[:, n:], out=both.real[..., d:])
    np.subtract(u[:, n:], v[:, :n], out=both.imag[..., d:])
    return both[..., column_of + d * column_flipped]


def _distinct_magnitudes(values):
    """(distinct, source, flipped): the distinct magnitudes of values.

    distinct holds one value per magnitude, the first in sort order; value
    i has the magnitude of distinct[source[i]], and flipped[i] is true when
    their sign bits differ.  Sorting and comparing neighbours stands in for
    np.unique, whose first call imports numpy.ma.
    """
    magnitude = np.abs(values)
    order = np.argsort(magnitude, kind="stable")
    ranked = magnitude[order]
    first = np.empty(len(ranked), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    distinct = values[order[first]]
    source = np.empty(len(ranked), dtype=np.intp)
    source[order] = np.cumsum(first) - 1
    return distinct, source, np.signbit(values) != np.signbit(distinct)[source]


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
