"""Closed-form kernels against their direct per-cell formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanatta import kernels
from vanatta.fmcw import ChirpParams
from vanatta.geometry import C0


def _random_traversals(rng, n):
    x_in = rng.uniform(-0.05, 0.05, n)
    x_out = rng.uniform(-0.05, 0.05, n)
    path = rng.uniform(0.1, 0.3, n)
    return x_in, x_out, path


def _direct_beat(amps, n_samples, f, phase0, step, dt):
    """a_c cos(2 pi f n dt + phase0 + c step), one chirp row at a time."""
    t = np.arange(n_samples) * dt
    return np.array(
        [a * np.cos(2.0 * np.pi * f * t + phase0 + step * c) for c, a in enumerate(amps)]
    )


def test_pair_path_response_matches_direct_formula():
    rng = np.random.default_rng(3)
    x_in, x_out, path = _random_traversals(rng, 12)
    # A second switch config: half a wavelength more on every other traversal.
    paths = np.stack((path, path + 0.00625 * (np.arange(12) % 2)))
    k = 2.0 * np.pi / 0.0125
    sin_inc = np.array([-0.8, 0.0, 0.5])
    sin_obs = np.linspace(-1.0, 1.0, 101)
    got = kernels.pair_path_response(x_in, x_out, paths, k, sin_inc, sin_obs)
    expected = np.array(
        [
            [
                [
                    sum(
                        np.exp(-1j * k * (xi * si + p + xo * so))
                        for xi, xo, p in zip(x_in, x_out, row)
                    )
                    for so in sin_obs
                ]
                for si in sin_inc
            ]
            for row in paths
        ]
    )
    assert got.shape == (2, 3, 101)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_pair_path_response_configs_match_single_config_calls():
    # The outbound factor is shared, but each config's result is the same
    # bits as a call with that config alone.
    rng = np.random.default_rng(4)
    x_in, x_out, path = _random_traversals(rng, 128)
    paths = np.stack((path, path + 0.00625 * (np.arange(128) % 2)))
    sin_inc, sin_obs = np.array([0.3]), np.linspace(-1.0, 1.0, 3602)
    k = 2.0 * np.pi / 0.0125
    both = kernels.pair_path_response(x_in, x_out, paths, k, sin_inc, sin_obs)
    for c in range(2):
        alone = kernels.pair_path_response(x_in, x_out, paths[c : c + 1], k, sin_inc, sin_obs)
        assert np.array_equal(both[c], alone[0])


def test_accumulate_beat_matches_direct_formula():
    samples = np.zeros((4, 200))
    amps = np.array([1.0, 0.5, 0.0, 2.0])
    f, phase0, step, dt = 166782.0, 0.3, 1.7, 5e-7
    kernels.accumulate_beat(samples, amps, f, phase0, step, dt)
    t = np.arange(200) * dt
    for c in range(4):
        expected = amps[c] * np.cos(2.0 * np.pi * f * t + phase0 + step * c)
        np.testing.assert_allclose(samples[c], expected, rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n_chirps=st.integers(1, 40),
    n_samples=st.integers(1, 300),
    dt=st.floats(1e-8, 1e-5),
    nyquist_fraction=st.floats(0.0, 1.0),
    phase0=st.floats(-2.0 * math.pi, 2.0 * math.pi),
    step=st.floats(-2.0 * math.pi, 2.0 * math.pi),
)
def test_accumulate_beat_matches_per_cell_formula(
    data, n_chirps, n_samples, dt, nyquist_fraction, phase0, step
):
    amps = np.array(
        data.draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
                min_size=n_chirps,
                max_size=n_chirps,
            )
        )
    )
    f = nyquist_fraction / (2.0 * dt)
    samples = kernels.accumulate_beat(np.zeros((n_chirps, n_samples)), amps, f, phase0, step, dt)
    expected = _direct_beat(amps, n_samples, f, phase0, step, dt)
    np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-12 * np.abs(amps).max())


def test_accumulate_beat_at_the_link_carrier_phase():
    # At 50 m the carrier phase 2 pi f0 (2 r / c) is about 5e4 rad, so the
    # per-cell reference rounds its argument to ~1e-11 rad itself.
    params = ChirpParams()
    range_m, velocity = 50.0, 12.0
    phase0 = 2.0 * math.pi * params.start_frequency * 2.0 * range_m / C0
    assert phase0 > 5e4
    step = 2.0 * math.pi * (2.0 * velocity / params.wavelength) * params.chirp_duration
    f, dt = params.beat_frequency(range_m), 1.0 / params.sample_rate
    amps = np.random.default_rng(4).uniform(0.0, 3e-3, params.chirps_per_frame)
    shape = (params.chirps_per_frame, params.samples_per_chirp)
    samples = kernels.accumulate_beat(np.zeros(shape), amps, f, phase0, step, dt)
    expected = _direct_beat(amps, shape[1], f, phase0, step, dt)
    np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-10 * amps.max())


def test_accumulate_beat_is_additive():
    rng = np.random.default_rng(9)
    base = rng.normal(size=(3, 50))
    samples = base.copy()
    kernels.accumulate_beat(samples, np.ones(3), 1e5, 0.0, 0.0, 1e-6)
    delta = np.zeros((3, 50))
    kernels.accumulate_beat(delta, np.ones(3), 1e5, 0.0, 0.0, 1e-6)
    np.testing.assert_allclose(samples, base + delta, rtol=0, atol=1e-12)


def test_accumulate_beat_rejects_wrong_amplitude_count():
    samples = np.zeros((4, 10))
    with pytest.raises(ValueError):
        kernels.accumulate_beat(samples, np.ones(3), 1.0, 0.0, 0.0, 1e-6)
