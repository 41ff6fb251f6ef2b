"""Closed-form kernels against their direct per-cell formulas."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_emfield import brute_force_response

from vanatta import PlaneWave, constructive_config, kernels, roundtrip_response, wavelength_of
from vanatta.cli import _angle_grid
from vanatta.fmcw import ChirpParams
from vanatta.geometry import C0, build_concentric_surface, build_linear_array

LAM = wavelength_of(24e9)


def _random_traversals(rng, n):
    x_in = rng.uniform(-0.05, 0.05, n)
    x_out = rng.uniform(-0.05, 0.05, n)
    path = rng.uniform(0.1, 0.3, n)
    return x_in, x_out, path


# Below amplitude ~5e-312 the relative term 1e-12 * max|a| rounds to 0.  The
# closed form's two products each round to the subnormal grid twice where
# the per-cell formula rounds once, so they may sit up to 2.5 subnormal
# steps apart: allow 4.
_SUBNORMAL_SLACK = 4 * np.finfo(np.float64).smallest_subnormal


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


def _full_exp_response(x_in, x_out, path_extra, wavenumber, sin_incidence, sin_obs):
    """Every outbound phasor through np.exp and one complex product per
    config: the kernel before its fold onto distinct magnitudes."""
    inbound = np.exp(-1j * (wavenumber * (np.outer(sin_incidence, x_in) + path_extra[:, None, :])))
    outbound = np.exp(-1j * (wavenumber * np.outer(x_out, sin_obs)))
    return inbound @ outbound


def _roundoff_bound(n):
    """Largest gap the kernel and _full_exp_response may show in the real
    or the imaginary part of a sum over n traversals.

    Both take the same inbound bits and the same phase bits, so only their
    sums and the outbound cos and sin differ.  Every term is a product of
    two unit phasors.  _full_exp_response's complex product makes each part
    a real sum of 2n such products, within gamma(2n) * n of the exact sum
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).  The
    kernel sums at most m traversals per row, takes a real product over G
    rows (m + G <= n + 1) and adds two such parts, within gamma(n + 2) * n.
    Each side's cos and sin are within one ulp, 2u, of the exact value,
    which moves each part of a term by at most 2 sqrt(2) u.  u = 2**-53.
    """
    u = 2.0**-53

    def gamma(m):
        return m * u / (1.0 - m * u)

    return (gamma(2 * n) + gamma(n + 2) + 4.0 * math.sqrt(2.0) * u) * n


def _assert_matches_full_exp(args):
    got = kernels.pair_path_response(*args)
    want = _full_exp_response(*args)
    bound = _roundoff_bound(len(args[0]))
    assert np.abs(got.real - want.real).max() <= bound
    assert np.abs(got.imag - want.imag).max() <= bound
    return got


def _layout_traversals(layout, toggles):
    """Kernel inputs for a layout: each pair lower id -> higher id, then
    back; toggles holds one row of toggled-pair flags per config."""
    view = layout.arrays
    x = view.x - layout.center[0]
    lengths = view.line_length + (layout.wavelength / 2.0) * (toggles & view.has_switch)
    x_in = np.concatenate((x[view.a], x[view.b]))
    x_out = np.concatenate((x[view.b], x[view.a]))
    return x_in, x_out, np.tile(lengths, 2)


_layouts = st.one_of(
    st.builds(
        build_linear_array,
        n_pairs=st.integers(1, 256),
        spacing=st.floats(0.5, 2.0).map(lambda f: f * LAM),
        wavelength=st.just(LAM),
        base_length=st.floats(1.0, 20.0).map(lambda f: f * LAM),
    ),
    st.builds(
        build_concentric_surface,
        n_rings=st.integers(1, 4),
        base_radius=st.floats(0.25, 3.0).map(lambda f: f * LAM),
        wavelength=st.just(LAM),
    ),
)
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    layout=_layouts,
    incidence=st.lists(st.floats(-89.0, 89.0), min_size=1, max_size=4),
    observation=st.lists(st.floats(-90.0, 90.0), min_size=1, max_size=40),
    frequency_ratio=st.floats(0.9, 1.1),
)
def test_pair_path_response_on_built_layouts_matches_full_exp(
    data, layout, incidence, observation, frequency_ratio
):
    # The builders place every pair at exactly +-x, so the kernel folds the
    # traversals onto at most half as many rows; the sum must stay within
    # roundoff of computing every phasor.
    n_configs = data.draw(st.integers(1, 3))
    toggles = np.array(
        data.draw(
            st.lists(
                st.lists(st.booleans(), min_size=layout.n_pairs, max_size=layout.n_pairs),
                min_size=n_configs,
                max_size=n_configs,
            )
        ),
        dtype=bool,
    )
    x_in, x_out, paths = _layout_traversals(layout, toggles)
    n = len(x_out)
    assert np.array_equal(x_out[n // 2 :], -x_out[: n // 2])
    assert len(kernels._distinct_magnitudes(x_out)[0]) <= n // 2
    args = (
        x_in,
        x_out,
        paths,
        frequency_ratio * 2.0 * math.pi / LAM,
        np.sin(np.radians(incidence)),
        np.sin(np.radians(observation)),
    )
    got = _assert_matches_full_exp(args)
    assert got.shape == (n_configs, len(incidence), len(observation))
    # Grids with no repeated magnitude, down to one column, take the same
    # one-column-per-magnitude path.
    no_repeat = np.sin(np.radians(np.random.default_rng(n).uniform(-90.0, 90.0, 64)))
    assert len(np.unique(np.abs(no_repeat))) == len(no_repeat)
    for sin_obs in (no_repeat, no_repeat[:1]):
        _assert_matches_full_exp((*args[:-1], sin_obs))


@settings(max_examples=40, deadline=None)
@given(
    layout=_layouts,
    step=st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5, 1.0, 2.5, 5.0]),
    on_grid=st.lists(st.integers(0, 720), max_size=3),
    off_grid=st.lists(st.floats(-89.0, 89.0), max_size=3),
    signed_zeros=st.booleans(),
)
def test_pair_path_response_on_mirrored_grids_matches_full_exp(
    layout, step, on_grid, off_grid, signed_zeros
):
    # Grids built as the CLI builds them are exactly antisymmetric at any
    # step, so about half the observation sines repeat a magnitude: the
    # kernel computes one table column per magnitude and gathers each
    # result column from it, its sin part negated where the sign differs.
    # That must stay within roundoff of computing every phasor.
    grid = _angle_grid(step)
    incidence = np.array([grid[i % len(grid)] for i in on_grid] + off_grid + [30.0])
    sin_obs = np.sin(np.radians(np.concatenate((grid, incidence))))
    if signed_zeros:
        sin_obs = np.append(sin_obs, [0.0, -0.0])
    distinct, _, _ = kernels._distinct_magnitudes(sin_obs)
    assert len(distinct) == len({abs(s) for s in sin_obs.tolist()})
    x_in, x_out, paths = _layout_traversals(layout, np.zeros((1, layout.n_pairs), dtype=bool))
    _assert_matches_full_exp(
        (x_in, x_out, paths, 2.0 * math.pi / LAM, np.sin(np.radians(incidence)), sin_obs)
    )


def test_asymmetric_layout_takes_the_full_path():
    # One element one ulp off its mirror image still passes validation, but
    # its traversal no longer shares a magnitude with any other: it gets a
    # table row of its own, and so does the traversal out of its partner.
    layout = build_linear_array(3, 0.71 * LAM, LAM)
    first = layout.elements[0]
    nudged = dataclasses.replace(
        first, position=(float(np.nextafter(first.position[0], 1.0)), first.position[1])
    )
    layout = dataclasses.replace(layout, elements=(nudged, *layout.elements[1:]))
    assert layout.validation.passed
    x_in, x_out, paths = _layout_traversals(layout, np.zeros((1, 3), dtype=bool))
    n = len(x_out)
    assert not np.array_equal(x_out[n // 2 :], -x_out[: n // 2])
    rows, row_of, _ = kernels._distinct_magnitudes(x_out)
    assert len(rows) == n // 2 + 1
    (j,) = np.flatnonzero(x_out == nudged.position[0] - layout.center[0])
    assert np.count_nonzero(row_of == row_of[j]) == 1

    sin_obs = np.sin(np.radians(np.linspace(-90.0, 90.0, 721)))
    _assert_matches_full_exp((x_in, x_out, paths, 2.0 * math.pi / LAM, np.array([0.5]), sin_obs))

    wave = PlaneWave(24e9, 30.0, amplitude=1.3)
    for obs in (-61.0, 0.0, 30.0, 77.0):
        got = roundtrip_response(layout, constructive_config(), wave, obs)
        want = brute_force_response(layout, constructive_config(), wave, obs)
        assert cmath.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


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
    atol = 1e-12 * np.abs(amps).max() + _SUBNORMAL_SLACK
    np.testing.assert_allclose(samples, expected, rtol=0, atol=atol)


def test_accumulate_beat_at_a_subnormal_amplitude():
    # An amplitude Hypothesis drew: the relative bound alone underflows to 0
    # and asks for bits the closed form does not give.
    amps = np.array([2.2250738585e-313])
    args = (0.25 / (2.0 * 5e-7), 0.3, 1.7, 5e-7)
    samples = kernels.accumulate_beat(np.zeros((1, 200)), amps, *args)
    expected = _direct_beat(amps, 200, *args)
    relative = 1e-12 * amps.max()
    assert np.abs(samples - expected).max() > relative
    np.testing.assert_allclose(samples, expected, rtol=0, atol=relative + _SUBNORMAL_SLACK)


def test_accumulate_beat_at_the_link_carrier_phase():
    # At 50 m the carrier phase 2 pi f0 (2 r / c) is about 5e4 rad, so the
    # per-cell reference rounds its argument to ~1e-11 rad itself.
    params = ChirpParams()
    range_m, velocity = 50.0, 12.0
    phase0 = 2.0 * math.pi * params.start_frequency * 2.0 * range_m / C0
    assert phase0 > 5e4
    step = 2.0 * math.pi * (2.0 * velocity / params.wavelength) * params.chirp_duration
    f, dt = params.beat_frequency(range_m), 1.0 / params.sample_rate
    amps = np.random.default_rng(4).uniform(0.0, 3e-3, 64)
    shape = (64, params.samples_per_chirp)
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
