"""Beat synthesis, range/Doppler processing, and detection."""

import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanatta import (
    ChirpParams,
    ConfigurationError,
    DesignMismatchWarning,
    PlateReflector,
    RangeDopplerMap,
    RangeProfile,
    SurfaceReflector,
    Target,
    bin_noise_sigma,
    build_linear_array,
    constructive_config,
    destructive_config,
    detect,
    encode_bits,
    magnitude_db,
    max_detection_range,
    range_doppler,
    range_profile,
    synthesize_beat,
    wavelength_of,
    write_range_doppler_csv,
)

from vanatta import fmcw, kernels
from vanatta.emfield import REFERENCE_DISTANCE
from vanatta.fmcw import _FFT_BLOCK, _beat_blocks, _chirp_blocks
from vanatta.geometry import C0
from vanatta.link import _extract_bin_amplitudes, _TwoStateReflector

LAM = wavelength_of(24e9)
LAYOUT = build_linear_array(2, LAM / 2.0, LAM)

# frozen oracle values for the default 24 GHz / 250 MHz / 0.5 ms / 2 MHz point
BEAT_50M_HZ = 166782.04759907603
RANGE_BIN_M = 0.599584916
MAX_UNAMBIGUOUS_M = 299.792458
PHASE_STEP_10MPS = 5.030028052684036
VELOCITY_BIN_64 = 0.19517738151041666


def default_params(**overrides):
    return ChirpParams(**overrides)


def surface_target(range_m, velocity=0.0, config=None, schedule=None, angle=0.0):
    reflector = SurfaceReflector(
        layout=LAYOUT, schedule=schedule, config=config, incidence_angle_deg=angle
    )
    return Target(range_m, velocity, reflector)


def test_chirp_params_derived_values():
    params = default_params()
    assert params.samples_per_chirp == 1000
    assert params.range_bin_m == RANGE_BIN_M
    assert params.max_unambiguous_range == MAX_UNAMBIGUOUS_M
    assert math.isclose(params.beat_frequency(50.0), BEAT_50M_HZ, rel_tol=1e-12)
    # the textbook c = 3e8 figure of 166.67 kHz sits within one 2 kHz bin
    assert abs(params.beat_frequency(50.0) - 166.67e3) < 2000.0
    rd = range_doppler(synthesize_beat(params, 64, []))
    np.testing.assert_allclose(np.diff(rd.velocities_mps), VELOCITY_BIN_64, rtol=1e-12)


def test_range_doppler_refuses_a_one_chirp_frame():
    with pytest.raises(ConfigurationError, match="^range_doppler needs at least 2 chirps"):
        range_doppler(synthesize_beat(default_params(), 1, []))


def test_chirp_params_validation():
    with pytest.raises(ConfigurationError):
        default_params(bandwidth=0.0)
    with pytest.raises(ConfigurationError):
        default_params(chirp_duration=0.33333e-3)  # non-integer sample count


PLATE = PlateReflector(0.025)


@pytest.mark.parametrize(
    "build",
    [
        lambda: default_params(bandwidth=math.nan),
        lambda: default_params(start_frequency=math.nan),
        lambda: default_params(chirp_duration=math.inf),
        lambda: default_params(sample_rate=-2e6),
        lambda: synthesize_beat(default_params(), 2.5, []),
        lambda: synthesize_beat(default_params(), 0, []),
        lambda: synthesize_beat(default_params(), -1, [], noise_power=1e-6, seed=1),
        lambda: synthesize_beat(default_params(), math.nan, []),
        lambda: synthesize_beat(default_params(), 64.0, []),
        lambda: Target(math.nan, 0.0, PLATE),
        lambda: Target(math.inf, 0.0, PLATE),
        lambda: Target(50.0, math.nan, PLATE),
        lambda: PlateReflector(math.nan),
        lambda: PlateReflector(0.025, incident_amplitude=math.inf),
        lambda: SurfaceReflector(LAYOUT, incident_amplitude=math.nan),
        lambda: synthesize_beat(default_params(), 64, [], noise_power=math.inf),
        lambda: synthesize_beat(default_params(), 64, [], noise_power=math.nan),
    ],
    ids=[
        "bandwidth-nan",
        "start-frequency-nan",
        "chirp-duration-inf",
        "sample-rate-negative",
        "chirps-per-frame-fractional",
        "chirps-per-frame-zero",
        "chirps-per-frame-negative-noisy",
        "chirps-per-frame-nan",
        "chirps-per-frame-integral-float",
        "target-range-nan",
        "target-range-inf",
        "target-velocity-nan",
        "plate-width-nan",
        "plate-amplitude-inf",
        "surface-amplitude-nan",
        "noise-power-inf",
        "noise-power-nan",
    ],
)
def test_non_finite_or_non_integral_inputs_rejected(build):
    with pytest.raises(ConfigurationError, match="must be"):
        build()


def test_chirp_params_band_warning():
    with pytest.warns(DesignMismatchWarning):
        default_params(start_frequency=50e9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default_params(start_frequency=77e9)


def test_empty_scene_is_silent():
    signal = synthesize_beat(default_params(), 4, [])
    assert signal.samples.shape == (4, 1000)
    assert not signal.samples.any()
    profile = range_profile(signal)
    assert not profile.magnitudes().any()


def test_beat_tone_frequency_and_amplitude():
    params = default_params()
    target = surface_target(50.0)
    signal = synthesize_beat(params, 1, [target])
    # dominant DFT frequency of the raw samples matches the beat oracle
    spectrum = np.abs(np.fft.rfft(signal.samples[0] * np.hanning(1000)))
    freqs = np.fft.rfftfreq(1000, d=0.5e-6)
    measured = freqs[int(np.argmax(spectrum))]
    assert abs(measured - BEAT_50M_HZ) <= 2000.0
    # received amplitude is the retro response scaled by 1/r
    expected = 4.0 * math.sqrt(0.82) / 50.0
    assert math.isclose(np.abs(signal.samples[0]).max(), expected, rel_tol=1e-3)


def test_range_profile_peak_within_one_bin():
    signal = synthesize_beat(default_params(), 1, [surface_target(50.0)])
    profile = range_profile(signal)
    peak_range = profile.ranges_m[int(np.argmax(profile.magnitudes()))]
    assert abs(peak_range - 50.0) <= RANGE_BIN_M
    np.testing.assert_allclose(np.diff(profile.ranges_m), RANGE_BIN_M, rtol=1e-12, atol=0)


def test_range_estimate_error_below_one_bin_across_ranges():
    params = default_params()
    for r in (10.0, 50.0, 80.0, 110.0):  # beats all below 0.4 * Nyquist
        signal = synthesize_beat(params, 1, [surface_target(r)])
        hits = detect(range_profile(signal))
        assert len(hits) == 1
        assert abs(hits[0].range_m - r) <= RANGE_BIN_M


def test_two_targets_resolved():
    params = default_params()
    signal = synthesize_beat(params, 1, [surface_target(50.0), surface_target(55.0)])
    hits = detect(range_profile(signal))
    assert len(hits) == 2
    assert abs(hits[0].range_m - 50.0) <= RANGE_BIN_M
    assert abs(hits[1].range_m - 55.0) <= RANGE_BIN_M


def test_detection_velocity_is_nan_from_single_profile():
    signal = synthesize_beat(default_params(), 1, [surface_target(50.0)])
    hits = detect(range_profile(signal))
    assert len(hits) == 1
    assert math.isnan(hits[0].velocity_mps)
    assert hits[0].snr_db >= 13.0
    expected = 4.0 * math.sqrt(0.82) / 50.0
    assert math.isclose(hits[0].amplitude, expected, rel_tol=0.05)


def test_nyquist_violation_names_target():
    params = default_params()
    good = surface_target(50.0)
    bad = surface_target(310.0)
    with pytest.raises(ConfigurationError, match="target 1"):
        synthesize_beat(params, 64, [good, bad])


def test_target_exactly_at_the_unambiguous_range_synthesizes():
    # Here beat_frequency(max_unambiguous_range) rounds one ulp above
    # Nyquist; the range itself is what the bound is stated in.
    params = default_params(sample_rate=221 / 0.5e-3)
    limit = params.max_unambiguous_range
    assert params.beat_frequency(limit) > params.sample_rate / 2.0
    assert synthesize_beat(params, 1, [Target(limit, 0.0, PLATE)]).samples.shape == (1, 221)
    beyond = Target(math.nextafter(limit, math.inf), 0.0, PLATE)
    with pytest.raises(ConfigurationError, match="target 0 .* exceeds Nyquist"):
        synthesize_beat(params, 1, [beyond])


def test_doppler_phase_step_matches_formula():
    params = default_params()
    signal = synthesize_beat(params, 8, [surface_target(50.0, velocity=10.0)])
    _, spectra = _peak_series(signal)
    steps = np.angle(spectra[1:] * np.conj(spectra[:-1]))
    wrapped = PHASE_STEP_10MPS - 2.0 * math.pi  # step folded into (-pi, pi]
    # the ~1e-7 rad residual is the beat tone migrating 5 mm of range per
    # chirp, which the carrier-only step formula ignores
    np.testing.assert_allclose(steps, wrapped, rtol=0, atol=1e-6)


def _peak_series(signal):
    """Complex value at the strongest range bin, per chirp."""
    from vanatta.fmcw import _profile_matrix

    ranges, matrix = _profile_matrix(signal.params, signal.samples)
    bin_index = int(np.argmax(np.abs(matrix).mean(axis=0)))
    return ranges[bin_index], matrix[:, bin_index]


def test_static_target_maps_to_zero_velocity():
    params = default_params()
    signal = synthesize_beat(params, 16, [surface_target(50.0)])
    rd = range_doppler(signal)
    i, j = np.unravel_index(int(np.argmax(rd.magnitudes())), rd.values.shape)
    assert rd.velocities_mps[j] == 0.0
    assert abs(rd.ranges_m[i] - 50.0) <= RANGE_BIN_M


def test_moving_target_lands_in_its_velocity_bin():
    # shorter chirps so 10 m/s sits inside the unambiguous +-31 m/s span
    params = default_params(chirp_duration=1e-4)
    signal = synthesize_beat(params, 64, [surface_target(25.0, velocity=10.0)])
    rd = range_doppler(signal)
    i, j = np.unravel_index(int(np.argmax(rd.magnitudes())), rd.values.shape)
    assert abs(rd.velocities_mps[j] - 10.0) <= np.diff(rd.velocities_mps)[0] / 2.0
    assert abs(rd.ranges_m[i] - 25.0) <= params.range_bin_m


def test_detect_on_map_reports_range_and_velocity():
    static = detect(range_doppler(synthesize_beat(default_params(), 16, [surface_target(50.0)])))
    assert len(static) == 1
    assert static[0].velocity_mps == 0.0
    assert abs(static[0].range_m - 50.0) <= RANGE_BIN_M

    params = default_params(chirp_duration=1e-4)
    rd = range_doppler(synthesize_beat(params, 64, [surface_target(25.0, velocity=10.0)]))
    moving = detect(rd)
    assert len(moving) == 1
    assert abs(moving[0].velocity_mps - 10.0) <= np.diff(rd.velocities_mps)[0] / 2.0
    assert abs(moving[0].range_m - 25.0) <= params.range_bin_m


def test_detect_on_map_sees_ook_sidebands():
    # the switching schedule gates the echo, so the detector reports the
    # carrier line plus the two modulation sidelines at +-16 of 64 bins
    params = default_params()
    schedule = encode_bits((1, 0) * 16, LAYOUT, 1e-3)
    signal = synthesize_beat(params, 64, [surface_target(25.0, schedule=schedule)])
    hits = detect(range_doppler(signal))
    velocities = sorted(h.velocity_mps for h in hits)
    expected = [-16 * VELOCITY_BIN_64, 0.0, 16 * VELOCITY_BIN_64]
    assert len(hits) == 3
    np.testing.assert_allclose(velocities, expected, rtol=1e-9)
    assert all(abs(h.range_m - 25.0) <= RANGE_BIN_M for h in hits)


def test_detect_on_map_too_small_returns_nothing():
    params = default_params()
    signal = synthesize_beat(params, 2, [surface_target(50.0)])
    assert detect(range_doppler(signal)) == []


def test_ook_modulation_splits_doppler_energy():
    # alternating bits at 2 chirps/bit gate the amplitude as 1,1,0,0,...
    params = default_params()
    schedule = encode_bits((1, 0) * 16, LAYOUT, 1e-3)
    signal = synthesize_beat(params, 64, [surface_target(25.0, schedule=schedule)])
    rd = range_doppler(signal)
    i = int(np.argmin(np.abs(rd.ranges_m - 25.0)))
    column = rd.magnitudes()[i]
    dc = 32  # fftshift puts velocity 0 here for 64 chirps
    oracle = np.abs(np.fft.fft(np.tile([1.0, 1.0, 0.0, 0.0], 16))) / 64.0
    line_bins = {0, 16, 48}
    for k in range(64):
        shifted = (k + 32) % 64  # map DFT index to the fftshifted column
        if k in line_bins:
            assert math.isclose(
                column[shifted] / column[dc], oracle[k] / oracle[0], rel_tol=1e-6
            )
        else:
            assert column[shifted] < 1e-9 * column[dc]
    assert math.isclose(column[(16 + 32) % 64] / column[dc], 2**-0.5, rel_tol=1e-6)


def test_range_doppler_needs_two_chirps():
    signal = synthesize_beat(default_params(), 1, [surface_target(50.0)])
    with pytest.raises(ValueError):
        range_doppler(signal)


def _noisy_rows():
    """A noisy 128-chirp frame of a moving target."""
    return synthesize_beat(default_params(), 128, [surface_target(50.0, velocity=3.0)], 1e-6, 5)


def test_range_doppler_takes_its_length_and_scale_from_the_rows():
    rows = _noisy_rows()
    rd = range_doppler(rows)
    assert rd.values.shape == (501, 128)
    assert len(rd.velocities_mps) == 128
    bin_width = rows.params.wavelength / (2.0 * 128 * rows.params.chirp_duration)
    np.testing.assert_allclose(np.diff(rd.velocities_mps), bin_width, rtol=1e-12)
    # Velocity 0 sits at column 64: the spectra summed over the rows, / 128.
    _, spectra = fmcw._profile_matrix(rows.params, rows.samples)
    np.testing.assert_allclose(
        rd.values[:, 64], spectra.mean(axis=0), rtol=0, atol=1e-12 * np.abs(spectra).max()
    )


def test_range_processing_equals_its_per_row_formula():
    # 130 chirps span three of the synthesis's blocks; the range DFT takes
    # each row on its own, so the whole frame matches the textbook formula.
    signal = synthesize_beat(default_params(), 130, [surface_target(50.0, velocity=3.0)], 1e-6, 5)
    n = signal.params.samples_per_chirp
    w = np.hanning(n)
    spectra = np.fft.rfft(signal.samples * w, axis=1) * (2.0 / w.sum())
    doppler = np.fft.fftshift(np.fft.fft(spectra, axis=0), axes=0) / 130
    assert np.array_equal(range_doppler(signal).values, doppler.T)
    for index in (0, 63, 64, 129):
        row = np.fft.rfft(signal.samples[index] * w, 8 * n) * (2.0 / w.sum())
        assert np.array_equal(range_profile(signal, index, 8).values, row)


def test_range_profile_transforms_one_row_and_refuses_one_past_the_last(monkeypatch):
    rows = _noisy_rows()
    transformed, profile_matrix = [], fmcw._profile_matrix

    def counted(params, samples, zero_pad=1):
        transformed.append(len(samples))
        return profile_matrix(params, samples, zero_pad)

    monkeypatch.setattr(fmcw, "_profile_matrix", counted)
    profile = range_profile(rows, 127, zero_pad=8)
    assert transformed == [1]
    monkeypatch.undo()
    ranges, spectra = fmcw._profile_matrix(rows.params, rows.samples, 8)
    assert np.array_equal(profile.ranges_m, ranges)
    assert np.array_equal(profile.values, spectra[127])
    for index in (128, 500):
        with pytest.raises(ConfigurationError, match=f"^chirp_index {index} out of range$"):
            range_profile(rows, index)
    with pytest.raises(ConfigurationError, match="^chirp_index must be an integer >= 0, got -1$"):
        range_profile(rows, -1)


def test_noise_only_scene_stays_clean_at_13db():
    params = default_params()
    clean = 0
    for seed in range(100):
        signal = synthesize_beat(params, 1, [], noise_power=1e-6, seed=seed)
        if not detect(range_profile(signal), threshold_db=13.0):
            clean += 1
    assert clean >= 99, f"false alarms in {100 - clean} of 100 trials"


def test_constructive_detected_destructive_not():
    params = default_params()
    noise = 1e-6
    on = surface_target(25.0, config=constructive_config())
    off = surface_target(25.0, config=destructive_config(LAYOUT))
    hits_on = detect(range_profile(synthesize_beat(params, 1, [on], noise, seed=3)))
    hits_off = detect(range_profile(synthesize_beat(params, 1, [off], noise, seed=3)))
    assert any(abs(h.range_m - 25.0) < 2 * RANGE_BIN_M for h in hits_on)
    assert not hits_off


def test_deterministic_replay():
    params = default_params()
    a = synthesize_beat(params, 4, [surface_target(50.0)], noise_power=1e-4, seed=42)
    b = synthesize_beat(params, 4, [surface_target(50.0)], noise_power=1e-4, seed=42)
    c = synthesize_beat(params, 4, [surface_target(50.0)], noise_power=1e-4, seed=43)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_parseval_consistency():
    params = default_params()
    signal = synthesize_beat(params, 1, [surface_target(50.0), surface_target(72.0)])
    w = np.hanning(params.samples_per_chirp)
    windowed_energy = float(np.sum((signal.samples[0] * w) ** 2))
    profile = range_profile(signal)
    # undo the 2/sum(w) display scaling, then apply the rfft Parseval sum
    unscaled = profile.values * (w.sum() / 2.0)
    n = params.samples_per_chirp
    spectrum_energy = (
        np.abs(unscaled[0]) ** 2
        + 2.0 * np.sum(np.abs(unscaled[1:-1]) ** 2)
        + np.abs(unscaled[-1]) ** 2
    ) / n
    assert math.isclose(windowed_energy, spectrum_energy, rel_tol=1e-9)


def test_plate_reflector_amplitude():
    params = default_params()
    target = Target(10.0, 0.0, PlateReflector(width=0.025))
    signal = synthesize_beat(params, 1, [target])
    expected = 2.0013845711889124 / 10.0  # normal-incidence plate over 1/r
    assert math.isclose(np.abs(signal.samples[0]).max(), expected, rel_tol=1e-3)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    power=st.one_of(st.floats(1e-300, 1e300), st.sampled_from([5e-324, 1e-6, 1.0])),
    chirps=st.integers(1, 8),
    samples=st.integers(2, 64),
    with_target=st.booleans(),
)
def test_noise_is_the_seeded_normal_draw(seed, power, chirps, samples, with_target):
    params = default_params(sample_rate=samples / 0.5e-3)
    targets = [Target(0.5 * params.max_unambiguous_range, 0.0, PLATE)] if with_target else []
    beat = synthesize_beat(params, chirps, targets).samples
    noisy = synthesize_beat(params, chirps, targets, noise_power=power, seed=seed).samples
    shape = (chirps, samples)
    expected = beat + np.random.default_rng(seed).normal(0.0, math.sqrt(power), shape)
    assert np.array_equal(noisy, expected)


class _SeededReflector:
    """A different amplitude on every chirp, drawn from a seed."""

    def __init__(self, seed):
        self.seed = seed

    def amplitudes(self, chirp_times, frequency):
        return np.random.default_rng(self.seed).uniform(0.0, 2.0, len(chirp_times))


def _whole_frame_beat(params, n_chirps, targets, noise_power, seed):
    """The frame built whole: zeros, one whole-frame accumulate_beat per
    target, then normal(0, sigma) noise over the whole frame."""
    samples = np.zeros((n_chirps, params.samples_per_chirp))
    times = np.arange(n_chirps) * params.chirp_duration + 0.5 * params.chirp_duration
    for target in targets:
        amps = target.reflector.amplitudes(times, params.start_frequency)
        amps = amps * (REFERENCE_DISTANCE / target.range_m)
        phase0 = 2.0 * math.pi * params.start_frequency * (2.0 * target.range_m / C0)
        phase_step = (
            2.0 * math.pi * (2.0 * target.velocity_mps / params.wavelength)
            * params.chirp_duration
        )
        kernels.accumulate_beat(
            samples,
            amps,
            params.beat_frequency(target.range_m),
            phase0,
            phase_step,
            1.0 / params.sample_rate,
        )
    if noise_power > 0.0:
        samples += np.random.default_rng(seed).normal(0.0, math.sqrt(noise_power), samples.shape)
    return samples


@settings(max_examples=60, deadline=None)
@given(
    chirps=st.one_of(st.integers(1, 300), st.sampled_from([1, 129, 257])),
    samples=st.one_of(st.integers(3, 300), st.just(1000)),
    targets=st.lists(
        st.tuples(
            st.floats(0.01, 1.0),
            st.floats(0.1, 40.0),
            st.booleans(),
            st.booleans(),
            st.integers(0, 2**32 - 1),
        ),
        max_size=2,
    ),
    noise_power=st.sampled_from([0.0, 1e-6, 1e-2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_frame_matches_whole_frame_construction(chirps, samples, targets, noise_power, seed):
    params = default_params(sample_rate=samples / 0.5e-3)
    scene = [
        Target(
            fraction * params.max_unambiguous_range,
            -speed if receding else speed,
            _SeededReflector(amp_seed) if varying else PLATE,
        )
        for fraction, speed, receding, varying, amp_seed in targets
    ]
    expected = _whole_frame_beat(params, chirps, scene, noise_power, seed)
    frame = synthesize_beat(params, chirps, scene, noise_power, seed).samples
    assert np.array_equal(frame, expected)

    # The link's per-chirp amplitudes: the column of the whole-frame range
    # spectrum at the bin of largest mean magnitude.
    w = np.hanning(params.samples_per_chirp)
    mags = np.abs(np.fft.rfft(expected * w, axis=1) * (2.0 / w.sum()))
    column = mags[:, int(np.argmax(mags.mean(axis=0)))]
    amps = _extract_bin_amplitudes(params, chirps, scene, noise_power, seed)
    assert np.array_equal(amps, column)


@settings(max_examples=12, deadline=None)
@given(
    chirps=st.integers(1000, 2048),
    samples=st.integers(3, 1000),
    fraction=st.floats(0.01, 1.0),
    velocity=st.floats(-40.0, 40.0).filter(lambda v: v != 0.0),
    noise_power=st.sampled_from([0.0, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_long_frames_match_whole_frame_construction_to_rounding(
    chirps, samples, fraction, velocity, noise_power, seed
):
    # BLAS picks its kernel by matrix size: a whole long frame's beat product
    # can take another path than its 128-chirp blocks, and then the last few
    # sample columns round one ulp apart.  Seen at 2048 x 999 and 2048 x 742.
    params = default_params(sample_rate=samples / 0.5e-3)
    scene = [Target(fraction * params.max_unambiguous_range, velocity, _SeededReflector(seed))]
    expected = _whole_frame_beat(params, chirps, scene, noise_power, seed)
    frame = synthesize_beat(params, chirps, scene, noise_power, seed).samples
    eps = np.finfo(np.float64).eps
    assert np.abs(frame - expected).max() <= 4.0 * eps * np.abs(expected).max()


def test_chirp_blocks_are_balanced():
    for n_chirps in (*range(1, 400), 1024, 2047, 2048, 2049):
        blocks = _chirp_blocks(n_chirps)
        sizes = [hi - lo for lo, hi in blocks]
        assert blocks[0][0] == 0 and blocks[-1][1] == n_chirps
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) <= _FFT_BLOCK and max(sizes) - min(sizes) <= 1
        assert len(blocks) == -(-n_chirps // _FFT_BLOCK)
        # a one-row block would take BLAS's one-row path and round differently
        assert n_chirps == 1 or min(sizes) >= 2


# A noisy frame of 3 blocks: the noise worker is still drawing after block 0.
NOISY_CHIRPS = 3 * _FFT_BLOCK


def test_noise_worker_is_joined_when_the_frame_completes():
    baseline = threading.active_count()
    synthesize_beat(default_params(), NOISY_CHIRPS, [Target(50.0, 0.0, PLATE)], 1e-6, seed=1)
    assert threading.active_count() == baseline


def test_noise_worker_is_joined_when_the_consumer_stops_early():
    baseline = threading.active_count()
    blocks = _beat_blocks(default_params(), NOISY_CHIRPS, [Target(50.0, 0.0, PLATE)], 1e-6, 1)
    next(blocks)
    assert threading.active_count() == baseline + 1
    blocks.close()
    assert threading.active_count() == baseline


def test_noise_worker_is_joined_after_a_target_error(monkeypatch):
    started, draws = [], fmcw._noise_draws

    def noise_draws(*args):
        started.append(True)
        return draws(*args)

    monkeypatch.setattr(fmcw, "_noise_draws", noise_draws)
    baseline = threading.active_count()
    scene = [Target(50.0, 0.0, PLATE), Target(2.0 * MAX_UNAMBIGUOUS_M, 0.0, PLATE)]
    with pytest.raises(ConfigurationError, match="target 1 .* exceeds Nyquist"):
        synthesize_beat(default_params(), NOISY_CHIRPS, scene, noise_power=1e-6, seed=1)
    assert started  # the second target is refused after the worker started
    assert threading.active_count() == baseline


def test_noise_worker_error_reaches_the_caller():
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(-1)
    baseline = threading.active_count()
    # synthesize_beat refuses seed=-1 itself; the generator takes it as given.
    with pytest.raises(ValueError) as raised:
        list(_beat_blocks(default_params(), 64, [], 1e-6, -1))
    assert str(raised.value) == str(expected.value)
    assert threading.active_count() == baseline


def test_noise_worker_draw_error_reaches_the_consumer(monkeypatch):
    draws, calls = fmcw._noise_draws, []

    def noise_draws(*args):
        calls.append(True)
        if len(calls) == 2:
            raise RuntimeError("block 1 failed")
        return draws(*args)

    monkeypatch.setattr(fmcw, "_noise_draws", noise_draws)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="block 1 failed"):
        list(_beat_blocks(default_params(), NOISY_CHIRPS, [Target(50.0, 0.0, PLATE)], 1e-6, 1))
    assert len(calls) == 2  # the worker stops at its error
    assert threading.active_count() == baseline


def test_noise_worker_runs_at_most_two_blocks_ahead(monkeypatch):
    draws, calls = fmcw._noise_draws, []

    def noise_draws(*args):
        calls.append(True)
        return draws(*args)

    monkeypatch.setattr(fmcw, "_noise_draws", noise_draws)
    # Eight blocks, so a worker that ran further ahead would draw more than 3.
    blocks = _beat_blocks(default_params(), 8 * _FFT_BLOCK, [Target(50.0, 0.0, PLATE)], 1e-6, 1)
    next(blocks)  # the consumer holds block 0
    time.sleep(0.1)  # a longer wait could only let the worker draw more
    assert len(calls) <= 3  # block 0, then one block into each of the two buffers
    blocks.close()


def test_concurrent_noisy_frames_keep_their_seeded_draws():
    # More consumers than cores, each with its own noise worker, switching
    # threads often: a noise buffer refilled before its block had been
    # summed would change that block's bits.  With no target each block is
    # its noise alone, checked against the consumer's own serial draw.
    params = default_params()
    sigma = math.sqrt(1e-2)
    mismatched = {}

    def consume(seed):
        rng = np.random.default_rng(seed)
        mismatched[seed] = sum(
            not np.array_equal(block, rng.normal(0.0, sigma, block.shape))
            for _, block in _beat_blocks(params, 16 * _FFT_BLOCK, [], 1e-2, seed)
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumers = [threading.Thread(target=consume, args=(seed,)) for seed in range(6)]
        for consumer in consumers:
            consumer.start()
        for consumer in consumers:
            consumer.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(consumer.is_alive() for consumer in consumers)
    assert mismatched == dict.fromkeys(range(6), 0)


def test_noiseless_frame_starts_no_thread():
    baseline = threading.active_count()
    blocks = _beat_blocks(default_params(), NOISY_CHIRPS, [Target(50.0, 0.0, PLATE)], 0.0, None)
    next(blocks)
    assert threading.active_count() == baseline
    blocks.close()


@pytest.mark.parametrize(
    "target, what",
    [(Target(5e-324, 0.0, PLATE), "amplitudes"), (Target(50.0, 1e308, PLATE), "phases")],
)
def test_non_finite_per_chirp_values_name_the_target(target, what):
    params = default_params()
    with pytest.raises(ConfigurationError, match=f"target 1 at .*per-chirp {what} are not finite"):
        synthesize_beat(params, 4, [Target(50.0, 0.0, PLATE), target])


def test_bin_noise_sigma_matches_monte_carlo():
    params = default_params()
    predicted = bin_noise_sigma(params, 1e-4)
    rng_values = []
    for seed in range(40):
        signal = synthesize_beat(params, 1, [], noise_power=1e-4, seed=seed)
        profile = range_profile(signal)
        rng_values.extend(np.abs(profile.values[5:-5]) ** 2)
    measured = math.sqrt(float(np.mean(rng_values)))
    assert math.isclose(measured, predicted, rel_tol=0.02)


def test_max_detection_range_gain_ratios():
    # weak plate echo so the base range sits well inside the unambiguous cap
    params = default_params()
    base = Target(10.0, 0.0, PlateReflector(0.025, incidence_angle_deg=30.0))
    r0 = max_detection_range(params, base, noise_power=2e-8)
    assert 20.0 < r0 < 30.0, f"base range {r0} m left the calibrated window"
    ratio_oracle = {6.0: 1.9952623149688795, 20.0: 10.0}
    for gain_db, expected in ratio_oracle.items():
        boosted = Target(
            10.0,
            0.0,
            PlateReflector(
                0.025,
                incidence_angle_deg=30.0,
                incident_amplitude=10.0 ** (gain_db / 20.0),
            ),
        )
        r = max_detection_range(params, boosted, noise_power=2e-8)
        assert math.isclose(r / r0, expected, rel_tol=0.01)


def test_max_detection_range_saturates_at_cap():
    params = default_params()
    strong = surface_target(10.0, config=constructive_config())
    r = max_detection_range(params, strong, noise_power=2e-8)
    cap = params.max_unambiguous_range - 2.0 * params.range_bin_m
    assert r == cap


def test_max_detection_range_undetectable_sentinel():
    params = default_params()
    target = surface_target(10.0)
    assert math.isnan(max_detection_range(params, target, noise_power=1e6))


def test_max_detection_range_refuses_a_cap_inside_one_meter():
    # three samples per chirp: a 0.9 m unambiguous range, so the cap lies below 1 m
    params = default_params(sample_rate=6e3)
    with pytest.raises(ConfigurationError, match="1.0 m is beyond the search cap"):
        max_detection_range(params, Target(0.5, 0.0, PLATE))


def test_max_detection_range_warns_about_the_band_once():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = default_params(start_frequency=50e9)
        max_detection_range(params, Target(10.0, 0.0, PLATE))
    assert [w.category for w in caught] == [DesignMismatchWarning]


@pytest.mark.parametrize("chirp_s", [0.3e-3, 0.5e-3, 0.7e-3])
def test_every_chirp_carries_its_own_bits_level(chirp_s):
    # Chirp c starts at c*T; where that rounds just below a bit boundary, a
    # reflector read at start times puts the chirp in the previous bit.
    bits = tuple(int(b) for b in np.random.default_rng(11).integers(0, 2, 2048))
    params = default_params(chirp_duration=chirp_s)
    for per_bit in range(1, 8):
        interval = per_bit * chirp_s
        schedule = encode_bits(bits, LAYOUT, interval)
        reflectors = (
            SurfaceReflector(LAYOUT, schedule=schedule),
            _TwoStateReflector(bits, interval, on_amplitude=1.0, off_amplitude=0.25),
        )
        sent = np.repeat(bits, per_bit) == 1
        for reflector in reflectors:
            [(amps, _, _)] = fmcw._tones(params, len(sent), [Target(10.0, 0.0, reflector)])
            levels = np.where(sent, amps.max(), amps.min())
            assert amps.max() > amps.min()
            assert np.array_equal(amps, levels), (
                f"{type(reflector).__name__} at {per_bit} x {chirp_s} s: first wrong "
                f"chirp {np.flatnonzero(amps != levels)[:1]}"
            )


def test_surface_reflector_holds_the_last_state_past_the_schedule_end():
    # The float just below the end of 33 bits of 0.9 ms divides back to
    # 33.0, which config_at would put past the end.
    schedule = encode_bits((1,) * 32 + (0,), LAYOUT, 0.9e-3)
    reflector = SurfaceReflector(LAYOUT, schedule=schedule)
    amps = reflector.amplitudes(np.array([0.0, 29.0e-3, 29.7e-3, 33e-3]), 24e9)
    assert amps[0] > amps[1]
    assert np.array_equal(amps[1:], np.full(3, amps[1]))


def test_surface_reflector_refuses_a_schedule_and_a_config_together():
    schedule = encode_bits((1, 0), LAYOUT, 1e-3)
    with pytest.raises(ConfigurationError, match="^give either a schedule or a static config$"):
        SurfaceReflector(LAYOUT, schedule=schedule, config=constructive_config())


def test_range_profile_refuses_a_zero_pad_below_one():
    signal = synthesize_beat(default_params(), 1, [Target(50.0, 0.0, PLATE)])
    with pytest.raises(ConfigurationError, match="^zero_pad must be an integer >= 1, got 0$"):
        range_profile(signal, zero_pad=0)


def test_surface_reflector_evaluates_its_states_in_one_field_call(monkeypatch):
    calls = {"response_matrix": 0, "config_at": 0}

    def counted(name):
        fn = getattr(fmcw, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(fmcw, name, wrapper)

    counted("response_matrix")
    counted("config_at")
    times = np.arange(8) * 0.5e-3
    schedule = encode_bits((1, 0, 0, 1), LAYOUT, 1e-3)
    for reflector, config_ats in (
        (SurfaceReflector(LAYOUT), 0),
        (SurfaceReflector(LAYOUT, config=destructive_config(LAYOUT)), 0),
        (SurfaceReflector(LAYOUT, schedule=schedule), 8),
    ):
        calls.update(response_matrix=0, config_at=0)
        reflector.amplitudes(times, 24e9)
        assert calls == {"response_matrix": 1, "config_at": config_ats}


def test_range_processing_refuses_two_samples():
    # a 2-point Hann window is all zeros, and the profile scaling divides by its sum
    params = default_params(sample_rate=2 / 0.5e-3)
    signal = synthesize_beat(params, 2, [])
    with pytest.raises(ConfigurationError, match="at least 3 samples"):
        range_profile(signal)
    with pytest.raises(ConfigurationError, match="at least 3 samples"):
        bin_noise_sigma(params, 1e-6)


def test_range_doppler_csv(tmp_path):
    params = default_params()
    signal = synthesize_beat(params, 4, [surface_target(50.0)])
    rdmap = range_doppler(signal)
    path = tmp_path / "rd.csv"
    write_range_doppler_csv(rdmap, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "range_m,velocity_mps,mag_db"
    assert len(lines) == 1 + 501 * 4
    dbs = magnitude_db(rdmap.values)
    oracle = "range_m,velocity_mps,mag_db\n" + "".join(
        f"{r:.12g},{v:.12g},{dbs[i, j]:.12g}\n"
        for i, r in enumerate(rdmap.ranges_m)
        for j, v in enumerate(rdmap.velocities_mps)
    )
    assert text == oracle


def _reference_detect(ranges, velocities, values, threshold_db):
    """Per-cell loops over strict local maxima: the oracle for detect.

    velocities is None for a 1-D profile (two range neighbours, velocity
    NaN); otherwise values is ranges x velocities and a peak must also beat
    its two velocity neighbours.
    """
    from vanatta.fmcw import _parabolic_peak

    grid = values[:, None] if velocities is None else values
    mags = np.abs(grid)
    n, m = mags.shape
    if n < 3 or (velocities is not None and m < 3):
        return []
    floor = float(np.median(mags))
    columns = [0] if velocities is None else range(1, m - 1)
    found = []
    for i in range(1, n - 1):
        for j in columns:
            around = [mags[i - 1, j], mags[i + 1, j]]
            if velocities is not None:
                around += [mags[i, j - 1], mags[i, j + 1]]
            if not (mags[i, j] > 0.0 and all(mags[i, j] > a for a in around)):
                continue
            snr = math.inf if floor == 0.0 else 20.0 * math.log10(mags[i, j] / floor)
            if snr < threshold_db:
                continue
            delta, peak_db = _parabolic_peak(magnitude_db(grid[:, j]), i)
            velocity = math.nan if velocities is None else float(velocities[j])
            found.append(
                (float(ranges[i] + delta * (ranges[1] - ranges[0])), velocity,
                 10.0 ** (peak_db / 20.0), snr)
            )
    return found


@pytest.mark.parametrize("trial", range(40))
def test_detect_matches_per_cell_reference(trial):
    rng = np.random.default_rng(trial)
    n, m = int(rng.integers(1, 40)), int(rng.integers(1, 7))
    values = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    if trial % 4 == 0:
        values[rng.random((n, m)) < 0.3] = 0.0
    if trial % 5 == 0:
        values = np.round(values)  # equal neighbours are not peaks
    ranges, velocities = np.arange(n) * 0.6, np.linspace(-3.0, 3.0, m)
    threshold = float(rng.uniform(-5.0, 10.0))

    def as_tuples(hits):
        return [(h.range_m, h.velocity_mps, h.amplitude, h.snr_db) for h in hits]

    got = as_tuples(detect(RangeDopplerMap(ranges, velocities, values), threshold))
    assert got == _reference_detect(ranges, velocities, values, threshold)
    profile = values[:, 0].copy()
    got = as_tuples(detect(RangeProfile(ranges, profile), threshold))
    want = _reference_detect(ranges, None, profile, threshold)
    # NaN != NaN: compare the velocity column separately.
    assert [g[:1] + g[2:] for g in got] == [w[:1] + w[2:] for w in want]
    assert all(math.isnan(g[1]) for g in got)
