"""End-to-end OOK link: decoding, BER behavior, Doppler and sidelobes."""

import math
import os
import tempfile
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanatta import (
    BeatSignal,
    BitFrame,
    ChirpParams,
    ConfigurationError,
    DecodingError,
    FieldPattern,
    LinkResult,
    LinkScenario,
    RangeDopplerMap,
    RangeProfile,
    SchedulingError,
    SwitchConfig,
    SwitchSchedule,
    build_linear_array,
    config_at,
    constructive_config,
    decode_ook,
    destructive_config,
    doppler_phase_drift,
    encode_bits,
    ook_ber_trial,
    response_matrix,
    run_link,
    two_cluster_centers,
    wavelength_of,
    write_link_report,
    write_per_chirp_csv,
)
from vanatta import fmcw, link
from vanatta.fmcw import Target, _beat_blocks, _profile_matrix

LAM = wavelength_of(24e9)
LAYOUT = build_linear_array(2, LAM / 2.0, LAM)
LAYOUT8 = build_linear_array(4, LAM / 2.0, LAM)


def scenario_for(bits, noise_power=0.0, seed=None, angle=30.0, range_m=25.0):
    schedule = encode_bits(bits, LAYOUT, 1e-3)
    return LinkScenario(
        layout=LAYOUT,
        schedule=schedule,
        params=ChirpParams(),
        range_m=range_m,
        incidence_angle_deg=angle,
        noise_power=noise_power,
        seed=seed,
    )


def test_noiseless_eight_bit_round_trip():
    bits = (1, 0, 1, 1, 0, 0, 1, 0)
    result = run_link(scenario_for(bits))
    assert result.decoded.bits == bits
    assert result.ber == 0.0
    assert result.chirps_per_bit == 2
    assert result.snr_db == math.inf
    assert len(result.per_chirp_amplitudes) == 16


def test_link_timing_two_chirps_per_bit():
    scenario = scenario_for((1, 0, 1))
    assert scenario.chirps_per_bit == 2
    # 0.4 ms is below one 0.5 ms chirp; the link, not the schedule, refuses it.
    for interval in (0.8e-3, 0.4e-3):
        with pytest.raises(SchedulingError, match=f"switch interval {interval} s must be a whole"):
            LinkScenario(
                layout=LAYOUT,
                schedule=encode_bits((1, 0), LAYOUT, interval),
                params=ChirpParams(),
                range_m=25.0,
            )


def test_a_scenario_builds_its_target_and_chirps_per_bit_once(monkeypatch):
    calls = []
    whole_chirps = link.whole_chirps
    monkeypatch.setattr(link, "whole_chirps", lambda *args: calls.append(args) or whole_chirps(*args))
    scenario = scenario_for((1, 0, 1, 0))
    assert calls == [(1e-3, 0.5e-3)]
    reflector = scenario.target.reflector
    assert (scenario.target.range_m, scenario.target.velocity_mps) == (25.0, 0.0)
    assert (reflector.layout, reflector.schedule) == (LAYOUT, scenario.schedule)
    assert (reflector.incidence_angle_deg, reflector.incident_amplitude) == (30.0, 1.0)
    # Derived, so out of the repr and the equality, as SurfaceLayout.arrays is.
    assert "target" not in repr(scenario) and "chirps_per_bit" not in repr(scenario)
    assert scenario == scenario_for((1, 0, 1, 0))
    calls.clear()

    def built_again(*args, **kwargs):
        raise AssertionError("run_link built a reflector or a target")

    monkeypatch.setattr(link, "SurfaceReflector", built_again)
    monkeypatch.setattr(link, "Target", built_again)
    assert run_link(scenario).decoded.bits == (1, 0, 1, 0)
    assert scenario.chirps_per_bit == 2
    assert calls == []


def test_link_with_short_chirps_decodes_at_two_chirps_per_bit():
    # 0.2 ms chirps (400 samples at 2 MHz) at 0.4 ms per bit: a switch
    # interval shorter than the default 0.5 ms chirp is a whole 2 of these.
    bits = tuple(int(b) for b in np.random.default_rng(8).integers(0, 2, 24))
    params = ChirpParams(chirp_duration=0.2e-3)
    scenario = replace(scenario_for(bits), schedule=encode_bits(bits, LAYOUT, 0.4e-3), params=params)
    result = run_link(scenario)
    assert result.chirps_per_bit == 2
    assert result.decoded.bits == bits
    assert result.ber == 0.0
    assert len(result.per_chirp_amplitudes) == 48
    np.testing.assert_array_equal(result.chirp_times, np.arange(48) * 0.2e-3)


@pytest.mark.parametrize(
    "field, value",
    [
        ("range_m", math.nan),
        ("range_m", math.inf),
        ("velocity_mps", math.nan),
        ("noise_power", math.inf),
    ],
)
def test_scenario_rejects_non_finite_inputs(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be"):
        replace(scenario_for((1, 0)), **{field: value})


def test_round_trip_across_incidence_angles():
    bits = tuple(int(b) for b in np.random.default_rng(31).integers(0, 2, 16))
    for angle in (-60.0, -25.0, 0.0, 40.0, 60.0):
        result = run_link(scenario_for(bits, angle=angle))
        assert result.decoded.bits == bits, f"decode failed at {angle} deg"


def test_all_zero_schedule_leaves_only_noise():
    bits = (0, 0, 0, 0)
    result = run_link(scenario_for(bits, noise_power=1e-8, seed=5))
    # destructive state reflects nothing: every chirp amplitude sits at the
    # noise floor, far below the constructive-state return
    on_level = 4.0 * math.sqrt(0.82) / 25.0
    assert result.per_chirp_amplitudes.max() < 1e-2 * on_level


def test_decode_ook_separated_clusters():
    frame = decode_ook([1.0, 1.0, 0.0, 0.0], 2, 0.5)
    assert frame.bits == (1, 0)


def test_decode_ook_single_chirp_threshold_passthrough():
    frame = decode_ook([0.9], 1, threshold=0.5)
    assert frame.bits == (1,)
    frame = decode_ook([0.2], 1, threshold=0.5)
    assert frame.bits == (0,)


def test_decode_ook_rejects_degenerate_input():
    # decode_ook applies the threshold it is given, so identical amplitudes
    # decode; finding no two-means split is two_cluster_centers' refusal.
    assert decode_ook([0.7, 0.7, 0.7, 0.7], 2, 0.5).bits == (1, 1)
    with pytest.raises(TypeError):  # no default threshold to fall back on
        decode_ook([1.0, 0.0], 1)
    with pytest.raises(ValueError):
        decode_ook([1.0, 0.0, 1.0], 2, 0.5)


def test_decode_ook_refuses_zero_chirps_per_bit():
    with pytest.raises(ConfigurationError, match="^chirps_per_bit must be an integer >= 1, got 0$"):
        decode_ook([1.0, 0.0], 0, 0.5)


def test_two_cluster_centers_split():
    lo, hi = two_cluster_centers([0.1, 0.11, 0.09, 1.9, 2.0, 2.1])
    assert math.isclose(lo, 0.1, rel_tol=1e-9)
    assert math.isclose(hi, 2.0, rel_tol=1e-9)
    with pytest.raises(DecodingError):
        two_cluster_centers([1.0, 1.0])


def test_doppler_phase_drift_values():
    drift = doppler_phase_drift(0.006, LAM, 1e-3)
    assert math.isclose(drift, 0.34583925390144404, rel_tol=1e-12)
    assert drift < 1.0
    assert doppler_phase_drift(0.0, LAM, 1e-3) == 0.0
    assert math.isclose(
        doppler_phase_drift(0.006, LAM, 1.0), 1000.0 * drift, rel_tol=1e-12
    )


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_doppler_phase_drift_rejects_non_finite_inputs(value):
    with pytest.raises(ConfigurationError, match="velocity_delta must be finite"):
        doppler_phase_drift(value, LAM, 1e-3)
    with pytest.raises(ConfigurationError, match="wavelength must be positive and finite"):
        doppler_phase_drift(0.006, value, 1e-3)
    with pytest.raises(ConfigurationError, match="interval must be non-negative and finite"):
        doppler_phase_drift(0.006, LAM, value)


def test_retro_peak_dominates_outside_main_lobe():
    n = 8
    sin_t = math.sin(math.radians(20.0))
    grid = np.arange(-90.0, 90.5, 0.5)
    values = response_matrix(LAYOUT8, (constructive_config(),), 24e9, 20.0, [20.0, *grid])[0, 0]
    retro, pattern = np.abs(values[0]), np.abs(values[1:])
    for phi, mag in zip(grid, pattern):
        if abs(math.sin(math.radians(phi)) - sin_t) < 2.0 / n:
            continue
        assert mag < retro, f"sidelobe at {phi} deg reaches the retro peak"


def test_ber_trial_noiseless_and_swamped():
    params = ChirpParams()
    assert ook_ber_trial(params, 60.0, 12.2, 256, seed=1) == 0.0
    swamped = ook_ber_trial(params, -40.0, 12.2, 512, seed=2)
    assert abs(swamped - 0.5) <= 0.05


def test_ber_trial_reproducible():
    params = ChirpParams()
    a = ook_ber_trial(params, -20.0, 12.2, 128, seed=7)
    b = ook_ber_trial(params, -20.0, 12.2, 128, seed=7)
    assert a == b


def test_ber_trial_refuses_a_single_bit():
    with pytest.raises(ConfigurationError, match="^n_bits must be an integer >= 2, got 1$"):
        ook_ber_trial(ChirpParams(), 20.0, 12.2, 1, seed=1)


@pytest.mark.parametrize(
    "snr_db, depth_db, name",
    [(-math.inf, 12.2, "per_chirp_snr_db must be finite"), (-20.0, math.inf, "depth_db must be finite")],
)
def test_ber_trial_rejects_non_finite_operating_points(snr_db, depth_db, name):
    # The CLI tests cover NaN and the finite extremes through the SNR sweep.
    with pytest.raises(ConfigurationError, match=name):
        ook_ber_trial(ChirpParams(), snr_db, depth_db, 16, seed=1)


def test_measured_snr_survives_residual_squares_past_the_float_range():
    # Three samples per chirp put each bin near 2 sigma |z|; at this noise
    # power the squared residuals sum past the float range.
    params = ChirpParams(bandwidth=1e6, sample_rate=6e3)
    noisy = scenario_for((1, 0) * 8, noise_power=1e308, seed=1)
    scenario = replace(noisy, params=params)
    result = run_link(scenario)
    assert math.isfinite(result.snr_db)
    amps = result.per_chirp_amplitudes
    c_lo, c_hi = two_cluster_centers(amps)
    with np.errstate(over="ignore"):
        residual = amps - np.where(amps > result.threshold, c_hi, c_lo)
        assert np.isinf(np.sum(residual**2))


def test_link_peak_memory_stays_below_one_frame():
    bits = tuple(int(b) for b in np.random.default_rng(4).integers(0, 2, 1024))
    scenario = scenario_for(bits, noise_power=1e-6, seed=9)
    frame_bytes = 2048 * scenario.params.samples_per_chirp * 8
    run_link(scenario)  # warm up: the first call may allocate lasting caches
    tracemalloc.start()
    try:
        result = run_link(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.decoded.bits == bits
    assert peak < frame_bytes, f"peak {peak / 1e6:.1f} MB, one frame {frame_bytes / 1e6:.1f} MB"


def _full_magnitudes(params, n_chirps, targets, noise_power, seed):
    """The frame's chirps x bins magnitude matrix, held whole: the reference
    that the streamed bin choice must match bit for bit."""
    mags = np.empty((n_chirps, params.samples_per_chirp // 2 + 1))
    for lo, block in _beat_blocks(params, n_chirps, targets, noise_power, seed):
        spectra = _profile_matrix(params, block)[1]
        np.abs(spectra, out=mags[lo : lo + len(block)])
    return mags


def _reference_amplitudes(*frame):
    mags = _full_magnitudes(*frame)
    return mags[:, np.argmax(mags.mean(axis=0))]


@pytest.mark.parametrize("block", [1, 7, 64, 130])
def test_streamed_bin_means_equal_the_full_matrix_mean(monkeypatch, block):
    # Blocks of 1, 7, 64 and the whole 130-chirp frame; the beat rows of a
    # block size differ in their last bits, so the reference uses the same.
    monkeypatch.setattr(fmcw, "_FFT_BLOCK", block)
    monkeypatch.setattr(link, "_FFT_BLOCK", block)
    bits = tuple(int(b) for b in np.random.default_rng(26).integers(0, 2, 65))
    schedule = encode_bits(bits, LAYOUT, 1e-3)
    reflector = fmcw.SurfaceReflector(LAYOUT, schedule, incidence_angle_deg=30.0)
    frame = (ChirpParams(), 130, [Target(25.0, 0.0, reflector)], 1e-4, 26)
    mags = _full_magnitudes(*frame)
    means, columns = link._bin_columns(*frame, 0, 501)
    np.testing.assert_array_equal(means, mags.mean(axis=0))
    np.testing.assert_array_equal(columns, mags)


def _recorded_extractions(monkeypatch):
    """Record (frame, amplitudes, seed of each pass) of every bin extraction."""
    calls, seeds = [], []
    extract = link._extract_bin_amplitudes

    def counted_blocks(*frame):
        seeds.append(frame[4])
        return _beat_blocks(*frame)

    def recorded(*frame):
        seeds.clear()
        amps = extract(*frame)
        calls.append((frame, amps, list(seeds)))
        return amps

    monkeypatch.setattr(link, "_beat_blocks", counted_blocks)
    monkeypatch.setattr(link, "_extract_bin_amplitudes", recorded)
    return calls


def _plates(*scene):
    """Bin extraction of a noisy 128-chirp frame of plates, each (range_m, width)."""
    targets = [Target(r, 0.0, fmcw.PlateReflector(width)) for r, width in scene]
    return link._extract_bin_amplitudes(ChirpParams(), 128, targets, 1e-6, 37)


@pytest.mark.parametrize(
    "run, passes",
    [
        (lambda: run_link(scenario_for((1, 0, 1, 1, 0, 0, 1, 0), noise_power=1e-6, seed=3)), 1),
        (lambda: run_link(scenario_for((0, 0, 0, 0), noise_power=1e-8, seed=5)), 2),
        # The default SNR sweep's -30 dB point: the noise outshines the tag.
        (lambda: ook_ber_trial(ChirpParams(), -30.0, 12.2, 256, 2, 12345), 2),
        # Only the tag's lobe (bin 42) is kept, so the brighter plate behind
        # it, whose bin 67 is the strongest, takes the second pass.
        (lambda: _plates((25.0, 0.005), (40.0, 0.05)), 2),
        # Lobes clipped by the spectrum's ends: bins 0-3 and 498-500.
        (lambda: _plates((0.6, 0.05)), 1),
        (lambda: _plates((ChirpParams().max_unambiguous_range, 0.05)), 1),
    ],
    ids=["tag", "all-zero", "swamped", "brighter-second-target", "first-bins", "nyquist-bin"],
)
def test_bin_extraction_equals_the_full_matrix_choice(monkeypatch, run, passes):
    calls = _recorded_extractions(monkeypatch)
    run()
    [(frame, amps, seeds)] = calls
    assert len(seeds) == passes
    np.testing.assert_array_equal(amps, _reference_amplitudes(*frame))


@pytest.mark.parametrize("seed", [np.random.SeedSequence(0x2626), None], ids=["fixed-entropy", "none"])
def test_second_pass_redraws_the_first_pass_noise(monkeypatch, seed):
    # No target, so no bin is kept in the first pass.
    calls = _recorded_extractions(monkeypatch)
    frame = (ChirpParams(), 96, [], 1e-6, seed)
    link._extract_bin_amplitudes(*frame)
    [(_, amps, seeds)] = calls
    assert len(seeds) == 2 and seeds[0] is seeds[1]
    assert isinstance(seeds[0], np.random.SeedSequence)
    np.testing.assert_array_equal(amps, _reference_amplitudes(*frame[:4], seeds[0]))


def test_link_report_and_csv(tmp_path):
    bits = (1, 0, 1, 1)
    result = run_link(scenario_for(bits))
    report = tmp_path / "report.txt"
    write_link_report(result, report)
    text = report.read_text()
    assert "transmitted_bits = 1011" in text
    assert "decoded_bits = 1011" in text
    assert "ber = 0" in text

    csv_path = tmp_path / "chirps.csv"
    write_per_chirp_csv(result, csv_path)
    text = csv_path.read_text()
    lines = text.splitlines()
    assert lines[0] == "chirp_index,time_s,amplitude,bit_index"
    assert len(lines) == 9
    # Byte for byte what per-row f-strings over numpy scalars give.
    oracle = "chirp_index,time_s,amplitude,bit_index\n" + "".join(
        f"{i},{t:.12g},{a:.12g},{i // result.chirps_per_bit}\n"
        for i, (t, a) in enumerate(zip(result.chirp_times, result.per_chirp_amplitudes))
    )
    assert text == oracle
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "0"


@dataclass(frozen=True)
class _PerChirpReflector:
    """SurfaceReflector.amplitudes as a per-chirp Python loop: one config_at
    call and two state hashes per chirp."""

    layout: object
    schedule: SwitchSchedule
    incidence_angle_deg: float

    def amplitudes(self, chirp_times, frequency):
        last = (self.schedule.n_bits - 0.5) * self.schedule.switch_interval
        states = [config_at(self.schedule, t) for t in np.minimum(chirp_times, last).tolist()]
        index = {state: i for i, state in enumerate(dict.fromkeys(states))}
        theta = self.incidence_angle_deg
        values = response_matrix(self.layout, tuple(index), frequency, theta, theta, 1.0)
        return np.abs(values[:, 0, 0])[[index[state] for state in states]]


def _per_bit_files(bits, chirps_per_bit, noise_power, seed):
    """(link_report.txt, per_chirp.csv) of the frame, each step of the bit
    path written as a per-bit or per-chirp Python loop."""
    on, off = constructive_config(), destructive_config(LAYOUT)
    params = ChirpParams()
    interval = chirps_per_bit * params.chirp_duration
    schedule = SwitchSchedule(interval, tuple(on if b == 1 else off for b in bits))
    sent = tuple(int(not state.toggled) for state in schedule.states)
    n_chirps = len(bits) * chirps_per_bit
    target = Target(25.0, 0.0, _PerChirpReflector(LAYOUT, schedule, 30.0))
    amps = link._extract_bin_amplitudes(params, n_chirps, [target], noise_power, seed)
    c_lo, c_hi = two_cluster_centers(amps)
    threshold = 0.5 * (c_lo + c_hi)
    means = amps.reshape(-1, chirps_per_bit).mean(axis=1)
    decoded = tuple(int(m > threshold) for m in means)
    errors = sum(d != s for d, s in zip(decoded, sent))
    report = (
        f"transmitted_bits = {''.join(str(b) for b in sent)}\n"
        f"decoded_bits = {''.join(str(b) for b in decoded)}\n"
        f"n_bits = {len(sent)}\n"
        f"chirps_per_bit = {chirps_per_bit}\n"
        f"ber = {errors / len(sent):.12g}\n"
        f"snr_db = {link._measured_snr_db(amps, threshold, c_lo, c_hi):.12g}\n"
        f"threshold = {threshold:.12g}\n"
    )
    times = np.arange(n_chirps) * params.chirp_duration
    csv = "chirp_index,time_s,amplitude,bit_index\n" + "".join(
        f"{i},{t:.12g},{a:.12g},{i // chirps_per_bit}\n" for i, (t, a) in enumerate(zip(times, amps))
    )
    return report, csv


@settings(max_examples=25, deadline=None)
@given(
    bits=st.integers(1, 1024).flatmap(
        lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    ),
    chirps_per_bit=st.integers(1, 4),
    noise_power=st.sampled_from([0.0, 1e-6]),
    seed=st.integers(0, 2**32),
)
def test_link_files_equal_the_per_bit_formulas(bits, chirps_per_bit, noise_power, seed):
    params = ChirpParams()
    schedule = encode_bits(bits, LAYOUT, chirps_per_bit * params.chirp_duration)
    scenario = LinkScenario(LAYOUT, schedule, params, 25.0, 30.0, 0.0, noise_power, seed)
    try:
        want = _per_bit_files(bits, chirps_per_bit, noise_power, seed)
    except DecodingError:  # one amplitude level: no two-means split
        with pytest.raises(DecodingError):
            run_link(scenario)
        return
    with tempfile.TemporaryDirectory() as tmp:
        report, csv = os.path.join(tmp, "link_report.txt"), os.path.join(tmp, "per_chirp.csv")
        result = run_link(scenario)
        write_link_report(result, report)
        write_per_chirp_csv(result, csv)
        with open(report) as fh_report, open(csv) as fh_csv:
            assert (fh_report.read(), fh_csv.read()) == want


def test_reflector_asks_one_config_per_distinct_state(monkeypatch):
    # Equal states held by distinct objects are one config; first-seen order.
    on, off = constructive_config(), destructive_config(LAYOUT)
    states = (off, SwitchConfig(frozenset()), off, on, SwitchConfig(off.toggled))
    schedule = SwitchSchedule(1e-3, states)
    asked = []

    def recorded(layout, configs, *args):
        asked.append(configs)
        return response_matrix(layout, configs, *args)

    monkeypatch.setattr(fmcw, "response_matrix", recorded)
    reflector = fmcw.SurfaceReflector(LAYOUT, schedule, incidence_angle_deg=30.0)
    times = np.arange(10) * 0.5e-3
    amps = reflector.amplitudes(times, 24e9)
    [configs] = asked
    assert configs == (off, on)
    want = _PerChirpReflector(LAYOUT, schedule, 30.0).amplitudes(times, 24e9)
    np.testing.assert_array_equal(amps, want)


def test_array_records_compare_by_identity():
    # Records holding arrays take object's == and hash: two equal-valued
    # records are unequal, and each is its own set member.
    makers = (
        lambda: FieldPattern(np.array([0.0, 1.0]), np.array([1j, 2.0])),
        lambda: BeatSignal(ChirpParams(), np.zeros((2, 1000))),
        lambda: RangeProfile(np.arange(3.0), np.zeros(3, complex)),
        lambda: RangeDopplerMap(np.arange(3.0), np.arange(2.0), np.zeros((3, 2), complex)),
        lambda: LinkResult(np.ones(2), np.arange(2.0), (1,), BitFrame((1,)), 0.0, 1.0, 0.5, 2),
    )
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b, a}) == 2
