"""Field patterns against brute-force and closed-form oracles."""

import cmath
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vanatta.geometry
from vanatta.emfield import write_csv
from vanatta import (
    ConfigurationError,
    ConstraintError,
    DesignMismatchWarning,
    FieldPattern,
    PlaneWave,
    SwitchConfig,
    build_concentric_surface,
    build_linear_array,
    constructive_config,
    destructive_config,
    far_field_amplitude,
    field_pattern,
    gain_over_plate,
    magnitude_db,
    plate_baseline_pattern,
    plate_monostatic_amplitude,
    range_extension,
    response_matrix,
    roundtrip_response,
    scaling_sweep,
    wavelength_of,
    write_pattern_csv,
)

LAM = wavelength_of(24e9)
SQRT_ETA = math.sqrt(0.82)
WAVE30 = PlaneWave(frequency=24e9, incidence_angle_deg=30.0)


def pair_members(layout):
    """Each pair's two elements, lower id first, keyed by pair id."""
    members = {}
    for e in sorted(layout.elements, key=lambda e: e.id):
        members.setdefault(e.pair_id, []).append(e)
    return members


def brute_force_response(layout, config, wave, obs_deg):
    """Independent path enumeration: explicit loop over pairs and directions."""
    k = 2.0 * math.pi / wave.wavelength
    st = math.sin(math.radians(wave.incidence_angle_deg))
    so = math.sin(math.radians(obs_deg))
    lines = {ln.pair_id: ln for ln in layout.lines}
    total = 0.0 + 0.0j
    for pid, (a, b) in sorted(pair_members(layout).items()):
        line = lines[pid]
        length = line.base_electrical_length
        if pid in config.toggled:
            length += layout.wavelength / 2.0
        for p_in, p_out in ((a, b), (b, a)):
            phase = k * (p_in.position[0] * st + length + p_out.position[0] * so)
            total += cmath.exp(-1j * phase)
    return total * wave.amplitude * math.sqrt(layout.absorption_efficiency)


def dirichlet_magnitude(n, spacing, theta_deg, phi_deg, lam):
    psi = (2.0 * math.pi / lam) * spacing * (
        math.sin(math.radians(phi_deg)) - math.sin(math.radians(theta_deg))
    )
    den = math.sin(psi / 2.0)
    if abs(den) < 1e-300:
        return float(n)
    return abs(math.sin(n * psi / 2.0) / den)


def test_roundtrip_matches_brute_force_enumeration():
    rng = np.random.default_rng(21)
    for n_pairs, spacing in ((1, 0.5), (2, 0.5), (3, 0.71), (4, 0.55)):
        layout = build_linear_array(n_pairs, spacing * LAM, LAM)
        configs = [constructive_config()]
        if n_pairs % 2 == 0:
            configs.append(destructive_config(layout))
        for config in configs:
            for _ in range(5):
                theta = float(rng.uniform(-80.0, 80.0))
                obs = float(rng.uniform(-90.0, 90.0))
                wave = PlaneWave(24e9, theta, amplitude=1.3)
                got = roundtrip_response(layout, config, wave, obs)
                want = brute_force_response(layout, config, wave, obs)
                assert cmath.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_retro_response_is_four_times_single_element():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    response = roundtrip_response(layout, constructive_config(), WAVE30, 30.0)
    assert math.isclose(abs(response), 4.0 * SQRT_ETA, rel_tol=1e-12)


def test_retro_magnitude_independent_of_incidence():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    mags = []
    for theta in (-60.0, -30.0, 0.0, 17.0, 45.0, 60.0):
        wave = PlaneWave(24e9, theta)
        mags.append(abs(roundtrip_response(layout, constructive_config(), wave, theta)))
    assert max(mags) - min(mags) <= 1e-12 * max(mags)


def test_destructive_cancels_at_retro_direction():
    for n_pairs in (2, 4):
        layout = build_linear_array(n_pairs, LAM / 2.0, LAM)
        on = abs(roundtrip_response(layout, constructive_config(), WAVE30, 30.0))
        off = abs(roundtrip_response(layout, destructive_config(layout), WAVE30, 30.0))
        assert off <= 1e-12 * on


def test_toggle_involution_recovers_constructive():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    toggled = destructive_config(layout).toggled
    round_tripped = SwitchConfig(frozenset(toggled ^ toggled))
    a = roundtrip_response(layout, round_tripped, WAVE30, 30.0)
    b = roundtrip_response(layout, constructive_config(), WAVE30, 30.0)
    assert a == b


def test_reciprocity_under_direction_swap():
    # swapping every traversal's absorb/re-radiate roles leaves the sum as is
    layout = build_linear_array(3, 0.6 * LAM, LAM)
    for obs in (-40.0, 10.0, 55.0):
        got = roundtrip_response(layout, constructive_config(), WAVE30, obs)
        k = 2.0 * math.pi / WAVE30.wavelength
        st = math.sin(math.radians(WAVE30.incidence_angle_deg))
        so = math.sin(math.radians(obs))
        lines = {ln.pair_id: ln for ln in layout.lines}
        swapped = 0.0 + 0.0j
        for pid, (a, b) in sorted(pair_members(layout).items()):
            length = lines[pid].base_electrical_length
            for p_in, p_out in ((b, a), (a, b)):
                swapped += cmath.exp(
                    -1j * k * (p_in.position[0] * st + length + p_out.position[0] * so)
                )
        swapped *= SQRT_ETA
        assert cmath.isclose(got, swapped, rel_tol=1e-12, abs_tol=1e-12)


def test_field_pattern_matches_dirichlet_kernel():
    grid = np.linspace(-90.0, 90.0, 721)
    for n_pairs in (1, 2, 4):
        n = 2 * n_pairs
        layout = build_linear_array(n_pairs, LAM / 2.0, LAM)
        pattern = field_pattern(layout, constructive_config(), WAVE30, grid)
        mags = pattern.magnitudes()
        for angle, mag in zip(grid, mags):
            oracle = SQRT_ETA * dirichlet_magnitude(n, LAM / 2.0, 30.0, angle, LAM)
            assert abs(mag - oracle) <= 1e-9 * n * SQRT_ETA


def test_field_pattern_peaks_at_incidence():
    grid = np.arange(-90.0, 90.0 + 0.25, 0.5)
    layout = build_linear_array(2, LAM / 2.0, LAM)
    pattern = field_pattern(layout, constructive_config(), WAVE30, grid)
    assert abs(pattern.peak_angle() - 30.0) <= 0.5


def test_field_pattern_value_at_refuses_an_angle_off_the_grid():
    grid = np.arange(-90.0, 90.0 + 0.25, 0.5)
    pattern = field_pattern(build_linear_array(2, LAM / 2.0, LAM), constructive_config(), WAVE30, grid)
    assert pattern.value_at(30.0) == pattern.values[240]
    with pytest.raises(KeyError, match="angle 30.25 deg not on the pattern grid"):
        pattern.value_at(30.25)


@pytest.mark.parametrize("kind", ["incidence", "observation"])
def test_response_matrix_refuses_two_dimensional_angles(kind):
    layout = build_linear_array(2, LAM / 2.0, LAM)
    angles = {"incidence": 30.0, "observation": 0.0}
    angles[kind] = [[0.0, 10.0]]
    with pytest.raises(ValueError, match=f"^{kind} angles must be a scalar or a 1-D array$"):
        response_matrix(layout, (constructive_config(),), 24e9, angles["incidence"], angles["observation"])


def test_destructive_pattern_null_at_incidence():
    grid = np.arange(-90.0, 90.0 + 0.25, 0.5)
    layout = build_linear_array(2, LAM / 2.0, LAM)
    on = field_pattern(layout, constructive_config(), WAVE30, grid)
    off = field_pattern(layout, destructive_config(layout), WAVE30, grid)
    peak = on.magnitudes().max()
    assert abs(off.value_at(30.0)) < 1e-10 * peak


def test_specular_direction_sits_below_retro_peak():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    retro = abs(roundtrip_response(layout, constructive_config(), WAVE30, 30.0))
    specular = abs(roundtrip_response(layout, constructive_config(), WAVE30, -30.0))
    oracle = SQRT_ETA * dirichlet_magnitude(4, LAM / 2.0, 30.0, -30.0, LAM)
    assert specular < retro
    assert abs(specular - oracle) <= 1e-9 * retro


def test_field_pattern_rejects_bad_grids():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    with pytest.raises(ValueError):
        field_pattern(layout, constructive_config(), WAVE30, [])
    with pytest.raises(ValueError):
        field_pattern(layout, constructive_config(), WAVE30, [10.0, 5.0])
    with pytest.raises(ValueError):
        field_pattern(layout, constructive_config(), WAVE30, [-95.0, 0.0])


def test_roundtrip_requires_valid_layout():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    stretched = dataclasses.replace(
        layout.lines[0],
        base_electrical_length=layout.lines[0].base_electrical_length + LAM / 4.0,
    )
    bent = dataclasses.replace(layout, lines=(stretched,) + layout.lines[1:])
    with pytest.raises(ConstraintError):
        roundtrip_response(bent, constructive_config(), WAVE30, 0.0)


def test_config_must_match_layout_switches():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    with pytest.raises(ConfigurationError):
        roundtrip_response(layout, SwitchConfig(frozenset({9})), WAVE30, 0.0)
    with pytest.raises(ConfigurationError):
        # pair 1 exists but carries no switch
        roundtrip_response(layout, SwitchConfig(frozenset({1})), WAVE30, 0.0)


@pytest.mark.parametrize(
    "toggled, message",
    [
        ({0}, "toggled pair 0 does not exist"),
        ({3}, "toggled pair 3 does not exist"),
        ({9}, "toggled pair 9 does not exist"),
        ({2, 7}, "toggled pair 7 does not exist"),
        ({2}, "pair 2 has no switch"),
    ],
    ids=["below", "between", "above", "unknown-before-unswitched", "unswitched"],
)
def test_config_names_an_unknown_or_unswitched_pair(toggled, message):
    """Pairs 2 and 4: unknown ids below, between and above them are refused
    before a known pair without a switch."""
    layout = build_linear_array(2, LAM / 2.0, LAM)
    renumber = {1: 2, 2: 4}
    layout = dataclasses.replace(
        layout,
        elements=tuple(dataclasses.replace(e, pair_id=renumber[e.pair_id]) for e in layout.elements),
        lines=tuple(dataclasses.replace(ln, pair_id=renumber[ln.pair_id]) for ln in layout.lines),
    )
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        roundtrip_response(layout, SwitchConfig(frozenset(toggled)), WAVE30, 0.0)
    assert roundtrip_response(layout, SwitchConfig(frozenset({4})), WAVE30, 0.0) is not None


@pytest.mark.parametrize("pair_id", [2.5, "2", math.nan])
def test_switch_config_refuses_non_integral_pair_ids(pair_id):
    # int() would truncate 2.5 and parse "2" into pair 2, and fail on nan
    # with a bare ValueError.
    with pytest.raises(ConfigurationError, match="pair ids must be integers"):
        SwitchConfig(frozenset({pair_id}))


def test_switch_config_accepts_python_and_numpy_integers():
    config = SwitchConfig({2, np.int64(4)})
    assert config.toggled == frozenset({2, 4})
    assert all(type(i) is int for i in config.toggled)


def test_wavelength_mismatch_warns():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    with pytest.warns(DesignMismatchWarning):
        roundtrip_response(layout, constructive_config(), PlaneWave(30e9, 30.0), 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roundtrip_response(layout, constructive_config(), PlaneWave(25e9, 30.0), 30.0)


def test_plane_wave_validation():
    with pytest.raises(ValueError):
        PlaneWave(0.0, 10.0)
    with pytest.raises(ValueError):
        PlaneWave(24e9, 90.0)
    with pytest.raises(ValueError):
        PlaneWave(24e9, 10.0, amplitude=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            PlaneWave(bad, 10.0)
        with pytest.raises(ValueError):
            PlaneWave(24e9, bad)
        with pytest.raises(ValueError):
            PlaneWave(24e9, 10.0, amplitude=bad)


def test_plate_rejects_a_width_whose_phase_overflows():
    with pytest.raises(ConfigurationError, match="overflows wavenumber"):
        plate_baseline_pattern(1e308, WAVE30, [0.0, 30.0])
    assert math.isfinite(plate_monostatic_amplitude(1e300, WAVE30))


def test_response_matrix_rejects_an_overflowing_field():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    with pytest.raises(ConfigurationError, match="field overflows at amplitude"):
        response_matrix(layout, (constructive_config(),), 24e9, 30.0, [11.0, 30.0], 1e308)
    finite = response_matrix(layout, (constructive_config(),), 24e9, 30.0, [11.0, 30.0], 1e300)
    assert np.isfinite(finite).all()


def test_response_matrix_refuses_a_layout_too_wide_to_resolve_its_switch():
    # k * extent past pi * 2**50 rounds by more than pi/8; well inside it the null holds.
    wide = build_linear_array(2, 1e13, LAM)
    message = r"^layout extent 1500\d+\.\d+ m is too large to resolve its switch$"
    with pytest.raises(ConfigurationError, match=message):
        response_matrix(wide, (constructive_config(),), 24e9, 30.0, 30.0)
    narrow = build_linear_array(2, 1e11, LAM)
    on, off = response_matrix(narrow, (constructive_config(), destructive_config(narrow)), 24e9, 30.0, 30.0)
    assert abs(off[0, 0]) < 1e-2 * abs(on[0, 0])


def test_plate_formula_values():
    # frozen from the physical-optics formula evaluated directly
    assert math.isclose(plate_monostatic_amplitude(0.025, PlaneWave(24e9, 30.0)),
                        0.0011990700417900484, rel_tol=1e-12)
    assert math.isclose(plate_monostatic_amplitude(0.025, PlaneWave(24e9, 0.0)),
                        2.0013845711889124, rel_tol=1e-12)


def test_plate_pattern_peaks_at_normal_and_is_even():
    grid = np.arange(-60.0, 60.0 + 0.25, 0.5)
    pattern = plate_baseline_pattern(0.025, PlaneWave(24e9, 0.0), grid)
    mags = pattern.magnitudes()
    assert pattern.peak_angle() == 0.0
    np.testing.assert_allclose(mags, mags[::-1], rtol=1e-12)


def test_plate_suppressed_near_sinc_null():
    # k * w * sin(30 deg) is within 1% of 2 pi for w = 2.5 cm at 24 GHz
    strong = plate_monostatic_amplitude(0.025, PlaneWave(24e9, 0.0))
    weak = plate_monostatic_amplitude(0.025, PlaneWave(24e9, 30.0))
    assert weak < 1e-2 * strong


def test_far_field_amplitude_scaling():
    assert far_field_amplitude(1.0, 10.0) == 0.1
    assert far_field_amplitude(1.0, 1.0) == 1.0
    assert math.isclose(far_field_amplitude(0.5, 50.0), 0.01, rel_tol=1e-15)
    with pytest.raises(ValueError):
        far_field_amplitude(1.0, 0.0)


def test_far_field_amplitude_refuses_an_overflowing_result():
    # 1 / 1e-320 overflows: the scaled amplitude would be inf.
    with pytest.raises(ConfigurationError, match="overflows at distance 1e-320 m"):
        far_field_amplitude(1.0, 1e-320)
    with pytest.raises(ConfigurationError, match="overflows"):
        far_field_amplitude(1e300, 1e-10)
    with pytest.raises(ConfigurationError, match="overflows"):
        far_field_amplitude(math.nan, 1.0)
    # A tiny distance whose amplitude stays finite still scales.
    assert math.isclose(far_field_amplitude(1.0, 1e-300), 1e300, rel_tol=1e-15)


def test_far_field_product_constant_in_distance():
    for r in (1.0, 3.7, 120.0, 4e3):
        assert math.isclose(far_field_amplitude(2.2, r) * r, 2.2, rel_tol=1e-15)


def test_monostatic_gain_against_po_oracle():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    surface = abs(roundtrip_response(layout, constructive_config(), WAVE30, 30.0))
    gain = gain_over_plate(surface, plate_monostatic_amplitude(0.025, WAVE30))
    oracle = 20.0 * math.log10(4.0 * SQRT_ETA / 0.0011990700417900484)
    assert math.isclose(gain, oracle, rel_tol=1e-12)
    assert math.isclose(gain, 69.6024473010221, rel_tol=1e-12)


def test_gain_over_plate_keeps_the_null_cases():
    assert gain_over_plate(1.0, 0.0) == math.inf
    assert gain_over_plate(0.0, 0.0) == math.inf
    assert gain_over_plate(0.0, 1.0) == -math.inf
    assert gain_over_plate(10.0, 1.0) == 20.0


def test_modulation_depth_exceeds_twelve_db():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    on = abs(roundtrip_response(layout, constructive_config(), WAVE30, 30.0))
    off = abs(roundtrip_response(layout, destructive_config(layout), WAVE30, 30.0))
    depth = math.inf if off == 0.0 else 20.0 * math.log10(on / off)
    assert depth >= 12.2


def test_range_extension_values():
    assert math.isclose(range_extension(11.2), 3.63, abs_tol=0.005)
    assert range_extension(0.0) == 1.0
    assert math.isclose(range_extension(20.0), 10.0, rel_tol=1e-15)


@pytest.mark.parametrize("gain_db", [6200.0, 1e308])
def test_range_extension_refuses_a_factor_past_the_float_range(gain_db):
    with pytest.raises(ConfigurationError) as raised:
        range_extension(gain_db)
    assert str(raised.value) == f"gain {gain_db} dB overflows the range extension"


def test_scaling_sweep_is_exactly_linear():
    results = scaling_sweep([2, 4, 8, 16, 32], LAM / 2.0, WAVE30)
    for n, ratio in results:
        assert math.isclose(ratio, float(n), rel_tol=1e-9)
    ratios = [r for _, r in results]
    assert ratios == sorted(ratios)


def test_scaling_sweep_rejects_odd_counts():
    with pytest.raises(ValueError):
        scaling_sweep([2, 3], LAM / 2.0, WAVE30)


def test_magnitude_db_floor():
    db = magnitude_db(np.array([1.0, 0.0, 10.0]))
    assert db[0] == 0.0
    assert db[1] == -400.0
    assert math.isclose(db[2], 20.0, rel_tol=1e-15)


def test_field_pattern_type_checks():
    with pytest.raises(ValueError):
        FieldPattern(np.array([0.0, 1.0]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        FieldPattern(np.array([1.0, 0.0]), np.array([1.0 + 0j, 2.0 + 0j]))
    with pytest.raises(ValueError):
        FieldPattern(np.array([0.0, 95.0]), np.array([1.0 + 0j, 2.0 + 0j]))


def test_pattern_csv_format(tmp_path):
    layout = build_linear_array(2, LAM / 2.0, LAM)
    pattern = field_pattern(layout, constructive_config(), WAVE30, [-30.0, 0.0, 30.0])
    path = tmp_path / "pattern.csv"
    write_pattern_csv(pattern, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "angle_deg,re_v_per_m,im_v_per_m,mag_v_per_m,mag_db"
    assert len(lines) == 4
    row = lines[3].split(",")
    assert float(row[0]) == 30.0
    mag = math.hypot(float(row[1]), float(row[2]))
    assert math.isclose(mag, float(row[3]), rel_tol=1e-9)
    assert math.isclose(float(row[3]), 4.0 * SQRT_ETA, rel_tol=1e-9)


# The CLI's default 0.25 deg observation grid: (2i - 720) * 90 / 720.
GRID = np.arange(-720, 721, 2) * 90.0 / 720


@settings(max_examples=40, deadline=None)
@given(
    layout=st.one_of(
        st.builds(
            lambda n, f, eta: build_linear_array(n, f * LAM, LAM, absorption_efficiency=eta),
            st.integers(1, 16),
            st.floats(0.5, 1.5),
            st.floats(0.05, 1.0),
        ),
        st.builds(
            lambda m, f, eta: build_concentric_surface(m, f * LAM, LAM, eta),
            st.integers(1, 4),
            st.floats(0.25, 2.0),
            st.floats(0.05, 1.0),
        ),
    ),
    amplitude=st.floats(1e-3, 1e3),
    index=st.integers(1, len(GRID) - 2),
)
def test_generated_layouts_peak_at_retro_and_null_when_switched(layout, amplitude, index):
    # Retro peak N * sqrt(eta) * A at any incidence on the grid, no direction
    # above it (a grating lobe past lambda spacing may equal it), and the
    # exact null of the half-toggled state where the pair count is even.
    configs = [constructive_config()]
    if len(layout.lines) % 2 == 0:
        configs.append(destructive_config(layout))
    values = np.abs(response_matrix(layout, configs, 24e9, GRID[index], GRID, amplitude)[:, 0])
    peak = len(layout.elements) * math.sqrt(layout.absorption_efficiency) * amplitude
    assert math.isclose(values[0, index], peak, rel_tol=1e-12)
    assert values[0].max() <= peak * (1.0 + 1e-12)
    assert values[1:, index].max(initial=0.0) <= 1e-10 * peak


def _switched(layout):
    # Toggle every switched line; for an even pair count this is the
    # destructive state.
    return SwitchConfig(frozenset(ln.pair_id for ln in layout.lines if ln.has_switch))


LAYOUTS = st.one_of(
    st.builds(
        lambda n, f: build_linear_array(n, f * LAM, LAM),
        st.integers(1, 6),
        st.floats(0.5, 1.0),
    ),
    st.builds(
        lambda m, f: build_concentric_surface(m, f * LAM, LAM),
        st.integers(1, 3),
        st.floats(1.0, 2.0),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    layout=LAYOUTS,
    switched=st.lists(st.booleans(), min_size=1, max_size=2),
    thetas=st.lists(
        st.floats(-85.0, 85.0, exclude_min=True, exclude_max=True), min_size=1, max_size=3
    ),
    phis=st.lists(st.floats(-90.0, 90.0), min_size=1, max_size=5),
    amplitude=st.floats(0.1, 10.0),
)
def test_response_matrix_matches_brute_force(layout, switched, thetas, phis, amplitude):
    configs = [_switched(layout) if s else constructive_config() for s in switched]
    got = response_matrix(layout, configs, 24e9, thetas, phis, amplitude)
    assert got.shape == (len(configs), len(thetas), len(phis))
    for c, config in enumerate(configs):
        for i, theta in enumerate(thetas):
            wave = PlaneWave(24e9, theta, amplitude)
            for j, phi in enumerate(phis):
                want = brute_force_response(layout, config, wave, phi)
                assert cmath.isclose(got[c, i, j], want, rel_tol=1e-12, abs_tol=1e-12)


def test_response_matrix_checks_every_angle():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    config = (constructive_config(),)
    for bad in ((), constructive_config()):
        with pytest.raises(ValueError, match="configs must be a non-empty sequence of SwitchConfig"):
            response_matrix(layout, bad, 24e9, [10.0], [0.0])
    with pytest.raises(ValueError, match="incidence angle .* got 95.0"):
        response_matrix(layout, config, 24e9, [10.0, 95.0], [0.0])
    with pytest.raises(ValueError, match="incidence angle .* got nan"):
        response_matrix(layout, config, 24e9, [10.0, math.nan], [0.0])
    with pytest.raises(ValueError, match="observation angle .* got -90.5"):
        response_matrix(layout, config, 24e9, [10.0], [0.0, -90.5])
    with pytest.raises(ValueError, match="frequency"):
        response_matrix(layout, config, math.inf, [10.0], [0.0])
    with pytest.raises(ValueError, match="amplitude"):
        response_matrix(layout, config, 24e9, [10.0], [0.0], amplitude=math.nan)


def test_repeated_responses_validate_a_layout_once(monkeypatch):
    calls = []
    validate = vanatta.geometry.validate_layout

    def counting(layout, *args, **kwargs):
        calls.append(layout)
        return validate(layout, *args, **kwargs)

    monkeypatch.setattr(vanatta.geometry, "validate_layout", counting)
    layout = build_linear_array(4, LAM / 2.0, LAM)
    for theta in (-20.0, 0.0, 35.0):
        wave = PlaneWave(24e9, theta)
        roundtrip_response(layout, constructive_config(), wave, theta)
        field_pattern(layout, destructive_config(layout), wave, [-10.0, 0.0, 10.0])
    response_matrix(layout, (constructive_config(),), 24e9, [0.0, 10.0], [5.0])
    assert len(calls) == 1
    # a replaced layout is a new object and is validated afresh
    roundtrip_response(dataclasses.replace(layout), constructive_config(), WAVE30, 0.0)
    assert len(calls) == 2


def _per_row_pattern_csv(pattern):
    """The per-row f-string formatting over numpy scalars that the bulk
    writer replaces."""
    text = "angle_deg,re_v_per_m,im_v_per_m,mag_v_per_m,mag_db\n"
    dbs = magnitude_db(pattern.values)
    for ang, val, mag, db in zip(pattern.angles_deg, pattern.values, pattern.magnitudes(), dbs):
        text += f"{ang:.12g},{val.real:.12g},{val.imag:.12g},{mag:.12g},{db:.12g}\n"
    return text


def test_pattern_csv_matches_per_row_formatting(tmp_path):
    layout = build_concentric_surface(2, LAM, LAM)
    grid = np.arange(-90.0, 90.125, 0.25)
    grid[grid == 0.0] = -0.0
    values = field_pattern(layout, destructive_config(layout), WAVE30, grid).values
    # Exact zeros (the -400 dB floor), negative zeros and a subnormal.
    values[:4] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -5e-324)]
    pattern = FieldPattern(grid, values)
    path = tmp_path / "pattern.csv"
    write_pattern_csv(pattern, path)
    text = path.read_text()
    assert text == _per_row_pattern_csv(pattern)
    assert "-0," in text and ",-400\n" in text


def _per_row_str_csv(header, row_format, *columns):
    """The per-row str writer that the one bulk bytes format replaces."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return (header + "\n" + "".join([row_format % row for row in rows])).encode()


_CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e308, -1e308]),
)


@settings(max_examples=80, deadline=None)
@example(rows=[])
@given(
    rows=st.lists(
        st.tuples(st.integers(-(2**63), 2**63 - 1), _CSV_FLOATS, _CSV_FLOATS, _CSV_FLOATS),
        max_size=40,
    )
)
def test_write_csv_matches_per_row_str_writer(tmp_path_factory, rows):
    ints = np.array([row[0] for row in rows], dtype=np.int64)
    floats = [np.array([row[i] for row in rows], dtype=float) for i in (1, 2, 3)]
    path = tmp_path_factory.getbasetemp() / "write_csv.csv"
    for header, columns in (
        ("i,a,b,c", (ints, *floats)),
        ("a", floats[:1]),
        ("b,i", (floats[1], ints)),
    ):
        write_csv(path, header, *columns)
        row_format = ",".join(["%.12g"] * len(columns)) + "\n"
        assert path.read_bytes() == _per_row_str_csv(header, row_format, *columns)


def _percent_csv(*columns):
    """Header "h", then Python's bytes %.12g on each row of the columns."""
    row_format = b",".join([b"%.12g"] * len(columns)) + b"\n"
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return b"h\n" + b"".join([row_format % row for row in rows])


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_csv_g_matches_percent_on_raw_bit_patterns(tmp_path_factory, bits):
    # Every float64: nan payloads, infinities, subnormals, both zeros.
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    path = tmp_path_factory.getbasetemp() / "g.csv"
    write_csv(path, "h", values, -values)
    assert path.read_bytes() == _percent_csv(values, -values)


def _int_csv(ints):
    """Header "h", then %d of each integer below 1e12 in magnitude and
    %.12g of the float64 of each larger one."""
    return b"h\n" + b"".join(
        [b"%d\n" % v if abs(v) < 10**12 else b"%.12g\n" % float(v) for v in ints]
    )


@settings(max_examples=100, deadline=None)
@example(ints=[-(2**63), 2**63 - 1, 0, -1, 9, 10, 10**12 - 1, -(10**12) + 1, 10**12, -(10**18)])
@given(
    ints=st.lists(
        st.one_of(st.integers(-(10**12), 10**12), st.integers(-(2**63), 2**63 - 1)),
        min_size=1,
        max_size=50,
    )
)
def test_csv_d_matches_percent_over_int64(tmp_path_factory, ints):
    column = np.array(ints, dtype=np.int64)
    path = tmp_path_factory.getbasetemp() / "d.csv"
    write_csv(path, "h", column)
    assert path.read_bytes() == _int_csv(ints)


def test_csv_d_prints_integral_floats_as_percent(tmp_path):
    # Below 1e12 an integral float prints as its %d, and from 1e12 on as
    # twelve digits; -0.0 keeps its sign.
    ints = [2, -7, 10**12 - 1, -(10**12) + 1, 10**12, 123456789012345, 2**62]
    write_csv(tmp_path / "d.csv", "h", np.array(ints, dtype=float))
    assert (tmp_path / "d.csv").read_bytes() == _int_csv(ints)
    write_csv(tmp_path / "z.csv", "h", [-0.0, 0.0])
    assert (tmp_path / "z.csv").read_bytes() == b"h\n-0\n0\n"


def _ties_and_powers(digits):
    """Decimal ties (m + 1/2) * 10**k of `digits`-digit m, exactly where the
    float holds them, their float neighbours, and 10**k with its neighbours,
    for k in -5..13.  At 12 digits they are the ties of %.12g; shorter ones
    print digits + 1 digits, so every count of trailing zeros is trimmed."""
    mantissas = [10 ** (digits - 1), 10**digits - 1, 10 ** (digits - 1) + 4]
    mantissas += [int("123456789012"[:digits]), int("987654320987"[:digits])]
    values = []
    for k in range(-5, 14):
        for m in mantissas:
            values.append((2 * m + 1) * 10**k / 2 if k >= 0 else (2 * m + 1) / (2 * 10**-k))
        values.append(10.0**k)
    values = np.array(values)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


@pytest.mark.parametrize("digits", range(1, 13))
def test_csv_g_matches_percent_on_ties_and_powers_of_ten(tmp_path, digits):
    values = _ties_and_powers(digits)
    values = np.concatenate([values, -values])
    write_csv(tmp_path / "ties.csv", "h", values)
    assert (tmp_path / "ties.csv").read_bytes() == _percent_csv(values)


def test_write_csv_matches_percent_across_block_edges(tmp_path):
    """Rows are formatted a block at a time: the rows on both sides of a
    block edge and a last short block read as % prints them, and a table of
    no rows is its header alone."""
    from vanatta.emfield import _CSV_BLOCK

    rows = _CSV_BLOCK // 3  # rows per block of a three-column table
    index = np.arange(2 * rows + 5)
    values = np.random.default_rng(23).standard_normal((len(index), 2)) * 1e3
    # nan, both infinities, the least subnormal, a near-tie (13th digit 5)
    # and both zeros, in the four rows before the first edge and, reversed,
    # in the four after it.
    special = [math.nan, math.inf, -math.inf, 5e-324, 0.1234567890125, -0.0, 0.0, 1.0]
    values[rows - 4 : rows + 4] = np.reshape(special + special[::-1], (8, 2))
    write_csv(tmp_path / "edges.csv", "h", index, values[:, 0], values[:, 1])
    expected = _percent_csv(index, values[:, 0], values[:, 1])
    assert (tmp_path / "edges.csv").read_bytes() == expected
    assert expected.count(b"\n") == 2 * rows + 6
    write_csv(tmp_path / "none.csv", "h", np.empty(0), np.empty(0, dtype=np.int64))
    assert (tmp_path / "none.csv").read_bytes() == b"h\n"


def test_write_csv_refuses_columns_of_different_lengths(tmp_path):
    path = tmp_path / "short.csv"
    with pytest.raises(ValueError, match="one length"):
        write_csv(path, "a,b", [1.0, 2.0, 3.0], [4.0, 5.0])
    assert not path.exists()


def test_write_csv_refuses_zero_columns(tmp_path):
    path = tmp_path / "empty.csv"
    with pytest.raises(ValueError, match="one or more"):
        write_csv(path, "h")
    assert not path.exists()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    peak, ratio = capsys.readouterr().out.split()
    assert peak == "30.0"
    assert float(ratio) < 1e-12
