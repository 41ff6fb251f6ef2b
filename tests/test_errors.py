"""The one number rule: every public entry refuses a bool, an int past
float64 or int64, a non-finite real and, for counts, a fraction with a
ConfigurationError that names the argument."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import from_dtype

from vanatta import (
    BitFrame,
    ChirpParams,
    ConfigurationError,
    LinkScenario,
    PlaneWave,
    PlateReflector,
    SurfaceReflector,
    SwitchConfig,
    Target,
    build_concentric_surface,
    build_linear_array,
    decode_ook,
    detect,
    doppler_phase_drift,
    encode_bits,
    far_field_amplitude,
    field_pattern,
    max_detection_range,
    ook_ber_trial,
    plate_baseline_pattern,
    range_profile,
    response_matrix,
    synthesize_beat,
    validate_layout,
    wavelength_of,
)
from vanatta.errors import check_count, check_finite, check_integers
from vanatta.geometry import _column

LAM = wavelength_of(24e9)
LAYOUT = build_linear_array(2, LAM / 2.0, LAM)
PARAMS = ChirpParams()
TARGET = Target(50.0, 0.0, PlateReflector(0.025))
SIGNAL = synthesize_beat(PARAMS, 4, [TARGET])
AMPS = [1.0, 1.0, 0.0, 0.0]
WAVE = PlaneWave(24e9, 30.0)


def _scenario(seed=None, incidence=0.0, amplitude=1.0):
    schedule = encode_bits((1, 0), LAYOUT, 1e-3)
    return LinkScenario(
        LAYOUT, schedule, PARAMS, 50.0, incidence, seed=seed, incident_amplitude=amplitude
    )


# The constructors that take an incidence angle, each refusing a bad one at once.
INCIDENCE = {
    "PlaneWave": lambda v: PlaneWave(24e9, v),
    "SurfaceReflector": lambda v: SurfaceReflector(LAYOUT, incidence_angle_deg=v),
    "PlateReflector": lambda v: PlateReflector(0.01, incidence_angle_deg=v),
    "LinkScenario": lambda v: _scenario(incidence=v),
}


# (argument name, call with the value, whether the argument is a count)
ENTRIES = {
    "wavelength_of": ("frequency", wavelength_of, False),
    "build_linear_array-n_pairs": ("n_pairs", lambda v: build_linear_array(v, LAM / 2, LAM), True),
    "build_linear_array-spacing": ("spacing", lambda v: build_linear_array(2, v, 1.0), False),
    "build_concentric_surface": ("n_rings", lambda v: build_concentric_surface(v, LAM, LAM), True),
    "PlaneWave-frequency": ("frequency", lambda v: PlaneWave(v, 0.0), False),
    **{
        f"{entry}-incidence": ("incidence_angle_deg", call, False)
        for entry, call in INCIDENCE.items()
    },
    "Target": ("range_m", lambda v: Target(v, 0.0, TARGET.reflector), False),
    "encode_bits": ("switch_interval", lambda v: encode_bits((1, 0), LAYOUT, v), False),
    "doppler_phase_drift": ("velocity_delta", lambda v: doppler_phase_drift(v, LAM, 1e-3), False),
    "response_matrix": (
        "amplitude",
        lambda v: response_matrix(LAYOUT, (SwitchConfig(),), 24e9, 0.0, 0.0, amplitude=v),
        False,
    ),
    "response_matrix-incidence": (
        "incidence angle",
        lambda v: response_matrix(LAYOUT, (SwitchConfig(),), 24e9, v, 0.0),
        False,
    ),
    "field_pattern": (
        "observation angle",
        lambda v: field_pattern(LAYOUT, SwitchConfig(), WAVE, [v]),
        False,
    ),
    "plate_baseline_pattern": (
        "observation angle",
        lambda v: plate_baseline_pattern(0.025, WAVE, [v, 2]),
        False,
    ),
    "validate_layout": ("tolerance", lambda v: validate_layout(LAYOUT, v), False),
    "SwitchConfig": ("pair ids", lambda v: SwitchConfig(frozenset({v})), True),
    "BitFrame": ("bits", lambda v: BitFrame((v, 0)), True),
    "ChirpParams": ("start_frequency", lambda v: ChirpParams(start_frequency=v), False),
    "PlateReflector": ("width", PlateReflector, False),
    "far_field_amplitude": ("distance", lambda v: far_field_amplitude(1.0, v), False),
    "decode_ook-chirps_per_bit": ("chirps_per_bit", lambda v: decode_ook(AMPS, v, 0.5), True),
    "decode_ook-threshold": ("threshold", lambda v: decode_ook(AMPS, 2, v), False),
    "ook_ber_trial-n_bits": ("n_bits", lambda v: ook_ber_trial(PARAMS, 20.0, 12.2, v), True),
    "ook_ber_trial-chirps_per_bit": (
        "chirps_per_bit",
        lambda v: ook_ber_trial(PARAMS, 20.0, 12.2, 8, chirps_per_bit=v),
        True,
    ),
    "ook_ber_trial-seed": ("seed", lambda v: ook_ber_trial(PARAMS, 20.0, 12.2, 8, seed=v), True),
    "synthesize_beat-n_chirps": ("n_chirps", lambda v: synthesize_beat(PARAMS, v, []), True),
    "synthesize_beat-seed": ("seed", lambda v: synthesize_beat(PARAMS, 4, [], 1e-6, v), True),
    "LinkScenario-seed": ("seed", _scenario, True),
    "LinkScenario-incident_amplitude": (
        "incident_amplitude",
        lambda v: _scenario(amplitude=v),
        False,
    ),
    "range_profile-chirp_index": ("chirp_index", lambda v: range_profile(SIGNAL, v), True),
    "range_profile-zero_pad": ("zero_pad", lambda v: range_profile(SIGNAL, 0, v), True),
    "detect": ("threshold_db", lambda v: detect(range_profile(SIGNAL), v), False),
    "max_detection_range": (
        "threshold_db",
        lambda v: max_detection_range(PARAMS, TARGET, threshold_db=v),
        False,
    ),
}

CASES = [
    pytest.param(entry, value, id=f"{entry}-{label}")
    for entry, (_, _, count) in ENTRIES.items()
    for label, value in [("true", True), ("nan", math.nan), ("text", "30")]
    # numpy takes a seed of any size, so a seed is refused only below 0.
    + ([("negative", -1)] if entry.endswith("seed") else [("huge", 10**400)])
    + ([("fraction", 2.5)] if count else [])
]


@pytest.mark.parametrize("entry, value", CASES)
def test_every_entry_refuses_what_the_number_rule_refuses(entry, value):
    name, call, _ = ENTRIES[entry]
    with pytest.raises(ConfigurationError, match=f"^{name} must .*, got "):
        call(value)


def test_the_entries_still_take_their_usual_values():
    # The refusals above are not a blanket refusal: the same calls run with
    # a plain value, a numpy scalar or a seed of 0 or 10**400.
    assert wavelength_of(np.float64(24e9)) == LAM
    assert build_linear_array(np.int64(2), LAM / 2, LAM).n_pairs == 2
    assert SwitchConfig(frozenset({np.int64(2)})).toggled == {2}
    assert decode_ook(AMPS, 2, np.float32(0.5)).bits == (1, 0)
    assert range_profile(SIGNAL, np.int64(3), np.int64(2)).values.size == PARAMS.samples_per_chirp + 1
    assert synthesize_beat(PARAMS, 4, [], 1e-6, 0).samples.shape == SIGNAL.samples.shape
    assert _scenario(0).seed == 0
    assert _scenario(10**400).seed == 10**400
    assert ook_ber_trial(PARAMS, 20.0, 12.2, 8, seed=10**400) == 0.0


@pytest.mark.parametrize("angle", [95.0, -95.0, 90, -90.0])
@pytest.mark.parametrize("entry", INCIDENCE)
def test_an_incidence_off_the_open_half_plane_is_refused_at_construction(entry, angle):
    with pytest.raises(ConfigurationError) as refused:
        INCIDENCE[entry](angle)
    assert str(refused.value) == f"incidence angle must lie in (-90, 90) deg, got {float(angle)}"
    assert INCIDENCE[entry](np.float64(89.5)).incidence_angle_deg == 89.5


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf, -1.0, 0.0, True])
def test_a_link_scenario_refuses_a_bad_incident_amplitude_when_made(amplitude):
    # Once taken here and refused only when run_link built the reflector.
    with pytest.raises(ConfigurationError, match="^incident_amplitude must be "):
        _scenario(amplitude=amplitude)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # Once a bare OverflowError from round(inf).
        ({"chirp_duration": 1e308}, r"^chirp_duration \* sample_rate must be an integer >= 2, got inf$"),
        ({"chirp_duration": 1e300, "sample_rate": 1e300}, r"^chirp_duration \* sample_rate .*, got inf$"),
        # Once range bins of inf m, which overflowed in the range transform.
        ({"bandwidth": 5e-324}, r"^max_unambiguous_range overflows at bandwidth 5e-324 Hz$"),
    ],
)
def test_chirp_params_refuse_a_timing_that_overflows(kwargs, message):
    with pytest.raises(ConfigurationError, match=message):
        ChirpParams(**kwargs)
    assert ChirpParams(bandwidth=1e-290).max_unambiguous_range > 1e299


_NUMPY_SCALARS = st.sampled_from([np.dtype(t) for t in ("f8", "f4", "i8", "u8", "?", "c16")])
VALUES = st.one_of(
    st.booleans(),
    st.integers(-(10**400), 10**400),
    st.integers(-(2**64), 2**64),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    _NUMPY_SCALARS.flatmap(from_dtype),
)


def _refusal_of(check, *args):
    """The ConfigurationError message of check(*args), or None; any other
    exception fails the test."""
    try:
        check(*args)
    except ConfigurationError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_the_checks_and_the_layout_columns_apply_one_rule(value):
    column = _refusal_of(_column, "x", [value], float)
    finite = _refusal_of(check_finite, "x", value)
    if column is None:
        nonfinite = not math.isfinite(_column("x", [value], float)[0])
        assert finite == (f"x must be finite, got {value}" if nonfinite else None)
    else:
        assert finite == column
    ints = _refusal_of(_column, "x", [value], int)
    assert _refusal_of(check_integers, "x", [value]) == ints
    assert (ints is None) == (_refusal_of(check_count, "x", value, -(2**63)) is None)
