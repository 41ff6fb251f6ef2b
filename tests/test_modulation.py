"""Bit encoding, switch schedules, and schedule timing lookups."""

import dataclasses
import math

import numpy as np
import pytest

from vanatta import (
    BitFrame,
    ConfigurationError,
    PlaneWave,
    SwitchSchedule,
    build_linear_array,
    config_at,
    constructive_config,
    destructive_config,
    encode_bits,
    roundtrip_response,
    validate_layout,
    wavelength_of,
)

LAM = wavelength_of(24e9)
LAYOUT2 = build_linear_array(2, LAM / 2.0, LAM)
LAYOUT4 = build_linear_array(4, LAM / 2.0, LAM)


def test_bit_frame_checks_contents():
    frame = BitFrame((1, 0, 1, 1))
    assert len(frame) == 4
    assert frame.as_string() == "1011"
    with pytest.raises(ValueError):
        BitFrame(())
    with pytest.raises(ValueError):
        BitFrame((0, 2))


@pytest.mark.parametrize("bit", [1.5, "1", math.nan])
def test_bit_frame_refuses_non_integral_bits(bit):
    # int() would truncate 1.5 to 1 and parse "1", and fail on nan with a
    # bare ValueError; encode_bits builds its frame the same way.
    with pytest.raises(ConfigurationError, match="bits must be integers"):
        BitFrame((bit, 0))
    with pytest.raises(ConfigurationError, match="bits must be integers"):
        encode_bits((bit, 0), LAYOUT2, 1e-3)


def test_bit_frame_accepts_python_and_numpy_integers():
    assert BitFrame((np.int64(1), 0, np.uint8(1))).bits == (1, 0, 1)


def test_constructive_config_is_empty():
    assert constructive_config().toggled == frozenset()


def test_destructive_config_toggles_even_pairs():
    assert destructive_config(LAYOUT2).toggled == frozenset({2})
    assert destructive_config(LAYOUT4).toggled == frozenset({2, 4})


def test_destructive_config_needs_even_pair_count():
    layout3 = build_linear_array(3, LAM / 2.0, LAM)
    with pytest.raises(ConfigurationError, match="even pair count .* got 3 pairs"):
        destructive_config(layout3)


@pytest.mark.parametrize("bare", [2, 4])
def test_destructive_config_needs_a_switch_on_every_toggled_pair(bare):
    lines = tuple(
        dataclasses.replace(ln, has_switch=False)
        if ln.pair_id == bare
        else ln
        for ln in LAYOUT4.lines
    )
    layout = dataclasses.replace(LAYOUT4, lines=lines)
    with pytest.raises(ConfigurationError, match=f"pair {bare} has no switch"):
        destructive_config(layout)


def test_destructive_retro_response_is_null():
    wave = PlaneWave(24e9, 25.0)
    for layout in (LAYOUT2, LAYOUT4):
        on = abs(roundtrip_response(layout, constructive_config(), wave, 25.0))
        off = abs(roundtrip_response(layout, destructive_config(layout), wave, 25.0))
        assert off <= 1e-12 * on


def test_configs_do_not_mutate_geometry():
    destructive_config(LAYOUT4)
    assert validate_layout(LAYOUT4, 1e-12).passed


def test_encode_maps_bits_to_states():
    schedule = encode_bits((1, 0, 1), LAYOUT2, 1e-3)
    assert schedule.bits == (1, 0, 1)
    assert schedule.states[0].toggled == frozenset()
    assert schedule.states[1].toggled == frozenset({2})
    assert schedule.states[2].toggled == frozenset()
    assert schedule.n_bits == 3
    assert math.isclose(schedule.duration, 3e-3, rel_tol=1e-15)


def test_encode_accepts_bit_frames():
    frame = BitFrame((1, 1, 1))
    schedule = encode_bits(frame, LAYOUT2, 1e-3)
    assert all(s.toggled == frozenset() for s in schedule.states)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-3])
def test_non_finite_or_non_positive_timing_rejected(value):
    with pytest.raises(ConfigurationError, match="switch_interval must be positive and finite"):
        encode_bits((1, 0), LAYOUT2, value)
    with pytest.raises(ConfigurationError, match="switch_interval must be positive and finite"):
        SwitchSchedule(value, (constructive_config(),))


def test_encode_takes_an_interval_shorter_than_a_default_chirp():
    # A schedule knows no radar: 0.3 ms is one chirp of a 0.3 ms radar.
    schedule = encode_bits((1, 0, 1), LAYOUT2, 0.3e-3)
    assert schedule.switch_interval == 0.3e-3
    assert schedule.bits == (1, 0, 1)


def test_schedule_refuses_no_states():
    with pytest.raises(ConfigurationError, match="^schedule is empty$"):
        SwitchSchedule(1e-3, ())


def test_config_at_boundaries():
    schedule = encode_bits((1, 0, 1), LAYOUT2, 1e-3)
    assert config_at(schedule, 0.0) is schedule.states[0]
    assert config_at(schedule, 1.5e-3) is schedule.states[1]
    assert config_at(schedule, 1e-3) is schedule.states[1], "boundary is half-open"
    with pytest.raises(ValueError):
        config_at(schedule, -1e-9)
    with pytest.raises(ValueError):
        config_at(schedule, 3e-3)


def test_config_at_survives_float_quotient_noise():
    # intervals whose boundaries are not exactly representable
    schedule = encode_bits((1, 0, 1, 0, 1, 0, 1), LAYOUT2, 0.7e-3)
    dt = schedule.switch_interval
    for i in range(schedule.n_bits):
        assert config_at(schedule, i * dt) is schedule.states[i]
        assert config_at(schedule, (i + 1) * dt - 1e-12) is schedule.states[i]


def test_config_at_just_below_the_end_is_the_last_interval():
    schedule = encode_bits((1, 0) * 16 + (1,), LAYOUT2, 0.9e-3)
    t = math.nextafter(schedule.duration, 0.0)
    assert t / schedule.switch_interval == 33.0  # the quotient rounds up to the end
    assert config_at(schedule, t) is schedule.states[32]


def test_config_at_just_below_an_interior_boundary_is_the_earlier_interval():
    schedule = encode_bits((1, 0, 1, 0), LAYOUT2, 0.3e-3)
    dt = schedule.switch_interval
    t = math.nextafter(3 * dt, 0.0)
    assert t / dt == 3.0  # the quotient rounds up onto boundary 3
    assert config_at(schedule, t) is schedule.states[2]
    assert config_at(schedule, 3 * dt) is schedule.states[3]


def test_config_at_on_a_boundary_whose_quotient_rounds_down_is_the_later_interval():
    schedule = encode_bits((1, 0) * 13, LAYOUT2, 0.7e-3)
    dt = schedule.switch_interval
    t = 25 * dt
    assert t / dt < 25.0  # the quotient rounds down below boundary 25
    assert config_at(schedule, t) is schedule.states[25]
    assert config_at(schedule, math.nextafter(t, 0.0)) is schedule.states[24]
    assert schedule.states[24] != schedule.states[25]


def test_encode_config_at_left_inverse():
    bits = [1, 0, 0, 1, 1, 0, 1, 0]
    schedule = encode_bits(bits, LAYOUT4, 1e-3)
    # The schedule's bits are read back from its states alone.
    assert schedule.bits == tuple(bits)
    assert schedule.n_bits == len(bits)
    for i, bit in enumerate(bits):
        config = config_at(schedule, (i + 0.5) * 1e-3)
        assert (len(config.toggled) == 0) == (bit == 1)

