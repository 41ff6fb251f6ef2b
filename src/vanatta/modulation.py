"""Switch schedules: driving the surface between retro and null states.

Closing the switches on every other pair adds half a wavelength to their
round trips, putting half of the pair phasors 180 degrees out of phase with
the rest; the retro return cancels exactly.  Leaving all switches open keeps
the surface in its coherent (constructive) state.  On-off keying maps bit 1
to the constructive state and bit 0 to the destructive one, held for one
switch interval each.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .emfield import SwitchConfig
from .errors import ConfigurationError, check_finite, check_integers
from .geometry import SurfaceLayout

_DIGITS = bytes.maketrans(b"\0\1", b"01")  # bytes 0, 1 -> "0", "1"


@dataclass(frozen=True)
class BitFrame:
    """A non-empty sequence of 0/1 bits."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", check_integers("bits", self.bits))
        if not self.bits:
            raise ConfigurationError("bit frame is empty")
        if not {*self.bits} <= {0, 1}:
            raise ConfigurationError("bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def as_string(self) -> str:
        return bytes(self.bits).translate(_DIGITS).decode()


@dataclass(frozen=True)
class SwitchSchedule:
    """Per-interval switch states; states[i] holds during interval i and
    keys one bit: 1 when no switch is closed (constructive), else 0."""

    switch_interval: float
    states: tuple[SwitchConfig, ...]

    def __post_init__(self):
        check_finite("switch_interval", self.switch_interval, "positive")
        if not self.states:
            raise ConfigurationError("schedule is empty")

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(bytes(map(operator.not_, map(operator.attrgetter("toggled"), self.states))))

    @property
    def duration(self) -> float:
        return len(self.states) * self.switch_interval

    @property
    def n_bits(self) -> int:
        return len(self.states)


def constructive_config() -> SwitchConfig:
    """All switches open: coherent retro state."""
    return SwitchConfig(frozenset())


def destructive_config(layout: SurfaceLayout) -> SwitchConfig:
    """Toggle every other pair so the retro return cancels.

    The even-indexed half of the pairs (second, fourth, ... in pair_id
    order) is toggled; those are the lines that carry switches.  Needs an
    even pair count, otherwise no half-and-half split exists.
    """
    view = layout.arrays
    if len(view.pair_ids) % 2 != 0:
        raise ConfigurationError(
            f"destructive state needs an even pair count to toggle exactly "
            f"half, got {len(view.pair_ids)} pairs"
        )
    toggled = view.pair_ids[1::2]
    fixed = ~view.has_switch[1::2]
    if fixed.any():
        raise ConfigurationError(f"pair {toggled[fixed][0]} has no switch")
    return SwitchConfig(frozenset(toggled.tolist()))


def encode_bits(bits, layout: SurfaceLayout, switch_interval: float) -> SwitchSchedule:
    """On-off keying: bit 1 -> constructive state, bit 0 -> destructive.

    Args:
        bits: BitFrame or iterable of 0/1.
        layout: surface the schedule drives (fixes the destructive state).
        switch_interval: hold time per bit in seconds, positive and finite.
            The schedule knows no radar: the link (link.whole_chirps) is
            what requires a whole number of chirps per bit.

    Returns:
        SwitchSchedule covering the bits in order.
    """
    frame = bits if isinstance(bits, BitFrame) else BitFrame(tuple(bits))
    off_on = [destructive_config(layout), constructive_config()]
    states = tuple(map(off_on.__getitem__, frame.bits))  # bit b holds state off_on[b]
    return SwitchSchedule(switch_interval=switch_interval, states=states)


def config_at(schedule: SwitchSchedule, t: float) -> SwitchConfig:
    """State active at time t; intervals are half-open [i*dt, (i+1)*dt).

    Raises ValueError outside [0, schedule.duration).
    """
    dt = schedule.switch_interval
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    idx = int(math.floor(t / dt))
    # The rounded quotient may land on either side of a boundary i * dt:
    # step to the interval whose rounded bounds hold t.
    if (idx + 1) * dt <= t:
        idx += 1
    elif idx * dt > t:
        idx -= 1
    if idx >= len(schedule.states):
        raise ValueError(f"t={t} s is past the schedule end {schedule.duration} s")
    return schedule.states[idx]

