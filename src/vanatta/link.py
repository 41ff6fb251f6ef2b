"""End-to-end link: surface modulation through the radar to decoded bits.

A frame is synthesized with the surface switching per its schedule, every
chirp's range profile is evaluated, and the per-chirp magnitudes at the
strongest range bin become the decision statistics.  The frame and its
magnitudes are held one block of chirps at a time; a frame whose strongest
bin lies off the tag's main lobe is synthesized a second time for that bin
(_extract_bin_amplitudes).  Decoding is plain on-off keying: average the
chirps of each bit slot and compare against a threshold, which _run_frame
sets to the midpoint between the two amplitude cluster centers.

SNR convention used by the Monte-Carlo helpers: "per-chirp SNR" is the SNR
of the on-state echo within one chirp at the receiver input, i.e.
10*log10((a^2/2)/noise_power) for a received beat tone of amplitude a.  The
range DFT then adds its processing gain before decoding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .emfield import write_csv
from .errors import DecodingError, SchedulingError, check_count, check_finite, check_seed
from .fmcw import (
    _FFT_BLOCK,
    ChirpParams,
    SurfaceReflector,
    Target,
    _beat_blocks,
    _profile_matrix,
)
from .geometry import SurfaceLayout
from .modulation import BitFrame, SwitchSchedule


def whole_chirps(switch_interval: float, chirp_duration: float) -> int:
    """Chirps per bit; SchedulingError unless switch_interval is within 1e-9
    of a whole number >= 1 of chirp_duration (so finite and positive)."""
    ratio = switch_interval / chirp_duration
    count = round(ratio) if math.isfinite(ratio) else 0
    if count < 1 or abs(ratio - count) > 1e-9:
        raise SchedulingError(
            f"switch interval {switch_interval} s must be a whole number of "
            f"chirps ({chirp_duration} s each)"
        )
    return count


@dataclass(frozen=True)
class LinkScenario:
    """Everything needed to run one modulated frame, checked when it is made.

    The scenario is its target: it builds that Target (a SurfaceReflector of
    the layout, driven by the schedule, at range_m) and its chirps per bit
    (whole_chirps) once, and each refuses a bad field with its own message.
    """

    layout: SurfaceLayout
    schedule: SwitchSchedule
    params: ChirpParams
    range_m: float
    incidence_angle_deg: float = 0.0
    velocity_mps: float = 0.0
    noise_power: float = 0.0
    seed: int | None = None
    incident_amplitude: float = 1.0
    target: Target = field(init=False, repr=False, compare=False)
    chirps_per_bit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_finite("noise_power", self.noise_power, "non-negative")
        check_seed(self.seed)
        angle, amplitude = self.incidence_angle_deg, self.incident_amplitude
        reflector = SurfaceReflector(self.layout, self.schedule, None, angle, amplitude)
        vars(self).update(
            target=Target(self.range_m, self.velocity_mps, reflector),
            chirps_per_bit=whole_chirps(self.schedule.switch_interval, self.params.chirp_duration),
        )


@dataclass(frozen=True, eq=False)
class LinkResult:
    """Decoded frame: per-chirp bin magnitudes and bit-level outcome.

    snr_db is measured from the received amplitudes: the high cluster center
    over the RMS residual around the assigned cluster centers (infinite for
    a noiseless run).
    """

    per_chirp_amplitudes: np.ndarray
    chirp_times: np.ndarray
    transmitted: tuple[int, ...]
    decoded: BitFrame
    ber: float
    snr_db: float
    threshold: float
    chirps_per_bit: int


def two_cluster_centers(values) -> tuple[float, float]:
    """Centers of a two-means split of a 1-D sample, low first.

    Raises DecodingError when all values are identical (no split exists).
    """
    x = np.asarray(values, dtype=np.float64)
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        raise DecodingError("all amplitudes identical; cannot form two clusters")
    c_lo, c_hi = lo, hi
    for _ in range(200):
        mid = 0.5 * (c_lo + c_hi)
        low = x[x <= mid]
        high = x[x > mid]
        if low.size == 0 or high.size == 0:
            break
        n_lo, n_hi = float(low.mean()), float(high.mean())
        if n_lo == c_lo and n_hi == c_hi:
            break
        c_lo, c_hi = n_lo, n_hi
    return c_lo, c_hi


def decode_ook(per_chirp_amplitudes, chirps_per_bit: int, threshold: float) -> BitFrame:
    """Threshold the per-bit mean amplitudes into a BitFrame.

    Args:
        per_chirp_amplitudes: magnitudes at the target bin, one per chirp;
            length must be a multiple of chirps_per_bit.
        chirps_per_bit: chirps averaged per bit slot (>= 1).
        threshold: finite decision level; a bit is 1 when its mean exceeds it.
    """
    amps = np.asarray(per_chirp_amplitudes, dtype=np.float64)
    check_count("chirps_per_bit", chirps_per_bit)
    if amps.size == 0 or amps.size % chirps_per_bit != 0:
        raise ValueError(
            f"amplitude count {amps.size} is not a positive multiple of "
            f"chirps_per_bit {chirps_per_bit}"
        )
    check_finite("threshold", threshold)
    means = amps.reshape(-1, chirps_per_bit).mean(axis=1)
    return BitFrame(tuple((means > threshold).astype(int).tolist()))


def _bin_columns(params: ChirpParams, n_chirps: int, targets, noise_power, seed, lo, hi):
    """(per-bin mean magnitudes, chirps x (hi - lo) magnitudes of bins lo:hi)
    of a noisy n_chirps frame.

    The frame is synthesized and range-transformed one block of chirps at a
    time into one buffer: its rows 1 and up take a block's magnitudes, and
    row 0 keeps the running per-bin sums, added in chirp order as
    mags.mean(axis=0) adds them.
    """
    buffer = np.zeros((min(n_chirps, _FFT_BLOCK) + 1, params.samples_per_chirp // 2 + 1))
    columns = np.empty((n_chirps, hi - lo))
    for first, block in _beat_blocks(params, n_chirps, targets, noise_power, seed):
        # The spectrum is not named, so it is freed before the next block's.
        rows = buffer[1 : 1 + len(block)]
        np.abs(_profile_matrix(params, block)[1], out=rows)
        buffer[0] = np.add.reduce(buffer[: 1 + len(block)], axis=0)
        columns[first : first + len(block)] = rows[:, lo:hi]
    return buffer[0] / n_chirps, columns


def _extract_bin_amplitudes(params: ChirpParams, n_chirps: int, targets, noise_power, seed):
    """Per-chirp magnitudes at the strongest range bin of a noisy n_chirps frame.

    The strongest bin is the one with the largest mean magnitude over the
    chirps.  Held at once: one block of magnitudes plus the per-bin sums
    (_bin_columns), and for every chirp the magnitudes of the tag's main
    lobe, targets[0]'s beat-frequency bin +- 2 clipped to the spectrum;
    never the chirps x bins matrix.  When the strongest bin is off that
    lobe, as in a noise-only or swamped frame, a second pass synthesizes
    and transforms the frame again and keeps that bin alone: it doubles the
    frame's time.  On the default SNR sweep that is 1 point of 4, the one
    at -30 dB.  Both passes draw the same noise from one SeedSequence.
    """
    if noise_power > 0.0 and not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)  # fixes seed=None's entropy for both passes
    bins = params.samples_per_chirp // 2 + 1
    lo = hi = 0
    if targets:  # min(): _beat_blocks refuses a tone past Nyquist, whose k may be inf
        k = round(min(params.beat_frequency(targets[0].range_m) * params.chirp_duration, bins))
        lo, hi = max(0, k - 2), min(bins, k + 3)
    frame = (params, n_chirps, targets, noise_power, seed)
    means, columns = _bin_columns(*frame, lo, hi)
    bin_index = int(np.argmax(means))
    if lo <= bin_index < hi:
        return columns[:, bin_index - lo].copy()
    return _bin_columns(*frame, bin_index, bin_index + 1)[1][:, 0]


def _measured_snr_db(amps: np.ndarray, threshold: float, c_lo: float, c_hi: float) -> float:
    residual = amps - np.where(amps > threshold, c_hi, c_lo)
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(residual**2)))
    if rms == 0.0:
        return math.inf
    if rms == math.inf:  # squares past the float range: take them relative to c_hi
        return -10.0 * math.log10(float(np.mean((residual / c_hi) ** 2)))
    return 20.0 * math.log10(c_hi / rms)


def _run_frame(params: ChirpParams, target: Target, bits, chirps_per_bit: int, noise_power, seed):
    """LinkResult of sending bits, chirps_per_bit chirps each, off one target."""
    n_chirps = len(bits) * chirps_per_bit
    amps = _extract_bin_amplitudes(params, n_chirps, [target], noise_power, seed)
    c_lo, c_hi = two_cluster_centers(amps)
    threshold = 0.5 * (c_lo + c_hi)
    decoded = decode_ook(amps, chirps_per_bit, threshold)
    return LinkResult(
        per_chirp_amplitudes=amps,
        chirp_times=np.arange(n_chirps) * params.chirp_duration,
        transmitted=bits,
        decoded=decoded,
        ber=sum(map(operator.ne, decoded.bits, bits)) / len(bits),
        snr_db=_measured_snr_db(amps, threshold, c_lo, c_hi),
        threshold=threshold,
        chirps_per_bit=chirps_per_bit,
    )


def run_link(scenario: LinkScenario) -> LinkResult:
    """Synthesize, demodulate and decode one frame end to end."""
    s = scenario
    return _run_frame(s.params, s.target, s.schedule.bits, s.chirps_per_bit, s.noise_power, s.seed)


@dataclass(frozen=True)
class _TwoStateReflector:
    """Synthetic reflector with explicit on/off amplitudes per bit slot.

    Used by the Monte-Carlo helpers to impose a finite modulation depth
    instead of the ideal layout's exact null.
    """

    bits: tuple[int, ...]
    switch_interval: float
    on_amplitude: float
    off_amplitude: float

    def amplitudes(self, chirp_times: np.ndarray, frequency: float) -> np.ndarray:
        idx = np.floor(np.asarray(chirp_times) / self.switch_interval).astype(int)
        idx = np.clip(idx, 0, len(self.bits) - 1)
        bits = np.asarray(self.bits)[idx]
        return np.where(bits == 1, self.on_amplitude, self.off_amplitude)


def _payload_bits(seeds: np.random.SeedSequence, n_bits: int) -> tuple[int, ...]:
    """n_bits random bits from seeds' next child ((0,) if fresh), a stream apart from the noise's."""
    return tuple(np.random.default_rng(seeds.spawn(1)[0]).integers(0, 2, n_bits).tolist())


def ook_ber_trial(
    params: ChirpParams,
    per_chirp_snr_db: float,
    depth_db: float,
    n_bits: int,
    chirps_per_bit: int = 2,
    seed: int | None = None,
) -> float:
    """Monte-Carlo bit error rate of the OOK chain at one operating point.

    Random bits drive a two-state reflector whose received on-state beat
    amplitude is 1 and whose off state sits depth_db below it; white noise
    is set from per_chirp_snr_db (receiver-input convention, see module
    docstring).  The target sits at 25 m, and the frame runs through the
    same demodulate/decode path as run_link.

    Returns the fraction of bit errors.

    Raises:
        ConfigurationError: n_bits, chirps_per_bit or seed is not an integer
            >= 2, >= 1 or >= 0, or per_chirp_snr_db or depth_db is not finite or
            so far below zero that the noise power or off-state amplitude overflows.
    """
    check_count("n_bits", n_bits, minimum=2)
    check_count("chirps_per_bit", chirps_per_bit)
    check_seed(seed)
    check_finite("per_chirp_snr_db", per_chirp_snr_db)
    check_finite("depth_db", depth_db)
    # numpy's power and division saturate to inf or 0.0 where Python's **
    # and / raise, with the same bits in range; the synthesis then refuses
    # an infinite noise power or amplitude.
    with np.errstate(over="ignore", divide="ignore"):
        off_ratio = float(np.float64(10.0) ** (-depth_db / 20.0))
        snr_ratio = np.float64(10.0) ** (per_chirp_snr_db / 10.0)
        noise_power = float(0.5 / snr_ratio)
    seeds = np.random.SeedSequence(seed)
    bits = _payload_bits(seeds, n_bits)
    range_m = 25.0
    reflector = _TwoStateReflector(
        bits=bits,
        switch_interval=chirps_per_bit * params.chirp_duration,
        # amplitudes are quoted at the reference distance; undo the 1/r
        # scaling so the received on-state amplitude is exactly 1
        on_amplitude=range_m,
        off_amplitude=range_m * off_ratio,
    )
    target = Target(range_m, 0.0, reflector)
    return _run_frame(params, target, bits, chirps_per_bit, noise_power, seeds.spawn(1)[0]).ber


def doppler_phase_drift(velocity_delta: float, wavelength: float, interval: float) -> float:
    """Phase walk in degrees over one switch interval from a velocity error.

    A residual radial velocity dv shifts the echo by 2*dv/wavelength Hz, so
    the returned drift is 360 * (2*dv/wavelength) * interval degrees.
    """
    check_finite("velocity_delta", velocity_delta)
    check_finite("wavelength", wavelength, "positive")
    check_finite("interval", interval, "non-negative")
    return 360.0 * (2.0 * velocity_delta / wavelength) * interval


def write_link_report(result: LinkResult, path) -> None:
    """Plain-text summary: bits, BER, SNR, threshold."""
    sent = BitFrame(result.transmitted).as_string()
    with open(path, "w") as fh:
        fh.write(f"transmitted_bits = {sent}\n")
        fh.write(f"decoded_bits = {result.decoded.as_string()}\n")
        fh.write(f"n_bits = {len(result.transmitted)}\n")
        fh.write(f"chirps_per_bit = {result.chirps_per_bit}\n")
        fh.write(f"ber = {result.ber:.12g}\n")
        fh.write(f"snr_db = {result.snr_db:.12g}\n")
        fh.write(f"threshold = {result.threshold:.12g}\n")


def write_per_chirp_csv(result: LinkResult, path) -> None:
    """CSV with columns chirp_index, time_s, amplitude, bit_index."""
    index = np.arange(len(result.per_chirp_amplitudes))
    write_csv(
        path,
        "chirp_index,time_s,amplitude,bit_index",
        index,
        result.chirp_times,
        result.per_chirp_amplitudes,
        index // result.chirps_per_bit,
    )
