"""Sawtooth FMCW radar chain: beat synthesis, range/Doppler maps, detection.

The radar transmits up-chirps of bandwidth B over duration T.  A target at
range r returns a dechirped beat tone at

    f_beat = 2 * B * r / (c * T)

sampled at sample_rate, one row per chirp; the caller sets the chirp count.
The tone's phase advances chirp to chirp by 2 pi * (2 v / lambda) * T
(stop-and-hop: range migration inside a frame is ignored).  Echo
amplitudes come from a reflector read at the 1 m reference distance and are
scaled to the target range with the one-way 1/r far-field convention.

Range processing is a Hann-windowed DFT per chirp, scaled so a bin-centered
tone of amplitude A reads magnitude A; bin i of an unpadded profile maps to
range i * c / (2 * B).  Doppler processing is an unwindowed DFT across the
signal's rows, scaled by their count.
"""

from __future__ import annotations

import functools
import math
import operator
import queue
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .emfield import (
    REFERENCE_DISTANCE,
    PlaneWave,
    SwitchConfig,
    _check_incidence,
    magnitude_db,
    plate_monostatic_amplitude,
    response_matrix,
    write_csv,
)
from .errors import ConfigurationError, DesignMismatchWarning, check_count, check_finite, check_seed
from .geometry import C0, SurfaceLayout
from .modulation import SwitchSchedule, config_at

# Default detection margin over the median noise floor, in dB.
DEFAULT_THRESHOLD_DB = 13.0

_AUTOMOTIVE_BANDS = ((23e9, 25e9), (76e9, 81e9))

# Most chirps per block of beat synthesis and range FFT: the noise and beat
# buffers and the windowed rows exist for one block at a time, not for the
# whole frame.
_FFT_BLOCK = 64


@dataclass(frozen=True)
class ChirpParams:
    """Sawtooth chirp timing and sampling.

    Defaults follow the 24 GHz operating point used throughout: 250 MHz
    sweep over 0.5 ms, sampled at 2 MHz.  Each frame sets its chirp count.
    """

    start_frequency: float = 24e9
    bandwidth: float = 250e6
    chirp_duration: float = 0.5e-3
    sample_rate: float = 2e6

    def __post_init__(self):
        for name in ("start_frequency", "bandwidth", "chirp_duration", "sample_rate"):
            check_finite(name, getattr(self, name), "positive")
        n = self.chirp_duration * self.sample_rate
        if not math.isfinite(n) or abs(n - round(n)) > 1e-6 or round(n) < 2:
            raise ConfigurationError(
                f"chirp_duration * sample_rate must be an integer >= 2, got {n}"
            )
        if not math.isfinite(self.max_unambiguous_range):  # the range axis ends there
            raise ConfigurationError(
                f"max_unambiguous_range overflows at bandwidth {self.bandwidth} Hz"
            )
        if not any(lo <= self.start_frequency <= hi for lo, hi in _AUTOMOTIVE_BANDS):
            warnings.warn(
                f"start_frequency {self.start_frequency:.4g} Hz is outside the "
                f"common automotive bands (24 GHz, 76-81 GHz)",
                DesignMismatchWarning,
                stacklevel=3,
            )

    @property
    def samples_per_chirp(self) -> int:
        return int(round(self.chirp_duration * self.sample_rate))

    @property
    def wavelength(self) -> float:
        return C0 / self.start_frequency

    @property
    def range_bin_m(self) -> float:
        return C0 / (2.0 * self.bandwidth)

    @property
    def max_unambiguous_range(self) -> float:
        # Range whose beat tone sits exactly at Nyquist.
        return self.sample_rate * C0 * self.chirp_duration / (4.0 * self.bandwidth)

    def beat_frequency(self, range_m: float) -> float:
        return 2.0 * self.bandwidth * range_m / (C0 * self.chirp_duration)


@dataclass(frozen=True)
class SurfaceReflector:
    """Echo source backed by a surface, optionally driven by a schedule.

    Exactly one of schedule/config may be given; neither means the static
    constructive state.  Chirps whose midpoint lies past the schedule end
    hold its last state.
    """

    layout: SurfaceLayout
    schedule: SwitchSchedule | None = None
    config: SwitchConfig | None = None
    incidence_angle_deg: float = 0.0
    incident_amplitude: float = 1.0

    def __post_init__(self):
        if self.schedule is not None and self.config is not None:
            raise ConfigurationError("give either a schedule or a static config")
        _check_incidence(self.incidence_angle_deg)
        check_finite("incident_amplitude", self.incident_amplitude, "positive")

    def amplitudes(self, chirp_times: np.ndarray, frequency: float) -> np.ndarray:
        if self.schedule is None:
            states = [self.config or SwitchConfig()] * len(chirp_times)
        else:
            # config_at places the last interval's midpoint in it, however the end rounds.
            last = (self.schedule.n_bits - 0.5) * self.schedule.switch_interval
            times = np.minimum(chirp_times, last).tolist()
            states = list(map(functools.partial(config_at, self.schedule), times))
        # Keyed by frozenset, whose hash C caches; a SwitchConfig hashes in Python.
        keys = list(map(operator.attrgetter("toggled"), states))
        distinct = dict(zip(keys, states))  # one state per toggled set, first-seen order
        index = dict(zip(distinct, range(len(distinct))))
        theta = self.incidence_angle_deg
        values = response_matrix(
            self.layout, tuple(distinct.values()), frequency, theta, theta, self.incident_amplitude
        )
        return np.abs(values[:, 0, 0])[list(map(index.__getitem__, keys))]


@dataclass(frozen=True)
class PlateReflector:
    """Echo source backed by the flat-plate baseline (state-independent)."""

    width: float
    incidence_angle_deg: float = 0.0
    incident_amplitude: float = 1.0

    def __post_init__(self):
        check_finite("width", self.width, "positive")
        _check_incidence(self.incidence_angle_deg)
        check_finite("incident_amplitude", self.incident_amplitude, "positive")

    def amplitudes(self, chirp_times: np.ndarray, frequency: float) -> np.ndarray:
        wave = PlaneWave(frequency, self.incidence_angle_deg, self.incident_amplitude)
        return np.full(len(chirp_times), plate_monostatic_amplitude(self.width, wave))


@dataclass(frozen=True)
class Target:
    """One echo: range, radial velocity (positive = receding), reflector."""

    range_m: float
    velocity_mps: float
    reflector: SurfaceReflector | PlateReflector

    def __post_init__(self):
        check_finite("range_m", self.range_m, "positive")
        check_finite("velocity_mps", self.velocity_mps)


@dataclass(frozen=True, eq=False)
class BeatSignal:
    """Dechirped samples, one row per chirp: chirps x samples_per_chirp."""

    params: ChirpParams
    samples: np.ndarray


@dataclass(frozen=True, eq=False)
class RangeProfile:
    ranges_m: np.ndarray
    values: np.ndarray

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)


@dataclass(frozen=True, eq=False)
class RangeDopplerMap:
    """Complex map over (range bins, velocity bins)."""

    ranges_m: np.ndarray
    velocities_mps: np.ndarray
    values: np.ndarray

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)


@dataclass(frozen=True)
class Detection:
    """range_m is the interpolated peak; velocity is NaN for single-chirp
    profiles (one chirp measures no velocity)."""

    range_m: float
    velocity_mps: float
    amplitude: float
    snr_db: float


def _chirp_blocks(n_chirps: int) -> list[tuple[int, int]]:
    """(lo, hi) row bounds of _beat_blocks' balanced blocks of at most _FFT_BLOCK chirps.

    Block sizes differ by at most one, so no block has a single row unless
    the frame does: a one-row beat product goes through a different BLAS
    path and rounds differently from the same rows inside a larger block.
    """
    n_blocks = max(1, -(-n_chirps // _FFT_BLOCK))
    edges = [n_chirps * i // n_blocks for i in range(n_blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _tones(params: ChirpParams, n_chirps: int, targets) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """(amplitudes, beat frequency, phases) per target, over n_chirps chirps;
    raises ConfigurationError as _beat_blocks documents.  Reflectors are
    read at chirp midpoints, half a chirp from any bit boundary."""
    nyquist = params.sample_rate / 2.0
    times = (np.arange(n_chirps) + 0.5) * params.chirp_duration
    tones = []
    for index, target in enumerate(targets):
        where = f"target {index} at {target.range_m} m"
        f_beat = params.beat_frequency(target.range_m)
        # The range, not the rounded beat frequency, decides: at exactly
        # max_unambiguous_range the tone may round one ulp above Nyquist.
        if target.range_m > params.max_unambiguous_range:
            raise ConfigurationError(
                f"{where}: beat frequency {f_beat:.6g} Hz exceeds Nyquist {nyquist:.6g} Hz"
            )
        scale = REFERENCE_DISTANCE / target.range_m
        amps = target.reflector.amplitudes(times, params.start_frequency) * scale
        tau = 2.0 * target.range_m / C0
        phase0 = 2.0 * math.pi * params.start_frequency * tau
        phase_step = (
            2.0 * math.pi * (2.0 * target.velocity_mps / params.wavelength)
            * params.chirp_duration
        )
        with np.errstate(invalid="ignore"):  # inf * 0 at chirp 0; refused below
            phases = phase0 + phase_step * np.arange(n_chirps)
        for name, values in (("amplitudes", amps), ("phases", phases)):
            if not np.isfinite(values).all():
                raise ConfigurationError(f"{where}: per-chirp {name} are not finite")
        tones.append((amps, f_beat, phases))
    return tones


def _noise_draws(rng, sigma: float, out: np.ndarray) -> np.ndarray:
    """Fill out with the next normal(0, sigma) draws of rng and return it.
    Calls numpy only."""
    # standard_normal scaled in place draws the same bits as
    # normal(0, sigma), without its per-element loc + scale * z.
    rng.standard_normal(out=out)
    out *= sigma
    return out


def _beat_blocks(params: ChirpParams, n_chirps: int, targets, noise_power: float, seed: int | None):
    """Yield (lo, block): rows lo:lo + len(block) of a noisy n_chirps frame.

    This is the only code that synthesizes frame rows.  Each target's
    per-chirp amplitudes and start phases are computed once for the whole
    frame; each block gets its slice of them.  The block is one reused
    buffer: a consumer copies what it keeps before asking for the next
    block.

    A noisy frame's noise is drawn on one plain daemon thread, started
    before the targets' amplitudes, so the draw overlaps the reflector, the
    beat products and the consumer's range FFT (numpy's random fill, BLAS
    and pocketfft release the GIL).  The frame's only default_rng(seed) is
    made here.  The thread draws the blocks in row order, as one whole-frame
    draw, into two buffers: it takes one from the queue free and puts it, or
    its error, on drawn; the consumer raises the error or adds the buffer
    and puts it back, so the thread runs at most two blocks ahead.  It calls
    numpy only: a tracer that wraps this package's functions keeps one span
    stack, which is not thread-safe.  The generator ends the thread (None on
    free) and joins it when it ends, is closed or raises; the daemon flag
    matters only to a generator left open at exit.  A noiseless frame
    starts no thread.

    Raises:
        ConfigurationError: a target lies past max_unambiguous_range (its
            beat tone would exceed Nyquist), or its per-chirp amplitudes or
            phases are not finite (the error names the target).
    """
    check_finite("noise_power", noise_power, "non-negative")
    blocks = _chirp_blocks(n_chirps)
    shape = (max(hi - lo for lo, hi in blocks), params.samples_per_chirp)
    worker = None
    if noise_power > 0.0:
        rng = np.random.default_rng(seed)
        sigma = math.sqrt(noise_power)
        free, drawn = queue.SimpleQueue(), queue.SimpleQueue()
        free.put(np.empty(shape))
        free.put(np.empty(shape))

        def draw():
            try:
                for lo, hi in blocks:
                    if (noise := free.get()) is None:
                        return
                    drawn.put(_noise_draws(rng, sigma, noise[: hi - lo]))
            except BaseException as error:  # raised to the consumer below
                drawn.put(error)

        worker = threading.Thread(target=draw, name="vanatta-noise", daemon=True)
        worker.start()
    try:
        tones = _tones(params, n_chirps, targets)
        buffer = np.empty(shape)
        dt = 1.0 / params.sample_rate
        for lo, hi in blocks:
            block = buffer[: hi - lo]
            block.fill(0.0)
            for amps, f_beat, phases in tones:
                kernels.accumulate_beat(block, amps[lo:hi], f_beat, phases[lo:hi], 0.0, dt)
            if worker is not None:
                noise = drawn.get()
                if isinstance(noise, BaseException):
                    raise noise
                block += noise
                free.put(noise.base)
            yield lo, block
    finally:
        if worker is not None:
            free.put(None)
            worker.join()


def synthesize_beat(
    params: ChirpParams,
    n_chirps: int,
    targets,
    noise_power: float = 0.0,
    seed: int | None = None,
) -> BeatSignal:
    """Dechirped frame for the given targets plus white Gaussian noise.

    Args:
        params: chirp timing and sampling.
        n_chirps: the frame's chirp count, its number of rows.
        targets: iterable of Target.
        noise_power: per-sample variance of the added real noise.
        seed: RNG seed (None or >= 0); identical seeds give identical frames.

    Returns:
        BeatSignal with shape (n_chirps, samples_per_chirp).

    Raises:
        ConfigurationError: n_chirps is not an integer >= 1, seed not one >= 0,
            a target lies past max_unambiguous_range (its beat tone would exceed Nyquist),
            or its per-chirp amplitudes or phases are not finite (the error
            names the target).
    """
    check_count("n_chirps", n_chirps)
    check_seed(seed)
    samples = np.empty((n_chirps, params.samples_per_chirp))
    for lo, block in _beat_blocks(params, n_chirps, targets, noise_power, seed):
        samples[lo : lo + len(block)] = block
    return BeatSignal(params=params, samples=samples)


@functools.cache
def _range_window(n: int) -> np.ndarray:
    """The Hann window of the range DFT, built once per n and read-only; the
    profile scaling divides by its sum.

    Raises:
        ConfigurationError: n < 3, whose Hann window is all zeros.
    """
    if n < 3:
        raise ConfigurationError(
            f"range processing needs at least 3 samples per chirp, got {n}: "
            f"a {n}-point Hann window is all zeros"
        )
    window = np.hanning(n)
    window.flags.writeable = False  # shared by every later call
    return window


def _profile_matrix(params: ChirpParams, rows, zero_pad: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Scaled range DFT of each row of rows (chirps x samples): (ranges, complex
    matrix rows x bins).  A row's bits do not depend on the rows beside it."""
    check_count("zero_pad", zero_pad)
    w = _range_window(params.samples_per_chirp)
    nfft = params.samples_per_chirp * zero_pad
    spectra = np.fft.rfft(rows * w, nfft, axis=1)
    spectra *= 2.0 / w.sum()
    freqs = np.fft.rfftfreq(nfft, d=1.0 / params.sample_rate)
    ranges = freqs * C0 * params.chirp_duration / (2.0 * params.bandwidth)
    return ranges, spectra


def range_profile(signal: BeatSignal, chirp_index: int = 0, zero_pad: int = 1) -> RangeProfile:
    """Range spectrum of one chirp, the signal's row chirp_index.

    zero_pad > 1 interpolates the spectrum for finer peak estimates; bin i
    of the unpadded profile maps to range i * c / (2 * bandwidth).
    """
    check_count("chirp_index", chirp_index, minimum=0)
    if chirp_index >= len(signal.samples):
        raise ConfigurationError(f"chirp_index {chirp_index} out of range")
    row = signal.samples[chirp_index : chirp_index + 1]
    ranges, spectra = _profile_matrix(signal.params, row, zero_pad)
    return RangeProfile(ranges_m=ranges, values=spectra[0])


def range_doppler(signal: BeatSignal) -> RangeDopplerMap:
    """Range-Doppler map of a frame's rows; velocity 0 is centered."""
    params = signal.params
    c = len(signal.samples)
    if c < 2:
        raise ConfigurationError("range_doppler needs at least 2 chirps per frame")
    ranges, spectra = _profile_matrix(params, signal.samples)
    doppler = np.fft.fftshift(np.fft.fft(spectra, axis=0), axes=0) / c
    velocities = np.fft.fftshift(np.fft.fftfreq(c, d=params.chirp_duration))
    velocities = velocities * params.wavelength / 2.0
    return RangeDopplerMap(
        ranges_m=ranges, velocities_mps=velocities, values=doppler.T
    )


def _parabolic_peak(db: np.ndarray, i: int) -> tuple[float, float]:
    """Sub-bin offset and interpolated dB value around a local peak."""
    left, mid, right = db[i - 1], db[i], db[i + 1]
    denom = left - 2.0 * mid + right
    if denom >= 0.0:
        return 0.0, mid
    delta = 0.5 * (left - right) / denom
    delta = min(0.5, max(-0.5, delta))
    return delta, mid - 0.25 * (left - right) * delta


def detect(profile, threshold_db: float = DEFAULT_THRESHOLD_DB) -> list[Detection]:
    """Local maxima rising threshold_db above the median magnitude floor.

    Accepts a RangeProfile (1-D, detections carry velocity NaN) or a
    RangeDopplerMap (2-D strict local maxima, detections carry the peak's
    velocity bin).  A profile is handled as a map with one velocity column.
    Peak ranges are refined by parabolic interpolation of the dB magnitudes
    along range.  Returns detections in increasing range order (range-major
    for a map).  threshold_db must be finite.
    """
    check_finite("threshold_db", threshold_db)
    is_map = isinstance(profile, RangeDopplerMap)
    values = profile.values if is_map else profile.values[:, None]
    velocities = profile.velocities_mps if is_map else [math.nan]
    mags = np.abs(values)
    if mags.shape[0] < 3 or (is_map and mags.shape[1] < 3):
        return []
    floor = float(np.median(mags))
    inner = mags[1:-1]
    is_peak = (inner > mags[:-2]) & (inner > mags[2:]) & (inner > 0.0)
    if is_map:
        is_peak[:, 1:-1] &= (inner[:, 1:-1] > inner[:, :-2]) & (inner[:, 1:-1] > inner[:, 2:])
        is_peak[:, [0, -1]] = False
    spacing = float(profile.ranges_m[1] - profile.ranges_m[0])
    detections = []
    for i, j in np.argwhere(is_peak) + (1, 0):
        snr = math.inf if floor == 0.0 else 20.0 * math.log10(mags[i, j] / floor)
        if snr < threshold_db:
            continue
        delta, peak_db = _parabolic_peak(magnitude_db(values[:, j]), i)
        detections.append(
            Detection(
                range_m=float(profile.ranges_m[i] + delta * spacing),
                velocity_mps=float(velocities[j]),
                amplitude=10.0 ** (peak_db / 20.0),
                snr_db=snr,
            )
        )
    return detections


def _interpolated_peak_amplitude(values: np.ndarray) -> float:
    mags = np.abs(values)
    i = int(np.argmax(mags))
    if i == 0 or i == mags.size - 1 or mags[i] == 0.0:
        return float(mags[i])
    _, peak_db = _parabolic_peak(magnitude_db(values), i)
    return 10.0 ** (peak_db / 20.0)


def bin_noise_sigma(params: ChirpParams, noise_power: float) -> float:
    """RMS of a range-profile bin under white noise of the given variance.

    Follows the 2/sum(w) profile scaling: E|bin|^2 = (2/sum(w))^2 *
    noise_power * sum(w^2).
    """
    w = _range_window(params.samples_per_chirp)
    return 2.0 / w.sum() * math.sqrt(noise_power * float(np.square(w).sum()))


def max_detection_range(
    params: ChirpParams,
    target: Target,
    threshold_db: float = DEFAULT_THRESHOLD_DB,
    noise_power: float = 1e-6,
) -> float:
    """Largest range at which the target's echo clears the threshold.

    The probe places the target at a candidate range, synthesizes one
    noiseless chirp, and compares the interpolated peak of its range profile
    against the analytic bin-noise floor for noise_power; bisection then
    finds where that SNR crosses threshold_db.  Under the 1/r scaling the
    result is proportional to the echo amplitude, so an amplitude gain
    of g dB extends the result by 10**(g/20).

    Returns NaN when the target is undetectable at 1 m.  The search
    stops two range bins short of the unambiguous limit (closer in, the
    spectral image overlaps the peak and corrupts the amplitude estimate)
    and returns that cap when the target is still detectable there; it
    raises ConfigurationError when 1 m lies beyond that cap or threshold_db is not finite.
    """
    check_finite("threshold_db", threshold_db)
    check_finite("noise_power", noise_power, "positive")
    min_range, rel_tol = 1.0, 1e-6
    sigma = bin_noise_sigma(params, noise_power)

    def clears(range_m: float) -> bool:
        probe = replace(target, range_m=range_m)
        [(_, chirp)] = _beat_blocks(params, 1, [probe], 0.0, None)
        amp = _interpolated_peak_amplitude(_profile_matrix(params, chirp, 8)[1][0])
        if amp == 0.0:
            return False
        return 20.0 * math.log10(amp / sigma) >= threshold_db

    cap = params.max_unambiguous_range - 2.0 * params.range_bin_m
    if min_range > cap:
        raise ConfigurationError(f"{min_range} m is beyond the search cap {cap:.6g} m")
    if not clears(min_range):
        return math.nan
    if clears(cap):
        return cap
    lo, hi = min_range, cap
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if clears(mid):
            lo = mid
        else:
            hi = mid
    return lo


def write_range_doppler_csv(rdmap: RangeDopplerMap, path) -> None:
    """CSV with columns range_m, velocity_mps, mag_db (range-major order)."""
    n_ranges, n_velocities = len(rdmap.ranges_m), len(rdmap.velocities_mps)
    write_csv(
        path,
        "range_m,velocity_mps,mag_db",
        np.repeat(rdmap.ranges_m, n_velocities),
        np.tile(rdmap.velocities_mps, n_ranges),
        magnitude_db(rdmap.values).ravel(),
    )
