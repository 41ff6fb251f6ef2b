"""Round-trip field response of a surface and the flat-plate baseline.

The response model follows the surface's operating principle directly: a
plane wave from incidence angle theta reaches each element with a projection
path x*sin(theta) relative to the layout center, travels the pair's line,
and re-radiates toward the observation angle phi with projection path
x*sin(phi).  Each pair is traversed in both directions, so a surface of N
elements contributes N phasors

    exp(-j k (x_in sin(theta) + l_line + x_out sin(phi)))

scaled by the incident amplitude, by sqrt(absorption_efficiency) once per
round trip, and by the 1/r far-field convention at the 1 m reference
distance.  Centrosymmetry makes x_in + x_out vanish pairwise at
phi = theta, so the retro direction adds coherently regardless of theta; a
half-wavelength switch on half of the pairs turns that sum into a null.

Every response goes through ``response_matrix``, which evaluates a whole
switch-state x incidence x observation grid through the factorization

    S(theta, phi) = sum_j exp(-j k (x_in,j sin(theta) + l_j)) * exp(-j k x_out,j sin(phi))

in ``kernels.pair_path_response``.  The outbound factor depends only on
|x_out| and |sin(phi)| up to a sign, so the kernel sums the inbound factors
of traversals that share |x_out| and takes two real products per switch
state with one cos table and one sin table over distinct |x_out| x
distinct |sin(phi)|, shared by all states.  No incidence x traversal x
observation array, and no complex traversal x observation matrix, is ever
built.  A layout is validated once per object: the report is cached on the
frozen layout (``SurfaceLayout.validation``) and reused by every later call.

Patterns are azimuth cuts in the plane spanned by the array x-axis and the
surface normal; only element x-coordinates enter the projection paths.

The baseline a surface is compared against is the monostatic physical-optics
return of a flat plate of the same aperture:

    |E(theta)| = amplitude * cos(theta) * |sinc(k w sin(theta))| * w / lambda

with sinc(x) = sin(x)/x; the trailing factor is the aperture size in
wavelengths.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import kernels
from .errors import (
    ConfigurationError,
    ConstraintError,
    DesignMismatchWarning,
    check_finite,
    check_integers,
    check_number,
)
from .geometry import C0, SurfaceLayout, build_linear_array, wavelength_of

# All patterns and responses are quoted at this distance, in meters.
REFERENCE_DISTANCE = 1.0

# Fraction of the design wavelength beyond which a wave is flagged as
# off-design (the line lengths no longer realize clean 0/180 states).
WAVELENGTH_MISMATCH_LIMIT = 0.10

# Floor applied to magnitude-in-dB columns so exact nulls stay numeric.
DB_FLOOR = -400.0

# A scaled return below this loses digits to subnormal rounding, so it is refused.
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class PlaneWave:
    """Incident plane wave: frequency in Hz, incidence angle in degrees."""

    frequency: float
    incidence_angle_deg: float
    amplitude: float = 1.0

    def __post_init__(self):
        check_finite("frequency", self.frequency, "positive")
        _check_incidence(self.incidence_angle_deg)
        check_finite("amplitude", self.amplitude, "positive")

    @property
    def wavelength(self) -> float:
        return C0 / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


@dataclass(frozen=True)
class SwitchConfig:
    """Set of pair_ids whose line switches are closed (+half wavelength)."""

    toggled: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "toggled", frozenset(check_integers("pair ids", self.toggled)))


@dataclass(frozen=True, eq=False)
class FieldPattern:
    """Complex field over observation angles at the reference distance."""

    angles_deg: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.angles_deg.shape != self.values.shape:
            raise ValueError("angles and values must have matching shapes")
        _angle_grid(self.angles_deg)

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def peak_angle(self) -> float:
        return float(self.angles_deg[int(np.argmax(self.magnitudes()))])

    def value_at(self, angle_deg: float) -> complex:
        idx = int(np.argmin(np.abs(self.angles_deg - angle_deg)))
        if abs(float(self.angles_deg[idx]) - angle_deg) > 1e-9:
            raise KeyError(f"angle {angle_deg} deg not on the pattern grid")
        return complex(self.values[idx])


def _angles(angles_deg, kind: str) -> np.ndarray:
    """Angles as a 1-D array, each inside the range of its kind.

    Incidence angles lie in (-90, 90) deg, observation angles in [-90, 90];
    NaN fails both.  Other input than a float64 array asks the number rule.
    """
    if not (isinstance(angles_deg, np.ndarray) and angles_deg.dtype == np.float64):
        for value in np.asarray(angles_deg, dtype=object).flat:
            check_number(f"{kind} angle", value)
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=np.float64))
    if angles.ndim != 1:
        raise ConfigurationError(f"{kind} angles must be a scalar or a 1-D array")
    if kind == "incidence":
        bad, span = ~(np.abs(angles) < 90.0), "(-90, 90)"
    else:
        bad, span = ~(np.abs(angles) <= 90.0), "[-90, 90]"
    if bad.any():
        got = float(angles[bad][0])
        raise ConfigurationError(f"{kind} angle must lie in {span} deg, got {got}")
    return angles


def _check_incidence(angle_deg) -> None:
    """The rule for a given incidence_angle_deg: a finite real number in (-90, 90) deg."""
    check_finite("incidence_angle_deg", angle_deg)
    _angles(float(angle_deg), "incidence")


def _angle_grid(angles_deg) -> np.ndarray:
    """A pattern grid: non-empty, strictly increasing, inside [-90, 90] deg."""
    grid = _angles(angles_deg, "observation")
    if grid.size == 0:
        raise ValueError("angle grid is empty")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("angle grid must be strictly increasing")
    return grid


def _check_wavelength(layout: SurfaceLayout, wavelength: float) -> None:
    mismatch = abs(wavelength - layout.wavelength) / layout.wavelength
    if mismatch > WAVELENGTH_MISMATCH_LIMIT:
        warnings.warn(
            f"wave wavelength {wavelength:.6g} m is {mismatch:.1%} off the "
            f"design wavelength {layout.wavelength:.6g} m; switch states will "
            f"not realize clean 0/180 phases",
            DesignMismatchWarning,
            stacklevel=3,
        )


def _traversal_arrays(layout: SurfaceLayout, configs):
    """Absorber x and re-radiator x of every pair traversal, and its line
    length under each config (configs x traversals).

    Each pair is traversed in both directions: the first half of the arrays
    runs from each pair's lower-id element to its higher-id one, the second
    half back.
    """
    view = layout.arrays
    lengths = np.tile(view.line_length, (len(configs), 1))
    for row, config in zip(lengths, configs):
        toggled = np.array(sorted(config.toggled), dtype=np.int64)
        index = np.searchsorted(view.pair_ids, toggled)
        known = view.pair_ids[np.minimum(index, view.pair_ids.size - 1)] == toggled
        if not known.all():
            raise ConfigurationError(f"toggled pair {toggled[~known][0]} does not exist")
        fixed = ~view.has_switch[index]
        if fixed.any():
            raise ConfigurationError(f"pair {toggled[fixed][0]} has no switch")
        row[index] += layout.wavelength / 2.0
    x = view.x - layout.center[0]
    x_a, x_b = x[view.a], x[view.b]
    return np.concatenate((x_a, x_b)), np.concatenate((x_b, x_a)), np.tile(lengths, 2)


def _require_valid(layout: SurfaceLayout) -> None:
    report = layout.validation
    if not report.passed:
        raise ConstraintError(report.summary())


def response_matrix(
    layout: SurfaceLayout,
    configs,
    frequency: float,
    incidence_deg,
    observation_deg,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Complex round-trip field for every (config, incidence, observation).

    The outbound cos and sin tables do not depend on the switch state, so
    evaluating several configs in one call computes them once.

    Args:
        layout: surface geometry; must pass validate_layout.
        configs: non-empty sequence of switch states applied to the lines.
        frequency: incident wave frequency in Hz.
        incidence_deg: incidence angles in degrees, each in (-90, 90).
        observation_deg: observation angles in degrees, each in [-90, 90],
            in any order.
        amplitude: incident wave amplitude.

    Returns:
        Complex array of shape (len(configs), len(incidence_deg),
        len(observation_deg)).

    Raises:
        ConfigurationError: wavenumber * the layout's extent (its largest
            |x| plus its longest line) overflows or exceeds pi * 2**50, the
            scaled field overflows (an amplitude near the float limit), or
            its scale amplitude * sqrt(absorption efficiency) / REFERENCE_DISTANCE
            is below the smallest normal float, where the field's digits are lost.
    """
    wavelength = wavelength_of(frequency)
    check_finite("amplitude", amplitude, "positive")
    theta = np.radians(_angles(incidence_deg, "incidence"))
    phi = np.radians(_angles(observation_deg, "observation"))
    _require_valid(layout)
    _check_wavelength(layout, wavelength)
    if isinstance(configs, SwitchConfig) or not configs:
        raise ValueError("configs must be a non-empty sequence of SwitchConfig")

    scale = amplitude * math.sqrt(layout.absorption_efficiency) / REFERENCE_DISTANCE
    if scale < _SMALLEST_NORMAL:
        raise ConfigurationError(f"field underflows at amplitude {amplitude}")
    x_in, x_out, path = _traversal_arrays(layout, configs)
    wavenumber = 2.0 * math.pi / wavelength
    # Every phase the kernel forms is at most wavenumber * extent in size.
    extent = float(np.abs(x_in).max()) + float(np.abs(path).max())
    if not math.isfinite(wavenumber * extent):
        raise ConfigurationError(f"layout extent {extent} m overflows wavenumber * extent")
    # Rounding moves a phase p by up to p * 2**-53: past pi * 2**50, over pi/8 of the switch's pi.
    if wavenumber * extent > math.pi * 2.0**50:
        raise ConfigurationError(f"layout extent {extent} m is too large to resolve its switch")
    out = kernels.pair_path_response(x_in, x_out, path, wavenumber, np.sin(theta), np.sin(phi))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        out *= scale
    if not np.isfinite(out).all():
        raise ConfigurationError(f"field overflows at amplitude {amplitude}")
    return out


def roundtrip_response(
    layout: SurfaceLayout,
    config: SwitchConfig,
    wave: PlaneWave,
    observation_angle_deg: float,
) -> complex:
    """Complex field re-radiated toward one observation angle.

    Args:
        layout: surface geometry; must pass validate_layout.
        config: switch state applied to the lines.
        wave: incident plane wave.
        observation_angle_deg: angle of the observer, degrees from normal,
            in [-90, 90].

    Returns:
        Complex field amplitude at the reference distance.
    """
    pattern = field_pattern(layout, config, wave, [observation_angle_deg])
    return complex(pattern.values[0])


def field_pattern(
    layout: SurfaceLayout,
    config: SwitchConfig,
    wave: PlaneWave,
    angles_deg,
) -> FieldPattern:
    """Evaluate roundtrip_response over a strictly increasing angle grid."""
    grid = _angle_grid(angles_deg)
    values = response_matrix(
        layout,
        (config,),
        wave.frequency,
        wave.incidence_angle_deg,
        grid,
        wave.amplitude,
    )
    return FieldPattern(angles_deg=grid, values=values[0, 0])


def _sinc(x):
    # sin(x)/x with the removable singularity filled in.
    return np.sinc(np.asarray(x) / math.pi)


def plate_baseline_pattern(width: float, wave: PlaneWave, angles_deg) -> FieldPattern:
    """Monostatic physical-optics return of a flat plate of given width;
    ConfigurationError when wavenumber * width overflows or the return's scale,
    amplitude * width / wavelength / REFERENCE_DISTANCE, overflows or is below
    the smallest normal float."""
    check_finite("width", width, "positive")
    kw = wave.wavenumber * width
    if not math.isfinite(kw):
        raise ConfigurationError(f"width {width} m overflows wavenumber * width")
    grid = _angle_grid(angles_deg)
    norm = width / wave.wavelength
    scale = wave.amplitude * norm / REFERENCE_DISTANCE
    if not _SMALLEST_NORMAL <= scale < math.inf:
        flows = "underflows" if scale < _SMALLEST_NORMAL else "overflows"
        raise ConfigurationError(
            f"plate return {flows} at width {width} m and amplitude {wave.amplitude}"
        )
    theta = np.radians(grid)
    mags = (
        wave.amplitude
        * np.cos(theta)
        * np.abs(_sinc(kw * np.sin(theta)))
        * norm
        / REFERENCE_DISTANCE
    )
    return FieldPattern(angles_deg=grid, values=mags.astype(np.complex128))


def plate_monostatic_amplitude(width: float, wave: PlaneWave) -> float:
    """Plate return magnitude at the wave's own incidence angle."""
    pattern = plate_baseline_pattern(width, wave, np.array([wave.incidence_angle_deg]))
    return float(np.abs(pattern.values[0]))


def far_field_amplitude(amplitude_at_ref: float, distance: float) -> float:
    """1/r far-field scaling from the reference distance outward.

    Raises:
        ConfigurationError: the scaled amplitude is not finite (a distance
            near the subnormal range).
    """
    check_finite("distance", distance, "positive")
    scaled = amplitude_at_ref * REFERENCE_DISTANCE / distance
    if not math.isfinite(scaled):
        raise ConfigurationError(f"amplitude {amplitude_at_ref} overflows at distance {distance} m")
    return scaled


def gain_over_plate(surface: float, plate: float) -> float:
    """20 log10(surface / plate) in dB for two return magnitudes.

    +inf when the plate sits exactly on a pattern null, -inf when only the
    surface does.
    """
    if plate == 0.0:
        return math.inf
    if surface == 0.0:
        return -math.inf
    return 20.0 * math.log10(surface / plate)


def range_extension(gain_db: float) -> float:
    """Detection-range multiplier implied by an amplitude gain in dB.

    Raises:
        ConfigurationError: the multiplier overflows a float (a gain above
            about 6165 dB).
    """
    try:
        return 10.0 ** (gain_db / 20.0)
    except OverflowError:
        raise ConfigurationError(f"gain {gain_db} dB overflows the range extension") from None


def scaling_sweep(n_elements, spacing: float, wave: PlaneWave) -> list[tuple[int, float]]:
    """Retro-return gain over a single element for each array size.

    Args:
        n_elements: iterable of even element counts (>= 2).
        spacing: element spacing in meters for the linear arrays.
        wave: incident wave; retro gain is evaluated at its own angle.

    Returns:
        List of (n, amplitude ratio); the ratio is n exactly under the
        isotropic element model.
    """
    results = []
    config = SwitchConfig()
    for n in n_elements:
        if n < 2 or n % 2 != 0:
            raise ConstraintError(f"element counts must be even and >= 2, got {n}")
        layout = build_linear_array(n // 2, spacing, wave.wavelength)
        surface = abs(
            roundtrip_response(layout, config, wave, wave.incidence_angle_deg)
        )
        single = wave.amplitude * math.sqrt(layout.absorption_efficiency) / REFERENCE_DISTANCE
        results.append((n, surface / single))
    return results


def magnitude_db(values) -> np.ndarray:
    """20 log10 |values| with exact zeros clamped to DB_FLOOR."""
    mags = np.abs(np.asarray(values, dtype=np.complex128))
    out = np.full(mags.shape, DB_FLOOR)
    np.log10(mags, out=out, where=mags > 0.0)
    out = np.where(mags > 0.0, 20.0 * out, DB_FLOOR)
    return np.maximum(out, DB_FLOOR)


# CSV number formatting.  Each number becomes one fixed-width cell of bytes
# that holds NUL where no character goes; the cells of a block of rows are
# laid side by side and one bytes.translate drops the NULs.  A %.12g cell
# has the slots
#   0 sign | 1-5 "0.000" | 8-31 twelve digits, each followed by a slot for
#   the decimal point | 32 'e' | 33 exponent sign | 36-38 exponent digits
#   | 39 the separator after the cell, set by write_csv
# and the other slots stay NUL.  A layout row holds per slot the constant
# character, 0xFF where a digit is kept, or NUL; each 8-byte word of a cell
# but the first is then ANDed with a lookup word: four digits with 0xFF
# between them, or an exponent (0xFF over 'e' and its sign, three digits).
_G_WIDTH = 40
_EXPONENT_WORDS = 10000
# %.12g layout classes: 0-15 fixed notation with decimal exponent -4..11,
# 16-19 exponent notation (e+XX, e+XXX, e-XX, e-XXX), 20 zero.
_G_CLASSES = 21
# |s - rint(s)| of a fast-path value stays below 1/2 minus this margin, well
# clear of the scaling error of at most 2u * 1e12 = 2.2e-4 (see write_csv).
_TIE_MARGIN = 1e-3
# Powers of ten 10**k for |k| <= _P10_BIAS, all normal floats, so that the
# fast path covers 1e-290 <= |x| < 1e290.
_P10_BIAS = 301
_FAST_RANGE = (1e-290, 1e290)
# Most values write_csv formats at a time: whole rows, at least one.
_CSV_BLOCK = 4096


@functools.cache
def _csv_tables():
    """Lookup tables of the CSV formatter, built on first use:

    words        lookup words: digits of 0..9999, then exponents 0..999
    trailing     trailing zeros of 0..9999 (4 for 0)
    g_row        %.12g layout row, per exponent + _P10_BIAS, of a value
                 with no trailing zero; z trailing zeros take the row z
                 before it
    powers       10**k for k = -_P10_BIAS.._P10_BIAS, correctly rounded
    g_layouts    %.12g layout rows: sign x class x kept digits 1..12
    """
    digit = np.arange(48, 58, dtype=np.uint8)
    words = np.full((11000, 8), 0xFF, np.uint8)
    by_digit = words[:10000].reshape(10, 10, 10, 10, 8)
    for k in range(4):
        by_digit[..., 2 * k] = digit.reshape((10,) + (1,) * (3 - k))
    exponents = words[10000:].reshape(10, 10, 10, 8)
    exponents[..., 2:] = 0
    for k in range(3):
        exponents[..., 4 + k] = digit.reshape((10,) + (1,) * (2 - k))
    zero = (np.arange(10) == 0).astype(np.intp)
    zero_at = [zero.reshape((10,) + (1,) * k) for k in range(4)]  # last digit first
    trailing = zero_at[0] * (1 + zero_at[1] * (1 + zero_at[2] * (1 + zero_at[3])))
    e = np.arange(-_P10_BIAS, _P10_BIAS + 1)
    exponent_form = 16 + 2 * (e < 0) + (np.abs(e) >= 100)
    classes = np.where((e >= -4) & (e < 12), e + 4, exponent_form)
    powers = np.array([float(f"1e{k}") for k in e])  # correctly rounded
    g_rows = np.zeros((2, _G_CLASSES, 12, _G_WIDTH), np.uint8)
    g_rows[1, ..., 0] = ord("-")
    g_rows[:, 20, :, 1] = ord("0")
    cls, kept, j = np.arange(20)[:, None, None], np.arange(1, 13)[:, None], np.arange(12)
    # The digit (from 0) that the point follows: cls - 4 in ddd.ddd, 0 in
    # d.ddde+XX, none in 0.000ddd.
    fixed = (cls >= 4) & (cls < 16)
    point = np.where(fixed, cls - 4, np.where(cls < 4, 99, 0))
    shown = np.where(fixed, np.maximum(kept, point + 1), kept)
    body = g_rows[:, :20]
    body[..., 8:32:2] = np.where(j < shown, 0xFF, 0)
    body[..., 9:32:2] = np.where((j == point) & (kept > point + 1), ord("."), 0)
    prefix = np.frombuffer(b"0.000", np.uint8)
    body[:, :4, :, 1:6] = np.where(np.arange(5) < 5 - cls[:4], prefix, 0)
    body[:, 16:20, :, 32:34] = np.frombuffer(b"e+", np.uint8)
    body[:, 18:20, :, 33] = ord("-")
    body[:, 16:20, :, 37:39] = 0xFF
    body[:, 17:20:2, :, 36] = 0xFF
    tables = SimpleNamespace(
        words=words.view(np.uint64).ravel(),
        trailing=trailing.ravel(),
        g_row=classes * 12 + 11,
        powers=powers,
        g_layouts=g_rows.reshape(-1, _G_WIDTH),
    )
    for table in vars(tables).values():
        table.flags.writeable = False  # shared by every later call
    return tables


def _g_cells(x: np.ndarray) -> np.ndarray:
    """The bytes of ``b"%.12g" % v`` for each v of x, one NUL-padded cell per
    value (len(x) x _G_WIDTH uint8)."""
    t = _csv_tables()
    a = np.abs(x)
    fast = (a >= _FAST_RANGE[0]) & (a < _FAST_RANGE[1])
    a = np.where(fast, a, 1.0)
    exp = np.floor(np.log10(a)).astype(np.intp)
    s = a * t.powers[_P10_BIAS + 11 - exp]
    m = np.rint(s)
    fast &= (s >= 1e11) & (m < 1e12) & (np.abs(s - m) < 0.5 - _TIE_MARGIN)
    # Twelve digits as three groups of four.  Every step is exact: m is an
    # integer below 1e12, and m / 1e8 and rest / 1e4 round to no integer.
    m = np.where(fast, m, 1e11)
    high = np.floor(m / 1e8)
    rest = m - high * 1e8
    mid = np.floor(rest / 1e4)
    groups = [g.astype(np.intp) for g in (high, mid, rest - mid * 1e4)]
    z0, z1, z2 = (t.trailing[g] for g in groups)
    key = t.g_row[exp + _P10_BIAS] - z2 - (z2 == 4) * (z1 + (z1 == 4) * z0)
    key[x == 0.0] = 20 * 12
    key += np.signbit(x) * (_G_CLASSES * 12)
    cells = np.take(t.g_layouts, key, axis=0)
    words = cells.view(np.uint64)
    for k, g in enumerate(groups, 1):
        words[:, k] &= t.words[g]
    words[:, 4] &= t.words[_EXPONENT_WORDS + np.abs(exp)]
    wide = ~fast & (x != 0.0)
    texts = np.array([b"%.12g" % v for v in x[wide].tolist()], f"S{_G_WIDTH}")
    cells[wide] = texts.view(np.uint8).reshape(-1, _G_WIDTH)
    return cells


def write_csv(path, header: str, *columns) -> None:
    """Header line, then one line per row of the columns: each value as
    ``%.12g``, joined by ``,``.  Rows are formatted and written in blocks
    of at most _CSV_BLOCK values, so the cells of one block are held at a
    time.

    Each row reads exactly as Python's ``%`` prints the row's values with
    that format, integers taken as float64: below 1e12 in magnitude an
    integer prints as its ``%d`` does.  The numbers are formatted in numpy:
    a finite x with 1e-290 <= |x| < 1e290 has decimal exponent
    e = floor(log10|x|) and is scaled to s = |x| * 10**(11-e), with the
    power a correctly rounded float, so s carries a relative error of at
    most 2u (u = 2**-53) and an absolute one below 2.2e-4, as s < 1e12.
    m = rint(s) is then the correctly rounded 12-digit mantissa whenever
    s >= 1e11, m < 1e12 and |s - m| < 1/2 - 1e-3: no value within the
    error of s rounds the other way, whatever e log10 gave.  Zeros are
    written directly.  Every other value (a near-tie, an exponent log10
    misjudged, a carry to 1e12, nan, inf, subnormal or out-of-range |x|)
    is formatted alone by Python's ``%``.

    Raises:
        ValueError: there is no column, or the columns are not 1-D arrays
            of real numbers of one length.
    """
    arrays = [np.asarray(column) for column in columns]
    if not arrays or any(
        a.ndim != 1 or len(a) != len(arrays[0]) or a.dtype.kind not in "biuf" for a in arrays
    ):
        raise ValueError("columns must be one or more 1-D arrays of real numbers of one length")
    rows = max(1, _CSV_BLOCK // len(arrays))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, len(arrays[0]), rows):
            fh.write(_csv_lines([a[lo : lo + rows] for a in arrays]))


def _csv_lines(columns) -> bytes:
    """The CSV lines of the rows of columns, which write_csv checked.  A
    call per block frees the block's cells before the next block's."""
    values = np.stack(columns, axis=1, dtype=np.float64)
    cells = _g_cells(values.ravel()).reshape(values.shape + (_G_WIDTH,))
    cells[..., -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def write_pattern_csv(pattern: FieldPattern, path) -> None:
    """CSV with columns angle_deg, re_v_per_m, im_v_per_m, mag_v_per_m, mag_db."""
    write_csv(
        path,
        "angle_deg,re_v_per_m,im_v_per_m,mag_v_per_m,mag_db",
        pattern.angles_deg,
        pattern.values.real,
        pattern.values.imag,
        pattern.magnitudes(),
        magnitude_db(pattern.values),
    )
