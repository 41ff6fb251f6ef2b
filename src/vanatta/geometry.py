"""Geometry of retrodirective reflective surfaces.

A surface is a set of antenna elements grouped into pairs, each pair joined
by a passive transmission line.  Two properties make the surface re-radiate
toward whatever direction illuminates it, with no phase estimation anywhere:

1. every pair is centrosymmetric about the layout center, so the incoming
   and outgoing projection paths of a pair sum to the same value for any
   incidence angle, and
2. all line electrical lengths are congruent modulo one wavelength, so the
   residual phase is shared by every pair.

Half of the lines carry a switch that inserts an extra half wavelength.
Closing those switches shifts the affected pairs by 180 degrees and turns
the coherent retro-return into a null, which is what the modulation layer
exploits.

Two builders are provided: a 1-D linear array (pairs nested around the
center, outermost elements paired together) and a 2-D surface of concentric
rings whose radii step by wavelength/pi so that the 180-degree arc lines of
consecutive rings differ by exactly one wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ConstraintError, check_count, check_finite, check_number

# Vacuum speed of light, m/s.
C0 = 299_792_458.0

# Default innermost line length, in wavelengths.  Any value works as long as
# all lines stay congruent modulo the wavelength; ten keeps the lines longer
# than the apertures built here so nested routing stays physical.
DEFAULT_BASE_LENGTH_WAVELENGTHS = 10.0


def wavelength_of(frequency: float) -> float:
    """Free-space wavelength in meters for a frequency in Hz."""
    check_finite("frequency", frequency, "positive")
    return C0 / frequency


@dataclass(frozen=True)
class AntennaElement:
    """One radiating element.

    position is (x, y) in meters in the surface plane; x is the axis used
    for azimuth pattern cuts.
    """

    id: int
    position: tuple[float, float]
    pair_id: int


@dataclass(frozen=True)
class TransmissionLine:
    """Line joining the two elements of a pair.

    base_electrical_length is in meters.  When has_switch is true the line
    can insert half the layout's design wavelength to flip the pair's
    round-trip phase by 180 degrees.
    """

    pair_id: int
    base_electrical_length: float
    has_switch: bool


@dataclass(frozen=True)
class Violation:
    """One validation finding: rule name, offending ids, deviation in meters."""

    rule: str
    ids: tuple[int, ...]
    deviation: float


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]

    def summary(self) -> str:
        if self.passed:
            return "layout valid"
        lines = [f"layout invalid ({len(self.violations)} violations)"]
        for v in self.violations:
            ids = ",".join(str(i) for i in v.ids)
            lines.append(f"  {v.rule}: ids=({ids}) deviation={v.deviation:.6g} m")
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class LayoutArrays:
    """Read-only array view of a SurfaceLayout.

    ids, x and y follow layout.elements.  The pair arrays follow ascending
    pair id: a and b index the lower- and higher-id element of each pair,
    and line_length and has_switch describe the pair's line.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    pair_ids: np.ndarray
    a: np.ndarray
    b: np.ndarray
    line_length: np.ndarray
    has_switch: np.ndarray


@dataclass(frozen=True)
class SurfaceLayout:
    """Immutable description of one surface.

    absorption_efficiency is the fraction of incident power captured by an
    element and re-emitted after the line round trip; it enters field
    amplitudes once as its square root.  The layout is its arrays: this
    constructor reads them out of the tuples, while the builders and
    load_layout fill them directly and build the tuples (lines in pair id
    order) on first read.  All four run one check, _attach_arrays, so a
    layout built in code is refused as a file is: ConfigurationError names
    a value of the wrong type or range, or a non-finite one; ConstraintError
    refuses no elements, a broken pairing or an absorption outside (0, 1].
    """

    elements: tuple[AntennaElement, ...]
    lines: tuple[TransmissionLine, ...]
    wavelength: float
    center: tuple[float, float] = (0.0, 0.0)
    absorption_efficiency: float = 0.82
    # The array view, built and checked with the layout; dataclasses.replace
    # makes a new object and so a new view.
    arrays: LayoutArrays = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        es, ls = self.elements, self.lines
        _attach_arrays(
            self, self.wavelength, self.center, self.absorption_efficiency,
            [e.id for e in es], [e.position[0] for e in es], [e.position[1] for e in es],
            [e.pair_id for e in es],
            [ln.pair_id for ln in ls], [ln.base_electrical_length for ln in ls],
            [ln.has_switch for ln in ls],
        )

    def __getattr__(self, name):
        # Normal lookup failed: the first read of an array-built layout's tuples.
        if name not in ("elements", "lines"):
            raise AttributeError(f"'SurfaceLayout' object has no attribute {name!r}")
        v = self.arrays
        pairs = np.empty_like(v.ids)
        pairs[v.a] = pairs[v.b] = v.pair_ids
        positions = zip(v.x.tolist(), v.y.tolist())
        elements = map(AntennaElement, v.ids.tolist(), positions, pairs.tolist())
        columns = (v.pair_ids, v.line_length, v.has_switch)
        lines = map(TransmissionLine, *(column.tolist() for column in columns))
        vars(self).update(elements=tuple(elements), lines=tuple(lines))
        return vars(self)[name]

    @property
    def n_elements(self) -> int:
        return self.arrays.ids.size

    @property
    def n_pairs(self) -> int:
        return self.arrays.pair_ids.size

    # Layouts are frozen, so each object runs its default-tolerance report
    # once; dataclasses.replace makes a new object with an empty cache.
    @cached_property
    def validation(self) -> ValidationReport:
        """validate_layout at its default tolerance, run on first use."""
        return validate_layout(self)


def _attach_arrays(
    layout, wavelength, center, efficiency, ids, x, y, pairs, line_pairs, length, switch
) -> None:
    """The one check of every layout, in this order, and its array view: the
    scalars (stored on layout as floats), then ids, x, y and pairs per element
    and line_pairs, length and switch per line, in any order, each by _column."""
    check_finite("wavelength", wavelength, "positive")
    check_number("absorption_efficiency", efficiency)
    wavelength, efficiency = float(wavelength), float(efficiency)
    if not 0.0 < efficiency <= 1.0:
        raise ConstraintError(f"absorption_efficiency must be in (0, 1], got {efficiency}")
    if not (isinstance(center, (tuple, list)) and len(center) == 2):
        raise ConfigurationError(f"layout center_xy_m must be two numbers, got {center!r}")
    center = tuple(_column("layout center_xy_m[{i}]", center, float).tolist())
    vars(layout).update(wavelength=wavelength, absorption_efficiency=efficiency, center=center)
    if not all(map(math.isfinite, center)):
        raise ConfigurationError(f"center must be finite, got {center}")
    ids = _column("element ids", ids, int)
    if ids.size == 0:
        raise ConstraintError("layout has no elements")
    sorted_ids = np.sort(ids)
    if (sorted_ids[1:] == sorted_ids[:-1]).any():
        raise ConstraintError("element ids must be unique")
    pairs = _column("element pair_ids", pairs, int)
    # Sorting by (pair, id) runs each pair's members together: a valid
    # layout has runs of two, lower id first.
    order = np.lexsort((ids, pairs))
    run = pairs[order]
    edge = np.flatnonzero(np.concatenate(([True], run[1:] != run[:-1], [True])))
    pair_ids, members = run[edge[:-1]], edge[1:] - edge[:-1]
    if (members != 2).any():
        raise ConstraintError(
            f"pairs must have exactly two elements, bad: {pair_ids[members != 2].tolist()}"
        )
    line_pairs = _column("line pair_ids", line_pairs, int)
    by_pair = np.argsort(line_pairs, kind="stable")
    if not np.array_equal(line_pairs[by_pair], pair_ids):
        raise ConstraintError("pair_ids of lines and element pairs must match")

    x = _column("layout elements[{i}] x_m", x, float)
    y = _column("layout elements[{i}] y_m", y, float)
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        i = np.flatnonzero(~finite)[0]
        position = (float(x[i]), float(y[i]))
        raise ConfigurationError(f"element {ids[i]} position must be finite, got {position}")
    length = _column("layout lines[{i}] base_length_m", length, float)[by_pair]
    finite = np.isfinite(length)
    if not finite.all():
        i = np.flatnonzero(~finite)[0]
        raise ConfigurationError(
            f"pair {pair_ids[i]} line length must be finite, got {float(length[i])}"
        )

    view = LayoutArrays(
        ids=ids,
        x=x,
        y=y,
        pair_ids=pair_ids,
        a=order[0::2],
        b=order[1::2],
        line_length=length,
        has_switch=_column("line has_switch", switch, bool)[by_pair],
    )
    for array in vars(view).values():
        array.flags.writeable = False
    vars(layout)["arrays"] = view


def _column(name: str, values, kind: type) -> np.ndarray:
    """values as an array of kind's dtype (int64, float64 or bool): such an
    array, or a list of kind that numpy converts, whole; else ConfigurationError
    "<name> must <reason>, got <value>" for the first value errors.refusal refuses."""
    dtype = {int: np.int64, float: np.float64, bool: np.bool_}[kind]
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        return values
    try:  # one pass in C for the usual list, such as a file's column
        if {*map(type, values)} <= {kind}:
            return np.asarray(values, dtype)
    except OverflowError:  # an int outside int64, which the rule names
        pass
    for i, value in enumerate(values):
        check_number(name.format(i=i), value, kind)
    return np.asarray(values, dtype)


def _layout(*scalars_and_columns) -> SurfaceLayout:
    """A SurfaceLayout of _attach_arrays' arguments, whose tuples wait for a read."""
    layout = object.__new__(SurfaceLayout)
    _attach_arrays(layout, *scalars_and_columns)
    return layout


def build_linear_array(
    n_pairs: int,
    spacing: float,
    wavelength: float,
    base_length: float | None = None,
    absorption_efficiency: float = 0.82,
) -> SurfaceLayout:
    """Uniform 1-D array of 2*n_pairs elements centered on the origin.

    Outermost elements are paired together (pair 1), the next ones inward
    form pair 2, and so on.  The innermost pair's line has base_length
    (default 10 wavelengths); each enclosing pair adds one wavelength so the
    line of pair k is base_length + (n_pairs - k) * wavelength.  Switches sit
    on the even-numbered pairs.

    Args:
        n_pairs: number of element pairs (>= 1).
        spacing: element separation in meters, at least wavelength/2.
        wavelength: design wavelength in meters.
        base_length: innermost line electrical length; default 10 wavelengths.
        absorption_efficiency: see SurfaceLayout.

    Returns:
        A SurfaceLayout that passes validate_layout.
    """
    check_count("n_pairs", n_pairs)
    check_finite("wavelength", wavelength, "positive")
    check_finite("spacing", spacing)
    if spacing < wavelength / 2.0:
        raise ConstraintError(
            f"spacing {spacing} m is below the half-wavelength minimum "
            f"{wavelength / 2.0} m"
        )
    if base_length is None:
        base_length = DEFAULT_BASE_LENGTH_WAVELENGTHS * wavelength
    check_finite("base_length", base_length, "positive")

    n = 2 * n_pairs
    x = (np.arange(n) - (n - 1) / 2.0) * spacing
    pair = np.arange(1, n_pairs + 1)
    # Pair ids run from 1 and the switches sit on the even ones.
    return _layout(
        wavelength, (0.0, 0.0), absorption_efficiency,
        np.arange(n), x, np.zeros(n), np.concatenate((pair, pair[::-1])),
        pair, base_length + (n_pairs - pair) * wavelength, pair % 2 == 0,
    )


def _ring_count(base_radius: float, n_rings: int, wavelength: float) -> int:
    """Even per-ring count satisfying same-ring and adjacent-ring spacing.

    Rings sit only wavelength/pi apart radially, closer than the
    wavelength/2 floor, so adjacent rings must interleave: all rings share
    one count, alternate rings are offset by half an angular step, and the
    count is the largest even one whose innermost same-ring chord and (with
    more than one ring) innermost cross-ring distance clear the floor.  The
    search steps down from the chord's asin estimate and stops at 2, which
    clears both once base_radius >= wavelength/4: the chord is then
    2 * base_radius, and r0^2 + r1^2 alone exceeds the floor squared.
    """
    ratio = wavelength / (4.0 * base_radius)
    # Only an absurd radius underflows the ratio to 0, where asin would give a zero divisor.
    n = int(math.pi / math.asin(ratio)) if ratio > 0.0 else 10**9
    n -= n % 2
    r0, r1 = base_radius, base_radius + wavelength / math.pi
    floor_sq = (wavelength / 2.0) ** 2
    while n > 2:
        gap = math.pi / n
        chord_ok = 2.0 * r0 * math.sin(gap) >= wavelength / 2.0
        cross_sq = r0 * r0 + r1 * r1 - 2.0 * r0 * r1 * math.cos(gap)
        if chord_ok and (n_rings == 1 or cross_sq >= floor_sq):
            break
        n -= 2
    return n


def build_concentric_surface(
    n_rings: int,
    base_radius: float,
    wavelength: float,
    absorption_efficiency: float = 0.82,
) -> SurfaceLayout:
    """2-D surface of concentric rings with diametric pairs.

    Ring m has radius base_radius + m * wavelength / pi and its pairs are
    joined by 180-degree arc lines of length pi * radius, so lines of
    consecutive rings differ by exactly one wavelength.  All rings share one
    even element count — the largest that keeps the innermost same-ring
    chord at wavelength/2 or more and, with alternate rings offset by half
    an angular step, keeps adjacent rings that far apart too (ring pitch is
    wavelength/pi, closer than the floor, so the rings must interleave).

    Args:
        n_rings: number of rings (>= 1).
        base_radius: innermost ring radius in meters (>= wavelength/4 so a
            diametric pair is at least half a wavelength apart).
        wavelength: design wavelength in meters.
        absorption_efficiency: see SurfaceLayout.

    Returns:
        A SurfaceLayout that passes validate_layout.
    """
    check_count("n_rings", n_rings)
    check_finite("wavelength", wavelength, "positive")
    check_finite("base_radius", base_radius)
    if 4.0 * base_radius < wavelength:  # exact, unlike wavelength / 4.0 when subnormal
        raise ConstraintError(
            f"base_radius {base_radius} m gives a diametric pair closer than "
            f"wavelength/2; need at least {wavelength / 4.0} m"
        )

    count = _ring_count(base_radius, n_rings, wavelength)
    half = count // 2
    m = np.arange(n_rings)
    radius = base_radius + m * wavelength / math.pi
    phase = (math.pi / count) * (m % 2)
    angle = phase[:, None] + 2.0 * math.pi * np.arange(half) / count
    # math's cos and sin, not numpy's, whose last bits may differ.
    cos = np.reshape(list(map(math.cos, angle.ravel().tolist())), angle.shape)
    sin = np.reshape(list(map(math.sin, angle.ravel().tolist())), angle.shape)
    x, y = radius[:, None] * cos, radius[:, None] * sin
    # Per ring the first half of the elements explicitly, then the second
    # half as exact negations so every pair is centrosymmetric to the bit.
    # Ids run on across rings; element j of ring m and its negation form
    # pair m * half + j + 1.
    xs = np.concatenate((x, -x), axis=1).ravel()
    ys = np.concatenate((y, -y), axis=1).ravel()
    pairs = (m[:, None] * half + np.arange(count) % half + 1).ravel()
    pair = np.arange(1, n_rings * half + 1)
    # Pair ids run from 1 and the switches sit on the even ones.
    return _layout(
        wavelength, (0.0, 0.0), absorption_efficiency,
        np.arange(n_rings * count), xs, ys, pairs,
        pair, np.repeat(math.pi * radius, half), pair % 2 == 0,
    )


def _sorted_window_pairs(order, start, stop):
    """Index pairs (i, j), i < j, in row-major order: the items at sorted
    positions k and m for every m in [start[k], stop[k]) with m > k, where
    order[k] is the index of the item at sorted position k."""
    n = order.size
    start = np.maximum(start, np.arange(1, n + 1))
    count = np.maximum(stop - start, 0)
    if not count.any():  # the usual case: a valid layout has no candidates
        return order[:0], order[:0]
    k = np.repeat(np.arange(n), count)
    m = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
    p, q = order[k], order[m]
    i, j = np.minimum(p, q), np.maximum(p, q)
    rank = np.lexsort((j, i))
    return i[rank], j[rank]


def validate_layout(layout: SurfaceLayout, tolerance: float | None = None) -> ValidationReport:
    """Check the three retrodirection constraints.

    Rules reported:
      centrosymmetry          pair midpoint off the layout center
      line_length_congruence  two lines whose lengths differ by a non-integer
                              number of wavelengths
      min_spacing             two elements closer than wavelength/2

    Deviations are in meters: the midpoint-sum offset |p_a + p_b - 2c| for
    centrosymmetry, the distance to the nearest wavelength multiple for
    congruence, and the shortfall below wavelength/2 for spacing.  Pair
    findings come in row-major (i, j) order of ascending pair id for
    congruence and of layout.elements for spacing.

    The pairwise rules evaluate their formula only on candidate pairs, the
    pairs that rounding leaves able to break the rule; the others are proven
    to pass.  With u = 2**-53 (the float64 unit roundoff) and tol the
    tolerance:

      min_spacing  a pair is a candidate when its x gap on the x-sorted
          elements is below (wavelength/2 - tol) + slack, with slack =
          2**-50 (|wavelength/2 - tol| + max|x|).  The computed hypot(dx, dy)
          is at least |dx|; the slack covers the rounding of dx, of the
          window bound and of hypot.
      line_length_congruence  each length's residue fmod(l, wavelength) is
          put on the circle [0, wavelength), and a pair is a candidate when
          the circular distance of its residues, wrap at 0/wavelength
          included, exceeds tol - slack, with slack = 2**-50 (wavelength +
          tol + max(l) - min(l)).  The deviation min(f, wavelength - f) of f
          = |fmod(l_i - l_j, wavelength)| is exactly the distance of the
          rounded difference to the nearest wavelength multiple (fmod is
          exact and wavelength - f is exact for f >= wavelength/2), so it
          exceeds the residue distance by at most the rounding of l_i - l_j
          (<= u (max(l) - min(l))), of a negative length's residue (<= u
          wavelength each) and of the window bounds (<= 3u wavelength); the
          slack covers their sum with room for the rounding of tol - slack.

    Either way the work is O(n log n + candidates) in time and memory.  A
    congruence candidate is a violation unless it lies within the slack of
    the limit, and so is a spacing candidate on a linear layout; on a 2-D
    layout the spacing candidates also hold the pairs closer than the floor
    in x that clear it in y.

    Args:
        layout: surface to check.
        tolerance: allowed deviation in meters; None takes 1e-9, or 64 u
            times the layout's largest magnitude when that is larger.

    Returns:
        ValidationReport; passed is true iff no rule exceeds tolerance.
    """
    view = layout.arrays
    lam = layout.wavelength
    if tolerance is None:
        sizes = (np.abs(a).max() for a in (view.x, view.y, view.line_length, layout.center))
        tolerance = max(1e-9, 2.0**-47 * float(max(lam, *sizes)))
    check_finite("tolerance", tolerance, "non-negative")
    cx, cy = layout.center
    violations: list[Violation] = []

    x, y, a, b = view.x, view.y, view.a, view.b
    dev = np.hypot(x[a] + x[b] - 2.0 * cx, y[a] + y[b] - 2.0 * cy)
    for i in np.flatnonzero(dev > tolerance):
        violations.append(Violation("centrosymmetry", (int(view.pair_ids[i]),), float(dev[i])))

    length = view.line_length
    residue = np.fmod(length, lam)
    residue[residue < 0.0] += lam
    order = np.argsort(residue, kind="stable")
    ring = residue[order]
    near = tolerance - 2.0**-50 * (lam + tolerance + (length.max() - length.min()))
    start = np.searchsorted(ring, ring + near, side="right")
    stop = np.searchsorted(ring, ring + (lam - near), side="left")
    i, j = _sorted_window_pairs(order, start, stop)
    frac = np.abs(np.fmod(length[i] - length[j], lam))
    dev = np.minimum(frac, lam - frac)
    for p in np.flatnonzero(dev > tolerance):
        ids = (int(view.pair_ids[i[p]]), int(view.pair_ids[j[p]]))
        violations.append(Violation("line_length_congruence", ids, float(dev[p])))

    floor = lam / 2.0
    limit = floor - tolerance
    order = np.argsort(x, kind="stable")
    xs = x[order]
    reach = limit + 2.0**-50 * (abs(limit) + np.abs(x).max())
    stop = np.searchsorted(xs, xs + reach, side="left")
    i, j = _sorted_window_pairs(order, 0, stop)
    dist = np.hypot(x[i] - x[j], y[i] - y[j])
    for p in np.flatnonzero(dist < limit):
        ids = (int(view.ids[i[p]]), int(view.ids[j[p]]))
        violations.append(Violation("min_spacing", ids, float(floor - dist[p])))

    return ValidationReport(passed=not violations, violations=tuple(violations))


def save_layout(layout: SurfaceLayout, path) -> None:
    """Write a layout as JSON; floats round-trip exactly."""
    import json

    doc = {
        "wavelength_m": layout.wavelength,
        "center_xy_m": list(layout.center),
        "absorption_efficiency": layout.absorption_efficiency,
        "elements": [
            {
                "id": e.id,
                "x_m": e.position[0],
                "y_m": e.position[1],
                "pair_id": e.pair_id,
            }
            for e in layout.elements
        ],
        "lines": [
            {
                "pair_id": ln.pair_id,
                "base_length_m": ln.base_electrical_length,
                "has_switch": ln.has_switch,
            }
            for ln in layout.lines
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _json(record, key: str, where: str):
    """record[key], refused naming key unless record is a JSON object holding it."""
    if not isinstance(record, dict) or key not in record:
        raise ConfigurationError(f"layout {where} has no {key}")
    return record[key]


def load_layout(path) -> SurfaceLayout:
    """Read a layout written by save_layout.

    Only the file's shape is checked here: a missing key, or elements or
    lines that are not a list, raises ConfigurationError naming the field.
    The values go on as read to the check every layout runs (SurfaceLayout).
    """
    import json

    with open(path) as fh:
        doc = json.load(fh)

    def column(section: str, key: str) -> list:
        records = _json(doc, section, "file")
        if not isinstance(records, list):
            raise ConfigurationError(f"layout {section} must be a list, got {records!r}")
        return [_json(r, key, f"{section}[{i}]") for i, r in enumerate(records)]

    return _layout(
        *(_json(doc, k, "file") for k in ("wavelength_m", "center_xy_m", "absorption_efficiency")),
        *(column("elements", key) for key in ("id", "x_m", "y_m", "pair_id")),
        *(column("lines", key) for key in ("pair_id", "base_length_m", "has_switch")),
    )
