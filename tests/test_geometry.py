"""Layout builders, the constraint validator, and the JSON round trip."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanatta import (
    ConfigurationError,
    ConstraintError,
    SimulationError,
    build_concentric_surface,
    build_linear_array,
    load_layout,
    save_layout,
    validate_layout,
    wavelength_of,
)
from vanatta.geometry import AntennaElement, SurfaceLayout, TransmissionLine, Violation

LAM = 0.012491352416666667  # wavelength at 24 GHz


def pair_members(layout):
    """Each pair's two elements, lower id first, keyed by pair id."""
    members = {}
    for e in sorted(layout.elements, key=lambda e: e.id):
        members.setdefault(e.pair_id, []).append(e)
    return members


def reference_validate_layout(layout, tolerance=1e-9):
    """Loop-by-loop validator: the oracle for the vectorized validate_layout."""
    lam = layout.wavelength
    cx, cy = layout.center
    violations = []

    for pid, (a, b) in sorted(pair_members(layout).items()):
        dev = math.hypot(
            a.position[0] + b.position[0] - 2.0 * cx,
            a.position[1] + b.position[1] - 2.0 * cy,
        )
        if dev > tolerance:
            violations.append(Violation("centrosymmetry", (pid,), dev))

    lines = sorted(layout.lines, key=lambda ln: ln.pair_id)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            diff = lines[i].base_electrical_length - lines[j].base_electrical_length
            frac = abs(math.fmod(diff, lam))
            dev = min(frac, lam - frac)
            if dev > tolerance:
                violations.append(
                    Violation(
                        "line_length_congruence",
                        (lines[i].pair_id, lines[j].pair_id),
                        dev,
                    )
                )

    elems = layout.elements
    floor = lam / 2.0
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            d = math.hypot(
                elems[i].position[0] - elems[j].position[0],
                elems[i].position[1] - elems[j].position[1],
            )
            if d < floor - tolerance:
                violations.append(
                    Violation("min_spacing", (elems[i].id, elems[j].id), floor - d)
                )
    return violations


def perturbed_layouts():
    """Acceptance check 9's perturbations (same seed), then a squeezed array."""
    layouts = [build_linear_array(n, LAM / 2.0, LAM) for n in (2, 3, 4, 5)] + [
        build_concentric_surface(rings, LAM, LAM) for rings in (1, 2)
    ]
    rng = np.random.default_rng(424242)
    for _ in range(100):
        layout = layouts[int(rng.integers(len(layouts)))]
        if rng.random() < 0.5:
            idx = int(rng.integers(len(layout.elements)))
            angle = rng.uniform(0.0, 2.0 * math.pi)
            element = layout.elements[idx]
            moved = dataclasses.replace(
                element,
                position=(
                    element.position[0] + (LAM / 10.0) * math.cos(angle),
                    element.position[1] + (LAM / 10.0) * math.sin(angle),
                ),
            )
            elements = list(layout.elements)
            elements[idx] = moved
            yield dataclasses.replace(layout, elements=tuple(elements))
        else:
            idx = int(rng.integers(len(layout.lines)))
            line = layout.lines[idx]
            stretched = dataclasses.replace(
                line, base_electrical_length=line.base_electrical_length + LAM / 4.0
            )
            lines = list(layout.lines)
            lines[idx] = stretched
            yield dataclasses.replace(layout, lines=tuple(lines))
    squeezed = build_linear_array(3, 0.6 * LAM, LAM)
    yield dataclasses.replace(
        squeezed,
        elements=tuple(
            dataclasses.replace(e, position=(0.7 * e.position[0], 0.0))
            for e in squeezed.elements
        ),
    )


def test_wavelength_at_24ghz():
    lam = wavelength_of(24e9)
    assert lam == LAM
    assert math.isclose(lam / 2.0, 6.25e-3, rel_tol=1e-3)


def test_wavelength_at_76ghz_half():
    assert math.isclose(wavelength_of(76e9) / 2.0, 1.972e-3, rel_tol=1e-3)


def test_wavelength_of_c_is_one_meter():
    assert wavelength_of(299_792_458.0) == 1.0


def test_wavelength_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        wavelength_of(0.0)
    with pytest.raises(ValueError):
        wavelength_of(-24e9)


BAD = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: build_linear_array(2, LAM / 2.0, v), "wavelength"),
        (lambda v: build_linear_array(2, v, LAM), "spacing"),
        (lambda v: build_linear_array(2, LAM / 2.0, LAM, v), "base_length"),
        (lambda v: build_concentric_surface(1, LAM, v), "wavelength"),
        (lambda v: build_concentric_surface(1, v, LAM), "base_radius"),
        (lambda v: validate_layout(build_linear_array(1, LAM, LAM), v), "tolerance"),
        (wavelength_of, "frequency"),
    ],
)
def test_non_finite_inputs_rejected_up_front(build, name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be .*finite, got"):
        build(value)


@pytest.mark.parametrize("count", [0, 2.7, 2.0, math.nan])
def test_builders_take_integral_counts(count):
    with pytest.raises(ConfigurationError, match="n_pairs must be an integer >= 1"):
        build_linear_array(count, LAM / 2.0, LAM)
    with pytest.raises(ConfigurationError, match="n_rings must be an integer >= 1"):
        build_concentric_surface(count, LAM, LAM)


def test_linear_two_pair_positions():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    xs = sorted(e.position[0] for e in layout.elements)
    expected = [-0.75 * LAM, -0.25 * LAM, 0.25 * LAM, 0.75 * LAM]
    assert xs == pytest.approx(expected, abs=1e-18)
    assert all(e.position[1] == 0.0 for e in layout.elements)


def test_linear_line_lengths_differ_by_one_wavelength():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    lengths = {ln.pair_id: ln.base_electrical_length for ln in layout.lines}
    l1, l2 = lengths[1], lengths[2]
    assert math.isclose(abs(l1 - l2), LAM, rel_tol=1e-15)


def test_linear_outermost_elements_pair_together():
    layout = build_linear_array(3, LAM / 2.0, LAM)
    spans = {}
    for pid, (a, b) in pair_members(layout).items():
        assert a.position[0] == -b.position[0], "pairs must mirror about center"
        spans[pid] = abs(a.position[0])
    # pair 1 is the outermost pair and carries the longest line
    assert spans[1] == max(spans.values())
    by_pair = {ln.pair_id: ln.base_electrical_length for ln in layout.lines}
    lengths = [by_pair[pid] for pid in (1, 2, 3)]
    assert lengths[0] > lengths[1] > lengths[2]


def test_single_pair_is_trivially_valid():
    layout = build_linear_array(1, LAM / 2.0, LAM)
    assert layout.n_elements == 2
    assert layout.n_pairs == 1
    assert validate_layout(layout).passed


def test_four_pair_array_passes_validator():
    layout = build_linear_array(4, LAM / 2.0, LAM)
    assert validate_layout(layout, 1e-12).passed


def test_linear_spacing_floor_enforced():
    with pytest.raises(ConstraintError):
        build_linear_array(2, 0.49 * LAM, LAM)


def test_linear_mirror_symmetry():
    layout = build_linear_array(3, 0.7 * LAM, LAM)
    xs = sorted(e.position[0] for e in layout.elements)
    mirrored = sorted(-x for x in xs)
    assert xs == pytest.approx(mirrored, abs=1e-18)


def test_concentric_consecutive_ring_lines_differ_by_wavelength():
    surface = build_concentric_surface(2, 1.1 * LAM, LAM)
    lengths = sorted({line.base_electrical_length for line in surface.lines})
    assert len(lengths) == 2
    assert math.isclose(lengths[1] - lengths[0], LAM, rel_tol=1e-12)


def test_concentric_single_ring_equal_arcs():
    surface = build_concentric_surface(1, LAM, LAM)
    lengths = {line.base_electrical_length for line in surface.lines}
    assert len(lengths) == 1
    assert math.isclose(lengths.pop(), math.pi * LAM, rel_tol=1e-15)


def test_concentric_three_rings_spacing_floor():
    surface = build_concentric_surface(3, LAM, LAM)
    pos = [e.position for e in surface.elements]
    worst = min(
        math.hypot(a[0] - b[0], a[1] - b[1])
        for i, a in enumerate(pos)
        for b in pos[i + 1 :]
    )
    assert worst >= LAM / 2.0 - 1e-12
    assert validate_layout(surface, 1e-12).passed


def test_concentric_ring_radius_steps():
    surface = build_concentric_surface(3, LAM, LAM)
    radii = sorted({round(math.hypot(*e.position), 15) for e in surface.elements})
    assert len(radii) == 3
    for m, r in enumerate(radii):
        assert math.isclose(r, LAM + m * LAM / math.pi, rel_tol=1e-12)


def test_concentric_base_radius_floor():
    with pytest.raises(ConstraintError):
        build_concentric_surface(1, 0.2 * LAM, LAM)


def test_concentric_base_radius_floor_holds_for_a_subnormal_wavelength():
    # wavelength / 4 rounds down to 5e-324 here, yet four times that radius
    # is still below the wavelength: the diametric pair is too close.
    with pytest.raises(ConstraintError, match="^base_radius 5e-324 m gives a diametric pair"):
        build_concentric_surface(1, 5e-324, 2.5e-323)


@pytest.mark.parametrize("n_pairs", [1, 2, 3, 5])
@pytest.mark.parametrize("spacing_factor", [0.5, 0.63])
def test_linear_builder_always_validates(n_pairs, spacing_factor):
    layout = build_linear_array(n_pairs, spacing_factor * LAM, LAM)
    assert validate_layout(layout, 1e-12).passed


@pytest.mark.parametrize("n_rings", [1, 2, 4])
def test_concentric_builder_always_validates(n_rings):
    surface = build_concentric_surface(n_rings, LAM, LAM)
    assert validate_layout(surface, 1e-12).passed


def test_validator_flags_displaced_element():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    moved = dataclasses.replace(
        layout.elements[0],
        position=(layout.elements[0].position[0], LAM / 10.0),
    )
    bent = dataclasses.replace(layout, elements=(moved,) + layout.elements[1:])
    report = validate_layout(bent)
    assert not report.passed
    rules = [v for v in report.violations if v.rule == "centrosymmetry"]
    assert len(rules) == 1
    assert math.isclose(rules[0].deviation, LAM / 10.0, rel_tol=1e-9)


def test_validator_flags_stretched_line():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    stretched = dataclasses.replace(
        layout.lines[0],
        base_electrical_length=layout.lines[0].base_electrical_length + LAM / 4.0,
    )
    bent = dataclasses.replace(layout, lines=(stretched,) + layout.lines[1:])
    report = validate_layout(bent)
    assert not report.passed
    rules = [v for v in report.violations if v.rule == "line_length_congruence"]
    assert len(rules) == 1
    assert math.isclose(rules[0].deviation, LAM / 4.0, rel_tol=1e-9)


def test_validator_flags_close_spacing():
    layout = build_linear_array(1, LAM / 2.0, LAM)
    squeezed = dataclasses.replace(
        layout,
        elements=tuple(
            dataclasses.replace(e, position=(0.8 * e.position[0], 0.0))
            for e in layout.elements
        ),
    )
    report = validate_layout(squeezed)
    rules = [v for v in report.violations if v.rule == "min_spacing"]
    assert len(rules) == 1
    assert math.isclose(rules[0].deviation, 0.1 * LAM, rel_tol=1e-9)


def test_validator_report_summary_lists_violations():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    stretched = dataclasses.replace(
        layout.lines[0],
        base_electrical_length=layout.lines[0].base_electrical_length + LAM / 4.0,
    )
    bent = dataclasses.replace(layout, lines=(stretched,) + layout.lines[1:])
    summary = validate_layout(bent).summary()
    assert "line_length_congruence" in summary
    assert validate_layout(layout).summary() == "layout valid"


@pytest.mark.parametrize(
    "layout",
    [
        build_linear_array(3, 0.6 * LAM, LAM),
        build_concentric_surface(2, LAM, LAM),
    ],
    ids=["linear", "concentric"],
)
def test_save_load_round_trip(layout, tmp_path):
    path = tmp_path / "layout.json"
    save_layout(layout, path)
    loaded = load_layout(path)
    assert loaded.wavelength == layout.wavelength
    assert loaded.center == layout.center
    assert loaded.absorption_efficiency == layout.absorption_efficiency
    assert loaded.elements == layout.elements
    assert loaded.lines == layout.lines


@pytest.mark.parametrize(
    "layout, digest",
    [
        (
            build_linear_array(2, LAM / 2, LAM),
            "8aeae7938a666f898890362927710922c732cb0508a96052dca931cd1a2538f0",
        ),
        (
            build_concentric_surface(4, 0.05, LAM),
            "c4644d284990fa8bed76293053f96776852fd523a27e5cc637ee91428c92d53e",
        ),
    ],
    ids=["linear-2-pairs", "benchmark-4-rings"],
)
def test_saved_layout_bytes_are_pinned(layout, digest, tmp_path):
    """The file format, and the builders' element order, ids and positions,
    byte for byte: the ring case is the benchmark's 128-element surface."""
    path = tmp_path / "layout.json"
    save_layout(layout, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_vectorized_validator_matches_reference_loops():
    seen = set()
    for layout in perturbed_layouts():
        want = reference_validate_layout(layout)
        got = validate_layout(layout).violations
        assert [(v.rule, v.ids) for v in got] == [(v.rule, v.ids) for v in want]
        for g, w in zip(got, want):
            assert abs(g.deviation - w.deviation) <= 1e-15
        seen.update(v.rule for v in want)
    assert seen == {"centrosymmetry", "line_length_congruence", "min_spacing"}


def test_array_view_is_read_only_and_follows_pair_order():
    layout = build_concentric_surface(2, LAM, LAM)
    view = layout.arrays
    assert layout.arrays is view
    assert not view.x.flags.writeable
    members = pair_members(layout)
    lines = {ln.pair_id: ln for ln in layout.lines}
    assert view.pair_ids.tolist() == sorted(lines)
    for i, pid in enumerate(sorted(lines)):
        a, b = members[pid]
        assert (int(view.ids[view.a[i]]), int(view.ids[view.b[i]])) == (a.id, b.id)
        line = lines[pid]
        assert view.line_length[i] == line.base_electrical_length
        assert view.has_switch[i] == line.has_switch


def layout_of(points, lengths, center=(0.0, 0.0)):
    """A layout whose element 2k and 2k + 1 form pair k + 1 with line lengths[k]."""
    elements = tuple(
        AntennaElement(i, (float(x), float(y)), i // 2 + 1) for i, (x, y) in enumerate(points)
    )
    lines = tuple(
        TransmissionLine(k + 1, float(length), has_switch=False) for k, length in enumerate(lengths)
    )
    return SurfaceLayout(elements, lines, LAM, center=center)


def with_lines(layout, lengths):
    lines = tuple(
        dataclasses.replace(ln, base_electrical_length=float(length))
        for ln, length in zip(layout.lines, lengths)
    )
    return dataclasses.replace(layout, lines=lines)


def assert_matches_reference(layout, tolerance=1e-9):
    """Rule, ids, order and deviation bits equal the loop-by-loop oracle's."""
    report = validate_layout(layout, tolerance)
    got = [(v.rule, v.ids, v.deviation.hex()) for v in report.violations]
    want = [
        (v.rule, v.ids, float(v.deviation).hex())
        for v in reference_validate_layout(layout, tolerance)
    ]
    assert got == want
    return got


def far_points(n):
    """n element positions 3 wavelengths apart: no spacing finding among them."""
    return [(3.0 * LAM * k, 0.0) for k in range(n)]


def test_congruence_window_minds_the_wrap_at_zero_and_wavelength():
    # The builder's lengths are 10, 11, ... wavelengths: their residues
    # straddle 0 and the wavelength.
    layout = build_linear_array(4, LAM / 2.0, LAM)
    residues = np.fmod(layout.arrays.line_length, LAM)
    assert (residues < LAM / 2).any() and (residues > LAM / 2).any()
    lengths = [ln.base_electrical_length for ln in layout.lines]
    almost = lengths[:2] + [lengths[2] + LAM * (1.0 - 1e-12)] + lengths[3:]
    assert assert_matches_reference(with_lines(layout, almost)) == []
    half = lengths[:2] + [lengths[2] + LAM / 2.0] + lengths[3:]
    found = assert_matches_reference(with_lines(layout, half))
    assert [ids for _, ids, _ in found] == [(1, 3), (2, 3), (3, 4)]


def test_congruence_window_across_the_wrap_and_for_negative_lengths():
    # Residues on both sides of 0: within 1e-9 of each other across the wrap,
    # or not; negative lengths put their residue on the circle by adding
    # one wavelength.
    offsets = [4e-10, -4e-10, 7e-10, -7e-10, 0.3 * LAM, -0.45 * LAM]
    for signs in ([1.0] * 6, [-1.0] * 6, [1.0, -1.0] * 3, [-1.0, 1.0] * 3):
        lengths = [s * (10 + k) * LAM + d for k, (s, d) in enumerate(zip(signs, offsets))]
        found = assert_matches_reference(layout_of(far_points(12), lengths))
        rules = {rule for rule, _, _ in found}
        assert rules == {"centrosymmetry", "line_length_congruence"}
        flagged = {ids for rule, ids, _ in found if rule == "line_length_congruence"}
        assert (1, 2) not in flagged and (3, 4) in flagged and (5, 6) in flagged


def test_congruence_window_at_zero_tolerance_keeps_rounded_differences():
    # Both residues are exactly 0, but 4 wavelengths minus one rounds off a
    # multiple of the wavelength, so at tolerance 0 the pair is a finding.
    found = assert_matches_reference(layout_of(far_points(4), [LAM, 4.0 * LAM]), 0.0)
    assert [ids for rule, ids, _ in found if rule == "line_length_congruence"] == [(1, 2)]


def test_spacing_window_at_the_floor():
    limit = LAM / 2.0 - 1e-9
    # Exactly floor - tol apart passes; one ulp closer is a finding.
    for gap, flagged in ((limit, False), (math.nextafter(limit, 0.0), True)):
        found = assert_matches_reference(layout_of([(-gap / 2, 0.0), (gap / 2, 0.0)], [LAM]))
        assert bool(found) == flagged
    # Far from the origin the sum x + (floor - tol) rounds down onto an
    # element whose gap is still below the limit; the window's slack keeps it.
    a = next(
        a for a in 1.0 + np.arange(1, 4096) / 4096.0 if (a + limit) - a < limit
    )
    found = assert_matches_reference(layout_of([(a, 0.0), (a + limit, 0.0)], [LAM], (a, 0.0)))
    assert [ids for rule, ids, _ in found if rule == "min_spacing"] == [(0, 1)]


def test_spacing_window_for_shared_x_and_coincident_elements():
    points = [(0.0, 0.0), (0.0, 0.4 * LAM), (0.0, 0.8 * LAM), (0.0, 0.8 * LAM)]
    points += [(5 * LAM, 0.0), (-5 * LAM, 0.0)]
    found = assert_matches_reference(layout_of(points, [LAM, 2 * LAM, 3 * LAM]))
    spacing = [(ids, dev) for rule, ids, dev in found if rule == "min_spacing"]
    assert [ids for ids, _ in spacing] == [(0, 1), (1, 2), (1, 3), (2, 3)]
    assert float.fromhex(spacing[-1][1]) == LAM / 2.0  # coincident: the whole floor


@pytest.mark.parametrize(
    "layout",
    [build_concentric_surface(8, 0.05, LAM), build_linear_array(256, LAM / 2.0, LAM)],
    ids=["8-rings", "256-pairs"],
)
def test_large_layouts_match_reference_as_built_and_squeezed(layout):
    assert assert_matches_reference(layout) == []
    squeezed = dataclasses.replace(
        layout,
        elements=tuple(
            dataclasses.replace(e, position=(0.9 * e.position[0], 0.9 * e.position[1]))
            for e in layout.elements
        ),
    )
    found = assert_matches_reference(squeezed)
    assert {rule for rule, _, _ in found} == {"min_spacing"}


def test_builder_layouts_leave_no_candidate_pairs(monkeypatch):
    """A valid layout costs no pairwise evaluation: the residues near 0 and
    near the wavelength are neighbours across the wrap, and no two elements
    sit within the spacing window."""
    from vanatta import geometry

    sizes = []
    window = geometry._sorted_window_pairs

    def counted(*args):
        pairs = window(*args)
        sizes.append(pairs[0].size)
        return pairs

    monkeypatch.setattr(geometry, "_sorted_window_pairs", counted)
    validate_layout(build_linear_array(256, LAM / 2.0, LAM))
    assert sizes == [0, 0]


def test_layout_refuses_non_finite_values_by_id():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    element = dataclasses.replace(layout.elements[3], position=(0.0, math.inf))
    message = r"^element 3 position must be finite, got \(0.0, inf\)"
    with pytest.raises(ConfigurationError, match=message):
        dataclasses.replace(layout, elements=layout.elements[:3] + (element,))
    line = dataclasses.replace(layout.lines[1], base_electrical_length=math.nan)
    with pytest.raises(ConfigurationError, match="^pair 2 line length must be finite, got nan"):
        dataclasses.replace(layout, lines=(layout.lines[0], line))
    with pytest.raises(ConfigurationError, match=r"^center must be finite, got \(nan, 0.0\)"):
        dataclasses.replace(layout, center=(math.nan, 0.0))


@pytest.mark.parametrize(
    "section, field, name",
    [("elements", "id", "element ids"), ("elements", "pair_id", "element pair_ids"),
     ("lines", "pair_id", "line pair_ids")],
)
def test_layout_refuses_ids_outside_int64_by_field(section, field, name):
    layout = build_linear_array(2, LAM / 2.0, LAM)
    first, *rest = getattr(layout, section)
    huge = dataclasses.replace(first, **{field: 2**70})
    with pytest.raises(ConfigurationError, match=f"^{name} must fit in int64, got {2**70}$"):
        dataclasses.replace(layout, **{section: (huge, *rest)})


def test_a_code_built_layout_refuses_a_fractional_id_rather_than_truncate_it():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    e0, *rest = layout.elements
    with pytest.raises(ConfigurationError, match="^element ids must be integers, got 7.9$"):
        dataclasses.replace(layout, elements=(dataclasses.replace(e0, id=7.9), *rest))


def test_layout_refuses_a_broken_pairing():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    first, second, *rest = layout.elements  # pairs 1 and 2
    twin = dataclasses.replace(second, id=first.id)
    with pytest.raises(ConstraintError, match="^element ids must be unique$"):
        dataclasses.replace(layout, elements=(first, twin, *rest))
    alone = dataclasses.replace(first, pair_id=9)
    with pytest.raises(ConstraintError, match=r"^pairs must have exactly two elements, bad: \[1, 9\]$"):
        dataclasses.replace(layout, elements=(alone, second, *rest))
    with pytest.raises(ConstraintError, match="^pair_ids of lines and element pairs must match$"):
        dataclasses.replace(layout, lines=layout.lines[:1])


@pytest.mark.parametrize("efficiency", [0.0, 1.5])
def test_layout_refuses_absorption_outside_zero_to_one(efficiency):
    layout = build_linear_array(2, LAM / 2.0, LAM)
    message = rf"^absorption_efficiency must be in \(0, 1\], got {efficiency}$"
    with pytest.raises(ConstraintError, match=message):
        dataclasses.replace(layout, absorption_efficiency=efficiency)


@pytest.mark.parametrize(
    "section, field, value, message",
    [
        ("elements", "id", 1.7, "element ids must be integers, got 1.7"),
        ("elements", "pair_id", "2", "element pair_ids must be integers, got '2'"),
        ("lines", "pair_id", 2.5, "line pair_ids must be integers, got 2.5"),
        ("elements", "id", True, "element ids must be integers, got True"),
        ("elements", "pair_id", False, "element pair_ids must be integers, got False"),
        ("lines", "pair_id", True, "line pair_ids must be integers, got True"),
        ("lines", "has_switch", "false", "line has_switch must be true or false, got 'false'"),
        ("lines", "has_switch", 0, "line has_switch must be true or false, got 0"),
        ("elements", "y_m", "0", "layout elements[1] y_m must be a number, got '0'"),
        ("lines", "base_length_m", None, "layout lines[1] base_length_m must be a number, got None"),
        ("elements", "id", 2**70, f"element ids must fit in int64, got {2**70}"),
        ("elements", "pair_id", 2**63, f"element pair_ids must fit in int64, got {2**63}"),
        ("lines", "pair_id", -(2**63) - 1, f"line pair_ids must fit in int64, got {-(2**63) - 1}"),
    ],
    ids=[
        "float-id", "text-pair-id", "float-line-pair-id", "bool-id", "bool-pair-id",
        "bool-line-pair-id", "text-switch", "int-switch", "text-y", "null-length",
        "huge-id", "huge-pair-id", "huge-negative-line-pair-id",
    ],
)
def test_load_layout_refuses_mistyped_fields(tmp_path, section, field, value, message):
    import json

    path = tmp_path / "layout.json"
    save_layout(build_linear_array(2, LAM / 2.0, LAM), path)
    doc = json.loads(path.read_text())
    doc[section][1][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        load_layout(path)


def test_load_layout_takes_ids_at_the_int64_limits(tmp_path):
    import json

    path = tmp_path / "layout.json"
    save_layout(build_linear_array(2, LAM / 2.0, LAM), path)
    doc = json.loads(path.read_text())
    doc["elements"][0]["id"] = 2**63 - 1
    doc["elements"][1]["id"] = -(2**63)
    path.write_text(json.dumps(doc))
    layout = load_layout(path)
    assert [e.id for e in layout.elements[:2]] == [2**63 - 1, -(2**63)]


def test_load_layout_refuses_elements_that_are_not_a_list(tmp_path):
    import json

    path = tmp_path / "layout.json"
    save_layout(build_linear_array(2, LAM / 2.0, LAM), path)
    doc = json.loads(path.read_text())
    doc["elements"] = {}
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match=r"^layout elements must be a list, got \{\}$"):
        load_layout(path)


def reference_linear_array(n_pairs, spacing, lam):
    """build_linear_array element by element, through the public constructor."""
    n = 2 * n_pairs
    elements = tuple(
        AntennaElement(i, ((i - (n - 1) / 2.0) * spacing, 0.0), min(i, n - 1 - i) + 1)
        for i in range(n)
    )
    base = 10.0 * lam
    lines = tuple(
        TransmissionLine(k, base + (n_pairs - k) * lam, k % 2 == 0) for k in range(1, n_pairs + 1)
    )
    return SurfaceLayout(elements, lines, lam)


def reference_concentric_surface(n_rings, base_radius, lam):
    """build_concentric_surface element by element, through the public
    constructor; the per-ring count comes from the builder's own search."""
    from vanatta.geometry import _ring_count

    count = _ring_count(base_radius, n_rings, lam)
    half = count // 2
    elements, lines = [], []
    for m in range(n_rings):
        radius = base_radius + m * lam / math.pi
        phase = (math.pi / count) * (m % 2)
        points = []
        for j in range(half):
            angle = phase + 2.0 * math.pi * j / count
            points.append((radius * math.cos(angle), radius * math.sin(angle)))
        points += [(-x, -y) for x, y in points]
        for k, point in enumerate(points):
            elements.append(AntennaElement(m * count + k, point, m * half + k % half + 1))
        for j in range(half):
            pair = m * half + j + 1
            lines.append(TransmissionLine(pair, math.pi * radius, pair % 2 == 0))
    return SurfaceLayout(tuple(elements), tuple(lines), lam)


def assert_array_built_equals_object_built(built, reference, tmp_path):
    assert "elements" not in vars(built) and "lines" not in vars(built)
    for name, array in vars(built.arrays).items():
        want = getattr(reference.arrays, name)
        assert array.dtype == want.dtype and array.tobytes() == want.tobytes(), name
    assert built.n_elements == reference.n_elements and built.n_pairs == reference.n_pairs
    assert validate_layout(built) == validate_layout(reference)
    assert built.elements == reference.elements and built.lines == reference.lines
    assert built == reference and repr(built) == repr(reference)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_layout(built, first)
    loaded = load_layout(first)
    save_layout(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded == reference


WAVELENGTHS = st.floats(1e-3, 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300), st.floats(0.5, 3.0), WAVELENGTHS)
def test_linear_arrays_match_the_element_by_element_build(tmp_path_factory, n_pairs, spacing, lam):
    built = build_linear_array(n_pairs, spacing * lam, lam)
    reference = reference_linear_array(n_pairs, spacing * lam, lam)
    assert_array_built_equals_object_built(built, reference, tmp_path_factory.mktemp("layout"))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.floats(0.25, 8.0), WAVELENGTHS)
def test_concentric_surfaces_match_the_element_by_element_build(
    tmp_path_factory, n_rings, radius, lam
):
    built = build_concentric_surface(n_rings, radius * lam, lam)
    reference = reference_concentric_surface(n_rings, radius * lam, lam)
    assert_array_built_equals_object_built(built, reference, tmp_path_factory.mktemp("layout"))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_replacing_one_element_of_an_array_built_layout_is_flagged(data):
    layout = data.draw(
        st.one_of(
            st.builds(build_linear_array, st.integers(1, 64), st.just(LAM / 2.0), st.just(LAM)),
            st.builds(build_concentric_surface, st.integers(1, 3), st.just(LAM), st.just(LAM)),
        )
    )
    idx = data.draw(st.integers(0, layout.n_elements - 1))
    angle = data.draw(st.floats(0.0, 2.0 * math.pi))
    elements = list(layout.elements)
    x, y = elements[idx].position
    move = (x + LAM / 10.0 * math.cos(angle), y + LAM / 10.0 * math.sin(angle))
    elements[idx] = dataclasses.replace(elements[idx], position=move)
    moved = dataclasses.replace(layout, elements=tuple(elements))
    assert moved.arrays.x[idx] == move[0] and moved.arrays.y[idx] == move[1]
    pair = elements[idx].pair_id
    assert ("centrosymmetry", (pair,)) in [(v.rule, v.ids) for v in moved.validation.violations]
    assert layout.validation.passed


def _set(record, key, value):
    record[key] = value


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda doc: doc.update(elements=[], lines=[]), ConstraintError, "layout has no elements"),
        (lambda doc: doc.update(elements=[]), ConstraintError, "layout has no elements"),
        (lambda doc: _set(doc["elements"][1], "id", 0), ConstraintError, "element ids must be unique"),
        (
            lambda doc: _set(doc["elements"][1], "pair_id", 9),
            ConstraintError,
            "pairs must have exactly two elements, bad: [2, 9]",
        ),
        (
            lambda doc: doc["lines"].pop(1),
            ConstraintError,
            "pair_ids of lines and element pairs must match",
        ),
        (
            lambda doc: _set(doc["elements"][2], "x_m", math.nan),
            ConfigurationError,
            "element 2 position must be finite, got (nan, 0.0)",
        ),
        (
            lambda doc: _set(doc["lines"][1], "base_length_m", math.inf),
            ConfigurationError,
            "pair 2 line length must be finite, got inf",
        ),
        (
            lambda doc: doc.update(center_xy_m=[math.nan, 0.0]),
            ConfigurationError,
            "center must be finite, got (nan, 0.0)",
        ),
        (
            lambda doc: doc.update(absorption_efficiency=0.0),
            ConstraintError,
            "absorption_efficiency must be in (0, 1], got 0.0",
        ),
        (
            lambda doc: doc.update(wavelength_m=-1.0),
            ConfigurationError,
            "wavelength must be positive and finite, got -1.0",
        ),
        # With two faults the earlier check reports: ids before positions,
        # the center before an empty layout.
        (
            lambda doc: (_set(doc["elements"][1], "id", 0), _set(doc["elements"][2], "x_m", math.inf)),
            ConstraintError,
            "element ids must be unique",
        ),
        (
            lambda doc: doc.update(elements=[], center_xy_m=[0.0, math.inf]),
            ConfigurationError,
            "center must be finite, got (0.0, inf)",
        ),
        # Each value of the wrong type is refused by field, never truncated
        # (7.9 to 7, 1.5 to 1) or parsed ("0.001" to 0.001, "no" to true).
        (
            lambda doc: _set(doc["elements"][1], "id", 7.9),
            ConfigurationError,
            "element ids must be integers, got 7.9",
        ),
        (
            lambda doc: _set(doc["elements"][1], "id", math.nan),
            ConfigurationError,
            "element ids must be integers, got nan",
        ),
        (
            lambda doc: _set(doc["elements"][1], "pair_id", 1.5),
            ConfigurationError,
            "element pair_ids must be integers, got 1.5",
        ),
        (
            lambda doc: _set(doc["elements"][1], "x_m", "0.001"),
            ConfigurationError,
            "layout elements[1] x_m must be a number, got '0.001'",
        ),
        (
            lambda doc: _set(doc["lines"][1], "base_length_m", "0.1375"),
            ConfigurationError,
            "layout lines[1] base_length_m must be a number, got '0.1375'",
        ),
        (
            lambda doc: _set(doc["lines"][1], "has_switch", "no"),
            ConfigurationError,
            "line has_switch must be true or false, got 'no'",
        ),
        (
            lambda doc: doc.update(center_xy_m=[0.0, 0.0, 0.0]),
            ConfigurationError,
            "layout center_xy_m must be two numbers, got [0.0, 0.0, 0.0]",
        ),
        (
            lambda doc: doc.update(absorption_efficiency="0.5"),
            ConfigurationError,
            "absorption_efficiency must be a number, got '0.5'",
        ),
        (
            lambda doc: _set(doc["elements"][1], "x_m", 10**400),
            ConfigurationError,
            f"layout elements[1] x_m must fit in float64, got {10**400}",
        ),
    ],
    ids=[
        "empty", "no-elements", "duplicate-id", "lone-members", "missing-line", "nan-x",
        "inf-length", "nan-center", "zero-absorption", "negative-wavelength", "id-before-x",
        "center-before-empty", "fractional-id", "nan-id", "fractional-pair-id", "text-x",
        "text-length", "text-switch", "three-center-values", "text-absorption", "huge-int-x",
    ],
)
def test_each_refusal_is_the_same_through_the_constructor_and_a_file(
    tmp_path, edit, error, message
):
    import json

    path = tmp_path / "layout.json"
    save_layout(build_linear_array(2, LAM / 2.0, LAM), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        load_layout(path)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        constructed_from(doc)


def constructed_from(doc):
    """The SurfaceLayout constructor on a layout file's values, as read."""
    return SurfaceLayout(
        tuple(AntennaElement(e["id"], (e["x_m"], e["y_m"]), e["pair_id"]) for e in doc["elements"]),
        tuple(
            TransmissionLine(ln["pair_id"], ln["base_length_m"], ln["has_switch"])
            for ln in doc["lines"]
        ),
        doc["wavelength_m"],
        doc["center_xy_m"],
        doc["absorption_efficiency"],
    )


def _outcome(make):
    """make()'s layout, or the type and message of the package error it raised."""
    try:
        return make()
    except SimulationError as exc:
        return type(exc), str(exc)


FIELD_VALUES = [math.nan, math.inf, -math.inf, 2.5, 2**70, "x", True, None]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.data())
def test_one_bad_field_is_refused_alike_through_a_file_and_the_constructor(
    tmp_path_factory, n_pairs, data
):
    import json

    path = tmp_path_factory.mktemp("layout") / "layout.json"
    save_layout(build_linear_array(n_pairs, LAM / 2.0, LAM), path)
    doc = json.loads(path.read_text())
    if data.draw(st.integers(0, 9), label="three-number center") == 0:
        doc["center_xy_m"] = [0.0, 0.0, data.draw(st.floats(-1.0, 1.0))]
    else:
        fields = [(doc, key) for key in ("wavelength_m", "center_xy_m", "absorption_efficiency")]
        fields += [(doc["center_xy_m"], 0), (doc["center_xy_m"], 1)]
        fields += [(e, key) for e in doc["elements"] for key in ("id", "x_m", "y_m", "pair_id")]
        keys = ("pair_id", "base_length_m", "has_switch")
        fields += [(ln, key) for ln in doc["lines"] for key in keys]
        record, key = data.draw(st.sampled_from(fields), label="field")
        record[key] = data.draw(st.sampled_from(FIELD_VALUES), label="value")
    path.write_text(json.dumps(doc))
    assert _outcome(lambda: load_layout(path)) == _outcome(lambda: constructed_from(doc))


def test_a_loaded_layout_lists_its_lines_in_pair_order(tmp_path):
    import json

    path = tmp_path / "layout.json"
    layout = build_linear_array(3, LAM / 2.0, LAM)
    save_layout(layout, path)
    doc = json.loads(path.read_text())
    doc["lines"].reverse()
    path.write_text(json.dumps(doc))
    loaded = load_layout(path)
    assert loaded.lines == layout.lines
    assert loaded == layout


@settings(max_examples=80, deadline=None)
@given(
    exponent=st.floats(-2.0, 12.0),
    linear=st.booleans(),
    size=st.integers(1, 64),
)
def test_builders_pass_the_default_tolerance_at_any_frequency(exponent, linear, size):
    # The default allows the rounding of the layout's own magnitudes: at
    # 2.5 Hz the lines are 1e8 m long, and a fixed 1e-9 m failed them.
    lam = wavelength_of(10.0**exponent)
    if linear:
        layout = build_linear_array(size, lam / 2.0, lam)
    else:
        layout = build_concentric_surface(1 + size % 8, lam, lam)
    assert validate_layout(layout).passed
    assert layout.validation.passed


@pytest.mark.parametrize("frequency", [2.5, 10.0, 1e3])
def test_default_tolerance_passes_the_low_frequency_linear_array(frequency):
    # 64 pairs at 10 Hz and 1 kHz left congruence deviations of 2.9e-7 m and
    # 4.3e-9 m, each over the fixed 1e-9 m the default used to be.
    lam = wavelength_of(frequency)
    layout = build_linear_array(64, lam / 2.0, lam)
    assert not validate_layout(layout, 1e-9).passed
    assert validate_layout(layout).passed


def test_default_tolerance_still_flags_a_millionth_of_a_wavelength_at_24_ghz():
    layout = build_linear_array(2, LAM / 2.0, LAM)
    assert validate_layout(layout).passed
    lengths = [ln.base_electrical_length for ln in layout.lines]
    shifted = with_lines(layout, [lengths[0] + 1e-6 * LAM] + lengths[1:])
    assert {v.rule for v in validate_layout(shifted).violations} == {"line_length_congruence"}
    first, *rest = layout.elements  # the leftmost: moved out, it keeps its spacing
    moved = (first.position[0] - 1e-6 * LAM, first.position[1])
    nudged = dataclasses.replace(
        layout, elements=(dataclasses.replace(first, position=moved), *rest)
    )
    assert {v.rule for v in validate_layout(nudged).violations} == {"centrosymmetry"}
