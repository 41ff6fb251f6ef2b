"""Acceptance gate: the ten headline checks for this package.

Each test evaluates one numbered acceptance check end to end at its stated
tolerance and prints exactly one pass/fail line with the measured numbers
(run ``pytest -s tests/test_acceptance.py`` to see all ten lines).  The
assert carries the same text, so a red run names the failing check.
"""

import dataclasses
import math
import time

import numpy as np

from vanatta import (
    ChirpParams,
    LinkScenario,
    PlaneWave,
    PlateReflector,
    SurfaceReflector,
    Target,
    build_concentric_surface,
    build_linear_array,
    constructive_config,
    destructive_config,
    detect,
    doppler_phase_drift,
    encode_bits,
    field_pattern,
    max_detection_range,
    ook_ber_trial,
    range_doppler,
    range_extension,
    range_profile,
    roundtrip_response,
    run_link,
    scaling_sweep,
    synthesize_beat,
    validate_layout,
    wavelength_of,
)
from vanatta.cli import main as cli_main

F0 = 24e9
LAM = wavelength_of(F0)
THETAS = tuple(float(t) for t in range(-60, 61, 5))

# one-sided 95% Student-t critical value for 29 degrees of freedom
T_CRIT_95_29 = 1.699


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"acceptance {number:2d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


def test_01_retrodirectivity():
    t0 = time.perf_counter()
    grid = np.arange(-90.0, 90.0 + 0.125, 0.25)
    worst = 0.0
    for n_elements in (2, 4, 8):
        layout = build_linear_array(n_elements // 2, LAM / 2.0, LAM)
        for theta in THETAS:
            wave = PlaneWave(F0, theta, 1.0)
            pattern = field_pattern(layout, constructive_config(), wave, grid)
            worst = max(worst, abs(pattern.peak_angle() - theta))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.5 and elapsed < 10.0
    _report(
        1,
        ok,
        f"retrodirectivity: worst |peak - theta| = {worst:.3g} deg (<= 0.5) over "
        f"N in (2,4,8) x {len(THETAS)} angles, 0.25 deg grid; {elapsed:.2f} s "
        f"(budget 10 s)",
    )


def test_02_null_depth():
    # a 2-element surface has a single pair, so no half-toggled destructive
    # state exists; the null property is over the multi-pair sizes
    worst_ratio = 0.0
    min_depth = math.inf
    for n_elements in (4, 8):
        layout = build_linear_array(n_elements // 2, LAM / 2.0, LAM)
        off_config = destructive_config(layout)
        for theta in THETAS:
            wave = PlaneWave(F0, theta, 1.0)
            on = abs(roundtrip_response(layout, constructive_config(), wave, theta))
            off = abs(roundtrip_response(layout, off_config, wave, theta))
            worst_ratio = max(worst_ratio, off / on)
            depth = math.inf if off == 0.0 else 20.0 * math.log10(on / off)
            min_depth = min(min_depth, depth)
    ok = worst_ratio <= 1e-10 and min_depth > 12.2
    _report(
        2,
        ok,
        f"null depth: worst off/on = {worst_ratio:.3g} (<= 1e-10), modulation "
        f"depth >= {min_depth:.4g} dB (> 12.2 dB floor)",
    )


def test_03_linear_scaling():
    wave = PlaneWave(F0, 30.0, 1.0)
    rows = scaling_sweep((2, 4, 8, 16, 32), LAM / 2.0, wave)
    worst = max(abs(ratio - n) / n for n, ratio in rows)
    ok = worst <= 1e-9
    _report(
        3,
        ok,
        f"linear scaling: gain ratio equals N for N in (2,4,8,16,32), worst "
        f"relative error {worst:.3g} (<= 1e-9)",
    )


def test_04_range_extension():
    t0 = time.perf_counter()
    factor = range_extension(11.2)
    arithmetic_ok = abs(factor - 3.63) <= 0.005
    params = ChirpParams()

    def plate_target(amplitude):
        return Target(
            10.0,
            0.0,
            PlateReflector(0.025, incidence_angle_deg=30.0, incident_amplitude=amplitude),
        )

    r0 = max_detection_range(params, plate_target(1.0), noise_power=2e-8)
    worst = 0.0
    for gain_db in (0.0, 6.0, 11.2, 20.0):
        r = max_detection_range(
            params, plate_target(10.0 ** (gain_db / 20.0)), noise_power=2e-8
        )
        worst = max(worst, abs(r / r0 / 10.0 ** (gain_db / 20.0) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = arithmetic_ok and worst <= 0.01 and elapsed < 5.0
    _report(
        4,
        ok,
        f"range extension: 10^(11.2/20) = {factor:.4f} (3.63 +/- 0.005); max "
        f"detection range ratio vs 10^(g/20) off by {worst:.3g} (<= 1%) for "
        f"g in (0,6,11.2,20) dB from base {r0:.1f} m; {elapsed:.2f} s (budget 5 s)",
    )


def test_05_dirichlet_oracle():
    grid = np.linspace(-90.0, 90.0, 721)
    theta = 30.0
    wave = PlaneWave(F0, theta, 1.0)
    psi = (
        (2.0 * math.pi / LAM)
        * (LAM / 2.0)
        * (np.sin(np.radians(grid)) - math.sin(math.radians(theta)))
    )
    worst = 0.0
    for n_elements in (2, 4, 8):
        layout = build_linear_array(n_elements // 2, LAM / 2.0, LAM)
        pattern = field_pattern(layout, constructive_config(), wave, grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            dirichlet = np.abs(np.sin(n_elements * psi / 2.0) / np.sin(psi / 2.0))
        dirichlet[~np.isfinite(dirichlet)] = float(n_elements)
        oracle = dirichlet * math.sqrt(layout.absorption_efficiency)
        err = float(np.max(np.abs(pattern.magnitudes() - oracle)) / np.max(oracle))
        worst = max(worst, err)
    ok = worst <= 1e-9
    _report(
        5,
        ok,
        f"closed-form oracle: |pattern| matches |sin(N psi/2)/sin(psi/2)| to "
        f"{worst:.3g} relative (<= 1e-9) on a 721-point grid, N in (2,4,8)",
    )


def test_06_fmcw_correctness():
    params = ChirpParams()
    layout = build_linear_array(2, LAM / 2.0, LAM)
    target = Target(
        50.0, 0.0, SurfaceReflector(layout=layout, config=constructive_config())
    )
    signal = synthesize_beat(params, 64, [target])

    chirp = signal.samples[0]
    bin_hz = params.sample_rate / len(chirp)
    beat_hz = float(np.argmax(np.abs(np.fft.rfft(chirp)))) * bin_hz
    beat_ok = abs(beat_hz - 166.67e3) <= bin_hz

    hits = detect(range_profile(signal))
    range_ok = len(hits) == 1 and abs(hits[0].range_m - 50.0) <= 0.6

    rd_hits = detect(range_doppler(signal))
    doppler_ok = (
        len(rd_hits) == 1
        and rd_hits[0].velocity_mps == 0.0
        and abs(rd_hits[0].range_m - 50.0) <= 0.6
    )

    ok = beat_ok and range_ok and doppler_ok
    measured_range = hits[0].range_m if hits else math.nan
    measured_velocity = rd_hits[0].velocity_mps if rd_hits else math.nan
    _report(
        6,
        ok,
        f"fmcw: beat {beat_hz / 1e3:.2f} kHz (166.67 +/- {bin_hz / 1e3:.0f} kHz), "
        f"range {measured_range:.3f} m (50 +/- 0.6), static target detected "
        f"in the {measured_velocity:g} m/s doppler bin",
    )


def test_07_doppler_drift_bound():
    drift = doppler_phase_drift(0.006, LAM, 1e-3)
    ok = drift < 1.0 and math.isclose(drift, 0.34583925390144404, rel_tol=1e-12)
    _report(
        7,
        ok,
        f"doppler drift: {drift:.4f} deg over one 1 ms interval at 6 mm/s "
        f"residual velocity (< 1 deg, so switch-state phases stay coherent)",
    )


def test_08_link_round_trip():
    t0 = time.perf_counter()
    params = ChirpParams()
    layout = build_linear_array(2, LAM / 2.0, LAM)

    bits = tuple(int(b) for b in np.random.default_rng(2024).integers(0, 2, 1024))
    schedule = encode_bits(bits, layout, 2.0 * params.chirp_duration)
    result = run_link(
        LinkScenario(
            layout=layout,
            schedule=schedule,
            params=params,
            range_m=25.0,
            incidence_angle_deg=30.0,
        )
    )
    noiseless_ok = result.ber == 0.0

    n_bits = 350
    seeds = range(30)
    errors = sum(
        ook_ber_trial(params, 10.0, 12.2, n_bits, 2, seed) * n_bits for seed in seeds
    )
    total = n_bits * len(seeds)
    ber_10db = errors / total
    clean_ok = total >= 10_000 and ber_10db < 1e-3

    snrs = (-26.0, -22.0, -18.0, -14.0)
    table = np.array(
        [
            [ook_ber_trial(params, snr, 12.2, 256, 2, 1000 + seed) for snr in snrs]
            for seed in seeds
        ]
    )
    t_stats = []
    for col in range(len(snrs) - 1):
        diffs = table[:, col] - table[:, col + 1]
        t_stats.append(
            float(np.mean(diffs) / (np.std(diffs, ddof=1) / math.sqrt(len(diffs))))
        )
    monotone_ok = all(t > T_CRIT_95_29 for t in t_stats)

    elapsed = time.perf_counter() - t0
    ok = noiseless_ok and clean_ok and monotone_ok and elapsed < 60.0
    _report(
        8,
        ok,
        f"link: noiseless BER {result.ber:g} over 1024 bits; BER {ber_10db:.2e} "
        f"(< 1e-3) over {total} bits at 10 dB; BER decreasing over "
        f"{snrs} dB with t = {', '.join(f'{t:.1f}' for t in t_stats)} "
        f"(> {T_CRIT_95_29}); {elapsed:.1f} s (budget 60 s)",
    )


def test_09_validator_sensitivity():
    layouts = [
        build_linear_array(n, LAM / 2.0, LAM) for n in (2, 3, 4, 5)
    ] + [
        build_concentric_surface(rings, LAM, LAM) for rings in (1, 2)
    ]
    rng = np.random.default_rng(424242)
    bad = []
    for trial in range(100):
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
            perturbed = dataclasses.replace(layout, elements=tuple(elements))
            expected_rule = "centrosymmetry"
        else:
            idx = int(rng.integers(len(layout.lines)))
            line = layout.lines[idx]
            stretched = dataclasses.replace(
                line, base_electrical_length=line.base_electrical_length + LAM / 4.0
            )
            lines = list(layout.lines)
            lines[idx] = stretched
            perturbed = dataclasses.replace(layout, lines=tuple(lines))
            expected_rule = "line_length_congruence"
        report = validate_layout(perturbed)
        rules = {v.rule for v in report.violations}
        if report.passed or expected_rule not in rules:
            bad.append((trial, expected_rule, sorted(rules)))
    ok = not bad
    _report(
        9,
        ok,
        f"validator sensitivity: 100 randomized single-element (lambda/10) and "
        f"single-line (lambda/4) perturbations all flagged with the correct "
        f"rule; misses: {bad if bad else 'none'}",
    )


def test_10_cli_determinism(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "noise.power = 1e-6\n"
        "link.random_bits = 32\n"
        "pattern.grid_step_deg = 1.0\n"
        "sweep.parameter = snr\n"
        'sweep.snr_db = "-20"\n'
        "sweep.bits_per_point = 64\n"
    )
    commands = ("validate", "pattern", "range", "scale", "link", "sweep")
    outputs: dict[tuple[str, str], list[bytes]] = {}
    for run in ("first", "second"):
        for command in commands:
            out = tmp_path / f"{command}_{run}"
            code = cli_main(
                [command, "--config", str(config), "--out", str(out), "--seed", "77"]
            )
            assert code == 0, f"{command} exited {code}"
            for artifact in sorted(out.iterdir()):
                outputs.setdefault((command, artifact.name), []).append(
                    artifact.read_bytes()
                )
    mismatched = sorted(
        f"{cmd}/{name}"
        for (cmd, name), blobs in outputs.items()
        if len(blobs) != 2 or blobs[0] != blobs[1]
    )
    n_files = len(outputs)
    ok = not mismatched and n_files > 0
    _report(
        10,
        ok,
        f"determinism: {len(commands)} commands x 2 runs, all {n_files} output "
        f"files byte-identical for fixed (config, seed); "
        f"mismatches: {mismatched if mismatched else 'none'}",
    )
