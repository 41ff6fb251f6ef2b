"""CLI subcommands: exit codes, output files, and determinism."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from fractions import Fraction

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vanatta import (
    DesignMismatchWarning,
    PlaneWave,
    build_concentric_surface,
    build_linear_array,
    constructive_config,
    destructive_config,
    field_pattern,
    gain_over_plate,
    plate_monostatic_amplitude,
    roundtrip_response,
    save_layout,
    wavelength_of,
)
from vanatta.cli import (
    DEFAULTS,
    _COMMANDS,
    _OPTIONAL_NUMBERS,
    _angle_grid,
    _build_parser,
    load_config,
    main,
    parse_config_text,
    render_config,
)

LAM = wavelength_of(24e9)


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_round_trip():
    cfg = load_config(None)
    assert parse_config_text(render_config(cfg)) == cfg


def test_config_round_trip_with_overrides(tmp_path):
    cfg_path = write_config(
        tmp_path,
        "frequency_hz = 76.5e9\nlayout.n_pairs = 4\nlink.bits = \"1100\"\n",
    )
    cfg = load_config(cfg_path)
    assert cfg["frequency_hz"] == 76.5e9
    assert cfg["layout.n_pairs"] == 4
    assert cfg["link.bits"] == "1100"
    assert parse_config_text(render_config(cfg)) == cfg


def test_reference_config_spells_out_every_default():
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"
    assert load_config(str(path)) == DEFAULTS


def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = write_config(tmp_path, "no_such_key = 1\n")
    with pytest.raises(Exception, match="unknown config keys"):
        load_config(cfg_path)


def test_config_parse_errors():
    with pytest.raises(Exception, match="line 1"):
        parse_config_text("this is not a key value line")


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("validate", "layout builder = linear\n", "line 1: bad key 'layout builder'"),
        ("link", "link.bits = 0120\n", "link.bits must be a string of 0/1, got '0120'"),
        ("validate", "layout.builder = file\n", "layout.builder = file needs layout.path"),
        ("validate", "layout.builder = spiral\n", "unknown layout.builder 'spiral'"),
    ],
    ids=["key-with-space", "bits-not-binary", "file-without-path", "unknown-builder"],
)
def test_config_refusals_exit_two(tmp_path, capsys, command, text, message):
    out = tmp_path / "out"
    assert run_cli(command, "--config", write_config(tmp_path, text), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_a_frame_chirp_count_key_is_refused_as_unknown(tmp_path, capsys):
    # Every frame takes its chirp count from its bits: no key sets it.
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, "radar.chirps_per_frame = 64\n")
    assert run_cli("link", "--config", cfg_path, "--out", str(out)) == 2
    assert capsys.readouterr().err == "config error: unknown config keys: radar.chirps_per_frame\n"
    assert not out.exists()


def test_a_range_gain_key_is_refused_as_unknown(tmp_path, capsys):
    # range reports the gain it measures: no key replaces it.
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, "range.gain_db = 11.2\n")
    assert run_cli("range", "--config", cfg_path, "--out", str(out)) == 2
    assert capsys.readouterr().err == "config error: unknown config keys: range.gain_db\n"
    assert not out.exists()


def test_validate_defaults_pass(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("validate", "--out", str(out)) == 0
    assert (out / "validation.txt").read_text().startswith("layout valid")


def test_validate_flags_perturbed_layout(tmp_path):
    import dataclasses

    layout = build_linear_array(2, LAM / 2.0, LAM)
    stretched = dataclasses.replace(
        layout.lines[0],
        base_electrical_length=layout.lines[0].base_electrical_length + LAM / 4.0,
    )
    bad = dataclasses.replace(layout, lines=(stretched,) + layout.lines[1:])
    save_layout(bad, tmp_path / "bad_layout.json")
    cfg_path = write_config(
        tmp_path, "layout.builder = file\nlayout.path = bad_layout.json\n"
    )
    out = tmp_path / "out"
    assert run_cli("validate", "--config", cfg_path, "--out", str(out)) == 1
    report = (out / "validation.txt").read_text()
    assert report.count("line_length_congruence") == 1


def test_missing_layout_file_is_io_error(tmp_path):
    cfg_path = write_config(
        tmp_path, "layout.builder = file\nlayout.path = nowhere.json\n"
    )
    assert run_cli("validate", "--config", cfg_path, "--out", str(tmp_path / "o")) == 2


def test_out_naming_an_existing_file_is_io_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli("validate", "--out", str(taken)) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert taken.read_text() == ""


def test_missing_config_file_is_io_error(tmp_path):
    assert run_cli("validate", "--config", str(tmp_path / "nope.cfg")) == 2


def test_pattern_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("pattern", "--out", str(out), "--grid-step-deg", "0.5") == 0
    for name in ("pattern_constructive.csv", "pattern_destructive.csv", "pattern_plate.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "angle_deg,re_v_per_m,im_v_per_m,mag_v_per_m,mag_db"
        assert len(lines) == 362  # 361 grid points at 0.5 deg
    summary = (out / "pattern_summary.txt").read_text()
    assert "retro_peak_deg=30" in summary
    assert "monostatic_gain_db=69.6024" in summary
    assert "null_depth_db=" in summary
    depth = float(summary.split("null_depth_db=")[1].split()[0])
    assert depth > 100.0 or math.isinf(depth)


@settings(max_examples=20, deadline=None)
@given(
    exact=st.one_of(
        st.integers(1, 3600).map(lambda n: Fraction(180, n)),
        st.sampled_from(["0.05", "0.1", "0.15", "0.2", "0.3", "0.7"]).map(Fraction),
    )
)
def test_angle_grid_is_exactly_antisymmetric_in_whole_steps(exact):
    grid = _angle_grid(float(exact))
    n = math.floor(180 / exact)
    assert len(grid) == n + 1
    assert np.array_equal(grid, -grid[::-1])
    assert not np.signbit(grid[grid == 0.0]).any()
    if n * exact == 180:
        assert (grid[0], grid[-1]) == (-90.0, 90.0)
    # Point i lies within one ulp of (2i - n)/2 steps, the step taken at the
    # decimal or rational value written; the mirror half is checked above.
    for i, angle in enumerate(grid[n // 2 :].tolist(), start=n // 2):
        want = Fraction(2 * i - n, 2) * exact
        assert abs(Fraction(angle) - want) <= Fraction(math.ulp(float(want)))


def test_pattern_grid_keeps_its_endpoint_at_an_inexact_step(tmp_path):
    out = tmp_path / "out"
    assert run_cli("pattern", "--out", str(out), "--grid-step-deg", "0.2") == 0
    for name in ("pattern_constructive.csv", "pattern_destructive.csv", "pattern_plate.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert len(rows) == 901
        assert rows[0].startswith("-90,") and rows[-1].startswith("90,")


def test_pattern_batched_states_agree_with_separate_responses(tmp_path, monkeypatch):
    import vanatta.cli as cli

    seen = {}

    def spy(name):
        original = getattr(cli, name)

        def recorded(*args, **kwargs):
            seen[name] = original(*args, **kwargs)
            return seen[name]

        monkeypatch.setattr(cli, name, recorded)

    spy("response_matrix")
    spy("gain_over_plate")
    theta = -23.5
    cfg_path = write_config(
        tmp_path,
        f"layout.builder = concentric\nlayout.n_rings = 2\nincidence_angle_deg = {theta}\n",
    )
    out = tmp_path / "out"
    assert run_cli("pattern", "--config", cfg_path, "--out", str(out), "--grid-step-deg", "0.5") == 0

    layout = build_concentric_surface(2, LAM, LAM)
    wave = PlaneWave(24e9, theta)
    values = seen["response_matrix"]
    assert values.shape == (2, 1, 362)  # two states x one incidence x (grid + incidence)
    retro_on, retro_off = np.abs(values[:, 0, -1])
    want_on = abs(roundtrip_response(layout, constructive_config(), wave, theta))
    want_off = abs(roundtrip_response(layout, destructive_config(layout), wave, theta))
    assert math.isclose(retro_on, want_on, rel_tol=1e-12)
    assert retro_off <= 1e-10 * retro_on
    assert want_off <= 1e-10 * want_on
    want_gain = gain_over_plate(want_on, plate_monostatic_amplitude(DEFAULTS["plate.width_m"], wave))
    assert math.isclose(seen["gain_over_plate"], want_gain, rel_tol=1e-12)
    # The grid columns are the two patterns.
    grid = np.arange(-90.0, 90.25, 0.5)
    for row, config in zip(values[:, 0, :-1], (constructive_config(), destructive_config(layout))):
        want = field_pattern(layout, config, wave, grid).values
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_pattern_normal_incidence_peaks_align(tmp_path):
    cfg_path = write_config(tmp_path, "incidence_angle_deg = 0.0\n")
    out = tmp_path / "out"
    assert run_cli("pattern", "--config", cfg_path, "--out", str(out)) == 0
    summary = (out / "pattern_summary.txt").read_text()
    assert "retro_peak_deg=0 " in summary or "retro_peak_deg=0\n" in summary
    plate_rows = (out / "pattern_plate.csv").read_text().splitlines()[1:]
    best = max(plate_rows, key=lambda row: float(row.split(",")[3]))
    assert float(best.split(",")[0]) == 0.0


def test_range_outputs(tmp_path):
    out = tmp_path / "out"
    assert run_cli("range", "--out", str(out)) == 0
    lines = (out / "range_amplitudes.csv").read_text().splitlines()
    assert lines[0] == "distance_m,mag_plate,mag_constructive,mag_destructive"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 10
    # doubling the distance halves every amplitude (1/r)
    for near, far in zip(rows, rows[1:]):
        assert math.isclose(float(far[0]), 2.0 * float(near[0]), rel_tol=1e-9)
        assert math.isclose(float(far[2]), float(near[2]) / 2.0, rel_tol=1e-9)
    # constructive sits one constant gain above the plate at all distances
    ratios = {float(r[2]) / float(r[1]) for r in rows}
    assert max(ratios) - min(ratios) < 1e-9 * max(ratios)


def test_scale_outputs(tmp_path):
    out = tmp_path / "out"
    assert run_cli("scale", "--out", str(out)) == 0
    lines = (out / "scale.csv").read_text().splitlines()
    assert lines[0] == "n_elements,gain_ratio,plate_mag"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [2, 4, 8, 16]
    for r in rows:
        assert math.isclose(float(r[1]), float(r[0]), rel_tol=1e-9)
    assert len({r[2] for r in rows}) == 1  # plate reference constant across n


def test_link_noiseless_payload(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("link", "--out", str(out)) == 0
    report = (out / "link_report.txt").read_text()
    assert "transmitted_bits = 10110010" in report
    assert "decoded_bits = 10110010" in report
    assert "ber = 0" in report
    assert (out / "per_chirp.csv").exists()
    assert "ber=0" in capsys.readouterr().out


@pytest.mark.parametrize("bits", ["0101", "0011"])
def test_link_bits_keep_leading_zeros(tmp_path, bits):
    cfg_path = write_config(tmp_path, f"link.bits = {bits}\n")
    assert load_config(cfg_path)["link.bits"] == bits
    out = tmp_path / "out"
    assert run_cli("link", "--config", cfg_path, "--out", str(out)) == 0
    report = (out / "link_report.txt").read_text()
    assert f"transmitted_bits = {bits}" in report
    assert f"decoded_bits = {bits}" in report
    assert "n_bits = 4" in report


def test_link_random_bits_round_trip(tmp_path):
    cfg_path = write_config(tmp_path, "link.random_bits = 64\n")
    out = tmp_path / "out"
    assert run_cli("link", "--config", cfg_path, "--out", str(out), "--seed", "9") == 0
    report = (out / "link_report.txt").read_text()
    assert "n_bits = 64" in report
    assert "ber = 0" in report


def test_drawn_payload_is_not_drawn_from_the_noise_stream(tmp_path):
    # The link's noise generator is default_rng(SeedSequence(seed)).  A
    # payload drawn by default_rng(seed) would be bits 31 and 63 of its raw
    # 64-bit draws, so the noise would know the bits it hides.
    cfg_path = write_config(tmp_path, "link.random_bits = 512\nnoise.power = 1e-6\n")
    out = tmp_path / "out"
    assert run_cli("link", "--config", cfg_path, "--out", str(out), "--seed", "12345") == 0
    sent = (out / "link_report.txt").read_text().split("transmitted_bits = ")[1].split()[0]
    raw = np.random.default_rng(np.random.SeedSequence(12345)).bit_generator.random_raw(256)
    noise_bits = np.stack(((raw >> 31) & 1, (raw >> 63) & 1), axis=1).ravel()
    assert len(sent) == 512
    assert sent != "".join(map(str, noise_bits.tolist()))


def test_link_noise_swamped_ber_near_half(tmp_path):
    # noise 40 dB above the received on-state power swamps the link
    amp = 4.0 * math.sqrt(0.82) / 50.0
    noise = (amp**2 / 2.0) * 1e4
    cfg_path = write_config(
        tmp_path, f"noise.power = {noise!r}\nlink.random_bits = 512\n"
    )
    out = tmp_path / "out"
    assert run_cli("link", "--config", cfg_path, "--out", str(out), "--seed", "11") == 0
    report = (out / "link_report.txt").read_text()
    ber = float(report.split("ber = ")[1].splitlines()[0])
    assert abs(ber - 0.5) <= 0.05


@pytest.mark.parametrize(
    "text, key, message",
    [
        ('link.bits = "1111"\n', "link.bits", "all 4 bits are 1"),
        ('link.bits = "00"\n', "link.bits", "all 2 bits are 0"),
        ("link.random_bits = 1\n", "link.random_bits", "all 1 bits are 1"),
    ],
    ids=["ones", "zeros", "one-random-bit"],
)
def test_single_valued_payload_exits_one_before_writing(tmp_path, capsys, text, key, message):
    """With noise the two-level threshold splits a one-valued frame anyway
    (1111 decoded as 1100, ber=0.5); the payload is refused by its key."""
    cfg_path = write_config(tmp_path, "noise.power = 1e-6\n" + text)
    out = tmp_path / "out"
    assert run_cli("link", "--config", cfg_path, "--out", str(out), "--seed", "3") == 1
    captured = capsys.readouterr()
    want = f"constraint error: {key}: on-off keying needs both a 0 and a 1, but {message}\n"
    assert captured.err == want
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["validate", "pattern", "range", "link"])
def test_empty_layout_file_exits_one(tmp_path, capsys, command):
    """A layout with no elements is refused by name, not reported valid or
    failed deep in numpy."""
    doc = {"wavelength_m": LAM, "center_xy_m": [0.0, 0.0], "absorption_efficiency": 0.82}
    (tmp_path / "empty.json").write_text(json.dumps({**doc, "elements": [], "lines": []}))
    cfg_path = write_config(tmp_path, "layout.builder = file\nlayout.path = empty.json\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, "--out", str(out)) == 1
    assert capsys.readouterr().err == "constraint error: layout has no elements\n"
    assert list(out.iterdir()) == []


def test_link_with_two_samples_per_chirp_exits_one(tmp_path, capsys):
    # a 2-point Hann window is all zeros: the range profile would be NaN
    cfg_path = write_config(tmp_path, "radar.sample_rate_hz = 4000\ntarget.range_m = 0.3\n")
    out = tmp_path / "out"
    assert run_cli("link", "--config", cfg_path, "--out", str(out)) == 1
    assert "at least 3 samples per chirp" in capsys.readouterr().err
    assert not (out / "per_chirp.csv").exists()


@pytest.mark.parametrize(
    "command, text", [("link", ""), ("sweep", "sweep.parameter = snr\n")]
)
def test_out_of_band_frequency_warns_once(tmp_path, command, text):
    cfg_path = write_config(tmp_path, f"frequency_hz = 50e9\n{text}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(command, "--config", cfg_path, "--out", str(tmp_path / "o")) == 0
    assert len(caught) == 1
    assert "outside the common automotive bands" in str(caught[0].message)
    assert caught[0].filename.endswith("cli.py")


def test_sweep_incidence(tmp_path):
    cfg_path = write_config(
        tmp_path,
        "sweep.start = -60\nsweep.stop = 60\nsweep.step = 30\n",
    )
    out = tmp_path / "out"
    assert run_cli(
        "sweep", "--config", cfg_path, "--out", str(out), "--grid-step-deg", "0.25"
    ) == 0
    lines = (out / "sweep_incidence.csv").read_text().splitlines()
    assert lines[0] == "theta_deg,retro_mag,peak_deg"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    retro = 4.0 * math.sqrt(0.82)
    for row in rows:
        assert math.isclose(float(row[1]), retro, rel_tol=1e-9)
        assert abs(float(row[2]) - float(row[0])) <= 0.25


@pytest.mark.parametrize(
    "text, thetas",
    [
        ("sweep.start = 0\nsweep.stop = 1\nsweep.step = 0.6\n", ["0", "0.6"]),
        ("sweep.start = 80\nsweep.stop = 89.5\nsweep.step = 2\n", ["80", "82", "84", "86", "88"]),
    ],
)
def test_sweep_stops_at_the_last_whole_step_before_stop(tmp_path, text, thetas):
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", write_config(tmp_path, text), "--out", str(out)) == 0
    rows = (out / "sweep_incidence.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == thetas


def test_sweep_incidences_are_whole_steps_from_start(tmp_path, monkeypatch):
    import vanatta.cli as cli

    written = {}
    original = cli.write_csv

    def recorded(path, header, thetas, *columns):
        written["thetas"] = thetas
        return original(path, header, thetas, *columns)

    monkeypatch.setattr(cli, "write_csv", recorded)
    cfg_path = write_config(tmp_path, "sweep.step = 0.1\npattern.grid_step_deg = 10\n")
    assert run_cli("sweep", "--config", cfg_path, "--out", str(tmp_path / "out")) == 0
    thetas = written["thetas"]
    assert thetas.tolist() == [-60.0 + 0.1 * k for k in range(1201)]
    assert thetas[-1] == 60.0


def test_sweep_snr_monotone_headline(tmp_path):
    cfg_path = write_config(
        tmp_path,
        "sweep.parameter = snr\nsweep.snr_db = \"-40,10\"\nsweep.bits_per_point = 128\n",
    )
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", str(out), "--seed", "3") == 0
    lines = (out / "sweep_snr.csv").read_text().splitlines()
    assert lines[0] == "snr_db,ber"
    bers = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert abs(bers[-40.0] - 0.5) <= 0.1
    assert bers[10.0] == 0.0


def test_sweep_rejects_unknown_parameter(tmp_path):
    cfg_path = write_config(tmp_path, "sweep.parameter = frobnicate\n")
    assert run_cli("sweep", "--config", cfg_path, "--out", str(tmp_path / "o")) == 2


def test_constraint_failures_exit_one(tmp_path):
    cfg_path = write_config(tmp_path, "layout.n_pairs = 3\n")
    out = tmp_path / "out"
    # 3 pairs cannot form the half-toggled destructive state
    assert run_cli("pattern", "--config", cfg_path, "--out", str(out)) == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("layout.n_pairs", "2.7"),
        ("layout.n_rings", "1.5"),
        ("link.random_bits", "nan"),
        ("sweep.bits_per_point", "inf"),
        ("seed", "0.5"),
    ],
)
def test_int_keys_reject_non_integral_values(tmp_path, capsys, key, value):
    cfg_path = write_config(tmp_path, f"{key} = {value}\n")
    out = tmp_path / "out"
    assert run_cli("validate", "--config", cfg_path, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"constraint error: {key} must be an integer, got {float(value)!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("where", ["option", "config"])
@pytest.mark.parametrize("command, text", [("link", "link.random_bits = 8\n"), ("pattern", "")])
def test_a_negative_seed_is_refused_by_name(tmp_path, capsys, command, text, where):
    # Once numpy's "expected non-negative integer" for a drawn payload, and
    # accepted by pattern, which draws nothing.
    option = ["--seed", "-1"] if where == "option" else []
    cfg_path = write_config(tmp_path, text + ("seed = -1\n" if where == "config" else ""))
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, "--out", str(out), *option) == 1
    assert capsys.readouterr().err == "constraint error: seed must be an integer >= 0, got -1\n"
    assert not out.exists()


FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "5e-324", "2.5", "x", "true", "none")
FUZZ_VALUES += ('""', "1,abc")


# Each command, and the SNR sweep, with a config prefix that the fuzzed key
# follows.  The SNR sweep sends 4 bits a point, not 256: at a 2.5 s switch
# interval (5,000 chirps a bit) the default takes 90 s.
FUZZ_RUNS = [(command, "") for command in _COMMANDS]
FUZZ_RUNS += [("sweep", "sweep.parameter = snr\nsweep.bits_per_point = 4\n")]


def _takes_or_cleanly_refuses(command, text):
    """Run command on a config of text and return (exit code, stderr).

    The run exits 0 with no nan in its stdout or files; or validate exits 1
    with its failing report (a tolerance of 0 or 5e-324 m fails it); or the
    run exits 1 or 2 with one stderr line and no file.  A traceback, or a
    numpy RuntimeWarning (made an error here), escapes main and fails here.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        err, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DesignMismatchWarning)
                warnings.simplefilter("error", RuntimeWarning)
                code = main([command, "--config", cfg_path, "--out", out])
        files = sorted(os.listdir(out)) if os.path.exists(out) else []
        texts = [stdout.getvalue()]
        for name in files:
            with open(os.path.join(out, name)) as fh:
                texts.append(fh.read())
    if code == 0:
        assert (files != [], err.getvalue()) == (True, "")
        assert not re.search(r"\bnan\b", "\n".join(texts), re.IGNORECASE)
    elif files:
        assert (command, code, files, err.getvalue()) == ("validate", 1, ["validation.txt"], "")
    else:
        assert code in (1, 2)
        assert len(err.getvalue().splitlines()) == 1
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    run=st.sampled_from(FUZZ_RUNS),
    key=st.sampled_from(sorted(DEFAULTS)),
    value=st.sampled_from(FUZZ_VALUES),
)
def test_every_command_takes_or_cleanly_refuses_any_value_of_any_key(run, key, value):
    """One key set to an edge value: see _takes_or_cleanly_refuses."""
    command, prefix = run
    _takes_or_cleanly_refuses(command, f"{prefix}{key} = {value}\n")


PLATE_OVERFLOW = "plate.width_m = 1e300\namplitude = 1e10\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        # Once a bare OverflowError from round(inf).
        ("link", "radar.chirp_s = 1e308\n", "chirp_duration * sample_rate must be an integer >= 2, got inf"),
        (
            "sweep",
            "radar.chirp_s = 1e308\nsweep.parameter = snr\n",
            "chirp_duration * sample_rate must be an integer >= 2, got inf",
        ),
        # Once numpy overflow warnings, then "field overflows at amplitude 1.0".
        ("pattern", "layout.spacing_m = 1e308\n", "layout extent 1.5e+308 m overflows wavenumber * extent"),
        ("link", "layout.base_length_m = 1e308\n", "layout extent 1e+308 m overflows wavenumber * extent"),
        # Once null_depth_db=0 and exit 0, and "all amplitudes identical" from
        # link: the switch's pi was lost to the rounding of k * x.
        ("pattern", "layout.spacing_m = 1e300\n", "layout extent 1.5e+300 m is too large to resolve its switch"),
        ("link", "layout.spacing_m = 1e300\n", "layout extent 1.5e+300 m is too large to resolve its switch"),
        # Once inf in pattern_plate.csv and exit 0, and in range at 0 deg
        # "math domain error" from the gain over an infinite plate return.
        (
            "pattern",
            PLATE_OVERFLOW,
            "plate return overflows at width 1e+300 m and amplitude 10000000000.0",
        ),
        (
            "range",
            PLATE_OVERFLOW + "incidence_angle_deg = 0\n",
            "plate return overflows at width 1e+300 m and amplitude 10000000000.0",
        ),
    ],
)
def test_an_overflowing_input_is_refused_with_one_line(command, text, message):
    assert _takes_or_cleanly_refuses(command, text) == (1, f"constraint error: {message}\n")


def test_config_values_take_the_type_of_their_default(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "layout.n_pairs = 4.0\n")
    assert run_cli("validate", "--config", cfg_path, "--out", str(tmp_path / "o")) == 0
    assert "layout valid" in capsys.readouterr().out
    for text in ("frequency_hz = abc\n", "layout.n_pairs = true\n", "seed = none\n"):
        cfg_path = write_config(tmp_path, text)
        assert run_cli("validate", "--config", cfg_path, "--out", str(tmp_path / "o")) == 1
        assert "must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["true", "abc"])
@pytest.mark.parametrize(
    "command, key",
    [
        ("validate", "layout.spacing_m"),
        ("validate", "layout.base_length_m"),
        ("validate", "layout.base_radius_m"),
    ],
)
def test_optional_number_keys_reject_non_numbers(tmp_path, capsys, command, key, value):
    # Checked before use: the concentric builder never reads the linear keys.
    cfg_path = write_config(tmp_path, f"layout.builder = concentric\n{key} = {value}\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, "--out", str(out)) == 1
    expected = repr(True) if value == "true" else repr(value)
    assert capsys.readouterr().err == f"constraint error: {key} must be a number, got {expected}\n"
    assert not out.exists()


FLOAT_KEYS = sorted(k for k, v in DEFAULTS.items() if isinstance(v, float) or k in _OPTIONAL_NUMBERS)


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_float_keys_refuse_an_integer_past_float64(tmp_path, capsys, key):
    cfg_path = write_config(tmp_path, f"{key} = 1{'0' * 400}\n")
    out = tmp_path / "out"
    assert run_cli("validate", "--config", cfg_path, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"constraint error: {key} must fit in float64, got {10**400}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, line",
    [
        ("pattern", "pattern.grid_step_deg = 1e-12"),
        ("sweep", "sweep.step = 1e-13"),
        ("link", "link.random_bits = 100000000000000"),
    ],
)
def test_grid_or_frame_past_memory_exits_one(tmp_path, capsys, command, line):
    # numpy refuses these petabyte-sized arrays at once; nothing is allocated
    cfg_path = write_config(tmp_path, line + "\n")
    assert run_cli(command, "--config", cfg_path, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("memory error: Unable to allocate")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ['"2,4.5"', "6.5", '"2,nan"'])
def test_scale_rejects_non_integral_element_counts(tmp_path, capsys, value):
    cfg_path = write_config(tmp_path, f"scale.n_elements = {value}\n")
    out = tmp_path / "out"
    assert run_cli("scale", "--config", cfg_path, "--out", str(out)) == 1
    assert "scale.n_elements must list integers" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_incidence_past_grazing(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "sweep.stop = 95\n")
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("constraint error: incidence angle")
    assert "got 90.0" in err
    assert not (out / "sweep_incidence.csv").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ("sweep.start = 10\nsweep.stop = -10\n", "sweep.stop"),
        ("sweep.start = nan\n", "sweep.start"),
        ("sweep.start = -inf\n", "sweep.start"),
        ("sweep.stop = inf\n", "sweep.stop"),
        ("sweep.stop = nan\n", "sweep.stop"),
    ],
)
def test_sweep_rejects_empty_or_non_finite_incidence_range(tmp_path, capsys, text, key):
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", write_config(tmp_path, text), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"constraint error: {key} must be")
    assert "written" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("value", ['""', ",", "abc", "1,abc"])
@pytest.mark.parametrize("key", ["range.distances_m", "scale.n_elements", "sweep.snr_db"])
def test_list_keys_reject_empty_or_non_number_lists(tmp_path, capsys, key, value):
    command = key.split(".")[0]
    cfg_path = write_config(tmp_path, f"sweep.parameter = snr\n{key} = {value}\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"constraint error: {key} must list one or more numbers")
    assert captured.out == ""
    assert not out.exists()


COMMANDS = ("validate", "pattern", "range", "scale", "link", "sweep")


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_takes_each_command_with_options_on_either_side(command):
    def parsed(argv):
        args = _build_parser().parse_args(argv)
        return args.command, args.config, args.out, args.seed, args.grid_step_deg

    options = ["--config", "a.cfg", "--out", "o", "--seed", "7", "--grid-step-deg", "0.5"]
    for argv in ([command, *options], [*options, command], [*options[:4], command, *options[4:]]):
        assert parsed(argv) == (command, "a.cfg", "o", 7, 0.5)
    assert parsed([command]) == (command, None, "out", None, None)


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--out", "o"])
    assert exc.value.code == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["pattern", "--help"]])
def test_help_names_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: vanatta")
    for command in COMMANDS:
        assert f"\n  {command} " in text


@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
@pytest.mark.parametrize(
    "command, key",
    [
        ("sweep", "sweep.step"),
        ("pattern", "pattern.grid_step_deg"),
        ("sweep", "--grid-step-deg"),
        ("pattern", "--grid-step-deg"),
    ],
)
def test_bad_steps_exit_one(tmp_path, capsys, command, key, value):
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if key.startswith("--"):
        argv += [key, value]
    else:
        argv += ["--config", write_config(tmp_path, f"{key} = {value}\n")]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    # --grid-step-deg sets pattern.grid_step_deg, and the refusal names the key.
    name = key.replace("--grid-step-deg", "pattern.grid_step_deg")
    assert err.startswith(f"constraint error: {name} must be positive and finite")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["5e-324", "1e-300"])
@pytest.mark.parametrize(
    "command, key, span",
    [
        ("pattern", "pattern.grid_step_deg", "180"),
        ("pattern", "--grid-step-deg", "180"),
        ("sweep", "--grid-step-deg", "180"),
        ("sweep", "sweep.step", "120"),
    ],
)
def test_steps_past_2_53_points_exit_one(tmp_path, capsys, command, key, span, value):
    # 180 / 5e-324 is inf and 180 / 1e-300 finite but far past any grid.
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if key.startswith("--"):
        argv += [key, value]
    else:
        argv += ["--config", write_config(tmp_path, f"{key} = {value}\n")]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    name = key.replace("--grid-step-deg", "pattern.grid_step_deg")
    want = f"{name} must divide {span} deg into at most 2**53 steps, got {value}"
    assert err == f"constraint error: {want}\n"
    assert list(out.iterdir()) == []


def test_pattern_rejects_infinite_amplitude(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "amplitude = inf\n")
    assert run_cli("pattern", "--config", cfg_path, "--out", str(tmp_path / "o")) == 1
    assert "amplitude must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("target.range_m", "nan", "range_m"),
        ("target.range_m", "inf", "range_m"),
        ("target.velocity_mps", "nan", "velocity_mps"),
        ("noise.power", "inf", "noise_power"),
        ("noise.power", "nan", "noise_power"),
        # A negative count once sent link.bits and exited 0.
        ("link.random_bits", "-5", "link.random_bits"),
    ],
)
def test_link_rejects_non_finite_inputs(tmp_path, capsys, key, value, field):
    cfg_path = write_config(tmp_path, f"{key} = {value}\n")
    out = tmp_path / "out"
    assert run_cli("link", "--config", cfg_path, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"constraint error: {field} must be")
    assert "ber=" not in captured.out
    # The config gate refuses a negative count before --out is made; the
    # library refuses the other values after.
    if key == "link.random_bits":
        assert not out.exists()
    else:
        assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("amplitude = 1e308\n", "field overflows at amplitude 1e+308"),
        ("target.range_m = 5e-324\n", "target 0 at 5e-324 m: per-chirp amplitudes are not finite"),
        ("target.velocity_mps = 1e308\n", "target 0 at 50.0 m: per-chirp phases are not finite"),
        ("frequency_hz = 1e308\n", "target 0 at 50.0 m: per-chirp phases are not finite"),
    ],
)
def test_link_rejects_overflowing_inputs(tmp_path, capsys, text, message):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("link", "--config", write_config(tmp_path, text), "--out", str(out)) == 1
    # A 1e308 Hz carrier lies outside the automotive bands, and says so.
    band = [DesignMismatchWarning] if text.startswith("frequency_hz") else []
    assert [w.category for w in caught] == band
    captured = capsys.readouterr()
    assert captured.err.startswith(f"constraint error: {message}")
    assert "ber=" not in captured.out
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "text, code, message",
    [
        ('sweep.snr_db = "1e308"\n', 0, None),
        ("sweep.depth_db = 1e308\n", 0, None),
        ('sweep.snr_db = "-1e308"\n', 1, "noise_power must be non-negative and finite"),
        ('sweep.snr_db = "nan"\n', 1, "per_chirp_snr_db must be finite"),
        ("sweep.depth_db = nan\n", 1, "depth_db must be finite"),
        ("sweep.depth_db = -inf\n", 1, "depth_db must be finite"),
        ("sweep.depth_db = -1e308\n", 1, "target 0 at 25.0 m: per-chirp amplitudes are not finite"),
        # The SNR sweep takes the link's whole chirps per bit, not a rounded count.
        ("link.switch_interval_s = 1.3e-3\n", 1, "switch interval 0.0013 s must be a whole"),
        ("link.switch_interval_s = 0.2e-3\n", 1, "switch interval 0.0002 s must be a whole"),
        ("link.switch_interval_s = inf\n", 1, "switch interval inf s must be a whole"),
    ],
)
def test_snr_sweep_at_extreme_inputs_exits_cleanly(tmp_path, capsys, text, code, message):
    cfg_path = write_config(tmp_path, "sweep.parameter = snr\nsweep.bits_per_point = 32\n" + text)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", str(out)) == code
    captured = capsys.readouterr()
    if code == 1:
        assert captured.err.startswith(f"constraint error: {message}")
        assert list(out.iterdir()) == []
        return
    rows = (out / "sweep_snr.csv").read_text().splitlines()[1:]
    assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("scale", "plate.width_m = 1e308\n", "width 1e+308 m overflows wavenumber * width"),
        ("pattern", "plate.width_m = 1e308\n", "width 1e+308 m overflows wavenumber * width"),
        ("range", "plate.width_m = 1e308\n", "width 1e+308 m overflows wavenumber * width"),
        ("pattern", "amplitude = 1e308\n", "field overflows at amplitude 1e+308"),
    ],
)
def test_field_overflow_exits_one(tmp_path, capsys, command, text, message):
    out = tmp_path / "out"
    assert run_cli(command, "--config", write_config(tmp_path, text), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"constraint error: {message}")
    assert list(out.iterdir()) == []


def test_a_subnormal_return_is_refused_and_a_small_normal_one_is_not(tmp_path, capsys):
    # Each of these once exited 0: a 21 deg retro peak, a 71.2838 dB gain,
    # and an infinite gain over a plate whose return rounded to zero.
    refused = [
        ("pattern", "amplitude = 5e-324\n", "field underflows at amplitude 5e-324"),
        ("pattern", "amplitude = 1e-320\n", "field underflows at amplitude 1e-320"),
        ("range", "plate.width_m = 1e-310\n", "plate return underflows at width 1e-310 m and amplitude 1.0"),
    ]
    for k, (command, text, message) in enumerate(refused):
        out = tmp_path / f"refused{k}"
        assert run_cli(command, "--config", write_config(tmp_path, text), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"constraint error: {message}\n"
        assert "=" not in captured.out
        assert list(out.iterdir()) == []

    def summary(text):
        out = str(tmp_path / "kept")
        assert run_cli("pattern", "--config", write_config(tmp_path, text), "--out", out) == 0
        fields = dict(field.split("=") for field in capsys.readouterr().out.split())
        return fields["retro_peak_deg"], fields["monostatic_gain_db"]

    assert summary("") == ("30", "69.6024")
    for amplitude in ("1e-307", "1e-300"):
        assert summary(f"amplitude = {amplitude}\n") == ("30", "69.6024")


@pytest.mark.parametrize("distances", ["1e-320", "1,2,5e-324"])
def test_range_refuses_a_distance_whose_amplitude_overflows(tmp_path, capsys, distances):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, f'range.distances_m = "{distances}"\n')
    assert run_cli("range", "--config", cfg_path, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("constraint error: amplitude ")
    assert f"overflows at distance {distances.split(',')[-1]} m" in captured.err
    assert "range_extension" not in captured.out
    assert list(out.iterdir()) == []


def test_commands_are_deterministic(tmp_path):
    cfg_path = write_config(
        tmp_path,
        "noise.power = 1e-6\nlink.random_bits = 32\nsweep.parameter = snr\n"
        "sweep.snr_db = \"-20\"\nsweep.bits_per_point = 64\n",
    )
    outputs = {}
    for run in ("a", "b"):
        for command in ("validate", "pattern", "range", "scale", "link", "sweep"):
            out = tmp_path / f"{command}_{run}"
            code = run_cli(
                command, "--config", cfg_path, "--out", str(out), "--seed", "77"
            )
            assert code == 0, f"{command} failed"
            for artifact in sorted(out.iterdir()):
                outputs.setdefault((command, artifact.name), []).append(
                    artifact.read_bytes()
                )
    for (command, name), blobs in outputs.items():
        assert len(blobs) == 2
        assert blobs[0] == blobs[1], f"{command}/{name} differs between runs"


def test_layout_file_round_trip_through_cli(tmp_path):
    layout = build_linear_array(3, 0.6 * LAM, LAM)
    save_layout(layout, tmp_path / "layout.json")
    cfg_path = write_config(
        tmp_path, "layout.builder = file\nlayout.path = layout.json\n"
    )
    out = tmp_path / "out"
    assert run_cli("validate", "--config", cfg_path, "--out", str(out)) == 0
    doc = json.loads((tmp_path / "layout.json").read_text())
    assert len(doc["elements"]) == 6


@pytest.mark.parametrize("command", ["validate", "pattern"])
@pytest.mark.parametrize(
    "section, field, value, message",
    [
        ("elements", "x_m", math.nan, "element 2 position must be finite, got (nan, 0.0)"),
        ("lines", "base_length_m", math.inf, "pair 2 line length must be finite, got inf"),
    ],
    ids=["nan-x", "inf-length"],
)
def test_non_finite_layout_file_exits_one(
    tmp_path, capsys, command, section, field, value, message
):
    """A NaN or infinite coordinate is refused by name, not reported valid
    (NaN deviations never exceed the tolerance) or as a field overflow."""
    save_layout(build_linear_array(2, LAM / 2.0, LAM), tmp_path / "layout.json")
    doc = json.loads((tmp_path / "layout.json").read_text())
    doc[section][2 if section == "elements" else 1][field] = value
    (tmp_path / "layout.json").write_text(json.dumps(doc))
    cfg_path = write_config(tmp_path, "layout.builder = file\nlayout.path = layout.json\n")
    assert run_cli(command, "--config", cfg_path, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"constraint error: {message}\n"


def _drop(record, key):
    del record[key]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _drop(doc["elements"][1], "x_m"), "layout elements[1] has no x_m"),
        (lambda doc: _drop(doc, "lines"), "layout file has no lines"),
        (
            lambda doc: doc.update(center_xy_m=[0.0, 0.0, 0.0]),
            "layout center_xy_m must be two numbers, got [0.0, 0.0, 0.0]",
        ),
        (
            lambda doc: doc["elements"][1].update(x_m="0.001"),
            "layout elements[1] x_m must be a number, got '0.001'",
        ),
        (
            lambda doc: doc["lines"][0].update(base_length_m=True),
            "layout lines[0] base_length_m must be a number, got True",
        ),
        (lambda doc: doc["elements"][1].update(id=True), "element ids must be integers, got True"),
        (
            lambda doc: doc["elements"][1].update(id=2**70),
            f"element ids must fit in int64, got {2**70}",
        ),
        (
            lambda doc: doc["lines"][0].update(pair_id=-(2**70)),
            f"line pair_ids must fit in int64, got {-(2**70)}",
        ),
    ],
    ids=[
        "no-x", "no-lines", "three-center-values", "text-x", "bool-length", "bool-id",
        "huge-id", "huge-line-pair-id",
    ],
)
def test_malformed_layout_file_exits_one(tmp_path, capsys, edit, message):
    """A layout file of the wrong shape is refused by field: no KeyError
    traceback, no unpacking error, and no string coerced to a number."""
    save_layout(build_linear_array(2, LAM / 2.0, LAM), tmp_path / "layout.json")
    doc = json.loads((tmp_path / "layout.json").read_text())
    edit(doc)
    (tmp_path / "layout.json").write_text(json.dumps(doc))
    cfg_path = write_config(tmp_path, "layout.builder = file\nlayout.path = layout.json\n")
    assert run_cli("validate", "--config", cfg_path, "--out", str(tmp_path / "out")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"constraint error: {message}\n"
    assert "layout valid" not in captured.out
    assert not (tmp_path / "out" / "validation.txt").exists()


@pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe"], ids=["not-json", "not-utf8"])
def test_unparseable_layout_file_exits_two_naming_it(tmp_path, capsys, text):
    """A layout file that is not JSON is a parse error (exit 2), as a config
    file is, and the message names the file."""
    (tmp_path / "broken.json").write_bytes(text)
    cfg_path = write_config(tmp_path, "layout.builder = file\nlayout.path = broken.json\n")
    assert run_cli("validate", "--config", cfg_path, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read layout {tmp_path / 'broken.json'}: ")
