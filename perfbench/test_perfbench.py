"""Tests of the benchmark itself: output checks, tracer, compare verdicts."""

import json

import pytest

import compare
import run
import spans
from workloads import WORKLOADS

run._import_program()


def _shift_first_peak(out):
    path = out / "sweep_incidence.csv"
    lines = path.read_text().splitlines()
    theta, mag, peak = lines[1].split(",")
    lines[1] = f"{theta},{mag},{float(peak) + 0.25}"
    path.write_text("\n".join(lines) + "\n")


def _flip_decoded_bit(out):
    path = out / "link_report.txt"
    lines = path.read_text().splitlines()
    key, _, bits = lines[1].partition(" = ")
    assert key == "decoded_bits"
    lines[1] = f"{key} = {'1' if bits[0] == '0' else '0'}{bits[1:]}"
    path.write_text("\n".join(lines) + "\n")


def _shift_ring_peak(out):
    path = out / "pattern_summary.txt"
    parts = path.read_text().split()
    peak = float(parts[0].partition("=")[2])
    parts[0] = f"retro_peak_deg={peak + 0.05:.6g}"
    path.write_text(" ".join(parts) + "\n")


def _drop_csv_row(out):
    path = out / "pattern_plate.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("surface-sweep", _shift_first_peak),
        ("link-frame", _flip_decoded_bit),
        ("ring-pattern", _shift_ring_peak),
        ("ring-pattern", _drop_csv_row),
    ],
)
def test_corrupted_output_counts_as_failed_op(tmp_path, workload, corrupt):
    runner = run.Runner(WORKLOADS[workload], seed=3, work_dir=tmp_path)
    op, argv = runner.next_op()
    code = runner.main(argv)
    runner.record(op, code)
    assert (runner.attempted, runner.failed) == (1, 0)
    corrupt(runner.out)
    runner.record(op, code)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_traced_run_survives_a_removed_boundary(tmp_path, monkeypatch):
    import vanatta.fmcw

    monkeypatch.delattr(vanatta.fmcw, "_profile_matrix")
    monkeypatch.setattr(run, "MIN_TRACED_OPS", 2)
    runner = run.Runner(WORKLOADS["link-frame"], seed=5, work_dir=tmp_path)
    metrics, detail = run.per_layer(runner, seconds=0.0)

    assert runner.failed == 0
    assert detail["absent"] == ["fmcw.range_fft_ms"]
    assert metrics["modulation.config_at_calls"]["value"] == 2048
    assert metrics["kernels.beat_cells"]["value"] == 2048 * 1000
    assert detail["max_self_time_residual_ms"] < 1e-6
    # The wrappers are gone once the run ends.
    import vanatta.link

    assert not hasattr(vanatta.link.run_link, "__wrapped__")


def test_benchmark_json_names_what_the_benchmark_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spans.PER_LAYER
    ]


@pytest.mark.parametrize(
    "change, expected",
    [
        ([90.0 + i for i in range(10)], "improved"),
        ([101.0 + i for i in range(10)], "no-worse"),
        ([130.0 + i for i in range(10)], "worse"),
        ([50.0 + 20 * i for i in range(10)], "unresolved"),
    ],
)
def test_compare_verdicts(change, expected):
    parent = {seed: 100.0 + seed for seed in range(10)}
    result, _, pairs = compare.verdict(parent, dict(enumerate(change)), 0.1, lower=True)
    assert (result, pairs) == (expected, 10)
