"""Working sets of the hot stages, pinned by their traced peaks.

numpy reports its data allocations to tracemalloc, so the traced peak of a
warm call counts the arrays it holds at once, the same on every run.  Each
bound sits between the peak of one block per stage and the peak of the
designs these stages replaced: a whole chirps x bins magnitude matrix
(10.9 MB per link op; 15.5 MB with 128-chirp frame blocks and two spectra
per block), two pair-path tables and a whole-table CSV write (3.5 MB per
4-ring pattern op, 3.2 MB per 3,601-row CSV).  The link op's peak is also
bounded in how it grows with the frame: the magnitude matrix made it grow
by 25 MB from 2048 to 8192 chirps.
"""

import random
import tracemalloc

import numpy as np

from vanatta import FieldPattern, write_pattern_csv
from vanatta.cli import main

MB = 1e6


def _traced_peak(run) -> float:
    """Traced peak in bytes of a second call of run; the first fills caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _op(tmp_path, command, config, *argv):
    """One run of a CLI command on config, which must exit 0."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(config)

    def run():
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command), *argv]) == 0

    return run


def test_link_op_holds_one_block_of_frame_buffers(tmp_path):
    # 1024 bits at two 0.5 ms chirps each: 2048 chirps x 1000 samples.  The
    # op holds one 64-chirp block of frame buffers (two noise buffers, the
    # beat buffer and product, the windowed rows, one spectrum) and a few
    # values per chirp: 3.1 MB.  No chirps x bins matrix: the 2048 x 501
    # magnitudes alone would be 8.2 MB.
    bits = format(random.Random(23).getrandbits(1024), "01024b")
    config = (
        "layout.builder = linear\nlayout.n_pairs = 2\nabsorption_efficiency = 0.82\n"
        f'link.bits = "{bits}"\nlink.switch_interval_s = 1e-3\nradar.chirp_s = 0.5e-3\n'
        "noise.power = 1e-6\n"
    )
    peak = _traced_peak(_op(tmp_path, "link", config, "--seed", "2323"))
    assert peak <= 4.0 * MB, f"link op traced peak {peak / MB:.2f} MB"
    assert f"decoded_bits = {bits}\n" in (tmp_path / "link" / "link_report.txt").read_text()


def test_link_op_peak_does_not_grow_with_the_frame(tmp_path):
    # 2048 and 8192 chirps x 1000 samples.  Per-chirp arrays (amplitudes,
    # phases, lobe columns, times) grow by under 0.1 KB a chirp; a held
    # chirps x bins magnitude matrix would grow by 24.6 MB.
    def peak(n_bits):
        bits = format(random.Random(26).getrandbits(n_bits), f"0{n_bits}b")
        config = (
            "layout.builder = linear\nlayout.n_pairs = 2\nabsorption_efficiency = 0.82\n"
            f'link.bits = "{bits}"\nlink.switch_interval_s = 1e-3\nradar.chirp_s = 0.5e-3\n'
            "noise.power = 1e-6\n"
        )
        work_dir = tmp_path / str(n_bits)
        work_dir.mkdir()
        return _traced_peak(_op(work_dir, "link", config, "--seed", "2626"))

    small, large = peak(1024), peak(4096)
    assert large - small <= 1.0 * MB, f"link op traced peak {small / MB:.2f} -> {large / MB:.2f} MB"


def test_ring_pattern_op_holds_one_table_and_one_csv_block(tmp_path):
    # 128 elements, 3,601 angles at 0.05 deg, three CSVs.
    config = (
        "layout.builder = concentric\nlayout.n_rings = 4\nlayout.base_radius_m = 0.05\n"
        "absorption_efficiency = 0.82\nincidence_angle_deg = 17.35\n"
        "pattern.grid_step_deg = 0.05\n"
    )
    peak = _traced_peak(_op(tmp_path, "pattern", config))
    assert peak <= 1.6 * MB, f"pattern op traced peak {peak / MB:.2f} MB"


def test_pattern_csv_holds_one_block_of_cells(tmp_path):
    grid = np.linspace(-90.0, 90.0, 3601)
    rng = np.random.default_rng(23)
    pattern = FieldPattern(grid, rng.standard_normal(3601) + 1j * rng.standard_normal(3601))
    path = tmp_path / "pattern.csv"
    peak = _traced_peak(lambda: write_pattern_csv(pattern, path))
    assert peak <= 1.0 * MB, f"write_pattern_csv traced peak {peak / MB:.2f} MB"
    assert len(path.read_text().splitlines()) == 3602
