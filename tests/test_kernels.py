"""Backend selection and numba/numpy kernel equivalence."""

import os
import subprocess
import sys

import numpy as np
import pytest

from vanatta import kernels


def _random_traversals(rng, n):
    x_in = rng.uniform(-0.05, 0.05, n)
    x_out = rng.uniform(-0.05, 0.05, n)
    path = rng.uniform(0.1, 0.3, n)
    return x_in, x_out, path


def test_active_backend_reports_a_known_name():
    assert kernels.active_backend() in ("numba", "numpy")
    assert kernels.active_backend() == kernels.BACKEND


def test_pair_path_response_matches_direct_formula():
    rng = np.random.default_rng(3)
    x_in, x_out, path = _random_traversals(rng, 12)
    k = 2.0 * np.pi / 0.0125
    sin_inc = np.array([-0.8, 0.0, 0.5])
    sin_obs = np.linspace(-1.0, 1.0, 101)
    got = kernels.pair_path_response(x_in, x_out, path, k, sin_inc, sin_obs)
    expected = np.array(
        [
            [
                sum(
                    np.exp(-1j * k * (xi * si + p + xo * so))
                    for xi, xo, p in zip(x_in, x_out, path)
                )
                for so in sin_obs
            ]
            for si in sin_inc
        ]
    )
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_accumulate_beat_matches_direct_formula():
    samples = np.zeros((4, 200))
    amps = np.array([1.0, 0.5, 0.0, 2.0])
    f, phase0, step, dt = 166782.0, 0.3, 1.7, 5e-7
    kernels.accumulate_beat(samples, amps, f, phase0, step, dt)
    t = np.arange(200) * dt
    for c in range(4):
        expected = amps[c] * np.cos(2.0 * np.pi * f * t + phase0 + step * c)
        np.testing.assert_allclose(samples[c], expected, rtol=0, atol=1e-12)


def test_accumulate_beat_backends_agree():
    if not kernels.HAS_NUMBA:
        return
    rng = np.random.default_rng(5)
    amps = rng.uniform(0.0, 2.0, 16)
    a = np.zeros((16, 500))
    b = np.zeros((16, 500))
    kernels._accumulate_beat_numba(a, amps, 2.5e5, 0.1, 0.02, 5e-7)
    kernels._accumulate_beat_numpy(b, amps, 2.5e5, 0.1, 0.02, 5e-7)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_accumulate_beat_is_additive():
    rng = np.random.default_rng(9)
    base = rng.normal(size=(3, 50))
    samples = base.copy()
    kernels.accumulate_beat(samples, np.ones(3), 1e5, 0.0, 0.0, 1e-6)
    delta = np.zeros((3, 50))
    kernels.accumulate_beat(delta, np.ones(3), 1e5, 0.0, 0.0, 1e-6)
    np.testing.assert_allclose(samples, base + delta, rtol=0, atol=1e-12)


def test_accumulate_beat_rejects_wrong_amplitude_count():
    samples = np.zeros((4, 10))
    with pytest.raises(ValueError):
        kernels.accumulate_beat(samples, np.ones(3), 1.0, 0.0, 0.0, 1e-6)


def _run_with_backend(value):
    env = dict(os.environ, VANATTA_BACKEND=value)
    return subprocess.run(
        [sys.executable, "-c", "import vanatta.kernels as k; print(k.active_backend())"],
        env=env,
        capture_output=True,
        text=True,
    )


def test_backend_env_numpy_forces_fallback():
    proc = _run_with_backend("numpy")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numpy"


def test_backend_env_auto_prefers_numba():
    # numba is a hard dependency, so auto must select it
    proc = _run_with_backend("auto")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numba"


def test_backend_env_invalid_rejected_at_import():
    proc = _run_with_backend("cuda")
    assert proc.returncode != 0
    assert "VANATTA_BACKEND" in proc.stderr
