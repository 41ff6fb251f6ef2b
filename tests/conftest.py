"""Shared fixtures."""

import numpy as np
import pytest

from vanatta import kernels


@pytest.fixture(scope="session")
def warm_kernels():
    """Run the beat kernel once so timed tests measure steady state, not JIT."""
    kernels.accumulate_beat(np.zeros((2, 8)), np.ones(2), 1.0, 0.0, 0.0, 1e-6)
