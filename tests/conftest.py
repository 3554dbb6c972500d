import os

# One BLAS/OpenMP thread, as in CI: the kernels are 2x2 to 4x4 matrices, so
# extra threads only contend for the cores.  This runs before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from hennion_lab import make_algebra


@pytest.fixture
def qubit():
    return make_algebra([2], [1.0])


@pytest.fixture
def qutrit():
    return make_algebra([3], [1.0])


@pytest.fixture
def two_blocks():
    return make_algebra([2, 2], [1.0, 3.0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
