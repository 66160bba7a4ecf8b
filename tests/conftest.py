import multiprocessing

import numpy as np
import pytest

from resonat import WaveContext, build_disk_grid
from resonat.spectral import eigendecompose
from resonat.volume import assemble_kd, operator_from_matrix


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test after which a child process still runs; the benchmark
    refuses a run that leaves one."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert left == [], f"child processes left running: {left}"


@pytest.fixture(scope="session")
def disk16():
    """Unit disk, n = 1, k = 1, 16 cells per diameter (N = 208)."""
    ctx = WaveContext(k=1.0, dim=2)
    grid = build_disk_grid(1.0, 16, ctx)
    op = assemble_kd(grid, np.full(grid.n_points, 1.0), ctx)
    return ctx, grid, op


@pytest.fixture(scope="session")
def disk16_sys(disk16):
    _, _, op = disk16
    return eigendecompose(op)


@pytest.fixture(scope="session")
def disk20_k6():
    """Unit disk, n = 1, k = 6, 20 cells per diameter (N = 316): the
    sub-wavelength-resonance setting used by the imaging experiments."""
    ctx = WaveContext(k=6.0, dim=2)
    grid = build_disk_grid(1.0, 20, ctx)
    op = assemble_kd(grid, np.full(grid.n_points, 1.0), ctx)
    return ctx, grid, op


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def nonnormal_op():
    """Factory: the operator V diag(lambdas) V^-1 for a random, well-conditioned,
    non-unitary V, so that its modes are not orthogonal."""
    def make(lambdas, seed=0):
        n = len(lambdas)
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2.0 * n * np.eye(n)
        return operator_from_matrix(V @ np.diag(lambdas) @ np.linalg.inv(V))
    return make
