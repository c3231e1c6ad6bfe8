"""Shared test helpers."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor


def numeric_gradient(func, array, epsilon=1e-3):
    """Central-difference gradient of scalar ``func`` at ``array``."""
    array = np.asarray(array, dtype=np.float64)
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = func(array.astype(np.float32))
        flat[index] = original - epsilon
        lower = func(array.astype(np.float32))
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return grad


def check_gradient(build_output, array, rtol=1e-2, atol=1e-3):
    """Assert autograd matches finite differences for a scalar function.

    ``build_output(tensor)`` must return a scalar Tensor built from the
    input tensor.
    """
    tensor = Tensor(np.asarray(array, dtype=np.float32),
                    requires_grad=True)
    output = build_output(tensor)
    output.backward()
    analytic = tensor.grad

    def scalar_func(values):
        fresh = Tensor(values, requires_grad=True)
        return float(build_output(fresh).data)

    numeric = numeric_gradient(scalar_func, array)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run tests marked slow")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: minutes-long test, skipped unless --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --runslow")
    for item in items:
        if item.get_closest_marker("slow") is not None:
            item.add_marker(skip)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
