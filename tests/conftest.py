import numpy as np
import pytest

from coulomb_chain import ForceSpec, Harmonic


# Seed-7 forces of the benchmark workloads (two and three harmonics, total
# amplitude 0.5), written out so the tests do not depend on the benchmark.
SEED7_TWO = ForceSpec(L=1.0, harmonics=(
    Harmonic(1, -0.22768836648082902, 0.03706854929700913),
    Harmonic(2, 0.26605283425496473, 0.04178366273797423),
))
SEED7_THREE = ForceSpec(L=1.0, harmonics=(
    Harmonic(1, 0.15151179318533423, 0.023794964203293658),
    Harmonic(2, 0.17022893021267912, -0.05550743079364868),
    Harmonic(3, -0.11956971363766732, 0.11741570085089265),
))
# Seed-1 force of the deep-truncation workload.
SEED1_THREE = ForceSpec(L=1.0, harmonics=(
    Harmonic(1, -0.05203173991757167, 0.15563104917043277),
    Harmonic(2, 0.1959334134113108, -0.0801956949623655),
    Harmonic(3, 0.057542039331704174, -0.11005617438720669),
))


@pytest.fixture
def sine_force():
    """Zero-mean single-harmonic force 0.5*sin(2*pi*x) on the unit circle."""
    return ForceSpec(L=1.0, a0=0.0, harmonics=(Harmonic(1, 0.0, 0.5),))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def assert_columns_close(actual, desired, rtol, floor_rtol=None):
    """Column-wise comparison of coefficient arrays.

    Entries are compared relatively, with an absolute floor per column at
    ``floor_rtol`` (default rtol*1e-2) times the column's max magnitude:
    near-zero entries produced by cancellation only carry rounding-level
    information and cannot be held to a relative tolerance.
    """
    actual = np.asarray(actual)
    desired = np.asarray(desired)
    assert actual.shape == desired.shape
    if floor_rtol is None:
        floor_rtol = rtol * 1e-2
    for j in range(actual.shape[1]):
        col_scale = max(np.max(np.abs(desired[:, j])), 1e-300)
        np.testing.assert_allclose(
            actual[:, j],
            desired[:, j],
            rtol=rtol,
            atol=floor_rtol * col_scale,
            err_msg=f"column {j} mismatch",
        )
