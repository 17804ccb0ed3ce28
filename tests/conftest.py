import numpy as np
import pytest

from cansys import rank_one


def assert_bits(got, expected):
    """Assert that two arrays are the same bits: equal dtype, shape and raw
    bytes.  Unlike ``np.array_equal``, this tells 0.0 from -0.0."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


@pytest.fixture(scope="session")
def unit_system():
    """The constant rank-one scenario system on [0, 1]."""
    return rank_one.make_system(b=1.0)


@pytest.fixture(scope="session")
def diag_n1():
    """Order-one dressing parameters B = i, g = 1, h = 0."""
    return rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[0.0])


@pytest.fixture(scope="session")
def traj_n1(unit_system, diag_n1):
    """Tightly integrated order-one trajectory, shared across tests."""
    from cansys.gbdt import evolve

    return evolve(
        diag_n1.to_gbdt_params(), unit_system,
        grid=np.linspace(0.0, 1.0, 201), tol=1e-12,
    )
