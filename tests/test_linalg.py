import numpy as np
import pytest

from cansys.linalg import SingularMatrixError, ascomplex, fro, psd_defect, solve


def test_ascomplex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ascomplex([1.0, 2.0])
    with pytest.raises(ValueError):
        ascomplex([[1.0, np.nan]])
    with pytest.raises(ValueError):
        ascomplex([[1.0, 2.0]], square=True)


def test_solve_identity_and_self():
    b = np.array([[1.0, 2j], [3.0, 4.0]])
    x, cond = solve(np.eye(2), b)
    assert np.allclose(x, b)
    assert cond == pytest.approx(1.0)
    x, _ = solve(b, b)
    assert np.allclose(x, np.eye(2), atol=1e-14)


def test_solve_constructed_rhs_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a += 4.0 * np.eye(4)  # keep it well-conditioned
        x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        got, cond = solve(a, a @ x)
        assert fro(got - x) < 1e-12
        assert fro(a @ got - a @ x) < cond * 1e-14 * max(1.0, fro(a @ x))


def test_solve_singular_raises_with_estimate():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
    with pytest.raises(SingularMatrixError) as excinfo:
        solve(a, np.eye(2))
    assert excinfo.value.cond_estimate > 1e12



def test_psd_defect_of_a_stack():
    stack = np.array([
        [[2.0, 1j], [-1j, 1.0]],  # Hermitian positive definite
        [[1.0, 0.0], [0.0, -0.25]],  # Hermitian, least eigenvalue -0.25
        [[1.0, 0.5], [0.0, 1.0]],  # PSD Hermitian part, asymmetry 0.5 sqrt(2)
    ])
    assert np.allclose(psd_defect(stack), [0.0, 0.25, 0.5 * np.sqrt(2.0)],
                       rtol=0, atol=1e-15)
    assert psd_defect(stack[1]) == pytest.approx(0.25, abs=1e-15)
