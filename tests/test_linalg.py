import numpy as np
import pytest

from cansys.linalg import ascomplex, psd_defect


def test_ascomplex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ascomplex([1.0, 2.0])
    with pytest.raises(ValueError):
        ascomplex([[1.0, np.nan]])
    with pytest.raises(ValueError):
        ascomplex([[1.0, 2.0]], square=True)


def test_psd_defect_of_a_stack():
    stack = np.array([
        [[2.0, 1j], [-1j, 1.0]],  # Hermitian positive definite
        [[1.0, 0.0], [0.0, -0.25]],  # Hermitian, least eigenvalue -0.25
        [[1.0, 0.5], [0.0, 1.0]],  # PSD Hermitian part, asymmetry 0.5 sqrt(2)
    ])
    assert np.allclose(psd_defect(stack), [0.0, 0.25, 0.5 * np.sqrt(2.0)],
                       rtol=0, atol=1e-15)
    assert psd_defect(stack[1]) == pytest.approx(0.25, abs=1e-15)
