"""Dense complex-matrix kernels shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with complex entries;
``ascomplex`` is the single validation gate (2-D, consistent shape, all
entries finite).  Norm conventions: residual-type quantities are measured
in the Frobenius norm (cheap, sufficient for pass/fail), bound-type
quantities (kernel suprema, condition numbers) in the spectral 2-norm.
"""

from __future__ import annotations

import numpy as np

#: Condition estimate above which a linear system is treated as singular.
SINGULAR_COND = 1e12

#: Slack for "positive semidefinite" checks on eigenvalues; psd_bound scales
#: it by the size of the matrix.
PSD_TOL = 1e-10


class SingularMatrixError(ValueError):
    """Linear solve rejected: matrix singular to working tolerance.

    Carries the condition estimate that triggered the rejection and,
    when raised from a grid sweep, the offending location.
    """

    def __init__(self, message, cond_estimate=None, location=None):
        if cond_estimate is not None:
            message += f" (condition estimate {cond_estimate:.3e})"
        if location is not None:
            message += f" at x = {location}"
        super().__init__(message)
        self.cond_estimate = cond_estimate
        self.location = location


def ascomplex(matrix, name="matrix", square=False):
    """Validate and return a 2-D complex array (the CMatrix contract)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def fro(matrix):
    """Frobenius norm."""
    return float(np.linalg.norm(matrix))


def spec_norm(matrix):
    """Spectral (operator 2-) norm."""
    return float(np.linalg.norm(matrix, ord=2))


def _adj(matrix):
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return np.conj(matrix).swapaxes(-1, -2)


def hermitian_part(matrix):
    """(M + M*)/2 of a matrix or of every matrix in a stack."""
    return 0.5 * (matrix + _adj(matrix))


def psd_defect(matrix):
    """Distance from Hermitian PSD of a matrix or of every matrix in a stack:
    the larger of |M - M*| (Frobenius) and minus the least eigenvalue of
    (M + M*)/2, and 0 for a Hermitian PSD matrix."""
    asymmetry = np.linalg.norm(matrix - _adj(matrix), axis=(-2, -1))
    negativity = -np.linalg.eigvalsh(hermitian_part(matrix))[..., 0]
    return np.maximum(np.maximum(asymmetry, negativity), 0.0)


def psd_bound(matrix):
    """The largest :func:`psd_defect` of a Hermitian PSD matrix, or of each
    matrix in a stack: ``PSD_TOL`` max(1, |M|_F).  Rounding alone puts the
    defect near u |M|, so an absolute bound would reject PSD data of size
    1e6; the input checks of ``validate_system`` and ``similarity_probe``
    use this one."""
    return PSD_TOL * np.maximum(1.0, np.linalg.norm(matrix, axis=(-2, -1)))


def cond2(matrix):
    """2-norm condition number; ``inf`` for exactly singular input."""
    return float(np.linalg.cond(matrix))
