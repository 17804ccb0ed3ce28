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

#: Slack for "positive semidefinite" checks on eigenvalues.
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
    (M + M*)/2, and 0 for a Hermitian PSD matrix.  With the one threshold
    ``PSD_TOL`` it is the Hermitian-PSD test of every caller."""
    asymmetry = np.linalg.norm(matrix - _adj(matrix), axis=(-2, -1))
    negativity = -np.linalg.eigvalsh(hermitian_part(matrix))[..., 0]
    return np.maximum(np.maximum(asymmetry, negativity), 0.0)


def cond2(matrix):
    """2-norm condition number; ``inf`` for exactly singular input."""
    return float(np.linalg.cond(matrix))


def solve(a, b):
    """Solve ``a @ x = b``; returns ``(x, cond)`` with a 2-norm condition
    estimate.  Raises :class:`SingularMatrixError` when the estimate
    exceeds :data:`SINGULAR_COND`.
    """
    a = ascomplex(a, "a", square=True)
    b = ascomplex(b, "b")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"row count mismatch: a is {a.shape}, b is {b.shape}")
    cond = cond2(a)
    if not np.isfinite(cond) or cond > SINGULAR_COND:
        raise SingularMatrixError("matrix singular to tolerance", cond_estimate=cond)
    return np.linalg.solve(a, b), cond
