"""Dense complex-matrix kernels shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with complex entries;
``ascomplex`` is the single validation gate (2-D, consistent shape, all
entries finite).  Norm conventions: residual-type quantities are measured
in the Frobenius norm (cheap, sufficient for pass/fail), bound-type
quantities (kernel suprema, condition numbers) in the spectral 2-norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Condition estimate above which a linear system is treated as singular.
SINGULAR_COND = 1e12

#: Default slack for "positive semidefinite" checks on eigenvalues.
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
    return np.conj(np.swapaxes(matrix, -1, -2))


def hermitian_part(matrix):
    """(M + M*)/2 of a matrix or of every matrix in a stack."""
    return 0.5 * (matrix + _adj(matrix))


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


@dataclass
class HermitianReport:
    """Hermiticity / positivity diagnostics of a square matrix.

    ``defect`` is the Frobenius norm of M - M*; ``min_eig`` is the smallest
    eigenvalue of the Hermitian part (M + M*)/2; ``is_psd`` holds iff
    ``min_eig >= -psd_tol``.  The PSD flag is only meaningful when the
    defect is negligible.
    """

    defect: float
    min_eig: float
    is_psd: bool


def hermitian_report(matrix, psd_tol=PSD_TOL):
    m = ascomplex(matrix, square=True)
    defect = fro(m - m.conj().T)
    min_eig = float(np.linalg.eigvalsh(hermitian_part(m))[0])
    return HermitianReport(defect=defect, min_eig=min_eig, is_psd=min_eig >= -psd_tol)
