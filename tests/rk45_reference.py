"""Independent RK45 reference for the cut limits W(x, s +/- i0).

Samples W(x, s +/- i eta) by adaptive Runge-Kutta integration along a
geometric ladder of offsets eta and Richardson-extrapolates them to
eta -> 0.  It integrates with RK45 ``fundamental_solution`` and never
forms the Magnus products of ``cansys.system.boundary_values``, which
the tests compare against it.
"""

import numpy as np

from cansys.linalg import fro
from cansys.system import fundamental_solution


def _extrapolation_basis(u, count):
    """Basis {1, u ln u, u, u^2, ...}: one log term over the power ladder."""
    cols = [np.ones_like(u), u * np.log(u)]
    p = 1
    while len(cols) < count:
        cols.append(u**p)
        p += 1
    return np.stack(cols[:count], axis=1)


def extrapolate_eta_sequence(etas, values):
    """Richardson-type limit of matrix samples along a geometric eta ladder.

    Fits F + a u ln u + b u + c u^2 + ... (u = eta/eta[0]) exactly through
    the samples and returns (limit, error_estimate) where the estimate is
    the change when the coarsest level is dropped.
    """
    etas = np.asarray(etas, dtype=float)
    values = np.asarray(values)
    u = etas / etas[0]
    phi = _extrapolation_basis(u, etas.size)
    coef = np.linalg.solve(phi, values.reshape(etas.size, -1))
    limit = coef[0].reshape(values.shape[1:])
    if etas.size > 2:
        u2 = etas[1:] / etas[1]
        phi2 = _extrapolation_basis(u2, etas.size - 1)
        coef2 = np.linalg.solve(phi2, values[1:].reshape(etas.size - 1, -1))
        err = fro(limit - coef2[0].reshape(values.shape[1:]))
    else:
        err = fro(values[-1] - values[0])
    return limit, float(err)


def limit_samples(sys, x, s, etas, tol):
    """W(x, s + i eta) and W(x, s - i eta) for every eta in the ladder, from
    one batched RK45 solve over all 2 len(etas) points."""
    etas = np.asarray(etas, dtype=float)
    z = s + 1j * np.concatenate([etas, -etas])
    sol = fundamental_solution(sys, z, grid=np.array([x]), tol=tol, method="rk45")
    plus, minus = np.split(sol.values[:, 0], 2)
    return plus, minus
