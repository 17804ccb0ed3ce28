"""Closed-form oracle for the scalar-profile family, in numpy only.

The family is the canonical system on [a, b] with J = [[0, 1], [1, 0]]
and the factor beta(x) = c(x) [1, i], c real, positive and piecewise
linear on a sample grid.  Then H(x) = c(x)^2 H0 with H0 = beta0* beta0,
and J H0 is nilpotent, so every W(x, z) lies in the commutative family
I + t N with N = i J H0:

    W(x, z) = I + N * integral_xi^x c(t)^2 / (z - t) dt.

The integral is taken exactly panel by panel; nothing here imports
``cansys``, so the oracle shares no code with the routes it checks.
"""

from __future__ import annotations

import numpy as np

#: The constant row beta0 = [1, i] and the signature matrix of the family.
BETA0 = np.array([[1.0, 1j]])
J = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
H0 = BETA0.conj().T @ BETA0
#: Nilpotent direction: W = I + N * integral; N @ N = 0.
N = 1j * J @ H0


def profile_at(x_grid, c, x):
    """Piecewise-linear c at the points ``x``."""
    return np.interp(x, x_grid, c)


def weighted_integral(x_grid, c, x, z, side=0):
    """integral_{x_grid[0]}^x c(t)^2 / (z - t) dt, exact for linear pieces.

    On a piece c = p + q t write A = p + q z and u = z - t; then
    c^2 / (z - t) dt integrates to
    -A^2 ln(u1/u0) + 2 A q (u1 - u0) - q^2 (u1^2 - u0^2) / 2.
    For real z on the cut, ``side`` = +1 or -1 selects the limit
    z = s +/- i0 (the logarithm crosses the cut with arg +/- pi).
    """
    z = complex(z)
    lo = x_grid[0]
    if x <= lo:
        return 0j
    pts = np.concatenate([[lo], x_grid[(x_grid > lo) & (x_grid < x)], [x]])
    t0, t1 = pts[:-1], pts[1:]
    c0, c1 = profile_at(x_grid, c, t0), profile_at(x_grid, c, t1)
    q = (c1 - c0) / (t1 - t0)
    p = c0 - q * t0
    A = p + q * z
    u0, u1 = z - t0, z - t1
    ratio = u1 / u0
    log = np.log(np.abs(ratio)) + 1j * np.angle(ratio)
    if side:
        # u changes sign on the panel holding s: arg moves by +/- pi
        crossing = (u0.real > 0) & (u1.real < 0)
        log = np.where(crossing, np.log(np.abs(ratio)) + side * 1j * np.pi, log)
    pieces = -A**2 * log + 2 * A * q * (u1 - u0) - q**2 * (u1**2 - u0**2) / 2
    return complex(np.sum(pieces))


def fundamental(x_grid, c, x, z, side=0):
    """W(x, z) = I + N * weighted_integral, base point x_grid[0]."""
    return np.eye(2) + N * weighted_integral(x_grid, c, x, z, side)


def jump(x_grid, c, s):
    """W(x, s - i0)^{-1} W(x, s + i0) = I + 2 pi c(s)^2 J H0."""
    return np.eye(2) + 2 * np.pi * profile_at(x_grid, c, s) ** 2 * J @ H0


def probe_max_imag(nodes, weights, c_nodes):
    """max |Im lambda| of the midpoint model with beta = c I and J = I.

    The discretised operator is block lower triangular, so its spectrum
    is that of the diagonal blocks x_j + i w_j c(x_j)^2 / 2.
    """
    return float(np.max(weights * c_nodes**2 / 2))
