"""Non-isospectral canonical systems and their fundamental solutions.

The system is the first-order matrix ODE

    W_x(x, z) = i (z - x)^{-1} J H(x) W(x, z),    W(xi, z) = I_m,

on an interval [a, b], with a positive-semidefinite Hermitian
"Hamiltonian" H(x) and a signature matrix J = J* = J^{-1}.  The local
spectral weight 1/(z - x) depends on x, so the hidden parameter z plays
the role the spectral parameter has in the isospectral theory: W is
analytic in z off the cut [a, b], J-expanding for Im z > 0 and
J-contractive for Im z < 0.

This module provides

* :func:`fundamental_solution` -- adaptive Runge-Kutta integration,
* :func:`product_integral` -- the multiplicative-integral route
  (ordered products of matrix exponentials over a partition),
* :func:`boundary_values` -- limits W(x, s +/- i0) on the cut and the jump
  matrix relating them, each an ordered product of exact-log-weight
  fourth-order Magnus factors exp(Omega_j) taken at z = s +/- i0 directly
  (the Lie-group integrators of Iserles & Norsett 1999 and Blanes, Casas,
  Oteo & Ros 2009, with the weight 1/(z - t) integrated exactly), over
  panels graded geometrically towards s; ``extrapolation_error`` is the
  change of the limits under the last halving of the grading ratio,
* :func:`limit_samples` and :func:`extrapolate_eta_sequence` -- the
  independent RK45 reference for cut limits: samples along an eta ladder
  and their Richardson limit,
* :func:`kernel_bound` -- the degenerate-kernel supremum
  sup |beta(x) J beta(t)*| / (x - t) controlling cut limits for factored
  Hamiltonians H = beta* beta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from .linalg import _adj, ascomplex, fro, hermitian_part

#: Points closer than this to the cut are rejected outside boundary_values.
DISTANCE_TOL = 1e-6

#: Default local error target for the adaptive integrator.
ODE_TOL = 1e-10

#: boundary_values stops refining once a cut-limit product has more factors.
MAX_CUT_PANELS = 4096


class SpectralPointError(ValueError):
    """Spectral point z is too close to the cut [a, b]."""


def _cut_distance(z, interval):
    # |Im z| + dist(Re z, [a, b]): cheap and within sqrt(2) of Euclidean
    a, b = interval
    return abs(z.imag) + max(0.0, a - z.real, z.real - b)


def _interp_stack(xgrid, values, xq):
    """Piecewise-linear interpolation of a stack of matrices along xgrid."""
    xq = np.asarray(xq, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    j = np.clip(np.searchsorted(xgrid, xq), 1, xgrid.size - 1)
    x0, x1 = xgrid[j - 1], xgrid[j]
    w = np.clip((xq - x0) / (x1 - x0), 0.0, 1.0)
    out = (1.0 - w)[:, None, None] * values[j - 1] + w[:, None, None] * values[j]
    return out[0] if scalar else out


class HamiltonianSpec:
    """Hamiltonian data: an H-grid, a factored beta-grid, or a callable.

    Grids are interpolated piecewise-linearly entrywise.  Interpolated H
    samples are projected back onto Hermitian matrices; factored data
    H = beta* beta is Hermitian PSD by construction.  Exact callables may
    be attached on top of the samples and then take precedence (used for
    dressed Hamiltonians whose factor is known analytically along a
    trajectory).
    """

    def __init__(self, x, h=None, beta=None, h_fn=None, beta_fn=None):
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 1 or self.x.size < 2:
            raise ValueError("sample grid must be 1-D with at least 2 points")
        if np.any(np.diff(self.x) <= 0):
            raise ValueError("sample grid must be strictly increasing")
        if h is None and beta is None:
            raise ValueError("need H samples or beta samples")
        self.h = None if h is None else np.asarray(h, dtype=complex)
        self.beta = None if beta is None else np.asarray(beta, dtype=complex)
        for name, arr in (("h", self.h), ("beta", self.beta)):
            if arr is not None:
                if arr.ndim != 3 or arr.shape[0] != self.x.size:
                    raise ValueError(f"{name} samples must be (len(x), ., m)")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"{name} samples contain non-finite entries")
        if self.h is not None and self.h.shape[1] != self.h.shape[2]:
            raise ValueError("H samples must be square")
        self.h_fn = h_fn
        self.beta_fn = beta_fn

    @classmethod
    def from_grid(cls, x, h):
        return cls(x, h=h)

    @classmethod
    def from_beta_grid(cls, x, beta, beta_fn=None):
        return cls(x, beta=beta, beta_fn=beta_fn)

    @classmethod
    def from_constant_beta(cls, beta, interval):
        beta = ascomplex(beta, "beta")
        a, b = interval
        return cls(np.array([a, b]), beta=np.stack([beta, beta]))

    @property
    def m(self):
        return self.beta.shape[2] if self.beta is not None else self.h.shape[1]

    @property
    def is_factored(self):
        return self.beta is not None or self.beta_fn is not None

    @property
    def k(self):
        if self.beta is not None:
            return self.beta.shape[1]
        if self.beta_fn is not None:
            return np.asarray(self.beta_fn(self.x[0])).shape[0]
        raise ValueError("no factored form present")

    def beta_at(self, x):
        """beta(x), or a stack of them for an array of points (a callable
        is then sampled point by point)."""
        if self.beta_fn is not None:
            if np.ndim(x):
                return np.stack([self.beta_at(xx) for xx in x])
            return np.asarray(self.beta_fn(x), dtype=complex)
        if self.beta is None:
            raise ValueError("no factored form present")
        return _interp_stack(self.x, self.beta, x)

    def hamiltonian(self, x):
        """H(x), Hermitian PSD up to interpolation rounding."""
        if self.h_fn is not None:
            return hermitian_part(np.asarray(self.h_fn(x), dtype=complex))
        if self.is_factored:
            b = self.beta_at(x)
            return b.conj().T @ b
        return hermitian_part(_interp_stack(self.x, self.h, x))

    def hamiltonians(self, xs):
        """H at every point of ``xs`` as one (len(xs), m, m) stack.

        Grid data is interpolated in one vectorised pass; callables are
        sampled point by point.
        """
        if self.h_fn is not None or self.beta_fn is not None:
            return np.stack([self.hamiltonian(x) for x in xs])
        if self.beta is not None:
            b = _interp_stack(self.x, self.beta, xs)
            return _adj(b) @ b
        return hermitian_part(_interp_stack(self.x, self.h, xs))

    def cumulative(self, x, base):
        """tau(x) = integral of H from ``base`` to ``x`` (per-panel Simpson).

        Simpson is exact for the piecewise-linear H interpolant and for
        the piecewise-quadratic H = beta* beta of a linear beta
        interpolant.
        """
        lo, hi = (base, x) if base <= x else (x, base)
        inner = self.x[(self.x > lo) & (self.x < hi)]
        pts = np.concatenate([[lo], inner, [hi]])
        total = np.zeros((self.m, self.m), dtype=complex)
        for left, right in zip(pts[:-1], pts[1:]):
            mid = 0.5 * (left + right)
            total += (right - left) / 6.0 * (
                self.hamiltonian(left)
                + 4.0 * self.hamiltonian(mid)
                + self.hamiltonian(right)
            )
        return total if base <= x else -total

    def beta_jump_rate(self):
        """Max sample-to-sample |beta| slope (crude Lipschitz estimate)."""
        if self.beta is None:
            raise ValueError("no factored samples present")
        dx = np.diff(self.x)
        db = np.linalg.norm(np.diff(self.beta, axis=0), axis=(1, 2))
        return float(np.max(db / dx))


@dataclass
class CanonicalSystem:
    """System data: signature J, interval [a, b], base point xi, Hamiltonian."""

    J: np.ndarray
    interval: tuple
    hamiltonian: HamiltonianSpec
    xi: float | None = None

    def __post_init__(self):
        self.J = ascomplex(self.J, "J", square=True)
        a, b = float(self.interval[0]), float(self.interval[1])
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        self.interval = (a, b)
        if self.xi is None:
            self.xi = a
        self.xi = float(self.xi)

    @property
    def m(self):
        return self.J.shape[0]


@dataclass
class SystemReport:
    """validate_system output: empty ``violations`` means valid."""

    violations: list
    j_defect: float
    min_h_eig: float

    @property
    def ok(self):
        return not self.violations


def _signature_defect(J):
    """max(|J - J*|, |J J - I|): zero iff J = J* = J^{-1}."""
    return max(fro(J - J.conj().T), fro(J @ J - np.eye(J.shape[0])))


def validate_system(sys, psd_tol=1e-10, beta_lipschitz=None):
    """Check J = J* = J^{-1}, H(x_j) PSD Hermitian, xi inside the interval.

    ``beta_lipschitz``, when given, bounds the sample-to-sample slope of a
    factored Hamiltonian's beta grid (continuity guard).
    """
    violations = []
    j_defect = _signature_defect(sys.J)
    if j_defect > 1e-12:
        violations.append(f"J is not a signature matrix (defect {j_defect:.2e})")
    a, b = sys.interval
    if not a <= sys.xi <= b:
        violations.append(f"base point xi = {sys.xi} outside [{a}, {b}]")
    spec = sys.hamiltonian
    if spec.m != sys.m:
        violations.append(f"Hamiltonian size {spec.m} != system size {sys.m}")
    min_eig = np.inf
    for j, xj in enumerate(spec.x):
        hj = spec.hamiltonian(xj)
        herm = fro(hj - hj.conj().T)
        eig = float(np.linalg.eigvalsh(hermitian_part(hj))[0])
        min_eig = min(min_eig, eig)
        if herm > 1e-10 or eig < -psd_tol:
            violations.append(f"H not PSD Hermitian at x_{j} = {xj}")
    if beta_lipschitz is not None and spec.beta is not None:
        rate = spec.beta_jump_rate()
        if rate > beta_lipschitz:
            violations.append(
                f"beta grid jump rate {rate:.2e} exceeds the Lipschitz "
                f"estimate {beta_lipschitz:.2e}"
            )
    return SystemReport(violations=violations, j_defect=j_defect, min_h_eig=min_eig)


@dataclass
class FundamentalSolution:
    """W(x, z) sampled on a grid, normalised to I at the base point."""

    z: complex
    grid: np.ndarray
    values: np.ndarray
    method: str
    error_estimate: float
    J: np.ndarray
    xi: float
    interpolant: object = field(default=None, repr=False)

    def at(self, x):
        """W at an off-grid point (dense output when available)."""
        if self.interpolant is not None:
            return self.interpolant(x)
        return _interp_stack(self.grid, self.values, x)


def integrate_matrix_ode(rhs, xi, y0, grid, rtol, atol):
    """Integrate a flat complex ODE both directions from xi over a grid.

    Returns (values_at_grid, dense_evaluator, total_steps); the dense
    evaluator takes a point or an array of points.
    """
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.size, y0.size), dtype=complex)
    out[np.abs(grid - xi) <= 1e-15] = y0
    spans = []  # (lo, hi, dense output) of each direction
    steps = 0
    for leftward in (True, False):
        sel = grid < xi - 1e-15 if leftward else grid > xi + 1e-15
        if not np.any(sel):
            continue
        targets = grid[sel]
        order = np.argsort(targets)
        t_eval = targets[order][::-1] if leftward else targets[order]
        t_end = t_eval[-1]
        sol = solve_ivp(
            rhs,
            (xi, t_end),
            y0,
            method="RK45",
            rtol=rtol,
            atol=atol,
            t_eval=t_eval,
            dense_output=True,
        )
        if not sol.success:
            raise RuntimeError(f"integrator failed: {sol.message}")
        y = sol.y.T
        if leftward:
            y = y[::-1]
        res = np.empty_like(y)
        res[order] = y
        out[sel] = res
        spans.append((sol.sol.t_min - 1e-12, sol.sol.t_max + 1e-12, sol.sol))
        steps += sol.t.size

    def dense(x):
        # a point or an array of x; one vectorised call per piece
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        out = np.empty((flat.size, y0.size), dtype=complex)
        todo = np.abs(flat - xi) > 1e-15
        out[~todo] = y0
        for lo, hi, piece in spans:
            sel = todo & (flat >= lo) & (flat <= hi)
            if sel.any():
                out[sel] = piece(flat[sel]).T
                todo &= ~sel
        if todo.any():
            raise ValueError(f"x = {flat[todo][0]} outside the integrated range")
        return out.reshape(x.shape + y0.shape)

    return out, dense, steps


def fundamental_solution(sys, z, grid=None, tol=ODE_TOL, _allow_near_cut=False):
    """Fundamental solution W(., z) by adaptive Runge-Kutta integration.

    Parameters
    ----------
    sys : CanonicalSystem
    z : complex
        Hidden spectral point; must stay at least ``DISTANCE_TOL`` away
        from the cut [a, b] (boundary_values manages closer approaches
        itself).
    grid : array, optional
        Output sample points (default: 201 points spanning [a, b]).
    tol : float
        Local error target per step.
    """
    z = complex(z)
    a, b = sys.interval
    if not _allow_near_cut and _cut_distance(z, sys.interval) < DISTANCE_TOL:
        raise SpectralPointError(f"z = {z} is within {DISTANCE_TOL} of the cut")
    if grid is None:
        grid = np.linspace(a, b, 201)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or grid.min() < a - 1e-12 or grid.max() > b + 1e-12:
        raise ValueError(f"grid must be nonempty and within [{a}, {b}]")
    m = sys.m
    J = sys.J
    spec = sys.hamiltonian

    def rhs(x, y):
        w = y.reshape(m, m)
        return (1j / (z - x) * (J @ spec.hamiltonian(x) @ w)).ravel()

    y0 = np.eye(m, dtype=complex).ravel()
    flat, dense, steps = integrate_matrix_ode(rhs, sys.xi, y0, grid, tol, tol * 1e-2)
    values = flat.reshape(grid.size, m, m)
    return FundamentalSolution(
        z=z,
        grid=grid,
        values=values,
        method="ode",
        error_estimate=tol * max(1, steps),
        J=J,
        xi=sys.xi,
        interpolant=lambda x: dense(x).reshape(m, m),
    )


def _ordered_product(exponents):
    """Partial products exp(E_j) ... exp(E_0) of a stack of exponents.

    Later factors multiply from the left.  All exponentials come from one
    stacked ``expm`` call and the partial products from a log-depth scan;
    returns the (n + 1, m, m) stack that starts with the identity.
    """
    acc = scipy.linalg.expm(exponents)
    shift = 1
    while shift < len(acc):
        acc[shift:] = acc[shift:] @ acc[:-shift]
        shift *= 2
    return np.concatenate([np.eye(acc.shape[-1], dtype=complex)[None], acc])


def _midpoint_product(sys, z, partition):
    mid = 0.5 * (partition[:-1] + partition[1:])
    scale = 1j * np.diff(partition) / (z - mid)
    jh = sys.J @ sys.hamiltonian.hamiltonians(mid)
    return _ordered_product(scale[:, None, None] * jh)


def product_integral(sys, z, partition):
    """Multiplicative integral over a partition of [a, x] (xi = a).

    The ordered product of midpoint factors exp(i J H(t*) dt / (z - t*)),
    later subintervals multiplying from the left, realises the
    curved-arrow product; the error estimate comes from one partition
    halving.
    """
    z = complex(z)
    a, b = sys.interval
    if abs(sys.xi - a) > 1e-12:
        raise ValueError("product integral uses the left-endpoint convention xi = a")
    if _cut_distance(z, sys.interval) < DISTANCE_TOL:
        raise SpectralPointError(f"z = {z} is within {DISTANCE_TOL} of the cut")
    partition = np.asarray(partition, dtype=float)
    if partition.ndim != 1 or partition.size < 2 or np.any(np.diff(partition) <= 0):
        raise ValueError("partition must be strictly increasing with >= 2 points")
    if abs(partition[0] - a) > 1e-12:
        raise ValueError("partition must start at the base point a")

    values = _midpoint_product(sys, z, partition)
    fine_partition = np.sort(
        np.concatenate([partition, 0.5 * (partition[:-1] + partition[1:])])
    )
    fine_at_coarse = _midpoint_product(sys, z, fine_partition)[::2]
    # halving difference times the order->=1 Richardson safety factor
    err = 2.0 * float(np.max(np.linalg.norm(fine_at_coarse - values, axis=(1, 2))))
    return FundamentalSolution(
        z=z,
        grid=partition,
        values=values,
        method="product_integral",
        error_estimate=err,
        J=sys.J,
        xi=sys.xi,
    )


def j_monotonicity_defect(sol):
    """Violation of the J-form monotonicity of W along the grid.

    For Im z > 0 the form W* J W - J must be PSD (J-expanding), for
    Im z < 0 the mirrored form J - W* J W must be, and for real z off the
    cut W is exactly J-unitary; returned is the worst grid violation
    (negative-eigenvalue magnitude, or the J-unitarity defect for real z).
    """
    J = sol.J
    worst = 0.0
    for w in sol.values:
        g = w.conj().T @ J @ w - J
        if abs(sol.z.imag) < 1e-13:
            worst = max(worst, fro(g))
        else:
            g = hermitian_part(g if sol.z.imag > 0 else -g)
            worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(g)[0])))
    return worst


@dataclass
class BoundaryValueReport:
    """Cut limits W(x, s +/- i0) and the jump between them.

    ``panels`` counts the factors of the last product of each limit;
    ``extrapolation_error`` is the change of the limits under the last
    grading refinement, and ``converged`` says whether it met the
    tolerance (False when the refinement stopped at the panel cap).
    """

    x: float
    s: float
    w_plus: np.ndarray
    w_minus: np.ndarray
    v: np.ndarray
    jump: np.ndarray
    panels: int
    extrapolation_error: float
    divergent: bool
    converged: bool
    cross_check_error: float | None = None


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
    """W(x, s + i eta) and W(x, s - i eta) for every eta in the ladder."""
    plus = np.empty((len(etas), sys.m, sys.m), dtype=complex)
    minus = np.empty_like(plus)
    for j, eta in enumerate(etas):
        for sign, store in ((1.0, plus), (-1.0, minus)):
            sol = fundamental_solution(
                sys, s + 1j * sign * eta, grid=np.array([x]), tol=tol,
                _allow_near_cut=True,
            )
            store[j] = sol.values[0]
    return plus, minus


def _graded_breakpoints(nodes, lo, hi, c, rho, eta):
    """Panel ends on [lo, hi] graded geometrically towards c (clipped).

    The ends are the sample nodes, c itself and the points c +/- d_k with
    d_k = delta (1 + rho)^k, so a panel at distance d from c is at most
    rho d wide.  The innermost half-width delta shrinks like rho^4; it
    stays below half the distance from c to the nearest other node, so
    the two panels meeting at c lie on one sample panel each, and below
    rho |Im z| = rho eta off the cut.
    """
    c = min(max(c, lo), hi)
    fixed = np.concatenate([[lo, hi], nodes[(nodes > lo) & (nodes < hi)]])
    delta = min(rho**4 * (hi - lo), 0.5 * np.min(np.abs(fixed[fixed != c] - c)))
    if eta > 0:
        delta = min(delta, rho * eta)
    count = int(np.ceil(np.log((hi - lo) / delta) / np.log1p(rho)))
    d = delta * (1.0 + rho) ** np.arange(count + 1)
    t = np.unique(np.concatenate([fixed, [c], c - d, c + d]))
    return t[(t >= lo) & (t <= hi)]


def _log1p(w):
    """ln(1 + w), accurate for small complex w (numpy's complex log1p is not)."""
    return 0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2) + 1j * np.arctan2(
        w.imag, 1.0 + w.real
    )


def _log_weight_product(sys, x, z, rho, side=0):
    """W(x, z) as an ordered product of exact-log-weight Magnus factors.

    Returns ``(W, panels)``.  On a panel [t0, t1] the exponent is
    i J int H(t) / (z - t) dt, integrated exactly for the quadratic
    through H at t0, the midpoint and t1 (exact for constant, beta-grid
    and h-grid data), plus the two-point Gauss commutator
    (sqrt(3) h^2 / 12) [A(g2), A(g1)] of fourth-order Magnus, A = i J H /
    (z - t).  Panels are graded towards Re z with ratio ``rho``.

    ``side`` = +1 / -1 with real z = s inside the cut gives the limit
    W(x, s +/- i0): the two panels that meet at s form one factor whose
    ln(z - s) terms cancel, leaving H(s) (ln((s - t0)/(t1 - s)) -/+ i pi).
    """
    spec, J = sys.hamiltonian, sys.J
    lo, hi = sorted((sys.xi, float(x)))
    z = complex(z)
    s = z.real
    t = _graded_breakpoints(spec.x, lo, hi, s, rho, abs(z.imag))
    t0, t1 = t[:-1], t[1:]
    n = t0.size
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    h = spec.hamiltonians(np.concatenate([t, mid]))
    # H = hm + c1 tau + c2 tau^2 in tau = (t - mid) / half, and
    # int tau^k / (zeta - tau) dtau over [-1, 1] gives, with
    # log = ln((zeta + 1) / (zeta - 1)) = ln((z - t0) / (z - t1)):
    # int H / (z - t) dt = H(zeta) log - 2 (c1 + c2 zeta)
    hm = h[n + 1:]
    c1 = 0.5 * (h[1:n + 1] - h[:n])
    c2 = 0.5 * (h[1:n + 1] + h[:n]) - hm
    zeta = ((z - mid) / half)[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log = _log1p((t1 - t0) / (z - t1))[:, None, None]
        weighted = (hm + zeta * (c1 + zeta * c2)) * log - 2.0 * (c1 + zeta * c2)
    if side and lo < s < hi:
        k = int(np.searchsorted(t, s)) - 1  # panels k and k + 1 meet at s
        weighted[k + 1] = (
            h[k + 1] * (np.log((s - t[k]) / (t[k + 2] - s)) - side * 1j * np.pi)
            - 2.0 * (c1[k] + c2[k]) - 2.0 * (c1[k + 1] - c2[k + 1])
        )
        weighted = np.delete(weighted, k, axis=0)
        t = np.delete(t, k + 1)
        n -= 1
        mid, half = 0.5 * (t[:-1] + t[1:]), 0.5 * (t[1:] - t[:-1])
    gauss = np.concatenate([mid - half / np.sqrt(3.0), mid + half / np.sqrt(3.0)])
    ja = J @ spec.hamiltonians(gauss) / (z - gauss)[:, None, None]
    commutator = ja[n:] @ ja[:n] - ja[:n] @ ja[n:]  # -[A(g2), A(g1)]
    omega = 1j * J @ weighted - (half**2 / np.sqrt(3.0))[:, None, None] * commutator
    w = _ordered_product(omega)[-1]
    return (w if x >= sys.xi else np.linalg.inv(w)), n


def boundary_values(sys, x, s, tol=ODE_TOL, margin=None):
    """Cut limits W(x, s +/- i0) from exact-log-weight Magnus products.

    Each limit is one ordered product of exp(Omega_j) over panels graded
    towards s (see :func:`_log_weight_product`), taken at z = s +/- i0
    directly.  The grading ratio rho halves from 1/2 until two successive
    results differ by at most ``tol`` or a product would exceed
    ``MAX_CUT_PANELS``; ``extrapolation_error`` is that last difference
    (rounding level for commuting H, where every product is exact).
    ``s`` strictly inside the cut (a, x) must keep a configurable margin
    from both endpoints where the limits degenerate; s outside [a, x] is
    allowed and reproduces the off-cut analyticity (jump = I).  Successive
    differences that grow above ``100 tol`` flag the report divergent
    instead of raising.
    """
    a, b = sys.interval
    if not a < x <= b:
        raise ValueError(f"x = {x} outside ({a}, {b}]")
    if margin is None:
        margin = 1e-2 * (b - a)
    inside = a < s < x
    if inside and (s - a < margin or x - s < margin):
        raise ValueError(
            f"s = {s} within margin {margin} of a cut endpoint; limits degenerate"
        )
    if not inside and min(abs(s - a), abs(s - x)) < margin:
        raise ValueError(f"s = {s} within margin {margin} of a cut endpoint")
    rho, diffs, previous = 0.5, [], None
    while True:
        (w_plus, panels), (w_minus, _) = (
            _log_weight_product(sys, x, s, rho, side) for side in (1, -1)
        )
        if previous is not None:
            diffs.append(max(fro(w_plus - previous[0]), fro(w_minus - previous[1])))
            if diffs[-1] <= tol or panels > MAX_CUT_PANELS:
                break
        previous = (w_plus, w_minus)
        rho *= 0.5
    # growth below the rounding floor is not divergence
    divergent = bool(
        len(diffs) >= 2 and diffs[-1] > max(diffs[-2] * (1.0 + 1e-9), 100.0 * tol)
    )
    return BoundaryValueReport(
        x=float(x),
        s=float(s),
        w_plus=w_plus,
        w_minus=w_minus,
        v=w_plus - w_minus,
        jump=np.linalg.solve(w_minus, w_plus),
        panels=panels,
        extrapolation_error=diffs[-1],
        divergent=divergent,
        converged=bool(diffs[-1] <= tol),
    )


@dataclass
class KernelBoundReport:
    """Supremum of |beta(x) J beta(t)*| / (x - t) over grid pairs t < x.

    ``sup_bound`` is finite only for degenerate kernels
    (beta J beta* = 0); ``degeneracy_defect`` reports how far the data is
    from that case and ``diagnostic`` explains an infinite bound.
    """

    sup_bound: float
    argmax_pair: tuple
    degeneracy_defect: float
    diagnostic: str = ""

    @property
    def finite(self):
        return np.isfinite(self.sup_bound)


def kernel_bound(spec, J, degeneracy_tol=1e-9):
    """Grid supremum of the divided-difference kernel norm.

    Adjacent sample pairs supply the divided-difference limit on the
    diagonal t -> x.  A non-degenerate kernel (sup |beta J beta*| above
    ``degeneracy_tol`` times the data scale) makes the supremum diverge
    like 1/(x - t); it is reported as +inf with a diagnostic.
    """
    if not spec.is_factored:
        raise ValueError("kernel bound needs the factored form beta")
    x = spec.x
    beta = spec.beta if spec.beta is not None else spec.beta_at(x)
    corr = np.einsum("iam,mn,jbn->ijab", beta, J, beta.conj())
    norms = np.linalg.svd(corr, compute_uv=False)[..., 0]
    scale = max(1.0, float(np.max(np.linalg.norm(beta, axis=(1, 2)))) ** 2)
    degeneracy = float(np.max(np.diag(norms)))
    if degeneracy > degeneracy_tol * scale:
        return KernelBoundReport(
            sup_bound=np.inf,
            argmax_pair=(float(x[int(np.argmax(np.diag(norms)))]),) * 2,
            degeneracy_defect=degeneracy,
            diagnostic="beta J beta* != 0: kernel is not degenerate, "
            "divided differences diverge on the diagonal",
        )
    ii, jj = np.tril_indices(x.size, k=-1)
    ratios = norms[ii, jj] / (x[ii] - x[jj])
    best = int(np.argmax(ratios))
    return KernelBoundReport(
        sup_bound=float(ratios[best]),
        argmax_pair=(float(x[ii[best]]), float(x[jj[best]])),
        degeneracy_defect=degeneracy,
    )
