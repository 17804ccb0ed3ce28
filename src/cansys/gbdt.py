"""Darboux dressing engine for non-isospectral canonical systems.

A dressing is parameterised by an order n, a pole matrix B whose
spectrum avoids the interval, an n x m matrix Pi(xi) and a Hermitian
n x n matrix S(xi) tied together by the displacement identity

    A(xi) S(xi) - S(xi) A(xi)* = i Pi(xi) J Pi(xi)*,
    A(x) = (B - x I)^{-1}.

Along the interval the triple evolves by

    Pi_x = -i A Pi J H,      S_x = Pi J H J Pi* - (A S + S A*),

which propagates the identity to every x.  At points where S(x) is
invertible the transfer matrix

    w_A(x, z) = I - i J Pi(x)* S(x)^{-1} (A(x) - (z-x)^{-1} I)^{-1} Pi(x)

and its z -> infinity limit w0(x) produce the dressed system: the
Hamiltonian transforms by the congruence H~ = w0* H w0 and the dressed
fundamental solution is W~(x, z) = v(x, z) W(x, z) v(xi, z)^{-1} with
v = w0^{-1} w_A.  A(x) is never integrated; the closed-form resolvent is
used everywhere (once per right-hand side evaluation of the evolution),
and S^{-1} is never formed (linear solves only).

:func:`transfer`, :func:`w0_at` and :func:`g0_eval` take arrays of x
(and z) and evaluate them as one batch.  They all read (Pi, S) through
one checked lookup: one dense-output call for the whole stack and one
stacked SVD of S, raising :class:`~cansys.linalg.SingularMatrixError` at
the first x, in order, where S(x) is singular to working tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    SINGULAR_COND,
    SingularMatrixError,
    _adj,
    ascomplex,
    cond2,
    fro,
    hermitian_part,
    spec_norm,
)
from .system import (
    BoundaryValueReport,
    FundamentalSolution,
    HamiltonianSpec,
    boundary_values,
    extrapolate_eta_sequence,
    fundamental_solution,
    integrate_matrix_ode,
    limit_samples,
)

#: Default local error target for trajectory evolution.
ODE_TOL = 1e-9

#: Spectrum of B must keep this fraction of the interval length away from it.
SPECTRUM_MARGIN = 1e-3


def _segment_distance(z, interval):
    a, b = interval
    re = min(max(z.real, a), b)
    return abs(z - re)


@dataclass
class GbdtParams:
    """Dressing parameter triple (B, S(xi), Pi(xi)) anchored at xi."""

    B: np.ndarray
    S0: np.ndarray
    Pi0: np.ndarray
    xi: float = 0.0

    def __post_init__(self):
        self.B = ascomplex(self.B, "B", square=True)
        self.S0 = ascomplex(self.S0, "S0", square=True)
        self.Pi0 = ascomplex(self.Pi0, "Pi0")
        n = self.B.shape[0]
        if self.S0.shape != (n, n) or self.Pi0.shape[0] != n:
            raise ValueError("B, S0, Pi0 must share the order n")
        self.xi = float(self.xi)

    @property
    def n(self):
        return self.B.shape[0]

    @property
    def m(self):
        return self.Pi0.shape[1]

    def a_at(self, x):
        """Generalised spectral parameter A(x) = (B - x I)^{-1}, stacked
        behind x's shape for an array of x."""
        return np.linalg.inv(self.B - np.asarray(x)[..., None, None] * np.eye(self.n))

    def identity_residual(self, J):
        a0 = self.a_at(self.xi)
        lhs = a0 @ self.S0 - self.S0 @ a0.conj().T
        return fro(lhs - 1j * self.Pi0 @ J @ self.Pi0.conj().T)


@dataclass
class ParamsReport:
    violations: list
    identity_residual: float
    s0_defect: float
    spectrum_gap: float

    @property
    def ok(self):
        return not self.violations


def validate_params(params, sys, margin=None):
    """Check the displacement identity, Hermitian S0 and pole separation."""
    a, b = sys.interval
    if margin is None:
        margin = SPECTRUM_MARGIN * (b - a)
    violations = []
    s0_defect = fro(params.S0 - params.S0.conj().T)
    if s0_defect > 1e-12:
        violations.append(f"S0 not Hermitian (defect {s0_defect:.2e})")
    if params.m != sys.m:
        violations.append(f"Pi0 has {params.m} columns, system size is {sys.m}")
    gap = min(_segment_distance(lam, sys.interval) for lam in np.linalg.eigvals(params.B))
    if gap < margin:
        violations.append(
            f"spectrum of B within {gap:.2e} of [{a}, {b}] (margin {margin:.2e})"
        )
    residual = params.identity_residual(sys.J)
    if residual > 1e-10:
        violations.append(f"displacement identity violated (residual {residual:.2e})")
    if not a <= params.xi <= b:
        violations.append(f"xi = {params.xi} outside [{a}, {b}]")
    return ParamsReport(
        violations=violations,
        identity_residual=residual,
        s0_defect=s0_defect,
        spectrum_gap=gap,
    )


def _split(flat, n, m):
    """(Pi, S, K) from flat joint states, one triple per leading index."""
    lead = flat.shape[:-1]
    return (
        flat[..., : n * m].reshape(lead + (n, m)),
        flat[..., n * m : n * m + n * n].reshape(lead + (n, n)),
        flat[..., n * m + n * n :].reshape(lead + (n, n)),
    )


def _check_s(x, s, s_scale=None):
    """Raise :class:`SingularMatrixError` at the first x where solving
    against S(x) is too ill-conditioned; returns the S scale (the largest
    singular value when none is given).

    One stacked SVD gives both measures: cond2 and the condition relative
    to the trajectory's S scale, which catches 1x1 zero crossings.
    """
    sv = np.linalg.svd(s, compute_uv=False)
    if s_scale is None:
        s_scale = max(float(np.max(sv[..., 0])), 1e-300)
    with np.errstate(divide="ignore"):
        cond = np.maximum(sv[..., 0], s_scale) / sv[..., -1]
    bad = ~(cond <= SINGULAR_COND)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise SingularMatrixError(
            "S(x) singular", cond_estimate=float(cond.flat[j]), location=float(x.flat[j])
        )
    return s_scale


@dataclass
class GbdtTrajectory:
    """Evolved dressing data sampled on a grid, plus a dense evaluator.

    ``a``, ``s``, ``pi``, ``k``, ``q`` hold A(x), S(x), Pi(x), K(x) and
    Q(x) = K S K* at the grid points; K solves K_x = K A, K(xi) = I, so
    Q is nondecreasing whenever the data is consistent.  A completed
    trajectory is immutable and safe for concurrent queries.
    """

    params: GbdtParams
    system: object
    grid: np.ndarray
    a: np.ndarray
    s: np.ndarray
    pi: np.ndarray
    k: np.ndarray
    q: np.ndarray
    identity_residual: float
    min_eig_s: float
    ode_tol: float
    s_scale: float = 1.0
    _dense: object = field(default=None, repr=False)

    @property
    def n(self):
        return self.params.n

    @property
    def m(self):
        return self.params.m

    def state_at(self, x):
        """(Pi(x), S(x), K(x)) via the integrator's dense output; an array
        of x gives stacks from one call."""
        return _split(self._dense(x), self.n, self.m)

    def pi_at(self, x):
        return self.state_at(x)[0]

    def s_at(self, x):
        return self.state_at(x)[1]

    def k_at(self, x):
        return self.state_at(x)[2]

    def a_at(self, x):
        return self.params.a_at(x)


def evolve(params, sys, grid=None, tol=ODE_TOL):
    """Evolve (Pi, S, K) jointly with one adaptive controller.

    A(x) comes from the closed-form resolvent, once per right-hand side
    evaluation; the joint state keeps the displacement-identity residual
    coherent with the integration error.  Raises
    :class:`~cansys.linalg.SingularMatrixError` if S(x) passes the
    singularity threshold anywhere on the grid.
    """
    report = validate_params(params, sys)
    if not report.ok:
        raise ValueError("invalid dressing parameters: " + "; ".join(report.violations))
    a_lo, b_hi = sys.interval
    if grid is None:
        grid = np.linspace(a_lo, b_hi, 201)
    grid = np.asarray(grid, dtype=float)
    n, m = params.n, params.m
    J = sys.J
    spec = sys.hamiltonian

    def rhs(x, y):
        pi, s, k = _split(y, n, m)
        a = params.a_at(x)
        h = spec.hamiltonian(x)
        pj = pi @ J
        d_pi = -1j * a @ pi @ (J @ h)
        d_s = pj @ h @ pj.conj().T - (a @ s + s @ a.conj().T)
        return np.concatenate([d_pi.ravel(), d_s.ravel(), (k @ a).ravel()])

    y0 = np.concatenate(
        [params.Pi0.ravel(), params.S0.ravel(), np.eye(n, dtype=complex).ravel()]
    )
    # the residual contract is absolute while rtol is relative; drive the
    # controller two digits below tol so state growth cannot breach 10*tol
    flat, dense, _ = integrate_matrix_ode(
        rhs, params.xi, y0, grid,
        max(tol * 1e-2, 3e-14), max(tol * 1e-3, 1e-16),
    )

    pi, s, k = _split(flat, n, m)
    a = params.a_at(grid)
    s_scale = _check_s(grid, s)
    defect = a @ s - s @ _adj(a) - 1j * pi @ J @ _adj(pi)
    return GbdtTrajectory(
        params=params,
        system=sys,
        grid=grid,
        a=a,
        s=s,
        pi=pi,
        k=k,
        q=k @ s @ _adj(k),
        identity_residual=float(np.max(np.linalg.norm(defect, axis=(1, 2)))),
        min_eig_s=float(np.min(np.linalg.eigvalsh(hermitian_part(s))[:, 0])),
        ode_tol=tol,
        s_scale=s_scale,
        _dense=dense,
    )


@dataclass
class PositivityReport:
    """S(xi) > 0 propagation diagnostics along the trajectory.

    ``q_step_defect`` is the worst negative eigenvalue of a Q increment
    (Q must be nondecreasing); ``inverse_bound_defect`` the worst
    violation of S(x)^{-1} <= K(x)* S(xi)^{-1} K(x), the inverse of the
    lower bound S(x) >= K(x)^{-1} S(xi) K(x)^{-*}.
    """

    min_eig_s: float
    q_step_defect: float
    inverse_bound_defect: float
    tol: float

    @property
    def ok(self):
        return (
            self.min_eig_s > 0
            and self.q_step_defect <= 10 * self.tol
            and self.inverse_bound_defect <= 10 * self.tol
        )


def positivity_report(traj, tol=None):
    """Verify positivity transport: S stays positive, Q monotone, and the
    inverse bound S^{-1} <= K* S0^{-1} K holds within 10 * tol."""
    if tol is None:
        tol = traj.ode_tol
    s0 = hermitian_part(traj.params.S0)
    if float(np.linalg.eigvalsh(s0)[0]) <= 0:
        raise ValueError("positivity report requires S(xi) > 0")
    dq = hermitian_part(np.diff(traj.q, axis=0))
    bound = _adj(traj.k) @ np.linalg.solve(s0, traj.k)
    gap = hermitian_part(bound - np.linalg.inv(hermitian_part(traj.s)))
    scale = np.maximum(1.0, np.linalg.norm(bound, ord=2, axis=(1, 2)))
    return PositivityReport(
        min_eig_s=traj.min_eig_s,
        q_step_defect=float(np.max(-np.linalg.eigvalsh(dq)[:, 0], initial=0.0)),
        inverse_bound_defect=float(
            np.max(-np.linalg.eigvalsh(gap)[:, 0] / scale, initial=0.0)
        ),
        tol=tol,
    )


@dataclass
class TransferEval:
    """Transfer-matrix data at (x, z), or at every pair of broadcast
    arrays x and z (fields then carry the broadcast shape in front).

    ``j_defect`` measures the J-relation w_A(x, conj(z))* J w_A(x, z) = J;
    ``w0_inv`` comes from the exact formula
    w0^{-1} = I + i J Pi* (B* - x)^{-1 adj} S^{-1} Pi rather than from a
    numerical inverse, and ``w0_inv_residual`` records how well the pair
    multiplies to the identity.
    """

    x: float
    z: complex
    w_a: np.ndarray
    w0: np.ndarray
    w0_inv: np.ndarray
    v: np.ndarray
    j_defect: float
    w0_inv_residual: float


def _dressing_state(traj, x):
    """x as an array, with Pi(x), B - x, S(x)^{-1} (B - x) and
    S(x)^{-1} Pi(x) at every point.

    The single place where S is read and checked: one dense-output call
    for the whole stack, one stacked SVD (see :func:`_check_s`) and one
    stacked solve against S.
    """
    x = np.asarray(x, dtype=float)
    pi, s, _ = traj.state_at(x)
    _check_s(x, s, traj.s_scale)
    bx = traj.params.B - x[..., None, None] * np.eye(traj.n)
    sol = np.linalg.solve(s, np.concatenate([bx, pi], axis=-1))
    return x, pi, bx, sol[..., : traj.n], sol[..., traj.n :]


def w0_at(traj, x):
    """Dressing factor w0(x) = I - i J Pi* S^{-1} (B - x) Pi.

    ``x`` may be a point or an array of points (the result then stacks
    m x m matrices behind x's shape).  Raises
    :class:`~cansys.linalg.SingularMatrixError` at the first x where
    S(x) is singular to working tolerance.
    """
    _, pi, _, s_bx, _ = _dressing_state(traj, x)
    return np.eye(traj.m) - 1j * traj.system.J @ _adj(pi) @ s_bx @ pi


def transfer(traj, x, z):
    """Evaluate w_A, w0, v = w0^{-1} w_A at (x, z).

    x and z broadcast against each other; scalars give one m x m
    evaluation.  Every z and conj(z) must avoid the spectrum of B; x may
    sit anywhere in the trajectory's range (dense interpolation between
    grid samples), and S(x) is checked as in :func:`w0_at`.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=complex)
    shape = np.broadcast_shapes(x.shape, z.shape)
    z = np.broadcast_to(z, shape)
    B = traj.params.B
    eigs = np.linalg.eigvals(B)
    near = np.abs(z[..., None] - np.append(eigs, eigs.conj())).min(axis=-1) < 1e-10
    if near.any():
        raise ValueError(f"z = {complex(z[near][0])} meets the spectrum of B")
    # the state depends on x alone: read it once per x, not per (x, z) pair
    _, pi, bx, s_bx, s_pi = _dressing_state(traj, x)
    J = traj.system.J
    eye_m = np.eye(traj.m)
    j_pi = J @ _adj(pi)
    core = j_pi @ s_bx
    w0 = eye_m - 1j * core @ pi
    w0_inv = eye_m + 1j * j_pi @ _adj(bx) @ s_pi
    residual = np.linalg.norm(w0 @ w0_inv - eye_m, axis=(-2, -1))
    # w_A = I - i (x - z) J Pi* S^{-1} (B - x) (B - z)^{-1} Pi at z and conj(z)
    zz = np.stack([z, z.conj()])[..., None, None]
    resolvent_pi = np.linalg.solve(B - zz * np.eye(traj.n), pi)
    w_a, w_a_conj = eye_m - 1j * (x[..., None, None] - zz) * (core @ resolvent_pi)
    mm = (traj.m, traj.m)
    return TransferEval(
        x=np.broadcast_to(x, shape)[()],
        z=z[()],
        w_a=w_a,
        w0=np.broadcast_to(w0, shape + mm).copy(),
        w0_inv=np.broadcast_to(w0_inv, shape + mm).copy(),
        v=w0_inv @ w_a,
        j_defect=np.linalg.norm(_adj(w_a_conj) @ J @ w_a - J, axis=(-2, -1))[()],
        w0_inv_residual=np.broadcast_to(residual, shape)[()],
    )


def transformed_hamiltonian(traj):
    """Dressed Hamiltonian H~ = w0* H w0 on the trajectory grid.

    For factored input the dressed factor beta~ = beta w0 is emitted
    (grid samples plus an exact callable along the trajectory); otherwise
    an H-grid with an exact callable is returned.
    """
    spec = traj.system.hamiltonian
    grid = traj.grid
    w0 = w0_at(traj, grid)
    if spec.is_factored:
        return HamiltonianSpec.from_beta_grid(
            grid, spec.beta_at(grid) @ w0,
            beta_fn=lambda x: spec.beta_at(x) @ w0_at(traj, x),
        )

    def dressed_h(x):
        w0 = w0_at(traj, x)
        return w0.conj().T @ spec.hamiltonian(x) @ w0

    out = HamiltonianSpec.from_grid(
        grid, hermitian_part(_adj(w0) @ spec.hamiltonians(grid) @ w0)
    )
    out.h_fn = dressed_h
    return out


def transformed_fundamental(traj, z, grid=None, tol=1e-10):
    """Dressed fundamental solution W~(x, z) = v(x, z) W(x, z) v(xi, z)^{-1}."""
    sys = traj.system
    if grid is None:
        grid = traj.grid
    base = fundamental_solution(sys, z, grid=grid, tol=tol)
    v = transfer(traj, np.append(sys.xi, base.grid), base.z).v
    v_xi_inv = np.linalg.inv(v[0])
    return FundamentalSolution(
        z=base.z,
        grid=base.grid,
        values=v[1:] @ base.values @ v_xi_inv,
        method=base.method,
        error_estimate=base.error_estimate,
        J=sys.J,
        xi=sys.xi,
        interpolant=lambda x: transfer(traj, x, base.z).v @ base.at(x) @ v_xi_inv,
    )


def g0_eval(traj, x):
    """Logarithmic derivative generator of w0: d/dx w0 = G0 w0 with

        G0 = -J (i Pi* S^{-1} Pi - H J Pi* S^{-1} Pi + Pi* S^{-1} Pi J H);

    ``x`` may be an array of points, as for :func:`w0_at`.
    """
    x, pi, _, _, s_pi = _dressing_state(traj, x)
    J = traj.system.J
    h = traj.system.hamiltonian.hamiltonians(x.ravel()).reshape(x.shape + J.shape)
    core = _adj(pi) @ s_pi
    return -J @ (1j * core - h @ J @ core + core @ J @ h)


def w0_lipschitz_bound(traj):
    """Grid supremum of |G0(x) w0(x)|, a Lipschitz constant for w0."""
    gw = g0_eval(traj, traj.grid) @ w0_at(traj, traj.grid)
    return float(np.max(np.linalg.norm(gw, ord=2, axis=(1, 2))))


def transformed_boundary_values(traj, x, s, eta0=1e-2, levels=6, tol=1e-10,
                                margin=None):
    """Cut limits of the dressed solution via the multiplier identity.

    Primary route: W~(x, s +/- i0) = v(x, s) W+-(x, s) v(xi, s)^{-1},
    built from the base-system limits of :func:`boundary_values`.  As an
    independent check, RK45 samples along the ladder eta = eta0 * 2^-j
    (``levels`` rungs) are dressed and Richardson-extrapolated directly
    on W~; the discrepancy is reported as ``cross_check_error``.
    """
    sys = traj.system
    eigs = np.linalg.eigvals(traj.params.B)
    a_int, b_int = sys.interval
    spectrum_margin = SPECTRUM_MARGIN * (b_int - a_int)
    if np.abs(eigs - s).min() < spectrum_margin:
        raise ValueError(f"s = {s} within the spectrum margin of sigma(B)")
    if not 3 <= levels <= 10:
        raise ValueError("extrapolation needs 3..10 levels")
    base = boundary_values(sys, x, s, tol=tol, margin=margin)
    etas = eta0 * 2.0 ** (-np.arange(levels))
    plus, minus = limit_samples(sys, x, s, etas, tol)
    # v at x (row 0) and xi (row 1) for z = s, then the ladder above and below
    zs = np.concatenate([[s], s + 1j * etas, s - 1j * etas])
    v = transfer(traj, [[x], [sys.xi]], zs).v
    v_x, v_xi_inv = v[0], np.linalg.inv(v[1])
    w_plus = v_x[0] @ base.w_plus @ v_xi_inv[0]
    w_minus = v_x[0] @ base.w_minus @ v_xi_inv[0]
    ladder = v_x[1:] @ np.concatenate([plus, minus]) @ v_xi_inv[1:]
    cross = max(
        fro(w_plus - extrapolate_eta_sequence(etas, ladder[:levels])[0]),
        fro(w_minus - extrapolate_eta_sequence(etas, ladder[levels:])[0]),
    )

    return BoundaryValueReport(
        x=float(x),
        s=float(s),
        w_plus=w_plus,
        w_minus=w_minus,
        v=w_plus - w_minus,
        jump=np.linalg.solve(w_minus, w_plus),
        panels=base.panels,
        extrapolation_error=base.extrapolation_error
        * max(spec_norm(v_x[0]) * spec_norm(v_xi_inv[0]), 1.0),
        divergent=base.divergent,
        converged=base.converged,
        cross_check_error=cross,
    )


def sample_params(seed, sys, n, positive=True, target_margin=None, max_tries=200):
    """Draw a random valid parameter triple for the system.

    The identity is satisfied by construction: pick Hermitian S0 (positive
    definite when ``positive``), a random Pi0, set M = i Pi0 J Pi0* and
    A(xi) = (M/2 + tau H) S0^{-1} with a small Hermitian tilt H, then read
    off B = xi I + A(xi)^{-1}.  Draws whose pole spectrum comes closer to
    the interval than ``target_margin`` are rejected and retried.
    """
    rng = np.random.default_rng(seed)
    a, b = sys.interval
    m = sys.m
    if target_margin is None:
        target_margin = 0.1 * (b - a)

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for _ in range(max_tries):
        pi0 = crandn(n, m)
        if positive:
            g = crandn(n, n) / np.sqrt(n)
            s0 = g @ g.conj().T + 0.5 * np.eye(n)
        else:
            g = crandn(n, n)
            s0 = g + g.conj().T
            if cond2(s0) > 1e6:
                continue
        s0 = hermitian_part(s0) / spec_norm(s0)
        pi0 *= 0.7 / max(spec_norm(pi0), 1e-12)
        mskew = 1j * pi0 @ sys.J @ pi0.conj().T
        tilt = hermitian_part(crandn(n, n))
        tilt *= 0.5 / max(spec_norm(tilt), 1e-12)
        a0 = (0.5 * mskew + tilt) @ np.linalg.inv(s0)
        if not np.isfinite(cond2(a0)) or cond2(a0) > 1e8:
            continue
        # rescale (A, Pi) jointly so |A(xi)| ~ 1 keeps residuals and the
        # trajectory growth well-scaled; the identity is covariant under
        # (A, Pi) -> (c A, sqrt(c) Pi)
        scale = 1.0 / spec_norm(a0)
        a0 *= scale
        pi0 *= np.sqrt(scale)
        bmat = sys.xi * np.eye(n) + np.linalg.inv(a0)
        gap = min(_segment_distance(lam, sys.interval) for lam in np.linalg.eigvals(bmat))
        if gap < target_margin:
            continue
        params = GbdtParams(B=bmat, S0=s0, Pi0=pi0, xi=sys.xi)
        if params.identity_residual(sys.J) < 1e-10:
            return params
    raise RuntimeError(f"no valid parameter draw after {max_tries} tries")
