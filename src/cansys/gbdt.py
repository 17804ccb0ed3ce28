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
used everywhere (once per right-hand side evaluation of the evolution).
:func:`evolve` solves for (Pi, S, K) with the eighth-order Dormand-Prince
pair DOP853, restarted at every kink of interpolated H data.

:func:`transfer` is the one evaluator of w_A, w0, w0^{-1} and v: every
dressed object takes its v from it.  It, :func:`w0_at` and
:func:`g0_eval` take arrays of x (and z) and evaluate them as one batch.
They all read (Pi, S) through one frame: one dense-output call for the
whole stack, which evaluates the points of each piece of the trajectory
in one stacked pass, one stacked SVD (|S| for n = 1) that raises
:class:`~cansys.linalg.SingularMatrixError` at the first x, in order,
where S(x) is singular to working tolerance, and one stacked solve
against S.  :func:`transformed_system` is the one builder of the
dressed system: one :func:`w0_at` call on the trajectory grid plus the
kinks of the base data gives its samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import system
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
    CanonicalSystem,
    FundamentalSolution,
    HamiltonianSpec,
    _require_count,
    boundary_values,
    fundamental_solution,
    integrate_matrix_ode,
)

#: Default local error target for trajectory evolution.
ODE_TOL = 1e-9

#: Spectrum of B must keep this fraction of the interval length away from it.
SPECTRUM_MARGIN = 1e-3

#: sample_params redraws until the poles keep this fraction of the interval
#: length away from it, at most SAMPLE_TRIES times.
SAMPLE_MARGIN = 0.1
SAMPLE_TRIES = 200


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


def validate_params(params, sys):
    """Check the displacement identity, Hermitian S0 and pole separation."""
    a, b = sys.interval
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
    # the identity takes Pi0 J Pi0*: undefined when Pi0 has the wrong columns
    residual = params.identity_residual(sys.J) if params.m == sys.m else np.nan
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
    to the trajectory's S scale, which catches 1x1 zero crossings.  A 1 x 1
    S is its own singular value up to phase: |S| replaces the SVD, which
    would cost some 0.7 us per point.
    """
    sv = np.abs(s[..., 0]) if s.shape[-1] == 1 else np.linalg.svd(s, compute_uv=False)
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

    ``s``, ``pi``, ``k``, ``q`` hold S(x), Pi(x), K(x) and Q(x) = K S K*
    at the grid points; K solves K_x = K A, K(xi) = I, so
    Q is nondecreasing whenever the data is consistent.  A completed
    trajectory is immutable and safe for concurrent queries.
    """

    params: GbdtParams
    system: object
    grid: np.ndarray
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

    def s_at(self, x):
        return self.state_at(x)[1]

    def k_at(self, x):
        return self.state_at(x)[2]


def _evolve_rhs(params, J, spec):
    """The right-hand side of :func:`evolve`'s flat joint state (Pi, S, K).

    For n = 1, A and the rows of S and K are formed in scalar arithmetic.
    Pi J, u = (Pi J) H and A u stay the products of the matrix form, whose
    BLAS rounding scalar arithmetic does not reproduce, and S's u (Pi J)*
    is ``np.vdot``, which rounds as that form's product does: the
    trajectory keeps the matrix form's bits.
    """
    n, m = params.n, params.m
    n_pi, n_s = n * m, n * m + n * n  # ends of the Pi and S blocks of the state
    if n == 1:
        # A = 1/(b - x) with no factorisation: validate_params keeps the
        # pole b a margin away from [a, b]
        pole = complex(params.B[0, 0])

        def rhs(x, y):
            a = 1.0 / (pole - x)
            pj = y[:m] @ J  # Pi J, shared by both sources as u = (Pi J) H and u (Pi J)*
            u = pj @ spec.hamiltonian(x)
            s, k = y[m:].tolist()
            out = np.empty_like(y)
            au = np.array([[a]]) @ u[None]
            au *= -1j
            out[:m] = au[0]
            out[m:] = np.vdot(pj, u) - (a * s + s * a.conjugate()), k * a
            return out

        return rhs

    if n == 2:
        # A = adj(B - x) / det(B - x), free of inv's per-call wrapper
        (b00, b01), (b10, b11) = params.B.tolist()

        def resolvent(x):
            d00, d11 = b00 - x, b11 - x
            return np.array([[d11, -b01], [-b10, d00]]) / (d00 * d11 - b01 * b10)
    else:
        B, eye_n = params.B, np.eye(n)

        def resolvent(x):
            return np.linalg.inv(B - x * eye_n)

    def rhs(x, y):
        pi = y[:n_pi].reshape(n, m)
        s = y[n_pi:n_s].reshape(n, n)
        a = resolvent(x)
        pj = pi @ J  # Pi J, shared by both sources as u = (Pi J) H and u (Pi J)*
        u = pj @ spec.hamiltonian(x)
        au = a @ u
        au *= -1j
        out = np.empty_like(y)
        out[:n_pi] = au.ravel()
        out[n_pi:n_s] = (u @ pj.conj().T - (a @ s + s @ a.conj().T)).ravel()
        out[n_s:] = (y[n_s:].reshape(n, n) @ a).ravel()
        return out

    return rhs


def evolve(params, sys, grid=None, tol=ODE_TOL):
    """Evolve (Pi, S, K) jointly with one adaptive controller.

    The controller is the eighth-order Dormand-Prince pair DOP853 (Hairer,
    Norsett & Wanner, Solving ODEs I, II.10), which needs far fewer steps
    than RK45 at the tight tolerances used here, and each direction
    restarts at the kinks of the data (see
    :func:`~cansys.system.integrate_matrix_ode`).  A(x) = (B - x)^{-1} is
    formed once per right-hand side evaluation, with no check per call
    (:func:`validate_params` keeps the poles SPECTRUM_MARGIN away from the
    interval): for n = 1 as 1/(b - x), in a right-hand side that forms
    the rows of S and K in scalar arithmetic (see :func:`_evolve_rhs`),
    for n = 2 as adj(B - x) / det(B - x), otherwise by ``np.linalg.inv``.
    Pi J is formed once for both sources, as u = (Pi J) H and u (Pi J)*,
    and -i A u is scaled in place.  K stays in the joint state: its error
    takes part in the step control, and without it the controller takes
    fewer, longer steps that leave the identity residual about ten times
    larger.  The joint state keeps the displacement-identity residual coherent with the
    integration error.  Raises :class:`~cansys.linalg.SingularMatrixError`
    if S(x) passes the singularity threshold anywhere on the grid; a
    ``tol`` that is not a positive finite number, or a grid that is not
    finite, non-empty and within the interval, raises ValueError.
    """
    system._require_tol(tol)
    grid = system._checked_grid(grid, sys.interval)
    report = validate_params(params, sys)
    if not report.ok:
        raise ValueError("invalid dressing parameters: " + "; ".join(report.violations))
    n, m = params.n, params.m
    J = sys.J
    spec = sys.hamiltonian
    rhs = _evolve_rhs(params, J, spec)
    y0 = np.concatenate(
        [params.Pi0.ravel(), params.S0.ravel(), np.eye(n, dtype=complex).ravel()]
    )
    # the residual contract is absolute while rtol is relative; drive the
    # controller two digits below tol so state growth cannot breach 10*tol
    flat, dense, _ = integrate_matrix_ode(
        rhs, params.xi, y0, grid,
        max(tol * 1e-2, 3e-14), max(tol * 1e-3, 1e-16), "DOP853", spec.kinks,
    )

    pi, s, k = _split(flat, n, m)
    a = params.a_at(grid)
    s_scale = _check_s(grid, s)
    defect = a @ s - s @ _adj(a) - 1j * pi @ J @ _adj(pi)
    return GbdtTrajectory(
        params=params,
        system=sys,
        grid=grid,
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


def positivity_report(traj):
    """Verify positivity transport: S stays positive, Q monotone, and the
    inverse bound S^{-1} <= K* S0^{-1} K holds within 10 * traj.ode_tol."""
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
        tol=traj.ode_tol,
    )


@dataclass
class TransferEval:
    """Transfer-matrix data at (x, z), or at every pair of broadcast
    arrays x and z (fields then carry the broadcast shape in front).

    ``w0_inv`` comes from the exact formula
    w0^{-1} = I + i J Pi* (B* - x) S^{-1} Pi rather than from a numerical
    inverse.  The two diagnostics are formed on first read, so a caller
    that reads only ``v`` pays for neither: ``j_defect`` measures the
    J-relation w_A(x, conj(z))* J w_A(x, z) = J, at the cost of one more
    resolvent solve, and ``w0_inv_residual`` records how well w0 and
    ``w0_inv`` multiply to the identity.
    """

    x: float
    z: complex
    w_a: np.ndarray
    w0: np.ndarray
    w0_inv: np.ndarray
    v: np.ndarray
    _j: np.ndarray = field(repr=False)
    _w_a_at: object = field(repr=False)

    @cached_property
    def j_defect(self):
        J = self._j
        w_a_conj = self._w_a_at(np.conj(self.z))
        return np.linalg.norm(_adj(w_a_conj) @ J @ self.w_a - J, axis=(-2, -1))[()]

    @cached_property
    def w0_inv_residual(self):
        eye = np.eye(self.w0.shape[-1])
        return np.linalg.norm(self.w0 @ self.w0_inv - eye, axis=(-2, -1))[()]


def _frame(traj, x):
    """Pi(x), S^{-1} (B - x) and S^{-1} Pi at every point of the finite
    float array x: the one place where S is solved against, one stacked
    solve.  (Pi, S) come from one dense-output call for the whole stack,
    with S checked by one stacked SVD (see :func:`_check_s`) at the
    trajectory's S scale.
    """
    system._require_finite("x", x)
    pi, s, _ = traj.state_at(x)
    _check_s(x, s, traj.s_scale)
    bx = traj.params.B - x[..., None, None] * np.eye(traj.n)
    sol = np.linalg.solve(s, np.concatenate([bx, pi], axis=-1))
    return pi, sol[..., : traj.n], sol[..., traj.n :]


def _w0(traj, pi, s_bx):
    """w0 = I - i J Pi* S^{-1} (B - x) Pi from Pi(x) and S^{-1} (B - x)."""
    return np.eye(traj.m) - 1j * traj.system.J @ _adj(pi) @ s_bx @ pi


def w0_at(traj, x):
    """Dressing factor w0(x) = I - i J Pi* S^{-1} (B - x) Pi.

    ``x`` may be a point or an array of points (the result then stacks
    m x m matrices behind x's shape).  Raises
    :class:`~cansys.linalg.SingularMatrixError` at the first x where
    S(x) is singular to working tolerance.
    """
    pi, s_bx, _ = _frame(traj, np.asarray(x, dtype=float))
    return _w0(traj, pi, s_bx)


def transfer(traj, x, z):
    """Evaluate w_A, w0, w0^{-1} and v = w0^{-1} w_A at (x, z): the one
    evaluator of the dressing multiplier.

    x and z broadcast against each other; scalars give one m x m
    evaluation.  Every z and conj(z) must avoid the spectrum of B; x may
    sit anywhere in the trajectory's range (dense interpolation between
    grid samples), and S(x) is checked as in :func:`w0_at`.  (Pi, S) and
    the solves against S depend on x alone: they are formed once per x,
    not per (x, z) pair, and w_A costs one resolvent solve
    (B - z)^{-1} Pi for the whole stack.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=complex)
    system._require_finite("z", z)
    z = np.broadcast_to(z, np.broadcast_shapes(x.shape, z.shape))
    B = traj.params.B
    eigs = np.linalg.eigvals(B)
    near = np.abs(z[..., None] - np.append(eigs, eigs.conj())).min(axis=-1) < 1e-10
    if near.any():
        raise ValueError(f"z = {complex(z[near][0])} meets the spectrum of B")
    pi, s_bx, s_pi = _frame(traj, x)
    eye_m, eye_n = np.eye(traj.m), np.eye(traj.n)
    j_pi = traj.system.J @ _adj(pi)
    core = j_pi @ s_bx
    w0_inv = eye_m + 1j * j_pi @ _adj(B - x[..., None, None] * eye_n) @ s_pi

    def w_a_at(zs):
        """w_A = I - i (x - z) J Pi* S^{-1} (B - x) (B - z)^{-1} Pi."""
        zz = zs[..., None, None]
        resolvent_pi = np.linalg.solve(B - zz * eye_n, pi)
        return eye_m - 1j * (x[..., None, None] - zz) * (core @ resolvent_pi)

    w_a = w_a_at(z)
    shape, mm = z.shape, (traj.m, traj.m)
    return TransferEval(
        x=np.broadcast_to(x, shape)[()],
        z=z[()],
        w_a=w_a,
        w0=np.broadcast_to(_w0(traj, pi, s_bx), shape + mm).copy(),
        w0_inv=np.broadcast_to(w0_inv, shape + mm).copy(),
        v=w0_inv @ w_a,
        _j=traj.system.J,
        _w_a_at=w_a_at,
    )


def transformed_system(traj):
    """The dressed canonical system, H~ = w0* H w0, on the base system's
    J, interval and base point.

    Its samples sit on the trajectory grid plus the kinks of the base
    data inside the grid's span, so the routes that break at sample
    nodes meet the kinks H~ inherits, and they come from one
    :func:`w0_at` call (on the grid, the dressing of the samples
    :func:`evolve` stored, bit for bit).  Factored data give the dressed
    factor beta~ = beta w0, and with base point a the result is a
    :class:`~cansys.triangular.TriangularModel`; other data give an
    H-grid of the congruence.  An exact callable along the trajectory,
    taking a point or an array of points, takes precedence over the
    samples.
    """
    from .triangular import TriangularModel

    sys = traj.system
    spec = sys.hamiltonian
    grid, kinks = traj.grid, spec.kinks
    x = np.union1d(grid, kinks[(kinks > grid.min()) & (kinks < grid.max())])
    w0 = w0_at(traj, x)
    if spec.is_factored:
        def dressed_beta(t):
            return spec.beta_at(t) @ w0_at(traj, t)

        beta = spec.beta_at(x) @ w0
        if sys.xi == sys.interval[0]:
            return TriangularModel(sys.interval, sys.J, x, beta, beta_fn=dressed_beta)
        dressed = HamiltonianSpec.from_beta_grid(x, beta, beta_fn=dressed_beta)
    else:
        def dressed_h(t):
            w = w0_at(traj, t)
            return _adj(w) @ spec.hamiltonian(t) @ w

        h = _adj(w0) @ spec.hamiltonian(x) @ w0
        dressed = HamiltonianSpec(x, h=hermitian_part(h), h_fn=dressed_h)
    return CanonicalSystem(sys.J, sys.interval, dressed, xi=sys.xi)


def transformed_fundamental(traj, z, grid=None, tol=system.ODE_TOL):
    """Dressed fundamental solution W~(x, z) = v(x, z) W(x, z) v(xi, z)^{-1},
    with the base W from RK45 (``fundamental_solution(method="rk45")``).

    ``z`` may be a 1-D array of points: the base W is then one stacked RK45
    solve (each point held at least as tightly as alone; ``panels`` counts
    the joint solve's steps), v the ``v`` of one :func:`transfer` call over
    (x, z), which forms no diagnostics, and ``values`` stacks
    (len(z), len(grid), m, m).
    """
    sys = traj.system
    if grid is None:
        grid = traj.grid
    base = fundamental_solution(sys, z, grid=grid, tol=tol, method="rk45")
    x = np.append(sys.xi, base.grid)
    v = transfer(traj, x[:, None] if np.ndim(base.z) else x, base.z).v
    v = np.moveaxis(v, 0, -3)  # a batch's (x, z) stack to (z, x)
    return FundamentalSolution(
        z=base.z,
        grid=base.grid,
        values=v[..., 1:, :, :] @ base.values @ np.linalg.inv(v[..., :1, :, :]),
        method=base.method,
        error_estimate=base.error_estimate,
        J=sys.J,
        xi=sys.xi,
        panels=base.panels,
        converged=base.converged,
    )


def g0_eval(traj, x):
    """Logarithmic derivative generator of w0: d/dx w0 = G0 w0 with

        G0 = -J (i Pi* S^{-1} Pi - H J Pi* S^{-1} Pi + Pi* S^{-1} Pi J H);

    ``x`` may be an array of points, as for :func:`w0_at`.
    """
    x = np.asarray(x, dtype=float)
    pi, _, s_pi = _frame(traj, x)
    J = traj.system.J
    h = traj.system.hamiltonian.hamiltonian(x.ravel()).reshape(x.shape + J.shape)
    core = _adj(pi) @ s_pi
    return -J @ (1j * core - h @ J @ core + core @ J @ h)


def transformed_boundary_values(traj, x, s, tol=system.ODE_TOL):
    """Cut limits of the dressed solution via the multiplier identity.

    Primary route: W~(x, s +/- i0) = v(x, s) W+-(x, s) v(xi, s)^{-1},
    built from the base-system limits of :func:`boundary_values`.  As an
    independent check, :func:`boundary_values` also runs on the dressed
    system itself, :func:`transformed_system`, whose samples hold the
    kinks of the base data; the larger Frobenius difference of the two
    routes over the + and - limits is reported as ``cross_check_error``.
    The report is ``converged`` only when both refinements converged, and
    ``divergent`` when either diverged: a cross-check that stopped at the
    panel cap leaves its error unconfirmed.
    """
    sys = traj.system
    eigs = np.linalg.eigvals(traj.params.B)
    a_int, b_int = sys.interval
    spectrum_margin = SPECTRUM_MARGIN * (b_int - a_int)
    if np.abs(eigs - s).min() < spectrum_margin:
        raise ValueError(f"s = {s} within the spectrum margin of sigma(B)")
    base = boundary_values(sys, x, s, tol=tol)
    direct = boundary_values(transformed_system(traj), x, s, tol=tol)
    v = transfer(traj, [x, sys.xi], s).v
    v_x, v_xi_inv = v[0], np.linalg.inv(v[1])
    w_plus = v_x @ base.w_plus @ v_xi_inv
    w_minus = v_x @ base.w_minus @ v_xi_inv
    cross = max(fro(w_plus - direct.w_plus), fro(w_minus - direct.w_minus))

    return BoundaryValueReport(
        x=float(x),
        s=float(s),
        w_plus=w_plus,
        w_minus=w_minus,
        v=w_plus - w_minus,
        jump=np.linalg.solve(w_minus, w_plus),
        panels=base.panels,
        extrapolation_error=base.extrapolation_error
        * max(spec_norm(v_x) * spec_norm(v_xi_inv), 1.0),
        divergent=base.divergent or direct.divergent,
        converged=base.converged and direct.converged,
        cross_check_error=cross,
    )


def sample_params(seed, sys, n, positive=True):
    """Draw a random valid parameter triple for the system.

    The identity is satisfied by construction: pick Hermitian S0 (positive
    definite when ``positive``), a random Pi0, set M = i Pi0 J Pi0* and
    A(xi) = (M/2 + tau H) S0^{-1} with a small Hermitian tilt H, then read
    off B = xi I + A(xi)^{-1}.  Draws whose pole spectrum comes closer to
    the interval than ``SAMPLE_MARGIN`` of its length are rejected and
    retried, at most ``SAMPLE_TRIES`` times.  ``n`` must be a positive
    integer.
    """
    _require_count("n", n)
    rng = np.random.default_rng(seed)
    a, b = sys.interval
    m = sys.m
    target_margin = SAMPLE_MARGIN * (b - a)

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for _ in range(SAMPLE_TRIES):
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
    raise RuntimeError(f"no valid parameter draw after {SAMPLE_TRIES} tries")
