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

* :func:`fundamental_solution` -- W on a grid, by default read off one
  ordered product of exact-log-weight fourth-order Magnus factors
  exp(Omega_j) (the Lie-group integrators of Iserles & Norsett 1999 and
  Blanes, Casas, Oteo & Ros 2009, with the weight 1/(z - t) integrated
  exactly) over panels graded towards Re z, every panel halved until two
  successive products agree to the tolerance; ``method="rk45"`` keeps
  adaptive Runge-Kutta as the route independent of that kernel, and
  solves a batch of z as one stacked system,
* :func:`integrate_matrix_ode` -- the adaptive solves behind that route
  and the dressing trajectory: piecewise between the kinks that
  :attr:`HamiltonianSpec.kinks` reports (the sample nodes of
  interpolated data), on the tableau each caller names,
* :func:`product_integral` -- the multiplicative-integral route: the
  ordered product of the same factors over a user partition, exact for
  commuting H,
* :func:`boundary_values` -- limits W(x, s +/- i0) on the cut and the jump
  matrix relating them, T_R exp(Omega_s +/- pi J H(s)) T_L: the total
  products T_L and T_R of the same factors at z = s, over panels graded
  geometrically towards s, on either side of the one panel that straddles
  s, whose exponent Omega_s takes the principal value;
  ``extrapolation_error`` is the change of the limits under the last
  halving of the grading ratio; this is the library's only cut-limit
  algorithm (dressed limits are checked by running it on the dressed
  system),
* :func:`kernel_bound` -- the degenerate-kernel supremum
  sup |beta(x) J beta(t)*| / (x - t) controlling cut limits for factored
  Hamiltonians H = beta* beta.

Every Magnus call is one pass of one kernel: :func:`_magnus_exponents`
builds the exponents of all the levels the call needs at its z from one
H call on their panel ends and midpoints, and the Cayley-Hamilton 2 x 2
exponential :func:`_expm_small` takes them in one call.  A panel set
and its halving (the first two refinement levels of
:func:`fundamental_solution`, the partition of :func:`product_integral`
and its halving) are nested: H is taken once at their 4P + 1 distinct
points, P the panels, and :func:`_level_products` multiplies the
halving's factors in pairs, then both levels out in one batched
work-efficient scan :func:`_ordered_product`.  The two gradings of the
first pass of :func:`boundary_values` are not nested; they share the H
call, and the cut limits need only the total products on either side
of the straddling panel (:func:`_cut_limits`).  The kernel holds m x m
stacks entries-leading, as (m, m, n), so every elementwise operation
runs over the panel axis; public outputs keep their (..., m, m) shapes.
Its stacked products, and those of the triangular model's forward
sweep, whose total :func:`_total_product` takes by pairwise halving,
are all :func:`_mul`, a sum over the inner index.

Constant Hamiltonian data is one stored, read-only matrix (see
:class:`HamiltonianSpec`): the adaptive right-hand sides, which pass
one float point, get that matrix itself and the kernel, which passes
arrays, a stack of copies, with no interpolation on either path.

The module imports numpy alone.  scipy loads on first use:
``scipy.integrate`` at the first adaptive solve, through the module
attribute ``solve_ivp``, and ``scipy.linalg`` at the first exponential
of matrices other than 2 x 2.  The Magnus routes of m = 2 systems
(fundamental solutions, cut limits, product integrals) never load it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import PSD_TOL, _adj, ascomplex, fro, hermitian_part, psd_defect

#: Points closer than this to the cut are rejected outside boundary_values.
DISTANCE_TOL = 1e-6

#: Default error target of fundamental_solution and boundary_values.
ODE_TOL = 1e-10

#: boundary_values: s keeps this times (b - a) from xi and x, the cut's ends.
CUT_MARGIN = 1e-2

#: kernel_bound: beta J beta* = 0 once its sup is at most this times the scale.
DEGENERACY_TOL = 1e-9

#: Magnus refinements stop once a product has more factors than this.
MAX_CUT_PANELS = 4096

#: kernel_bound takes the sample pairs in row chunks of about this many.
KERNEL_CHUNK_PAIRS = 1 << 16

#: RHS evaluations of scipy's tableaus per attempted step and per accepted
#: step with dense output: RK45 reuses its last stage (FSAL) and
#: interpolates from its stages, DOP853 adds three stages for its
#: seventh-order interpolant (Hairer, Norsett & Wanner, Solving ODEs I, II.10).
RHS_EVALS_PER_STEP = {"RK45": (6, 0), "DOP853": (12, 3)}

#: HamiltonianSpec.kinks: a node is a kink when its sample leaves the chord
#: of its neighbours by more than this many unit roundoffs of the largest
#: sample entry.
KINK_ROUNDING = 64.0

#: c of the rounding floor c u P max |W| in the Magnus error estimate of
#: fundamental_solution (u the unit roundoff, P the panels).  On commuting
#: scalar-profile H, where every factor is exact, the rounding error of the
#: product reached 1.4 u P max |W| over 36 solves (and 1.8 over 84 further
#: ones) against a 40-digit closed form; the log-depth scan that
#: _ordered_product replaced reached 2.3 and 3.5 there, and 8 keeps a
#: factor of two over that.
ROUNDING_GROWTH = 8.0


class _SolveIvp:
    """scipy.integrate.solve_ivp, imported on the first call.

    Only the adaptive routes integrate ODEs, so ``import cansys`` does not
    pay scipy's import.  :func:`integrate_matrix_ode` calls through the
    module attribute ``solve_ivp``, the one place a solver can be swapped
    or wrapped.
    """

    def __call__(self, *args, **kwargs):
        from scipy.integrate import solve_ivp as scipy_solve_ivp

        return scipy_solve_ivp(*args, **kwargs)


solve_ivp = _SolveIvp()


class SpectralPointError(ValueError):
    """Spectral point z is too close to the cut [a, b]."""


def _require_finite(name, value):
    """Raise ValueError naming the argument unless every entry is finite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value}")


def _require_count(name, value):
    """Raise ValueError naming the argument unless it is a positive integer
    (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _require_tol(tol):
    """Raise ValueError unless tol is a positive finite number."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")


def _checked_grid(grid, interval):
    """grid as a float array, 201 points spanning the interval when None;
    raise ValueError unless it is finite, non-empty and within the interval."""
    a, b = interval
    if grid is None:
        return np.linspace(a, b, 201)
    grid = np.asarray(grid, dtype=float)
    _require_finite("grid", grid)
    if grid.size == 0 or grid.min() < a - 1e-12 or grid.max() > b + 1e-12:
        raise ValueError(f"grid must be nonempty and within [{a}, {b}]")
    return grid


def _cut_distance(z, interval):
    # |Im z| + dist(Re z, [a, b]): cheap and within sqrt(2) of Euclidean
    a, b = interval
    return abs(z.imag) + max(0.0, a - z.real, z.real - b)


def _interp_stack(xgrid, values, xq):
    """Piecewise-linear interpolation of a stack of matrices along xgrid,
    clamped to the end values outside it; returns the stack of matrices
    behind the shape of xq (one matrix for a scalar).

    The ODE right-hand sides evaluate H at one point, a Python float (or
    an ``np.float64``, its subclass): that point takes one scalar
    ``searchsorted`` and Python arithmetic, 4.0-4.3 us against 8.4-11.6
    us on the array path (timeit, one core).  Arrays, as the Magnus
    kernel passes them, take ufunc minimum/maximum in place of the slower
    ``np.clip``.  Both paths round alike, so a point gives the same bits
    either way.
    """
    if isinstance(xq, float):
        j = min(max(int(xgrid.searchsorted(xq)), 1), xgrid.size - 1)
        x0, x1 = float(xgrid[j - 1]), float(xgrid[j])
        w = min(max((xq - x0) / (x1 - x0), 0.0), 1.0)
        return (1.0 - w) * values[j - 1] + w * values[j]
    xq = np.asarray(xq, dtype=float)
    j = np.minimum(np.maximum(xgrid.searchsorted(xq), 1), xgrid.size - 1)
    x0, x1 = xgrid[j - 1], xgrid[j]
    w = np.minimum(np.maximum((xq - x0) / (x1 - x0), 0.0), 1.0)[..., None, None]
    return (1.0 - w) * values[j - 1] + w * values[j]


def _constant_at(value, xq):
    """The one matrix of constant data at xq: ``value`` itself, read-only,
    for a scalar point (a Python float, as for :func:`_interp_stack`), and
    a fresh stack of copies behind the shape of an array of points."""
    if isinstance(xq, float):
        return value
    return np.broadcast_to(value, np.shape(xq) + value.shape).copy()


class HamiltonianSpec:
    """Hamiltonian data: an H-grid, a factored beta-grid, or a callable.

    H samples and factored data (beta samples or ``beta_fn``) exclude
    each other: the factor would take precedence and drop the H samples.
    Grids are interpolated piecewise-linearly entrywise.  Interpolated H
    samples are projected back onto Hermitian matrices; factored data
    H = beta* beta is Hermitian PSD by construction.  Exact callables may
    be attached on top of the samples and then take precedence (used for
    dressed Hamiltonians whose factor is known analytically along a
    trajectory).  A callable takes a point or an array of points and
    returns the stack of matrices behind that shape; the spec calls it
    once per evaluation.

    Constant data, with no callable and every sample (beta for factored
    data, H otherwise) equal to the first, is one stored matrix: the
    spec keeps beta and H = beta* beta, or the Hermitian part of the H
    sample, read-only and formed once.  A scalar point returns the stored
    matrix itself, an array of points a fresh stack of copies, so both
    paths give the same bits and no evaluation interpolates.  The rule
    reads the samples, so :meth:`from_constant_beta` and an equal-sample
    grid alike get it.
    """

    def __init__(self, x, h=None, beta=None, h_fn=None, beta_fn=None):
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 1 or self.x.size < 2:
            raise ValueError("sample grid must be 1-D with at least 2 points")
        _require_finite("sample grid", self.x)
        if np.any(np.diff(self.x) <= 0):
            raise ValueError("sample grid must be strictly increasing")
        if h is None and beta is None:
            raise ValueError("need H samples or beta samples")
        if h is not None and (beta is not None or beta_fn is not None):
            raise ValueError("H samples cannot join factored data (beta samples or beta_fn)")
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
        self._beta0 = self._h0 = None  # the one matrix of constant data
        samples = self.beta if self.beta is not None else self.h
        if h_fn is None and beta_fn is None and np.all(samples == samples[0]):
            if self.beta is not None:
                self._beta0 = samples[0].copy()
                self._beta0.flags.writeable = False
                self._h0 = _adj(self._beta0) @ self._beta0
            else:
                self._h0 = hermitian_part(samples[0])
            self._h0.flags.writeable = False

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

    def beta_at(self, x):
        """beta(x), or a stack of them for an array of points."""
        if self.beta_fn is not None:
            return np.asarray(self.beta_fn(x), dtype=complex)
        if self.beta is None:
            raise ValueError("no factored form present")
        if self._beta0 is not None:
            return _constant_at(self._beta0, x)
        return _interp_stack(self.x, self.beta, x)

    def hamiltonian(self, x):
        """H(x), or a stack of them for an array of points; Hermitian PSD up
        to interpolation rounding."""
        if self.h_fn is not None:
            return hermitian_part(np.asarray(self.h_fn(x), dtype=complex))
        if self._h0 is not None:
            return _constant_at(self._h0, x)
        if self.is_factored:
            b = self.beta_at(x)
            return _adj(b) @ b
        return hermitian_part(_interp_stack(self.x, self.h, x))

    @property
    def kinks(self):
        """Interior sample nodes where the slope of the interpolated samples
        (beta for factored data, H otherwise) changes by more than rounding.

        A node is a kink when its sample leaves the chord of its two
        neighbours by more than ``KINK_ROUNDING`` unit roundoffs of the
        largest sample entry; the departure is the slope change times a
        panel width.  Constant and exactly linear samples have none, and
        neither does a callable-backed spec, whose callable takes
        precedence over the samples.
        """
        if self.h_fn is not None or self.beta_fn is not None:
            return self.x[:0]
        v = self.beta if self.beta is not None else self.h
        x = self.x
        w = ((x[1:-1] - x[:-2]) / (x[2:] - x[:-2]))[:, None, None]
        off = np.abs(v[1:-1] - ((1.0 - w) * v[:-2] + w * v[2:])).max(axis=(1, 2))
        rounding = KINK_ROUNDING * 0.5 * np.finfo(float).eps * np.max(np.abs(v))
        return x[1:-1][off > rounding]


@dataclass
class CanonicalSystem:
    """System data: signature J, finite interval [a, b], base point xi in
    [a, b] (default a), Hamiltonian."""

    J: np.ndarray
    interval: tuple
    hamiltonian: HamiltonianSpec
    xi: float | None = None

    def __post_init__(self):
        self.J = ascomplex(self.J, "J", square=True)
        a, b = float(self.interval[0]), float(self.interval[1])
        _require_finite("interval", (a, b))
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        self.interval = (a, b)
        if self.xi is None:
            self.xi = a
        self.xi = float(self.xi)
        if not a <= self.xi <= b:  # a NaN xi fails too
            raise ValueError(f"xi = {self.xi} outside [{a}, {b}]")

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


def validate_system(sys):
    """Check J = J* = J^{-1}, the Hamiltonian's size, and H(x_j) PSD
    Hermitian at the sample nodes; H samples are checked as given, before
    :meth:`HamiltonianSpec.hamiltonian` takes their Hermitian part."""
    violations = []
    j_defect = _signature_defect(sys.J)
    if j_defect > 1e-12:
        violations.append(f"J is not a signature matrix (defect {j_defect:.2e})")
    spec = sys.hamiltonian
    if spec.m != sys.m:
        violations.append(f"Hamiltonian size {spec.m} != system size {sys.m}")
    h = spec.hamiltonian(spec.x)
    min_eig = float(np.linalg.eigvalsh(hermitian_part(h))[:, 0].min())
    defect = psd_defect(h)
    if spec.h is not None:
        defect = np.maximum(defect, np.linalg.norm(spec.h - _adj(spec.h), axis=(1, 2)))
    for j in np.flatnonzero(defect > PSD_TOL):
        violations.append(f"H not PSD Hermitian at x_{j} = {spec.x[j]}")
    return SystemReport(violations=violations, j_defect=j_defect, min_h_eig=min_eig)


@dataclass
class FundamentalSolution:
    """W(x, z) sampled on a grid, normalised to I at the base point.

    ``panels`` counts the factors of the last product (for ``method``
    "rk45", the solver's attempted steps over all pieces, of the joint
    solve for a batch of z); ``converged`` says whether the last
    refinement met the tolerance (False when a Magnus refinement stopped
    at the panel cap).  For a batch, ``z`` is the array of points and
    ``values`` stacks (len(z), len(grid), m, m).
    """

    z: complex | np.ndarray
    grid: np.ndarray
    values: np.ndarray
    method: str
    error_estimate: float
    J: np.ndarray
    xi: float
    panels: int
    converged: bool


def _stacked_steps(sol, method):
    """One piece's dense output, from its steps' interpolants stacked.

    Reads ``t_old``, ``h``, ``y_old`` and the coefficients, ``F`` for DOP853
    and ``Q`` for RK45, of the step interpolants of the ``OdeSolution``
    ``sol``, and stacks them.  A point takes its step by the OdeSolution's
    rule: a search of the sorted step ends, taking the step of lower index at
    a step end.  Scipy's interpolant formula (Hairer, Norsett & Wanner,
    Solving ODEs I, II.6 and II.10) then gives scipy's values bit for bit.
    DOP853's nested form is evaluated once over the stack.  RK45's is one
    BLAS product of Q with the powers of the step's points, which rounds as
    a fused multiply-add chain that no stacked numpy product reproduces, so
    it keeps scipy's one product per step that has points.  Returns the
    evaluator, which maps a 1-D array of points to a (points, states) array.
    """
    steps = sol.interpolants
    last = len(steps) - 1
    ts, ascending = sol.ts_sorted, sol.ascending
    side = "left" if ascending else "right"
    t_old = np.array([step.t_old for step in steps])
    h = np.array([step.h for step in steps])
    y_old = np.array([step.y_old for step in steps])
    dop853 = method == "DOP853"
    coef = np.array([step.F if dop853 else step.Q for step in steps])

    def evaluate(t):
        seg = np.clip(ts.searchsorted(t, side) - 1, 0, last)
        if not ascending:
            seg = last - seg
        x = ((t - t_old[seg]) / h[seg])[:, None]
        if dop853:
            # sum_k F_k x^(floor(k/2) + 1) (1 - x)^ceil(k/2), nested from k = 6 down
            f = coef[seg]
            y = np.zeros(f[:, 0].shape, dtype=f.dtype)
            for i in range(f.shape[1]):
                y += f[:, -1 - i]
                y *= x if i % 2 == 0 else 1 - x
        else:
            # h Q (x, x^2, x^3, x^4), one product per step as scipy makes it
            powers = np.cumprod(np.repeat(x.T, coef.shape[2], axis=0), axis=0)
            y = np.empty((coef.shape[1], t.size), dtype=coef.dtype)
            for j in np.unique(seg):
                at = np.flatnonzero(seg == j)
                y[:, at] = h[j] * np.dot(coef[j], powers[:, at])
            y = y.T
        y += y_old[seg]
        return y

    return evaluate


def integrate_matrix_ode(rhs, xi, y0, grid, rtol, atol, method, kinks):
    """Integrate a flat complex ODE both directions from xi over a grid.

    ``method`` names scipy's explicit tableau, "RK45" or "DOP853".  A
    right-hand side built on interpolated samples is smooth only between
    its ``kinks``: each direction restarts at every kink between xi and
    its outermost grid point, so no step straddles one, and the solver
    pays no rejected steps there.  Returns (values_at_grid,
    dense_evaluator, total_steps), the steps counting every attempted step
    of every piece; the dense evaluator takes a point or an array of
    points.  It keeps no ``OdeSolution``: each piece keeps the ``t_old``,
    ``h``, ``y_old`` and ``F`` (DOP853) or ``Q`` (RK45) of its step
    interpolants as stacked arrays, and evaluates all its points at once
    (see :func:`_stacked_steps`).
    """
    grid = np.asarray(grid, dtype=float)
    kinks = np.asarray(kinks, dtype=float)
    per_step, per_dense_step = RHS_EVALS_PER_STEP[method]
    pieces = []  # (hi, stacked dense output) of each piece, both directions
    steps = 0
    for sign in (-1.0, 1.0):
        ahead = sign * (grid - xi) > 1e-15
        if not np.any(ahead):
            continue
        end = grid[ahead].max() if sign > 0 else grid[ahead].min()
        inner = kinks[(sign * (kinks - xi) > 1e-15) & (sign * (end - kinks) > 1e-15)]
        ends = np.concatenate([[xi], sign * np.sort(sign * inner), [end]])
        y = y0
        for t0, t1 in zip(ends[:-1], ends[1:]):
            sol = solve_ivp(rhs, (t0, t1), y, method=method, rtol=rtol, atol=atol,
                            dense_output=True)
            if not sol.success:
                raise RuntimeError(f"integrator failed: {sol.message}")
            y = sol.y[:, -1]
            pieces.append((max(t0, t1), _stacked_steps(sol.sol, method)))
            # one evaluation at t0, one choosing the first step, per_step per
            # attempted step and per_dense_step per accepted (dense) step
            accepted = len(sol.sol.ts) - 1
            steps += (sol.nfev - 2 - per_dense_step * accepted) // per_step
    pieces.sort(key=lambda piece: piece[0])
    his = np.array([hi for hi, _ in pieces])
    # the integrated range; with no piece, only xi itself
    lo, hi = (min(xi, grid.min()), his[-1]) if pieces else (np.inf, -np.inf)

    def dense(x):
        # a point or an array of x; one vectorised call per piece it meets
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        out = np.empty((flat.size, y0.size), dtype=complex)
        at_xi = np.abs(flat - xi) <= 1e-15
        out[at_xi] = y0
        todo = np.flatnonzero(~at_xi)
        if todo.size:
            t = flat[todo]
            outside = (t < lo - 1e-12) | (t > hi + 1e-12)
            if outside.any():
                raise ValueError(f"x = {t[outside][0]} outside the integrated range")
            which = np.minimum(his.searchsorted(t), his.size - 1)
            for j in np.unique(which):
                sel = which == j
                out[todo[sel]] = pieces[j][1](t[sel])
        return out.reshape(x.shape + y0.shape)

    return dense(grid), dense, steps


def fundamental_solution(sys, z, grid=None, tol=ODE_TOL, method="magnus"):
    """Fundamental solution W(., z) on a grid, normalised to I at xi.

    Parameters
    ----------
    sys : CanonicalSystem
    z : complex or 1-D array of complex
        Hidden spectral point, or (``method="rk45"`` only) a batch of them;
        each must stay at least ``DISTANCE_TOL`` away from the cut [a, b]
        (boundary_values manages closer approaches itself).  A batch gives
        ``z`` as that array and ``values`` stacked (len(z), len(grid), m, m).
    grid : array, optional
        Output sample points (default: 201 points spanning [a, b]).
    tol : float
        Error target (see ``method``).
    method : {"magnus", "rk45"}
        "magnus" reads W off one ordered product of the Magnus factors of
        :func:`_magnus_exponents` over panels that hold the grid, the
        sample nodes and xi and are graded towards Re z with ratio 1/2
        (see :func:`_log_weight_product`).  Every panel is halved at its
        midpoint (the first two levels in one pass of the kernel, which
        takes H once at their 4P + 1 distinct points and multiplies both
        out in one scan) until two successive
        products differ by at most ``tol`` at every grid
        point or a product has more than ``MAX_CUT_PANELS`` factors;
        ``error_estimate`` is that last difference plus the rounding floor
        ``ROUNDING_GROWTH`` u P max |W| (u the unit roundoff, P the
        panels), which bounds the error where H commutes and both products
        are exact up to rounding.  Halving only the grading ratio, as
        :func:`boundary_values` does, would never refine the panels
        between grid and sample nodes, and the difference would miss
        their error.  The panels are graded towards one Re z, so there is
        no product to share across a batch: an array z raises ValueError.
        "rk45" is adaptive Runge-Kutta (scipy's RK45) with local error
        target ``tol``, the route independent of the Magnus kernel; it
        restarts at every kink of the data (see
        :func:`integrate_matrix_ode`), and ``panels`` counts its attempted
        steps over all pieces.  A batch of K points is one stacked solve,
        H(x) evaluated once per step for all of them, with rtol and atol
        divided by sqrt(K): scipy accepts a step when the RMS norm of its
        scaled error over all K m^2 components is at most 1, so each
        point's own RMS norm is then at most 1 at its solo tolerances, and
        every point is controlled at least as tightly as when it is solved
        alone; ``panels`` counts the joint solve's steps.  Its
        ``error_estimate``, ``tol`` times those steps (one figure for the
        whole batch), is a heuristic: it bounded the largest grid error by
        factors of 1.4 to 56 against the rank-one closed form (|Im z| from
        1e-5 to 3, tol from 1e-8 to 1e-13), and by 2.9 to 14 on beta
        samples with a kink at every node (48 solves near and off the cut
        at tol 1e-10, errors 6e-10 to 1.3e-8).  One solve across the kinks
        had read up to 6.5x low there.
    """
    batch = np.ndim(z) > 0
    points = [complex(p) for p in np.ravel(z)] if batch else [complex(z)]
    if np.ndim(z) > 1 or not points:
        raise ValueError("z must be a point or a non-empty 1-D array of points")
    _require_finite("z", points)
    _require_tol(tol)
    for point in points:
        if _cut_distance(point, sys.interval) < DISTANCE_TOL:
            raise SpectralPointError(f"z = {point} is within {DISTANCE_TOL} of the cut")
    grid = _checked_grid(grid, sys.interval)
    m = sys.m
    J = sys.J
    if method == "magnus":
        if batch:
            raise ValueError("method 'magnus' takes one z: its panels are graded "
                             "towards Re z; batch z with method 'rk45'")
        z = points[0]
        values, panels, diffs = _refine(
            lambda levels: _log_weight_product(sys, grid, z, levels), tol
        )
        converged = bool(diffs[-1] <= tol)
        # two products exact up to rounding can differ by less than their error
        unit_roundoff = 0.5 * np.finfo(float).eps
        error = diffs[-1] + ROUNDING_GROWTH * unit_roundoff * panels * float(
            np.max(np.linalg.norm(values, axis=(-2, -1)))
        )
    elif method == "rk45":
        spec = sys.hamiltonian
        k = len(points)

        def rhs(x, y):
            # Python complex divisions: an array division differs in the last
            # bit, and a scalar z must round as 1j / (z - x) does
            weights = np.array([1j / (point - x) for point in points])
            w = y.reshape(k, m, m)
            return (weights[:, None, None] * (J @ spec.hamiltonian(x) @ w)).ravel()

        y0 = np.tile(np.eye(m, dtype=complex).ravel(), k)
        split = np.sqrt(k)
        flat, _, panels = integrate_matrix_ode(
            rhs, sys.xi, y0, grid, tol / split, tol * 1e-2 / split, "RK45", spec.kinks
        )
        values = flat.reshape(grid.size, k, m, m).swapaxes(0, 1)
        if not batch:
            values = values[0]
        error = tol * max(1, panels)
        converged = True  # the solver raises when it cannot meet tol
    else:
        raise ValueError(f"method must be 'magnus' or 'rk45', not {method!r}")
    return FundamentalSolution(
        z=np.array(points) if batch else points[0],
        grid=grid,
        values=values,
        method=method,
        error_estimate=error,
        J=J,
        xi=sys.xi,
        panels=panels,
        converged=converged,
    )


def _expm_small(omega):
    """exp of an entries-leading (m, m, ...) stack of m x m matrices, in
    closed form for m = 2.

    Omega = tau I + N with tau = tr Omega / 2 leaves N = [[p, q], [r, -p]]
    traceless, so N^2 = delta^2 I with delta^2 = p^2 + q r = -det N, and
    Cayley-Hamilton gives exp(Omega) = e^tau (cosh delta I +
    (sinh delta / delta) N) (Moler & Van Loan 2003).  Both coefficients
    are even in delta, so the branch of the square root does not matter;
    below |delta| = 1e-4 their Taylor series to delta^2 replace the
    quotient (the delta^4 terms are below 2^-53 there).  Other sizes go
    to scipy.linalg.expm.
    """
    omega = np.asarray(omega, dtype=complex)
    if omega.shape[0] != 2:
        import scipy.linalg

        expm = scipy.linalg.expm(np.moveaxis(omega, (0, 1), (-2, -1)))
        return np.moveaxis(expm, (-2, -1), (0, 1))
    tau = 0.5 * (omega[0, 0] + omega[1, 1])
    p = 0.5 * (omega[0, 0] - omega[1, 1])
    d2 = p * p + omega[0, 1] * omega[1, 0]
    delta = np.sqrt(d2)
    small = np.abs(delta) < 1e-4
    delta = np.where(small, 1.0, delta)  # the series replaces these entries
    cosh = np.where(small, 1.0 + 0.5 * d2, np.cosh(delta))
    sinhc = np.where(small, 1.0 + d2 / 6.0, np.sinh(delta) / delta)
    scale = np.exp(tau)
    cosh, sinhc = scale * cosh, scale * sinhc
    out = np.empty_like(omega)
    out[0, 0] = cosh + sinhc * p
    out[1, 1] = cosh - sinhc * p
    out[0, 1] = sinhc * omega[0, 1]
    out[1, 0] = sinhc * omega[1, 0]
    return out


def _mul(a, b):
    """a @ b for entries-leading stacks of small matrices: (m, k, ...)
    times (k, p, ...) is (m, p, ...), the stack axes broadcasting.  Two
    plain matrices multiply as they are; a single matrix times a stack
    takes a trailing axis of length 1 (``J[..., None]``).

    A sum over the inner index of broadcast products, each one ufunc call
    over the whole stack.  With the stack axis last, each call runs one
    long inner loop; laid out (n, m, m), the same products run inner
    loops of length m.  For two m = 2 stacks that layout is 2.6x slower
    at n = 300 and 3.1x at n = 2048 (35 us against 108 us), and one 2 x 2
    matrix times 1199 of them takes 11 us here, 65 us in that layout and
    316 us as a stacked ``matmul`` (timeit, one core).
    """
    out = a[:, 0, None] * b[None, 0]
    for l in range(1, a.shape[1]):
        out += a[:, l, None] * b[None, l]
    return out


def _ordered_product(factors):
    """Partial products F_j ... F_0 of an entries-leading (m, m, ..., n)
    stack of factors, any batch axes between the entries and the factor
    axis scanned side by side.

    Later factors multiply from the left.  Returns the (m, m, ..., n + 1)
    stack that starts with the identity.  This one scan serves the Magnus
    products (factors exp(Omega_j)).  It is the work-efficient scan of
    Blelloch ("Prefix sums and their applications", 1990), in place over
    strided views: the up-sweep leaves in slot i the product of the p
    factors ending there, p the largest power of two dividing i + 1, and
    the down-sweep completes each remaining slot from the finished prefix
    before it; about 2n products in 2 log2 n calls of :func:`_mul`, each
    over the whole batch.  Every product is elementwise over the batch,
    so each batch gets the bits of its own scan.
    """
    m, n = factors.shape[0], factors.shape[-1]
    out = np.empty(factors.shape[:-1] + (n + 1,), dtype=complex)
    out[..., 0] = np.eye(m).reshape((m, m) + (1,) * (factors.ndim - 3))
    acc = out[..., 1:]
    acc[...] = factors
    d = 1
    while 2 * d <= n:  # up-sweep: slot 2kd - 1 takes the d factors before its own
        acc[..., 2 * d - 1::2 * d] = _mul(acc[..., 2 * d - 1::2 * d],
                                          acc[..., d - 1:n - d:2 * d])
        d *= 2
    while d > 1:  # down-sweep: slot (2k + 1)d - 1 takes the prefix d before it
        d //= 2
        acc[..., 3 * d - 1::2 * d] = _mul(acc[..., 3 * d - 1::2 * d],
                                          acc[..., 2 * d - 1:n - d:2 * d])
    return out


def _total_product(factors):
    """F_n-1 ... F_0 of a non-empty entries-leading (m, m, n) stack of
    factors, by pairwise halving: n - 1 products and no partial products.
    Returns the (m, m) product."""
    acc = np.asarray(factors, dtype=complex)
    while acc.shape[-1] > 1:
        n = acc.shape[-1]
        paired = _mul(acc[..., 1::2], acc[..., :n - 1:2])
        if n % 2:  # the unpaired last factor joins the last pair
            paired[..., -1:] = _mul(acc[..., -1:], paired[..., -1:])
        acc = paired
    return acc[..., 0].copy()


def product_integral(sys, z, partition):
    """Multiplicative integral over a partition of [a, x] (xi = a).

    The ordered product of the fourth-order Magnus factors of
    :func:`_magnus_exponents` on the partition's panels, later panels
    multiplying from the left, realises the curved-arrow product; each
    factor is exact when the values of H commute on its panel (constant
    or scalar-profile H).  The error estimate comes from one partition
    halving, in the same pass of the kernel (:func:`_level_products`): H
    is taken once at the 4n + 1 distinct ends and midpoints of both, and
    since the halving is compared only at the partition, each panel's two
    half-panel factors are multiplied first and one scan multiplies out
    both.  A panel an ulp wide halves into itself and a zero-width half,
    whose factor is I.
    """
    z = complex(z)
    _require_finite("z", z)
    a, b = sys.interval
    if abs(sys.xi - a) > 1e-12:
        raise ValueError("product integral uses the left-endpoint convention xi = a")
    if _cut_distance(z, sys.interval) < DISTANCE_TOL:
        raise SpectralPointError(f"z = {z} is within {DISTANCE_TOL} of the cut")
    partition = np.asarray(partition, dtype=float)
    _require_finite("partition", partition)
    if partition.ndim != 1 or partition.size < 2 or np.any(np.diff(partition) <= 0):
        raise ValueError("partition must be strictly increasing with >= 2 points")
    if abs(partition[0] - a) > 1e-12:
        raise ValueError("partition must start at the base point a")
    if partition[-1] > b + 1e-12:
        raise ValueError(f"partition must lie within [{a}, {b}]")

    products = _level_products(sys, z, partition, (0, 1))
    values = products[:, :, 0]
    fine = products[:, :, 1]
    fine -= values
    # halving difference times the order->=1 Richardson safety factor
    err = 2.0 * float(np.max(np.linalg.norm(fine, axis=(0, 1))))
    return FundamentalSolution(
        z=z,
        grid=partition,
        values=values.transpose(2, 0, 1),  # the public (n + 1, m, m) stack
        method="product_integral",
        error_estimate=err,
        J=sys.J,
        xi=sys.xi,
        panels=partition.size - 1,
        converged=True,
    )


def j_monotonicity_defect(sol):
    """Violation of the J-form monotonicity of W along the grid.

    For Im z > 0 the form W* J W - J must be PSD (J-expanding), for
    Im z < 0 the mirrored form J - W* J W must be, and for real z off the
    cut W is exactly J-unitary; returned is the worst grid violation
    (negative-eigenvalue magnitude, or the J-unitarity defect for real z).
    """
    J, w = sol.J, sol.values
    g = _adj(w) @ J @ w - J
    if abs(sol.z.imag) < 1e-13:
        return float(np.linalg.norm(g, axis=(1, 2)).max())
    g = hermitian_part(g if sol.z.imag > 0 else -g)
    return max(0.0, -float(np.linalg.eigvalsh(g)[:, 0].min()))


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


def _graded_breakpoints(nodes, lo, hi, z, rho):
    """Panel ends on [lo, hi] graded geometrically towards c = Re z (clipped).

    The ends are the nodes, c itself and the points c +/- d_k with
    d_k = delta (1 + rho)^k, so a panel at distance d from c is at most
    rho d wide.  The innermost half-width delta shrinks like rho^4; it
    stays below half the distance from c to the nearest other node, so
    the two panels meeting at c lie on one sample panel each, and below
    rho |z - c|, rho times the distance of z from [lo, hi].
    """
    c = min(max(z.real, lo), hi)
    fixed = np.concatenate([[lo, hi], nodes[(nodes > lo) & (nodes < hi)]])
    delta = min(rho**4 * (hi - lo), 0.5 * np.min(np.abs(fixed[fixed != c] - c)))
    if z != c:
        delta = min(delta, rho * abs(z - c))
    count = int(np.ceil(np.log((hi - lo) / delta) / np.log1p(rho)))
    d = delta * (1.0 + rho) ** np.arange(count + 1)
    t = np.unique(np.concatenate([fixed, [c], c - d, c + d]))
    return t[(t >= lo) & (t <= hi)]


def _log1p(w):
    """ln(1 + w), accurate for small complex w (numpy's complex log1p is not)."""
    return 0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2) + 1j * np.arctan2(
        w.imag, 1.0 + w.real
    )


def _halved(t):
    """The breakpoints t with each panel's midpoint 0.5 (t0 + t1) between
    its ends: a panel set and its halving, or a panel set's ends and
    midpoints in the order :func:`_magnus_exponents` reads them."""
    out = np.empty(2 * t.size - 1)
    out[::2] = t
    out[1::2] = 0.5 * (t[:-1] + t[1:])
    return out


def _magnus_exponents(sys, z, points, levels):
    """Fourth-order Magnus exponents Omega_j of the panels of every level
    of ``levels``, from one H call on ``points``; returns the exponents of
    all levels side by side, as one entries-leading (m, m, P) stack, H at
    the panel midpoints as another, and the list of each level's panel
    counts.

    A level is a slice of ``points`` that runs t_0, mid_0, t_1, ..., t_n:
    the ends of its n panels with each panel's midpoint between them (see
    :func:`_halved`).  So a panel set and its halving share one array, the
    ends and midpoints of the halving, of which the panel set reads every
    other point, and each level's H(t0), H(mid) and H(t1) are strided
    views of the one H stack.  The views are read once, into the
    quadratic's coefficients and H(mid) of all levels, and H is released.
    A half of a panel an ulp wide can have zero width; its Omega is 0.

    Omega_j is i J int H(t) / (z - t) dt, integrated exactly for the
    quadratic through H at the panel's ends and midpoint (exact for
    constant, beta-grid and h-grid data between sample nodes), plus the
    two-point Gauss commutator (sqrt(3) h^2 / 12) [A(g2), A(g1)] of
    fourth-order Magnus, A = i J H / (z - t) (Blanes, Casas, Oteo & Ros
    2009), with H at the Gauss points g1, g2 read off the same quadratic.
    H is Hermitian (beta* beta, or the Hermitian part of the data) and so
    is J, so with M = H(g2) J H(g1) the commutator is
    -J (M - M*) / ((z - g1) (z - g2)), and
    Omega_j = J (i int H / (z - t) dt - c (M - M*)) with
    c = (sqrt(3) h^2 / 12) / ((z - g1) (z - g2)) = sqrt(3) / (3 zeta^2 - 1),
    zeta = (z - t_mid) / (h / 2): one stacked product and one product
    with J per exponent.  That is exact on grid data; for a callable H
    its O(h^3) error enters only the commutator, which carries h^2, so
    the factor stays fourth order.  The build updates its stacks in place
    and releases each once used, so a pass peaks at about ten (m, m, P)
    stacks.  exp(Omega_n-1) ... exp(Omega_0) approximates the propagator
    W(t_n, z) W(t_0, z)^{-1}.  For real z inside a panel the integral is
    its principal value, the real part of the logarithm; the limits
    z +/- i0 add -/+ i pi H(z) to it (see :func:`_cut_limits`).
    """
    spec, J = sys.hamiltonian, sys.J[..., None]
    z = complex(z)
    runs = [points[level] for level in levels]
    counts = [run.size // 2 for run in runs]
    t0 = np.concatenate([run[:-1:2] for run in runs])
    mid = np.concatenate([run[1::2] for run in runs])
    t1 = np.concatenate([run[2::2] for run in runs])
    # H is (points, m, m); the kernel reads it entries-leading, through views
    h = spec.hamiltonian(points).transpose(1, 2, 0)
    hm = np.empty(h.shape[:2] + (t0.size,), dtype=complex)
    c1, c2 = np.empty_like(hm), np.empty_like(hm)
    start = 0
    for level, count in zip(levels, counts):
        at, into = h[..., level], slice(start, start + count)
        hm[..., into] = at[..., 1::2]
        np.subtract(at[..., 2::2], at[..., :-1:2], out=c1[..., into])
        np.add(at[..., 2::2], at[..., :-1:2], out=c2[..., into])
        start += count
    del h, at
    # H = hm + c1 tau + c2 tau^2 in tau = (t - mid) / half, and
    # int tau^k / (zeta - tau) dtau over [-1, 1] gives, with
    # log = ln((zeta + 1) / (zeta - 1)) = ln((z - t0) / (z - t1)):
    # int H / (z - t) dt = H(zeta) log - 2 q, q = c1 + c2 zeta
    c1 *= 0.5
    c2 *= 0.5
    c2 -= hm
    half = 0.5 * (t1 - t0)
    empty = np.flatnonzero(half == 0.0)
    half[empty] = np.inf  # zeta = 0 keeps the arithmetic finite; Omega = 0 below
    zeta = (z - mid) / half
    log = _log1p((t1 - t0) / (z - t1))
    if z.imag == 0.0:  # the principal value on a panel holding z
        log = log.real
    q = zeta * c2
    q += c1
    weighted = zeta * q
    weighted += hm
    weighted *= log
    q *= 2.0
    weighted -= q
    del q
    # H at the Gauss points tau = -/+ 1/sqrt(3), read off the same quadratic,
    # and M = H(g2) J H(g1)
    sqrt3 = np.sqrt(3.0)
    c1 /= sqrt3
    c2 /= 3.0
    m_diff = _mul(J, hm - c1 + c2)
    h_g2 = c1
    h_g2 += hm
    h_g2 += c2
    del c1, c2
    m_diff = _mul(h_g2, m_diff)  # M
    del h_g2
    m_diff -= m_diff.conj().transpose(1, 0, 2)
    m_diff *= sqrt3 / (3.0 * zeta * zeta - 1.0)  # c (M - M*)
    weighted *= 1j
    weighted -= m_diff
    omega = _mul(J, weighted)
    omega[..., empty] = 0.0
    return omega, hm, counts


def _level_products(sys, z, t, levels):
    """Partial products of the Magnus factors at the breakpoints t, for
    each level of ``levels`` (every panel of t halved ``level`` times at
    its midpoint), from one pass of :func:`_magnus_exponents`: an
    entries-leading (m, m, len(levels), t.size) stack, each level's
    starting with the identity.

    One H call takes the ends and midpoints of the finest level's panels,
    every coarser level reading every other point of the next (a panel
    set and its halving: 4P + 1 points for P panels).  Each level's
    factors are multiplied in pairs down to one factor per panel of t,
    and one :func:`_ordered_product` scans all levels.  Read at t, that
    is the level's own scan bit for bit: the first ``level`` steps of its
    up-sweep are these pairings, and the rest fill the slots at t as the
    scan over the paired factors does.
    """
    finest = levels[-1]
    points = t
    for _ in range(finest + 1):
        points = _halved(points)
    omega, _, counts = _magnus_exponents(
        sys, z, points, [slice(None, None, 2 ** (finest - level)) for level in levels]
    )
    factors = _expm_small(omega)
    paired = np.empty(factors.shape[:2] + (len(levels), t.size - 1), dtype=complex)
    start = 0
    for i, (level, count) in enumerate(zip(levels, counts)):
        f = factors[..., start:start + count]
        for _ in range(level):  # each panel's two halves as one factor
            f = _mul(f[..., 1::2], f[..., ::2])
        paired[:, :, i] = f
        start += count
    return _ordered_product(paired)


def _log_weight_product(sys, x, z, levels):
    """W(x, z) at a point or an array of points x, and its panel count,
    for each level of ``levels`` (every panel of the grading towards Re z
    with ratio 1/2 halved ``level`` times), from one pass of the kernel
    (:func:`_level_products`).

    The graded breakpoints hold x, xi and the sample nodes, so with P the
    partial products from the leftmost of them, W(x) = P(x) P(xi)^{-1},
    read off every level's products at the graded breakpoints with
    :func:`_mul`.
    """
    z = complex(z)
    x = np.asarray(x, dtype=float)
    ends = np.append(x.ravel(), sys.xi)
    lo, hi = ends.min(), ends.max()
    if lo == hi:
        return [(np.zeros(x.shape + (sys.m, sys.m), dtype=complex) + np.eye(sys.m), 0)
                for _ in levels]
    t = _graded_breakpoints(np.concatenate([sys.hamiltonian.x, ends]), lo, hi, z, 0.5)
    products = _level_products(sys, z, t, levels)
    index = np.searchsorted(t, ends)
    out = []
    for i, level in enumerate(levels):
        at = products[:, :, i][..., index]
        w = _mul(at[..., :-1], np.linalg.inv(at[..., -1])[..., None])
        out.append((w.transpose(2, 0, 1).reshape(x.shape + w.shape[:2]),
                    (t.size - 1) * 2**level))
    return out


def _cut_limits(sys, x, s, levels):
    """The cut limits W(x, s + i0) and W(x, s - i0), stacked, and their
    panel count, for each level of ``levels`` (grading ratio
    2^-(level + 1)), from one pass of :func:`_magnus_exponents` at z = s.

    Each level's breakpoints are graded towards s by
    :func:`_graded_breakpoints`, with s itself dropped, so when s lies
    inside the cut one symmetric panel straddles it.  Its exponent Omega_s
    takes the principal value of the weight integral, and the limits add
    -/+ i pi H(s) to that integral, so with T_L and T_R the total products
    of the factors left and right of that panel,

        W(x, s +/- i0) = T_R exp(Omega_s +/- pi J H(s)) T_L

    for xi < x, and its inverse for x < xi.  Outside the cut both limits
    are the one total product.
    """
    lo, hi = min(sys.xi, x), max(sys.xi, x)
    if lo == hi:
        return [(np.stack([np.eye(sys.m, dtype=complex)] * 2), 0) for _ in levels]
    nodes = np.concatenate([sys.hamiltonian.x, [lo, hi]])
    sets = [t[t != s] for t in (
        _graded_breakpoints(nodes, lo, hi, complex(s), 0.5 ** (level + 1)) for level in levels
    )]
    bounds = np.cumsum([0] + [2 * t.size - 1 for t in sets])
    omega, h_mid, counts = _magnus_exponents(
        sys, s, np.concatenate([_halved(t) for t in sets]),
        [slice(i, j) for i, j in zip(bounds[:-1], bounds[1:])]
    )
    starts = np.cumsum([0] + counts[:-1])
    inside = lo < s < hi
    if inside:  # the straddling panels get the + limit; the - limits go last
        k = starts + [np.searchsorted(t, s) - 1 for t in sets]
        pi_jh = np.pi * _mul(sys.J[..., None], h_mid[..., k])
        omega = np.concatenate([omega, omega[..., k] - pi_jh], axis=-1)
        omega[..., k] += pi_jh
    factors = _expm_small(omega)
    out = []
    for i, (start, count) in enumerate(zip(starts, counts)):
        if inside:
            j = k[i]
            left = _total_product(factors[..., start:j])
            right = _total_product(factors[..., j + 1:start + count])
            w = right @ np.stack([factors[..., j], factors[..., i - len(k)]]) @ left
        else:
            w = np.stack([_total_product(factors[..., start:start + count])] * 2)
        out.append((np.linalg.inv(w) if x < sys.xi else w, count))
    return out


def _refine(product, tol):
    """Refine until two successive values agree.

    ``product(levels)`` returns ``(values, panels)`` for each level of
    ``levels``: W on a grid for :func:`fundamental_solution`, the stacked
    pair of cut limits for :func:`boundary_values`.  Levels 0 and 1, which
    every refinement needs, come from one call, which the callers serve
    with one pass of the kernel (a panel set and its halving for the
    first, two gradings that share one H call for the second); later
    levels come one call each, until
    two successive values differ by at most ``tol`` in
    Frobenius norm at every point, a product has more than
    ``MAX_CUT_PANELS`` factors, or the difference is not finite (it never
    falls again then).  Returns the last ``(values, panels)`` and the list
    of differences.
    """
    (previous, _), (values, panels) = product((0, 1))
    level, diffs = 1, []
    while True:
        diffs.append(float(np.max(np.linalg.norm(values - previous, axis=(-2, -1)))))
        if diffs[-1] <= tol or panels > MAX_CUT_PANELS or not np.isfinite(diffs[-1]):
            return values, panels, diffs
        previous = values
        level += 1
        [(values, panels)] = product((level,))


def boundary_values(sys, x, s, tol=ODE_TOL):
    """Cut limits W(x, s +/- i0) from exact-log-weight Magnus products.

    Both limits of a level share every factor but the one whose panel
    straddles s (see :func:`_cut_limits`), over panels graded towards s.
    The grading ratio rho halves from 1/2 until two successive
    results differ by at most ``tol`` or a product would exceed
    ``MAX_CUT_PANELS``; ``extrapolation_error`` is that last difference
    (rounding level for commuting H, where every product is exact).  Each
    level is one pass of the kernel, and the first two levels one pass
    together (see :func:`_refine`).  The
    innermost half-width shrinks like rho^4 because the error of the
    factor straddling s falls only like its square; halving every panel
    instead, as :func:`fundamental_solution` does off the cut, gains
    only 2-3x per halving there.
    The cut of W(x, .) runs between xi and x: ``s`` must keep
    ``CUT_MARGIN (b - a)`` from both its ends, where the limits
    degenerate; s outside the cut reproduces the off-cut analyticity
    (jump = I).  Successive differences that grow above ``100 tol`` flag
    the report divergent instead of raising.
    """
    _require_finite("x", x)
    _require_finite("s", s)
    _require_tol(tol)
    a, b = sys.interval
    if not a < x <= b:
        raise ValueError(f"x = {x} outside ({a}, {b}]")
    margin = CUT_MARGIN * (b - a)
    if min(abs(s - sys.xi), abs(s - x)) < margin:
        raise ValueError(
            f"s = {s} within margin {margin} of a cut endpoint; limits degenerate"
        )
    (w_plus, w_minus), panels, diffs = _refine(
        lambda levels: _cut_limits(sys, x, s, levels), tol
    )
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


def _block_norms(blocks):
    """Spectral norm of each k x k block of a stack: |b| when k = 1, where a
    batched SVD would cost some 1.5 us per scalar, and the largest singular
    value otherwise."""
    if blocks.shape[-1] == 1:
        return np.abs(blocks[..., 0, 0])
    return np.linalg.svd(blocks, compute_uv=False)[..., 0]


def _degeneracy(spec, J):
    """The degeneracy test of :func:`kernel_bound`, without its supremum.

    Returns the factor's samples beta, |beta J beta*| at each of them and
    whether the kernel is degenerate: the largest of these at most
    ``DEGENERACY_TOL`` times the data scale max(1, max |beta|_F^2).  The
    kernel that fails the test is the one :func:`kernel_bound` reports as
    +inf; on finite samples, barring overflow, the two agree.
    """
    if not spec.is_factored:
        raise ValueError("kernel bound needs the factored form beta")
    beta = spec.beta if spec.beta is not None else spec.beta_at(spec.x)
    own = np.einsum("iam,mn,ibn->iab", beta, J, beta.conj())  # beta_i J beta_i*
    diag = _block_norms(own)
    scale = max(1.0, float(np.max(np.linalg.norm(beta, axis=(1, 2)))) ** 2)
    return beta, diag, not (float(np.max(diag)) > DEGENERACY_TOL * scale)


def kernel_bound(spec, J):
    """Grid supremum of the divided-difference kernel norm.

    Adjacent sample pairs supply the divided-difference limit on the
    diagonal t -> x.  A non-degenerate kernel (sup |beta J beta*| above
    ``DEGENERACY_TOL`` times the data scale, the test of
    :func:`_degeneracy`) makes the supremum diverge like 1/(x - t); it is
    reported as +inf with a diagnostic, and no pair is formed.  The pairs
    are visited in row chunks of about ``KERNEL_CHUNK_PAIRS``, so memory
    stays bounded however many samples the factor has.
    """
    beta, diag, degenerate = _degeneracy(spec, J)
    x = spec.x
    degeneracy = float(np.max(diag))
    if not degenerate:
        return KernelBoundReport(
            sup_bound=np.inf,
            argmax_pair=(float(x[int(np.argmax(diag))]),) * 2,
            degeneracy_defect=degeneracy,
            diagnostic="beta J beta* != 0: kernel is not degenerate, "
            "divided differences diverge on the diagonal",
        )
    # rows i0 <= i < i1 against the columns j < i, in tril_indices order;
    # a later chunk replaces the maximum only when strictly larger
    best, pair = -np.inf, None
    rows = max(1, KERNEL_CHUNK_PAIRS // x.size)
    for i0 in range(1, x.size, rows):
        i1 = min(i0 + rows, x.size)
        corr = np.einsum("iam,mn,jbn->ijab", beta[i0:i1], J, beta[:i1 - 1].conj())
        norms = _block_norms(corr)
        i, j = np.arange(i0, i1)[:, None], np.arange(i1 - 1)[None, :]
        below = j < i
        ratios = np.full(norms.shape, -np.inf)
        ratios[below] = norms[below] / (x[i] - x[j])[below]
        flat = int(np.argmax(ratios))
        if ratios.flat[flat] > best:
            best = float(ratios.flat[flat])
            r, c = divmod(flat, i1 - 1)
            pair = (float(x[i0 + r]), float(x[c]))
    return KernelBoundReport(sup_bound=best, argmax_pair=pair, degeneracy_defect=degeneracy)
