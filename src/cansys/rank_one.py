"""Closed forms for the constant rank-one seed scenario.

The scenario lives on ``[0, b]`` with base point 0, signature matrix
``J = [[0, 1], [1, 0]]`` and the constant Hamiltonian ``H = beta* beta``
built from the single row ``beta = [1, i]``.  The degeneracy
``beta J beta* = 0`` makes everything solvable in closed form with
logarithmic ingredients:

* the fundamental solution is ``W(x, z) = I + L(x, z) N`` with
  ``L = ln(z / (z - x))`` and a nilpotent ``N``,
* the dressing triple for a diagonal pole matrix ``B = diag(b_1..b_n)``
  reduces to two parameter vectors ``g, h`` and logs ``ln(b_i - x)``,
* boundary values on the cut jump by the constant factor
  ``R^2 = I + 2 pi J beta* beta``.

These formulas are the independent oracles for the generic machinery in
:mod:`cansys.system`, :mod:`cansys.gbdt` and :mod:`cansys.triangular`,
and they power the bundled demo scenario.

Branch convention: every logarithm is continued continuously in ``x``
starting from its principal value at ``x = 0``.  All admissible
arguments (``z`` off ``[0, b]``, poles ``b_i`` off ``[0, b]``) move the
log argument along a horizontal segment that never crosses the
principal cut transversally, so ``numpy.log`` already realises the
continuous branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError, _adj, solve

#: The constant 1x2 factor of the rank-one Hamiltonian.
BETA = np.array([[1.0, 1j]])

#: Signature matrix of the scenario.
J = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: Stacked frame T = [beta; beta J]; satisfies T J T* = 2 J.
T = np.array([[1.0, 1j], [1j, 1.0]])
T_INV = 0.5 * np.array([[1.0, -1j], [-1j, 1.0]])

#: Nilpotent direction of the fundamental solution: W = I + L*N, N^2 = 0.
_NILPOTENT = np.array([[1.0, 1j], [1j, -1.0]])


class BranchCutError(ValueError):
    """Evaluation point sits on (or crosses) the logarithmic cut."""


def hamiltonian():
    """The constant Hamiltonian beta* beta (rank one, PSD)."""
    return BETA.conj().T @ BETA


def make_system(b=1.0):
    """Canonical system of the scenario on ``[0, b]`` with base point 0."""
    from .system import CanonicalSystem, HamiltonianSpec

    if b <= 0:
        raise ValueError("right endpoint must be positive")
    spec = HamiltonianSpec.from_constant_beta(BETA, (0.0, b))
    return CanonicalSystem(J=J, interval=(0.0, b), hamiltonian=spec, xi=0.0)


def _check_off_cut(z, b):
    """z as a complex array; raises :class:`BranchCutError` at the first
    z on [0, b]."""
    z = np.asarray(z, dtype=complex)
    on_cut = (np.abs(z.imag) < 1e-13) & (z.real >= -1e-13) & (z.real <= b + 1e-13)
    if on_cut.any():
        raise BranchCutError(f"z = {complex(z[on_cut][0])} lies on the cut [0, {b}]")
    return z


def log_ratio(x, z):
    """ln(z / (z - x)) on the branch that vanishes at x = 0."""
    z = np.asarray(z, dtype=complex)
    return np.log(z) - np.log(z - x)


def fundamental_matrix(x, z, b=1.0):
    """Closed-form fundamental solution W(x, z) of the scenario.

    Equals ``I + L N`` with ``L = ln(z/(z-x))``; W(0, z) = I and
    det W = 1 identically.  An array of z stacks the 2 x 2 matrices
    behind z's shape.
    """
    z = _check_off_cut(z, b)
    if not (-1e-13 <= x <= b + 1e-13):
        raise ValueError(f"x = {x} outside [0, {b}]")
    return np.eye(2) + log_ratio(x, z)[..., None, None] * _NILPOTENT


def jump_matrix(s=None, x=None):
    """The boundary-value jump R^2 = I + 2 pi J beta* beta.

    ``W_plus(x, s) = W_minus(x, s) R^2`` for every interior cut point
    ``0 < s < x``; the square collapses because ``J beta* beta`` is
    nilpotent.  When ``s`` and ``x`` are given they are validated.
    """
    if s is not None:
        if x is None:
            raise ValueError("x required when validating s")
        if not (0.0 < s < x):
            raise ValueError(f"s = {s} outside the cut interior (0, {x})")
    return np.eye(2) + 2.0 * np.pi * J @ hamiltonian()


@dataclass
class DiagonalParams:
    """Dressing parameters with diagonal pole matrix B = diag(b_diag).

    ``g`` and ``h`` are the two n-vectors equivalent to the initial
    matrix ``Pi(0)``:

        g = Pi(0) [-i; 1],   h = (1/2) Pi(0) [1; -i] - {i g_i ln b_i}.
    """

    b_diag: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.b_diag = np.atleast_1d(np.asarray(self.b_diag, dtype=complex))
        self.g = np.atleast_1d(np.asarray(self.g, dtype=complex))
        self.h = np.atleast_1d(np.asarray(self.h, dtype=complex))
        if not (self.b_diag.shape == self.g.shape == self.h.shape):
            raise ValueError("b_diag, g, h must share one length")

    @property
    def n(self):
        return self.b_diag.size

    def to_gbdt_params(self, xi=0.0):
        """Engine-ready parameter triple with S(xi) from the closed form."""
        from .gbdt import GbdtParams

        return GbdtParams(
            B=np.diag(self.b_diag), S0=self.s_at(xi), Pi0=self.pi_at(xi), xi=xi
        )

    def _phi(self, x):
        # {i g_i ln(b_i - x)} + h, the log-linear core of Pi.
        return 1j * self.g * np.log(self.b_diag - x) + self.h

    def pi_at(self, x):
        """Parameter matrix Pi(x) = (1/2) [2 phi(x), g] T."""
        return 0.5 * np.column_stack([2.0 * self._phi(x), self.g]) @ T

    def pi_j_pi(self, x):
        """Pi J Pi* = phi g* + g phi* (rank <= 2 Hermitian)."""
        p = self._phi(x)[:, None]
        g = self.g[:, None]
        return p @ g.conj().T + g @ p.conj().T

    def s_at(self, x):
        """Closed-form S(x); requires pairwise b_i != conj(b_j).

        Solves the displacement identity A S - S A* = i Pi J Pi* entrywise
        for the diagonal resolvent A = diag(1/(b_i - x)).  Degenerate pole
        pairs b_i = conj(b_j) leave the corresponding entry undetermined;
        use the ODE evolution path in :mod:`cansys.gbdt` for those.
        """
        bi = self.b_diag[:, None]
        bj = self.b_diag[None, :].conj()
        den = bi - bj
        if np.min(np.abs(den)) < 1e-12:
            raise ValueError(
                "degenerate poles b_i = conj(b_j): closed-form S undefined, "
                "evolve S with cansys.gbdt.evolve instead"
            )
        return (bi - x) * (bj - x) / (1j * den) * self.pi_j_pi(x)

    def w0_at(self, x):
        """Dressing factor w0(x) = I - i T^{-1} [g*; 2 phi*] S^{-1} (B - x) Pi."""
        s = self.s_at(x)
        stack = np.vstack([self.g.conj()[None, :], 2.0 * self._phi(x).conj()[None, :]])
        core, _ = solve(s, np.diag(self.b_diag - x) @ self.pi_at(x))
        return np.eye(2) - 1j * T_INV @ stack @ core

    def beta_t_at(self, x):
        """Transformed factor beta w0(x) = beta - i g* S^{-1} (B - x) Pi."""
        s = self.s_at(x)
        core, _ = solve(s, np.diag(self.b_diag - x) @ self.pi_at(x))
        return BETA - 1j * self.g.conj()[None, :] @ core

    def h_t_at(self, x):
        """Transformed Hamiltonian (beta w0)* (beta w0)."""
        bt = self.beta_t_at(x)
        return bt.conj().T @ bt

    def w_a_at(self, x, z, b=1.0):
        """Transfer matrix w_A(x, z) with the diagonal resolvent in closed form.

        An array of z stacks the 2 x 2 matrices behind z's shape; S(x),
        Pi(x) and the checked solve against S(x) are made once for all z.
        """
        z = _check_off_cut(z, b)[..., None]
        pi = self.pi_at(x)
        resolvent = (x - z) * (self.b_diag - x) / (self.b_diag - z)
        # every z's right-hand side side by side: one solve against S(x)
        rhs = np.moveaxis(resolvent[..., None] * pi, -2, 0)
        core, _ = solve(self.s_at(x), rhs.reshape(self.n, -1))
        core = np.moveaxis(core.reshape(rhs.shape), 0, -2)
        return np.eye(2) - 1j * J @ pi.conj().T @ core

    def v_at(self, x, z, b=1.0):
        """Normalised multiplier v(x, z) = w0(x)^{-1} w_A(x, z); an array of
        z stacks as in :meth:`w_a_at`, with w0(x) formed once."""
        w0 = self.w0_at(x)
        w0_inv = J @ w0.conj().T @ J
        return w0_inv @ self.w_a_at(x, z, b=b)


def transformed_fundamental_matrix(params, x, z, b=1.0):
    """Dressed fundamental solution v(x,z) W(x,z) v(0,z)^{-1}, all closed form.

    Its value at ``x = b`` is the characteristic function of the dressed
    triangular model operator.  An array of z stacks the 2 x 2 matrices
    behind z's shape; the z-free pieces (S, Pi and w0 at x and at 0, and
    the checked solves against each S) are built once for all z.
    """
    v_x = params.v_at(x, z, b=b)
    v_0 = params.v_at(0.0, z, b=b)
    w = fundamental_matrix(x, z, b=b)
    return v_x @ w @ np.linalg.inv(v_0)


@dataclass
class OrderOneForms:
    """Order-one (n = 1) closed forms at a point (x, z), or at every pair of
    broadcast arrays x and z (fields then carry the broadcast shape in
    front, as :class:`~cansys.gbdt.TransferEval`'s do)."""

    s: complex
    beta_t: np.ndarray
    w0: np.ndarray
    w_a: np.ndarray
    v: np.ndarray


def _t_row(first, second):
    """The row [first, second] T for every pair of broadcast coefficients."""
    return first * T[:1] + second * T[1:]


def order_one_closed_forms(B, g, h, x, z, b=1.0):
    """Fully expanded n = 1 formulas for S, beta w0, w0, w_A and v.

    Requires a non-real pole ``B`` and ``g != 0``.  The invertibility of
    the scalar S(x) is equivalent to ``Im ln(B - x) != Re(h / g)``; a
    violation raises :class:`~cansys.linalg.SingularMatrixError` at the
    first such x.  For ``h = 0`` the simplified beta-row formula is used
    and cross-checked against the general one at every x; a disagreement
    above 1e-10 raises :class:`ArithmeticError`.

    x and z broadcast against each other, and every field carries the
    broadcast shape in front; scalars give one evaluation.  The z-free
    pieces (S, beta w0, w0) are formed once per x, then broadcast.
    """
    B = complex(B)
    g = complex(g)
    h = complex(h)
    if abs(B.imag) < 1e-12:
        raise ValueError("pole B must be non-real for the order-one formulas")
    if g == 0:
        raise ValueError("g must be nonzero")
    z = _check_off_cut(z, b)
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(x.shape, z.shape)
    # x and z as stacks of 1 x 1 matrices: each coefficient below then
    # scales the matrices it multiplies
    x, z = x[..., None, None], z[..., None, None]

    ln = np.log(B - x)
    ln_delta = ln - np.conj(ln)  # 2i Im ln(B - x)
    denom_core = abs(g) ** 2 * ln_delta - 1j * h * np.conj(g) - 1j * g * np.conj(h)
    singular = np.abs(ln.imag - (h / g).real) < 1e-12
    if singular.any():
        raise SingularMatrixError(
            "S(x) = 0: invertibility condition Im ln(B-x) != Re(h/g) fails",
            location=float(x[singular][0]),
        )

    s = denom_core * (B - x) * (np.conj(B) - x) / (B - np.conj(B))

    phi = 1j * g * ln + h
    row = _t_row(2.0 * phi, g)
    col = np.conj(g) * T_INV[:, :1] + 2.0 * np.conj(phi) * T_INV[:, 1:]  # T^-1 [g*; 2 phi*]

    c_beta = 1j * np.conj(g) * (B - np.conj(B)) / (2.0 * (np.conj(B) - x) * denom_core)
    beta_t = BETA - c_beta * row
    if h == 0:
        simplified = BETA - (B - np.conj(B)) / (
            4.0 * (np.conj(B) - x) * ln.imag
        ) * _t_row(2j * ln, 1.0)
        gap = np.max(np.linalg.norm(simplified - beta_t, axis=(-2, -1)))
        if not gap < 1e-10:
            raise ArithmeticError(
                f"h = 0 beta-row formula disagrees with the general one by {gap:.2e}"
            )
        beta_t = simplified

    c_w0 = 1j * (B - np.conj(B)) / (2.0 * (np.conj(B) - x) * denom_core)
    w0 = np.eye(2) - c_w0 * col @ row

    c_wa = c_w0 * (x - z) / (B - z)
    w_a = np.eye(2) - c_wa * col @ row

    v = ((x - z) * np.eye(2) + (B - x) * J @ _adj(w0) @ J) / (B - z)

    def full(value, tail=(2, 2)):
        return np.broadcast_to(value, shape + tail).copy()[()]

    return OrderOneForms(s=full(s[..., 0, 0], ()), beta_t=full(beta_t, (1, 2)),
                         w0=full(w0), w_a=w_a, v=v)
