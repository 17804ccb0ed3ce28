"""Closed forms for the constant rank-one seed scenario.

The scenario lives on ``[0, b]`` with base point 0, signature matrix
``J = [[0, 1], [1, 0]]`` and the constant Hamiltonian ``H = beta* beta``
built from the single row ``beta = [1, i]``.  The degeneracy
``beta J beta* = 0`` makes everything solvable in closed form with
logarithmic ingredients:

* the fundamental solution is ``W(x, z) = I + L(x, z) N`` with
  ``L = ln(z / (z - x))`` and a nilpotent ``N``,
* the dressing by any pole matrix B has ``Pi(x) = Pi(xi) - i L(x)
  Pi(xi) J H`` with ``L = log((B - x)^{-1} (B - xi))``, and S(x) solves
  a Sylvester equation (:func:`dressed_forms`); for a diagonal B,
  :class:`DiagonalParams` writes Pi and S with two parameter vectors
  ``g, h`` and logs ``ln(b_i - x)``,
* boundary values on the cut jump by the constant factor
  ``R^2 = I + 2 pi J beta* beta``.

These formulas are the independent oracles for the generic machinery in
:mod:`cansys.system`, :mod:`cansys.gbdt` and :mod:`cansys.triangular`,
and they power the bundled demo scenario.

Branch convention: every logarithm is continued continuously in ``x``
starting from its principal value at ``x = 0`` (at ``x = xi`` for L).
All admissible arguments (``z`` off ``[0, b]``, poles ``b_i`` off
``[0, b]``) move the log argument along a horizontal segment that never
crosses the principal cut transversally, so ``numpy.log`` already
realises the continuous branch, and so does the principal matrix
logarithm for L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gbdt import GbdtParams, _check_s
from .linalg import _adj
from .system import CanonicalSystem, HamiltonianSpec

#: The constant 1x2 factor of the rank-one Hamiltonian.
BETA = np.array([[1.0, 1j]])

#: Signature matrix of the scenario.
J = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: Stacked frame T = [beta; beta J]; satisfies T J T* = 2 J.
T = np.array([[1.0, 1j], [1j, 1.0]])

#: Nilpotent direction of the fundamental solution: W = I + L*N, N^2 = 0.
_NILPOTENT = np.array([[1.0, 1j], [1j, -1.0]])


class BranchCutError(ValueError):
    """Evaluation point sits on (or crosses) the logarithmic cut."""


def hamiltonian():
    """The constant Hamiltonian beta* beta (rank one, PSD)."""
    return BETA.conj().T @ BETA


def make_system(b=1.0):
    """Canonical system of the scenario on ``[0, b]`` with base point 0."""
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
    det W = 1 identically.  x and z broadcast against each other, and the
    2 x 2 matrices stack behind the broadcast shape.
    """
    z = _check_off_cut(z, b)
    x = np.asarray(x, dtype=float)
    outside = ~((x >= -1e-13) & (x <= b + 1e-13))
    if outside.any():
        raise ValueError(f"x = {x[outside][0]} outside [0, {b}]")
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


@dataclass
class DressedForms:
    """Closed-form dressing data at (x, z), or at every pair of broadcast
    arrays x and z: each field carries the broadcast shape in front, as
    :class:`~cansys.gbdt.TransferEval`'s do."""

    pi: np.ndarray
    s: np.ndarray
    w0: np.ndarray
    w_a: np.ndarray
    v: np.ndarray


def dressed_forms(params, x, z):
    """Pi, S, w0, w_A and v of the dressing of the scenario by the
    :class:`~cansys.gbdt.GbdtParams` ``params``, in closed form for any
    pole matrix B.

    Since (J H)^2 = 0, Pi_x = -i A Pi J H integrates to

        Pi(x) = Pi(xi) - i L(x) Pi(xi) J H,   L(x) = log((B - x)^{-1} (B - xi)),

    on the principal branch: for every eigenvalue b of B off the interval,
    (b - xi)/(b - x) keeps off the negative axis, so L is continuous in
    x.  For n = 1, L is the scalar log; for n >= 2 it comes from
    ``scipy.linalg.logm``, once per distinct x.  S(x) solves the
    displacement identity multiplied out by (B - x) and (B* - x), the
    Sylvester equation S B* - B S = i (B - x) Pi J Pi* (B* - x): one
    Kronecker solve for all x, unique unless B and B* share an
    eigenvalue, which raises ValueError.  ``params.S0`` is therefore not
    read.  w0, w0^{-1}, w_A and v = w0^{-1} w_A follow from (Pi, S) by
    the formulas :func:`~cansys.gbdt.transfer` uses.  A singular S(x)
    raises :class:`~cansys.linalg.SingularMatrixError` at the first such
    x, measured against the size S would have without the cancellation
    in Pi J Pi*; a z on the spectrum of B raises ValueError.
    """
    B, n = params.B, params.n
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=complex)
    shape = np.broadcast_shapes(x.shape, z.shape)
    eigs = np.linalg.eigvals(B)
    gap = np.min(np.abs(eigs[:, None] - eigs.conj()))
    if gap < 1e-12 * max(1.0, np.max(np.abs(eigs))):
        raise ValueError("B and B* share an eigenvalue: the displacement identity "
                         "leaves S undetermined")
    near = np.abs(z[..., None] - eigs).min(axis=-1) < 1e-10
    if near.any():
        raise ValueError(f"z = {complex(z[near][0])} meets the spectrum of B")
    eye = np.eye(n)
    bx = B - x[..., None, None] * eye
    if n == 1:
        log = np.log((B - params.xi) / bx)
    else:
        from scipy.linalg import logm

        points, where = np.unique(x.ravel(), return_inverse=True)
        logs = np.array([logm(np.linalg.solve(B - t * eye, B - params.xi * eye))
                         for t in points])
        log = logs[where.reshape(x.shape)]
    pi = params.Pi0 - 1j * log @ (params.Pi0 @ J @ hamiltonian())
    bx_pi = bx @ pi
    rhs = 1j * bx_pi @ J @ _adj(bx_pi)
    # S B* - B S = (I kron conj(B) - B kron I) vec S in row-major vec
    sylvester = np.kron(eye, B.conj()) - np.kron(B, eye)
    s = np.linalg.solve(sylvester, rhs.reshape(-1, n * n).T).T.reshape(rhs.shape)
    scale = np.max(np.linalg.norm(bx_pi, axis=(-2, -1))) ** 2 / gap
    _check_s(x, s, max(scale, 1e-300))
    sol = np.linalg.solve(s, np.concatenate([bx, pi], axis=-1))
    j_pi = J @ _adj(pi)
    core = j_pi @ sol[..., :n]  # J Pi* S^{-1} (B - x)
    w0 = np.eye(2) - 1j * core @ pi
    w0_inv = np.eye(2) + 1j * j_pi @ _adj(bx) @ sol[..., n:]
    zz = z[..., None, None]
    w_a = np.eye(2) - 1j * (x[..., None, None] - zz) * (
        core @ np.linalg.solve(B - zz * eye, pi))

    def full(value):
        return np.broadcast_to(value, shape + value.shape[-2:])

    return DressedForms(pi=full(pi), s=full(s), w0=full(w0), w_a=w_a, v=w0_inv @ w_a)


def transformed_fundamental_matrix(params, x, z, b=1.0):
    """Dressed fundamental solution v(x, z) W(x, z) v(0, z)^{-1}, all closed
    form.

    Its value at ``x = b`` is the characteristic function of the dressed
    triangular model operator.  x and z broadcast against each other, and
    the 2 x 2 matrices stack behind the broadcast shape; v at x and at 0
    come from one :func:`dressed_forms` call.
    """
    w = fundamental_matrix(x, z, b=b)
    x = np.broadcast_to(x, w.shape[:-2])
    v = dressed_forms(params, np.stack([x, np.zeros_like(x)]), z).v
    return v[0] @ w @ np.linalg.inv(v[1])
