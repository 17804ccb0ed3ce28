"""Triangular model operators and their characteristic matrix functions.

The model operator on vector-valued square-integrable functions over
[a, b] is

    (A f)(x) = x f(x) + i * integral_a^x beta(x) J beta(t)* f(t) dt,

a multiplication part plus a Volterra part built from a k x m factor
beta.  Together with the channel map (K g)(x) = beta(x) g it satisfies
the node identity A - A* = i K J K*, and its characteristic function

    W(z) = I_m - i J K* (A - z I)^{-1} K

coincides with the fundamental solution W(b, z) of the canonical system
with H = beta* beta.  This module discretises A by a midpoint Nystrom
rule (symmetrised so the discrete adjoint matches the continuous one)
and keeps only its blocks.  The discrete operator is block lower
triangular with a rank-m separable part below the diagonal (Eidelman &
Gohberg 1999), so both applications work on the blocks in O(N) memory:

* characteristic functions are a forward sweep through (A - z), the
  total of an ordered product of m x m factors, taken by pairwise
  halving with the small-matrix product of the Magnus products of
  :mod:`cansys.system`.  The diagonal blocks and the left factors of the
  sweep are built once per discretised operator; per z only the block
  solves (closed form for k <= 2) and the product remain;
* the discrete spectrum is the union of the diagonal blocks' spectra.

The dense matrix is assembled only on demand, for the node-identity and
resolvent-identity diagnostics, which check the sweep independently.
Dressing applies at the operator level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import PSD_TOL, SingularMatrixError, _adj, ascomplex, fro, psd_defect
from .system import (
    ODE_TOL,
    CanonicalSystem,
    HamiltonianSpec,
    _mul,
    _total_product,
    fundamental_solution,
)

#: Largest dense view, in rows N k, that DiscretizedOperator.matrix assembles.
MAX_DENSE_ROWS = 4096


@dataclass
class TriangularModel:
    """Kernel data of the model operator: interval, signature J, factor beta."""

    interval: tuple
    J: np.ndarray
    x: np.ndarray
    beta: np.ndarray
    beta_fn: object = field(default=None, repr=False)
    spec: HamiltonianSpec = field(init=False, repr=False)

    def __post_init__(self):
        self.J = ascomplex(self.J, "J", square=True)
        a, b = float(self.interval[0]), float(self.interval[1])
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        self.interval = (a, b)
        # the spec checks the samples and interpolates beta for every reader
        self.spec = HamiltonianSpec.from_beta_grid(self.x, self.beta, beta_fn=self.beta_fn)
        self.x, self.beta = self.spec.x, self.spec.beta

    @property
    def k(self):
        return self.beta.shape[1]

    @property
    def m(self):
        return self.beta.shape[2]

    @classmethod
    def from_constant_beta(cls, beta, interval, J):
        spec = HamiltonianSpec.from_constant_beta(beta, interval)
        return cls(interval=interval, J=J, x=spec.x, beta=spec.beta)

    @classmethod
    def from_hamiltonian(cls, spec, interval, J):
        """Adopt the factor samples, and callable if any, of a Hamiltonian
        specification."""
        if spec.beta is None:
            raise ValueError("model needs a factored Hamiltonian")
        return cls(interval=interval, J=J, x=spec.x, beta=spec.beta,
                   beta_fn=spec.beta_fn)

    def beta_at(self, x):
        """beta(x), or a stack of them for an array of points."""
        return self.spec.beta_at(x)

    def canonical_system(self):
        """The canonical system with H = beta* beta and base point a."""
        return CanonicalSystem(J=self.J, interval=self.interval,
                               hamiltonian=self.spec, xi=self.interval[0])


@dataclass
class DiscretizedOperator:
    """Block form of the midpoint Nystrom discretisation of the model.

    The similarity f_j -> sqrt(w_j) f(x_j) turns the quadrature inner
    product into the Euclidean one, so the plain conjugate transpose is
    the discrete adjoint.  The (N k) x (N k) operator A has the blocks
    i sqrt(w_j w_l) beta_j J beta_l* below the diagonal, none above it,
    and the diagonal blocks D_j = x_j I_k + (i w_j / 2) beta_j J beta_j*;
    the half weight on the diagonal makes the node identity
    A - A* = i K J K* hold exactly, where the channel map K has block
    rows sqrt(w_j) beta_j.  Only the nodes, the weights, the (N, k, m)
    stack of beta_j and J are given; the z-independent data of
    :func:`char_fn` and :func:`similarity_probe` are built from them once,
    as read-only stacks: ``diag_blocks`` of the D_j, (N, k, k), and
    ``left_factor`` of -i w_j J beta_j*, (N, m, k).  ``matrix`` and
    ``channel_map`` assemble the dense A and K on demand for the
    diagnostics.
    """

    nodes: np.ndarray
    weights: np.ndarray
    beta: np.ndarray
    J: np.ndarray
    diag_blocks: np.ndarray = field(init=False, repr=False)
    left_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = self.weights[:, None, None]
        beta_adj = _adj(self.beta)
        self.diag_blocks = (self.nodes[:, None, None] * np.eye(self.k)
                            + 0.5j * w * _mul(_mul(self.beta, self.J), beta_adj))
        self.left_factor = -1j * w * _mul(self.J, beta_adj)
        self.diag_blocks.flags.writeable = False
        self.left_factor.flags.writeable = False

    @property
    def k(self):
        return self.beta.shape[1]

    @property
    def m(self):
        return self.beta.shape[2]

    @property
    def channel_map(self):
        """K as an (N k) x m matrix."""
        sw = np.sqrt(self.weights)
        return (sw[:, None, None] * self.beta).reshape(-1, self.m)

    @property
    def matrix(self):
        """A as a dense (N k) x (N k) matrix, up to ``MAX_DENSE_ROWS`` rows."""
        n, k = self.nodes.size, self.k
        if n * k > MAX_DENSE_ROWS:
            raise ValueError(
                f"dense operator of {n * k} rows exceeds MAX_DENSE_ROWS = "
                f"{MAX_DENSE_ROWS}; char_fn and similarity_probe work on the "
                "blocks at any size"
            )
        sw = np.sqrt(self.weights)
        weights = np.tri(n, k=-1)  # full weight below the diagonal, half on it
        weights[np.diag_indices(n)] = 0.5
        weights *= sw[:, None]
        weights *= sw[None, :]
        # (N, k, N, k) layout: the reshape below is the matrix, not a copy
        blocks = np.einsum("jam,mn,lbn->jalb", self.beta, self.J, self.beta.conj())
        blocks *= weights[:, None, :, None]
        blocks *= 1j
        matrix = blocks.reshape(n * k, n * k)
        matrix[np.diag_indices(n * k)] += np.repeat(self.nodes, k)
        return matrix

    def node_identity_defect(self):
        a, kmap = self.matrix, self.channel_map
        return fro(a - a.conj().T - 1j * kmap @ self.J @ kmap.conj().T)


def discretize(model, num_nodes):
    """Midpoint-rule discretisation with num_nodes nodes; O(N k m) storage."""
    if num_nodes < 1:
        raise ValueError("need at least one node")
    a, b = model.interval
    step = (b - a) / num_nodes
    nodes = a + (np.arange(num_nodes) + 0.5) * step
    return DiscretizedOperator(
        nodes=nodes,
        weights=np.full(num_nodes, step),
        beta=model.beta_at(nodes),
        J=model.J,
    )


@dataclass
class CharFnSample:
    """One characteristic-function value W(z), tagged with its route."""

    z: complex
    value: np.ndarray
    method: str


def _shifted_solve(blocks, z, rhs):
    """(D - z I)^{-1} R for a k x k matrix D and a k x m right-hand side R,
    or stacks of both.

    For k <= 2 in closed form, the adjugate over the determinant (a
    division when k = 1); larger k go to LAPACK ``np.linalg.solve``.  A
    zero determinant, or a result that is not finite, raises
    :class:`SingularMatrixError` before any value is returned.
    """
    k = blocks.shape[-1]
    if k > 2:
        try:
            out = np.linalg.solve(blocks - z * np.eye(k), rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"resolvent singular at z = {z}") from exc
    else:
        # an overflow shows as a non-finite entry, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            p = blocks[..., 0, 0, None] - z
            if k == 1:
                det, adj_rhs = p, rhs
            else:
                q, r = blocks[..., 0, 1, None], blocks[..., 1, 0, None]
                s = blocks[..., 1, 1, None] - z
                det = p * s - q * r
                r0, r1 = rhs[..., 0, :], rhs[..., 1, :]
                adj_rhs = np.stack([s * r0 - q * r1, p * r1 - r * r0], axis=-2)
            if not det.all():
                raise SingularMatrixError(f"resolvent singular at z = {z}")
            out = adj_rhs / det[..., None]
    if not np.isfinite(out).all():
        raise SingularMatrixError(f"resolvent singular at z = {z}")
    return out


def char_fn(op, z):
    """W(z) = I - i J K* (A - z)^{-1} K by a forward sweep.

    Forward substitution through the block rows of A - z carries the
    accumulator W_j = I - i J sum_{l<j} sqrt(w_l) beta_l* u_l, so W(z) is
    the ordered product F_N-1 ... F_0 of the m x m factors
    F_j = I - i w_j J beta_j* (D_j - z)^{-1} beta_j.  The operator holds
    the D_j and the left factors -i w_j J beta_j*; per z there remain the
    block solves (:func:`_shifted_solve`, closed form for k <= 2), one
    stacked product with the left factors, and the total of the factors,
    multiplied in pairs, level by level (N - 1 products and no partial
    products), with :func:`cansys.system._mul`, the product of the Magnus
    products.
    """
    z = complex(z)
    factors = _mul(op.left_factor, _shifted_solve(op.diag_blocks, z, op.beta))
    factors += np.eye(op.m)
    return CharFnSample(z=z, value=_total_product(factors), method="resolvent")


def char_fn_via_fundamental(model, z, tol=ODE_TOL):
    """The same function through the canonical system route W(b, z), by
    RK45: it shares no code with the sweep's scan.

    ``z`` may be a 1-D array of points, solved as one stacked RK45 solve
    (each point held at least as tightly as alone); ``value`` then stacks
    (len(z), m, m).
    """
    sys = model.canonical_system()
    sol = fundamental_solution(
        sys, z, grid=np.array([model.interval[1]]), tol=tol, method="rk45"
    )
    return CharFnSample(z=sol.z, value=sol.values[..., 0, :, :],
                        method="fundamental_solution")


@dataclass
class ResolventCheck:
    """Node residuals of (A - z)^{-1} beta = (x - z)^{-1} beta W(x, z)."""

    z: complex
    max_residual: float
    argmax_node: float


def resolvent_identity_check(op, model, z, tol=ODE_TOL):
    """Apply the discrete resolvent to the channel columns and compare with
    the closed-form action through the fundamental solution.

    The resolvent comes from a dense solve with ``op.matrix`` and W from
    RK45 on purpose: neither shares code with the sweep of :func:`char_fn`.
    """
    z = complex(z)
    a = op.matrix
    lhs = np.linalg.solve(a - z * np.eye(a.shape[0]), op.channel_map)
    sys = model.canonical_system()
    sol = fundamental_solution(sys, z, grid=op.nodes, tol=tol, method="rk45")
    x = op.nodes
    expected = model.beta_at(x) @ sol.values / (x - z)[:, None, None]
    got = lhs.reshape(x.size, op.k, op.m) / np.sqrt(op.weights)[:, None, None]
    res = np.linalg.norm(got - expected, axis=(1, 2))
    j = int(np.argmax(res))
    return ResolventCheck(z=z, max_residual=float(res[j]), argmax_node=float(x[j]))


def transform_model(model, traj):
    """Dress the kernel factor: beta~ = beta w0 along the trajectory.

    The characteristic functions of the two models are then connected by
    W~(z) = v(b, z) W(z) v(a, z)^{-1}.
    """
    from .gbdt import w0_at

    def dressed(x):
        return model.beta_at(x) @ w0_at(traj, x)

    return TriangularModel(interval=model.interval, J=model.J, x=model.x,
                           beta=dressed(model.x), beta_fn=dressed)


def conjugate_transform_model(model, traj):
    """Dress by conjugation: beta~ = w0* beta w0 (multiplication-operator
    variant, used with J = I where w0 is unitary; needs square beta)."""
    from .gbdt import w0_at

    if model.k != model.m:
        raise ValueError("conjugate transform needs square beta (k = m)")

    def dressed(x):
        w0 = w0_at(traj, x)
        return _adj(w0) @ model.beta_at(x) @ w0

    return TriangularModel(interval=model.interval, J=model.J, x=model.x,
                           beta=dressed(model.x), beta_fn=dressed)


@dataclass
class SimilarityReport:
    """How real and how localised the discrete spectrum is.

    Linear similarity itself is an infinite-dimensional statement; the
    probe reports the largest |Im| eigenvalue and the fraction of
    eigenvalues whose real part falls inside the interval widened by
    ``band``.  The discretised operator is block lower triangular, so its
    spectrum is the union of the spectra of the diagonal blocks
    x_j + (i w_j / 2) beta_j^2: the discretisation alone fixes these
    numbers (max_imag = max w_j |beta_j|^2 / 2, which falls like 1/N for
    any bounded beta), and they cannot tell a model similar to
    multiplication from one that is not.  A probe that can fail, the
    growth of |Im z| |(A_N - z)^{-1}| as N doubles, is still open.
    """

    num_nodes: int
    max_imag: float
    inside_fraction: float
    transformed_max_imag: float | None = None
    transformed_inside_fraction: float | None = None


def similarity_probe(model, num_nodes, traj=None, band=1e-2):
    """Eigenvalue probe for the multiplication-similarity regime.

    The eigenvalues are those of the N diagonal blocks D_j, from one
    stacked ``eigvals`` call; :class:`SimilarityReport` says what they
    can and cannot show.  Preconditions: J = I, square beta with beta(x)
    PSD at the sample points.  When a dressing trajectory is supplied the
    conjugated model beta~ = w0* beta w0 is probed alongside the original.
    """
    if fro(model.J - np.eye(model.m)) > 1e-12:
        raise ValueError("similarity probe requires J = I")
    if model.k != model.m:
        raise ValueError("similarity probe requires square beta (k = m)")
    bad = psd_defect(model.beta) > PSD_TOL
    if bad.any():
        raise ValueError(f"beta not PSD Hermitian at sample x = {model.x[np.argmax(bad)]}")

    def probe(mod):
        eigs = np.linalg.eigvals(discretize(mod, num_nodes).diag_blocks)
        a, b = mod.interval
        inside = np.mean((eigs.real > a - band) & (eigs.real < b + band))
        return float(np.abs(eigs.imag).max()), float(inside)

    max_imag, inside = probe(model)
    t_imag = t_inside = None
    if traj is not None:
        t_imag, t_inside = probe(conjugate_transform_model(model, traj))
    return SimilarityReport(
        num_nodes=num_nodes,
        max_imag=max_imag,
        inside_fraction=inside,
        transformed_max_imag=t_imag,
        transformed_inside_fraction=t_inside,
    )
