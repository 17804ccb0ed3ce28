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
rule (symmetrised so the discrete adjoint matches the continuous one),
evaluates characteristic functions through the discrete resolvent, and
applies dressing at the operator level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SingularMatrixError, _adj, ascomplex, fro, hermitian_part
from .system import (
    CanonicalSystem,
    HamiltonianSpec,
    fundamental_solution,
)


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
    def from_callable(cls, beta_fn, interval, J, num=129):
        a, b = interval
        x = np.linspace(a, b, num)
        beta = np.stack([np.asarray(beta_fn(xx), dtype=complex) for xx in x])
        return cls(interval=(a, b), J=J, x=x, beta=beta, beta_fn=beta_fn)

    @classmethod
    def from_hamiltonian(cls, spec, interval, J):
        """Adopt the factored form of a Hamiltonian specification."""
        if not spec.is_factored:
            raise ValueError("model needs a factored Hamiltonian")
        if spec.beta_fn is not None:
            return cls.from_callable(spec.beta_fn, interval, J,
                                     num=max(129, spec.x.size))
        return cls(interval=interval, J=J, x=spec.x, beta=spec.beta)

    def beta_at(self, x):
        """beta(x), or a stack of them for an array of points."""
        return self.spec.beta_at(x)

    def canonical_system(self):
        """The canonical system with H = beta* beta and base point a."""
        return CanonicalSystem(J=self.J, interval=self.interval,
                               hamiltonian=self.spec, xi=self.interval[0])


@dataclass
class DiscretizedOperator:
    """Dense Nystrom discretisation of the model on midpoint nodes.

    The similarity f_j -> sqrt(w_j) f(x_j) turns the quadrature inner
    product into the Euclidean one, so the plain conjugate transpose is
    the discrete adjoint.  ``matrix`` is the (N k) x (N k) operator,
    ``channel_map`` the (N k) x m matrix with block rows
    sqrt(w_j) beta(x_j).  The lower triangle carries full weights and the
    diagonal half weights, which makes the node identity
    A - A* = i K J K* hold exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    channel_map: np.ndarray
    J: np.ndarray
    k: int
    m: int

    def node_identity_defect(self):
        lhs = self.matrix - self.matrix.conj().T
        rhs = 1j * self.channel_map @ self.J @ self.channel_map.conj().T
        return fro(lhs - rhs)


def discretize(model, num_nodes):
    """Midpoint-rule discretisation with num_nodes nodes."""
    if num_nodes < 1:
        raise ValueError("need at least one node")
    a, b = model.interval
    step = (b - a) / num_nodes
    nodes = a + (np.arange(num_nodes) + 0.5) * step
    weights = np.full(num_nodes, step)
    beta = model.beta_at(nodes)
    k, m = model.k, model.m

    corr = np.einsum("jam,mn,lbn->jlab", beta, model.J, beta.conj())
    volterra = np.tril(np.ones((num_nodes, num_nodes)), -1) + 0.5 * np.eye(num_nodes)
    sw = np.sqrt(weights)
    coupling = (sw[:, None] * volterra * sw[None, :])[:, :, None, None] * corr
    matrix = coupling.transpose(0, 2, 1, 3).reshape(num_nodes * k, num_nodes * k)
    matrix = 1j * matrix + np.diag(np.repeat(nodes, k)).astype(complex)
    channel = (sw[:, None, None] * beta).reshape(num_nodes * k, m)
    return DiscretizedOperator(
        nodes=nodes,
        weights=weights,
        matrix=matrix,
        channel_map=channel,
        J=model.J,
        k=k,
        m=m,
    )


@dataclass
class CharFnSample:
    """One characteristic-function value W(z), tagged with its route."""

    z: complex
    value: np.ndarray
    method: str


def char_fn(op, z):
    """W(z) = I - i J K* (A - z)^{-1} K through the discrete resolvent."""
    z = complex(z)
    size = op.matrix.shape[0]
    try:
        resolvent = np.linalg.solve(op.matrix - z * np.eye(size), op.channel_map)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"resolvent singular at z = {z}") from exc
    value = np.eye(op.m) - 1j * op.J @ op.channel_map.conj().T @ resolvent
    return CharFnSample(z=z, value=value, method="resolvent")


def char_fn_via_fundamental(model, z, tol=1e-10):
    """The same function through the canonical system route W(b, z)."""
    sys = model.canonical_system()
    sol = fundamental_solution(sys, z, grid=np.array([model.interval[1]]), tol=tol)
    return CharFnSample(z=complex(z), value=sol.values[0], method="fundamental_solution")


@dataclass
class ResolventCheck:
    """Node residuals of (A - z)^{-1} beta = (x - z)^{-1} beta W(x, z)."""

    z: complex
    max_residual: float
    argmax_node: float


def resolvent_identity_check(op, model, z, tol=1e-10):
    """Apply the discrete resolvent to the channel columns and compare with
    the closed-form action through the fundamental solution."""
    z = complex(z)
    size = op.matrix.shape[0]
    lhs = np.linalg.solve(op.matrix - z * np.eye(size), op.channel_map)
    sys = model.canonical_system()
    sol = fundamental_solution(sys, z, grid=op.nodes, tol=tol)
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

    return TriangularModel(
        interval=model.interval,
        J=model.J,
        x=model.x,
        beta=model.beta @ w0_at(traj, model.x),
        beta_fn=lambda x: model.beta_at(x) @ w0_at(traj, x),
    )


def conjugate_transform_model(model, traj):
    """Dress by conjugation: beta~ = w0* beta w0 (multiplication-operator
    variant, used with J = I where w0 is unitary; needs square beta)."""
    from .gbdt import w0_at

    if model.k != model.m:
        raise ValueError("conjugate transform needs square beta (k = m)")

    def dressed(x):
        w0 = w0_at(traj, x)
        return w0.conj().T @ model.beta_at(x) @ w0

    w0 = w0_at(traj, model.x)
    return TriangularModel(
        interval=model.interval,
        J=model.J,
        x=model.x,
        beta=_adj(w0) @ model.beta @ w0,
        beta_fn=dressed,
    )


@dataclass
class SimilarityReport:
    """Spectral evidence that the discretised model acts like multiplication.

    Linear similarity itself is an infinite-dimensional statement; the
    probe only reports how real and how localised the discrete spectrum
    is: the largest |Im| eigenvalue and the fraction of eigenvalues whose
    real part falls inside the interval widened by ``band``.
    """

    num_nodes: int
    max_imag: float
    inside_fraction: float
    transformed_max_imag: float | None = None
    transformed_inside_fraction: float | None = None


def similarity_probe(model, num_nodes, traj=None, band=1e-2, psd_tol=1e-10):
    """Eigenvalue probe for the multiplication-similarity regime.

    Preconditions: J = I, square beta with beta(x) PSD at the sample
    points.  When a dressing trajectory is supplied the conjugated model
    beta~ = w0* beta w0 is probed alongside the original.
    """
    if fro(model.J - np.eye(model.m)) > 1e-12:
        raise ValueError("similarity probe requires J = I")
    if model.k != model.m:
        raise ValueError("similarity probe requires square beta (k = m)")
    beta = model.beta
    bad = (np.linalg.norm(beta - _adj(beta), axis=(1, 2)) > 1e-10) | (
        np.linalg.eigvalsh(hermitian_part(beta))[:, 0] < -psd_tol
    )
    if bad.any():
        raise ValueError(f"beta not PSD Hermitian at sample x = {model.x[np.argmax(bad)]}")

    def probe(mod):
        eigs = np.linalg.eigvals(discretize(mod, num_nodes).matrix)
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
