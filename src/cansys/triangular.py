"""Triangular model operators and their characteristic matrix functions.

The model operator on vector-valued square-integrable functions over
[a, b] is

    (A f)(x) = x f(x) + i * integral_a^x beta(x) J beta(t)* f(t) dt,

a multiplication part plus a Volterra part built from a k x m factor
beta.  Together with the channel map (K g)(x) = beta(x) g it satisfies
the node identity A - A* = i K J K*, and its characteristic function

    W(z) = I_m - i J K* (A - z I)^{-1} K

coincides with the fundamental solution W(b, z) of the canonical system
with H = beta* beta and base point a (Sakhnovich 1999).
:class:`TriangularModel` is that system, so every route of
:mod:`cansys.system` takes a model as it is.  This module discretises A
by Gauss-Legendre collocation on uniform panels (symmetrised so the
discrete adjoint matches the continuous one) and keeps only its blocks:
two nodes per panel, so the characteristic function's error falls like
N^-4 on smooth beta.  The tableau is symplectic, so the discrete node
identity holds exactly (Sanz-Serna 1988).  The discrete operator is
block lower triangular with a rank-m separable part below the panels'
diagonal blocks (Eidelman & Gohberg 1999), so both uses of that
structure need O(N) memory:

* characteristic functions are a forward sweep through (A - z), the
  total of an ordered product of m x m panel factors, taken by pairwise
  halving with the small-matrix product of the Magnus products of
  :mod:`cansys.system`.  Everything that does not depend on z is built
  once per discretised operator; per z a 2 x 2 block (k = 1) leaves one
  closed-form combination of two stored m x m stacks, and a larger block
  a LAPACK solve;
* the similarity probe's one-node midpoint discretisation has the
  spectrum of its diagonal blocks, which for J = I it forms from the
  samples of beta at the nodes alone, with no operator.

The dense matrix is assembled only on demand, for the node-identity and
resolvent-identity diagnostics, which check the sweep independently.
Dressing applies at the operator level: :func:`cansys.gbdt.transformed_system`
dresses a model into the model with kernel factor beta w0, and
:func:`conjugate_transform_model` into the one with w0* beta w0 (J = I);
every function here takes either as it takes the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import SingularMatrixError, _adj, fro, psd_bound, psd_defect
from .system import (
    ODE_TOL,
    CanonicalSystem,
    HamiltonianSpec,
    _mul,
    _require_count,
    _require_finite,
    _total_product,
    fundamental_solution,
)

#: Largest dense view, in rows N k, that DiscretizedOperator.matrix assembles.
MAX_DENSE_ROWS = 4096

#: similarity_probe counts an eigenvalue inside when its real part lies in
#: the interval widened by this much on either side.
PROBE_BAND = 1e-2


class TriangularModel(CanonicalSystem):
    """The canonical system with H = beta* beta and base point a, built
    from the kernel data of the model operator: the interval, the
    signature J and samples ``beta`` of the k x m factor on the grid
    ``x``, with an exact callable ``beta_fn`` taking precedence over
    them.  :class:`CanonicalSystem` checks J and the interval; the model
    adds that beta has as many columns as J has rows."""

    def __init__(self, interval, J, x, beta, beta_fn=None):
        super().__init__(J=J, interval=interval,
                         hamiltonian=HamiltonianSpec.from_beta_grid(x, beta, beta_fn=beta_fn))
        if self.hamiltonian.m != self.m:
            raise ValueError(f"beta has {self.hamiltonian.m} columns, J is "
                             f"{self.m} x {self.m}")

    @property
    def x(self):
        return self.hamiltonian.x

    @property
    def beta(self):
        return self.hamiltonian.beta

    @property
    def beta_fn(self):
        return self.hamiltonian.beta_fn

    @property
    def k(self):
        return self.beta.shape[1]

    @classmethod
    def from_constant_beta(cls, beta, interval, J):
        spec = HamiltonianSpec.from_constant_beta(beta, interval)
        return cls(interval=interval, J=J, x=spec.x, beta=spec.beta)

    def beta_at(self, x):
        """beta(x), or a stack of them for an array of points."""
        return self.hamiltonian.beta_at(x)


#: The two-stage Gauss-Legendre collocation tableau (c, a): the nodes c_i
#: of a panel, as fractions of its width h, and the coefficients a_ij of
#: its blocks.  It weighs every node by h / 2 and meets the symplectic
#: condition b_i a_ij + b_j a_ji = b_i b_j (Sanz-Serna 1988), which makes
#: the discrete node identity exact.
_ROOT3_6 = np.sqrt(3.0) / 6.0
_GAUSS2 = (np.array([0.5 - _ROOT3_6, 0.5 + _ROOT3_6]),
           np.array([[0.25, 0.25 - _ROOT3_6], [0.25 + _ROOT3_6, 0.25]]))


#: Signs of the adjugate of a 2 x 2 matrix, entries-leading.
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[..., None]


@dataclass
class DiscretizedOperator:
    """Block form of a Gauss-Legendre Nystrom discretisation of the model.

    The nodes come in uniform panels of width h, s nodes x_i each, all
    with the weight w = h / s; ``tableau`` is the (s, s) matrix a of the
    collocation method.  The similarity f_i -> sqrt(w) f(x_i) turns the
    quadrature inner product into the Euclidean one, so the plain
    conjugate transpose is the discrete adjoint.  The (N k) x (N k)
    operator A has the blocks i w beta_i J beta_j* below a panel's
    diagonal block, none above it, and inside the diagonal block D_p of a
    panel x_i delta_ij I_k + i h a_ij beta_i J beta_j*.  The symplectic
    condition, here a_ij + a_ji = 1 / s, makes the node identity
    A - A* = i K J K* hold exactly, where the channel map K has block
    rows sqrt(w) beta_i.  For s = 1 this is the midpoint rule, whose
    diagonal carries the half weight w / 2.

    Only the nodes, the weights, the (N, k, m) stack of beta_i, J and the
    tableau are given.  The z-independent data of :func:`char_fn` are
    built from them once, as read-only stacks in the entries-leading
    layout of the small-matrix kernel of :mod:`cansys.system`, panel
    index last, with q = s k rows per panel:
    ``diag_blocks`` of the D_p, (q, q, N / s), ``left_factor`` of
    -i w J beta_i*, (m, q, N / s), and ``right_factor`` of the beta_i,
    (q, m, N / s).  ``sweep`` holds what :func:`char_fn` reads besides,
    made on first use.  ``matrix`` and ``channel_map`` assemble the dense
    A and K on demand for the diagnostics.
    """

    nodes: np.ndarray
    weights: np.ndarray
    beta: np.ndarray
    J: np.ndarray
    tableau: np.ndarray
    diag_blocks: np.ndarray = field(init=False, repr=False)
    left_factor: np.ndarray = field(init=False, repr=False)
    right_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        s, k, m = self.stages, self.k, self.m
        right = self.beta.reshape(-1, s * k, m).transpose(1, 2, 0).copy()
        left = _mul(-1j * self.J[..., None], right.conj().transpose(1, 0, 2))
        # views, never copies, so the products land in the stacks
        left.reshape(m, s, k, -1, copy=False)[...] *= self.weights.reshape(-1, s).T[:, None]
        # R L holds -i w beta_i J beta_j*, and i h a_ij = -(s a_ij)(-i w)
        blocks = _mul(right, left)
        blocks.reshape(s, k, s, k, -1, copy=False)[...] *= (
            -s * self.tableau[:, None, :, None, None])
        for i in range(s * k):
            blocks[i, i] += self.nodes[i // k::s]
        self.diag_blocks, self.left_factor, self.right_factor = blocks, left, right
        for stack in (blocks, left, right):
            stack.flags.writeable = False

    @property
    def stages(self):
        return self.tableau.shape[0]

    @property
    def k(self):
        return self.beta.shape[1]

    @property
    def m(self):
        return self.beta.shape[2]

    @cached_property
    def sweep(self):
        """What :func:`char_fn` reads besides the factors, made once.

        With L_p and R_p the panel's left and right factors,
        F_p = I + L_p (D_p - z)^{-1} R_p.  A 2 x 2 block (two nodes and
        k = 1, or one node and k = 2) is shifted by the first node c_p of its
        panel, E_p = D_p - c_p, so that
        (E_p - zeta)^{-1} = (adj E_p - zeta I) / det(E_p - zeta) at
        zeta = z - c_p, with entries of size h; the sweep keeps c_p, the
        entries of E_p that the determinant needs, P0 = L adj(E_p) R and
        P1 = L R.  Unshifted, P0 - z P1 cancels to leading order near the
        cut: at N = 2048 and z within 1e-6 of [a, b] it lost up to 2e-13
        relative against a direct block solve, the shifted form 4e-16.
        Other block sizes keep the blocks and R laid out,
        panel index first, for a LAPACK solve per z.
        """
        blocks, left, right = self.diag_blocks, self.left_factor, self.right_factor
        if blocks.shape[0] == 2:
            # adj(E) = [[e11, -e01], [-e10, e00]]: D mirrored, signed, shifted
            centre = self.nodes[::self.stages]
            adj = blocks[::-1, ::-1].transpose(1, 0, 2) * _ADJ_SIGNS
            adj[0, 0] -= centre
            adj[1, 1] -= centre
            data = (centre, adj[1, 1], adj[0, 0], blocks[0, 1] * blocks[1, 0],
                    _mul(left, _mul(adj, right)), _mul(left, right))
        else:
            data = (np.moveaxis(blocks, -1, 0), np.moveaxis(right, -1, 0))
        for stack in data:
            stack.flags.writeable = False
        return data

    @property
    def channel_map(self):
        """K as an (N k) x m matrix."""
        sw = np.sqrt(self.weights)
        return (sw[:, None, None] * self.beta).reshape(-1, self.m)

    @property
    def matrix(self):
        """A as a dense (N k) x (N k) matrix, up to ``MAX_DENSE_ROWS`` rows.

        Built from the nodes, weights, tableau and samples, not from the
        blocks."""
        n, k, s = self.nodes.size, self.k, self.stages
        if n * k > MAX_DENSE_ROWS:
            raise ValueError(
                f"dense operator of {n * k} rows exceeds MAX_DENSE_ROWS = "
                f"{MAX_DENSE_ROWS}; char_fn works on the blocks at any size"
            )
        # full weight below the panels' diagonal blocks, h a_ij = s w a_ij in them
        weights = np.tri(n, k=-1)
        panels = np.arange(n // s)
        weights.reshape(n // s, s, n // s, s)[panels, :, panels] = s * self.tableau
        sw = np.sqrt(self.weights)
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


def _discretize(model, num_nodes, tableau):
    """Nystrom discretisation on num_nodes / s uniform panels with the
    s-stage collocation tableau (c, a)."""
    _require_count("num_nodes", num_nodes)
    c, a = tableau
    if num_nodes % c.size:
        raise ValueError(f"num_nodes must be even, two Gauss nodes per panel; "
                         f"got {num_nodes}")
    lo, hi = model.interval
    panels = np.arange(num_nodes // c.size)
    step = (hi - lo) / panels.size
    nodes = (lo + (panels[:, None] + c) * step).ravel()
    return DiscretizedOperator(nodes=nodes, weights=np.full(num_nodes, step / c.size),
                               beta=model.beta_at(nodes), J=model.J, tableau=a)


def discretize(model, num_nodes):
    """Two-node Gauss-Legendre discretisation on num_nodes / 2 uniform
    panels; num_nodes must be even.  O(N k m) storage.

    The characteristic function converges at fourth order in N when beta
    is smooth on every panel: on a smooth non-commuting beta the error
    against a tol 1e-13 Magnus W(b, z) fell at rates 4.00 from 16 to 128
    panels.  The panels are uniform and do not follow the kinks of
    beta-grid data.  A kink inside a panel leaves second order: with
    samples at x = 0, 0.3217, 0.7, 1 the error fell at rates 1.2-2.7 per
    doubling from 16 to 512 panels (2.1 fitted), about the midpoint
    rule's error at the same N.  Samples on panel ends, such as the
    uniform grids of the benchmark and the bundled data, keep fourth
    order.
    """
    return _discretize(model, num_nodes, _GAUSS2)


@dataclass
class CharFnSample:
    """One characteristic-function value W(z), tagged with its route."""

    z: complex
    value: np.ndarray
    method: str


def _panel_factors(op, z):
    """The (m, m, P) stack of panel factors F_p = I - i J K_p* (D_p - z)^{-1} K_p.

    From the operator's ``sweep`` data a 2 x 2 block needs per z
    only F_p = I + (P0 - zeta P1) / det(E_p - zeta), zeta = z - c_p, the
    determinant as (e00 - zeta)(e11 - zeta) - e01 e10, so that a z on an
    eigenvalue of a triangular block gives an exact zero.  Larger blocks
    go to LAPACK ``np.linalg.solve``; a singular one raises
    :class:`SingularMatrixError`.  A zero determinant or an overflow
    leaves a factor that is not finite, for the caller to reject.
    """
    if op.diag_blocks.shape[0] == 2:
        centre, e00, e11, e01e10, p0, p1 = op.sweep
        zeta = z - centre
        factors = zeta * p1
        np.subtract(p0, factors, out=factors)
        factors /= (e00 - zeta) * (e11 - zeta) - e01e10
    else:
        blocks, right = op.sweep
        try:
            solved = np.linalg.solve(blocks - z * np.eye(blocks.shape[-1]), right)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"resolvent singular at z = {z}") from exc
        factors = _mul(op.left_factor, np.moveaxis(solved, 0, -1))
    for i in range(op.m):
        factors[i, i] += 1.0
    return factors


def char_fn(op, z):
    """W(z) = I - i J K* (A - z)^{-1} K by a forward sweep over the panels.

    Forward substitution through the block rows of A - z carries the
    accumulator W_p = I - i J sum_{l<p} K_l* u_l, so W(z) is the ordered
    product F_P-1 ... F_0 of the m x m panel factors
    F_p = I - i J K_p* (D_p - z)^{-1} K_p of :func:`_panel_factors`.
    They are multiplied in pairs, level by level (P - 1 products and no
    partial products), with :func:`cansys.system._mul`, the product of
    the Magnus products.  A singular block, a zero determinant or an
    overflow raises :class:`SingularMatrixError`: a factor that is not
    finite leaves the product not finite.
    """
    z = complex(z)
    _require_finite("z", z)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = _total_product(_panel_factors(op, z))
    if not np.isfinite(value).all():
        raise SingularMatrixError(f"resolvent singular at z = {z}")
    return CharFnSample(z=z, value=value, method="resolvent")


def char_fn_via_fundamental(model, z, tol=ODE_TOL):
    """The same function through the canonical system route W(b, z), by
    RK45: it shares no code with the sweep's scan.

    ``z`` may be a 1-D array of points, solved as one stacked RK45 solve
    (each point held at least as tightly as alone); ``value`` then stacks
    (len(z), m, m).
    """
    sol = fundamental_solution(
        model, z, grid=np.array([model.interval[1]]), tol=tol, method="rk45"
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
    sol = fundamental_solution(model, z, grid=op.nodes, tol=tol, method="rk45")
    x = op.nodes
    expected = model.beta_at(x) @ sol.values / (x - z)[:, None, None]
    got = lhs.reshape(x.size, op.k, op.m) / np.sqrt(op.weights)[:, None, None]
    res = np.linalg.norm(got - expected, axis=(1, 2))
    j = int(np.argmax(res))
    return ResolventCheck(z=z, max_residual=float(res[j]), argmax_node=float(x[j]))


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
    ``PROBE_BAND`` on either side.  The probe's midpoint discretisation
    is block lower triangular with the diagonal blocks
    x_j + (i w / 2) beta_j J beta_j*, so for J = I the spectrum is the
    union of the spectra of x_j + (i w / 2) beta_j beta_j*: the
    discretisation alone fixes these numbers (max_imag =
    max w |beta_j|^2 / 2, which falls like 1/N for any bounded beta),
    and they cannot tell a model similar to multiplication from one that
    is not.  Every eigenvalue has its node as real part, so
    ``inside_fraction`` is the share of nodes within ``PROBE_BAND`` of
    [a, b]; the nodes lie inside [a, b], so with ``PROBE_BAND`` = 1e-2 it
    is 1 on every model, and the ``probe_outside_fraction_N*`` checks of
    ``cansys run`` cannot fail.  A probe that can fail, the growth of
    |Im z| |(A_N - z)^{-1}| as N doubles, is still open.  A dressed
    model is probed as any other,
    ``similarity_probe(conjugate_transform_model(model, traj), N)``.
    """

    num_nodes: int
    max_imag: float
    inside_fraction: float


def similarity_probe(model, num_nodes):
    """Eigenvalue probe for the multiplication-similarity regime.

    The spectrum is that of the one-node midpoint discretisation on N
    uniform panels, nodes x_j = a + (j + 1/2) w with w = (b - a) / N: the
    eigenvalues x_j + (i w / 2) lambda of its diagonal blocks, lambda
    those of the PSD Gram matrix G_j = beta(x_j) beta(x_j)*.  Only what
    the report keeps is formed.  Every eigenvalue of a block has its node
    as real part, so the inside fraction is the share of nodes within
    ``PROBE_BAND`` of the interval.  max_imag is (w / 2) max_j
    lambda_max(G_j); for m = 2, lambda_max = (g00 + g11) / 2 +
    hypot((g00 - g11) / 2, |g01|) from the Gram entries, 13-18 us at
    N = 64..256 against 38-153 us for a stacked product and eigensolve
    (timeit, one core).  Other m take the largest |lambda| of that
    eigensolve.  No operator is built; :class:`SimilarityReport` says
    what these numbers can and cannot show.  Preconditions: J = I,
    square beta with beta(x) PSD at the sample points.
    """
    if fro(model.J - np.eye(model.m)) > 1e-12:
        raise ValueError("similarity probe requires J = I")
    if model.k != model.m:
        raise ValueError("similarity probe requires square beta (k = m)")
    bad = psd_defect(model.beta) > psd_bound(model.beta)
    if bad.any():
        raise ValueError(f"beta not PSD Hermitian at sample x = {model.x[np.argmax(bad)]}")
    _require_count("num_nodes", num_nodes)
    lo, hi = model.interval
    step = (hi - lo) / num_nodes
    nodes = lo + (np.arange(num_nodes) + 0.5) * step
    beta = model.beta_at(nodes)
    if model.m == 2:
        b = beta.transpose(1, 2, 0)  # entries-leading: each entry one long loop
        square = b.real * b.real + b.imag * b.imag
        g00, g11 = square[:, 0] + square[:, 1]
        g01 = b[0, 0] * b[1, 0].conj() + b[0, 1] * b[1, 1].conj()
        top = 0.5 * (g00 + g11) + np.hypot(0.5 * (g00 - g11), np.abs(g01))
    else:
        top = np.abs(np.linalg.eigvalsh(beta @ _adj(beta)))
    inside = np.mean((nodes > lo - PROBE_BAND) & (nodes < hi + PROBE_BAND))
    return SimilarityReport(num_nodes=num_nodes, max_imag=float(0.5 * step * top.max()),
                            inside_fraction=float(inside))
