import tracemalloc

import numpy as np
import pytest

from cansys import rank_one, triangular
from cansys.gbdt import evolve, sample_params, transfer, w0_at
from cansys.linalg import SingularMatrixError, fro
from cansys.system import CanonicalSystem, HamiltonianSpec, fundamental_solution
from cansys.triangular import (
    _GAUSS2,
    _MIDPOINT,
    MAX_DENSE_ROWS,
    DiscretizedOperator,
    TriangularModel,
    _block_eigvals,
    _discretize,
    char_fn,
    char_fn_via_fundamental,
    conjugate_transform_model,
    discretize,
    resolvent_identity_check,
    similarity_probe,
    transform_model,
)

J_OFF = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture(scope="module")
def rank_one_model():
    return TriangularModel.from_constant_beta(rank_one.BETA, (0.0, 1.0), J_OFF)


# -- discretisation -----------------------------------------------------------


def midpoint(model, num_nodes):
    """The one-node midpoint operator that similarity_probe reads."""
    return _discretize(model, num_nodes, _MIDPOINT)


def test_discretize_single_node(rank_one_model):
    op = midpoint(rank_one_model, 1)
    # x1 I_k + (i/2) w1 beta J beta*, and beta J beta* = 0 here
    assert op.matrix.shape == (1, 1)
    assert abs(op.matrix[0, 0] - 0.5) < 1e-15
    assert np.allclose(op.channel_map, rank_one.BETA)  # sqrt(w) = 1


def test_discretize_single_panel(rank_one_model):
    op = discretize(rank_one_model, 2)
    # the Gauss points of [0, 1], and x_i delta_ij + i h a_ij beta J beta* = x_i
    root = np.sqrt(3.0) / 6.0
    assert np.allclose(op.nodes, [0.5 - root, 0.5 + root], rtol=0.0, atol=1e-15)
    assert fro(op.matrix - np.diag(op.nodes)) < 1e-15
    assert np.allclose(op.channel_map, np.sqrt(0.5) * np.vstack([rank_one.BETA] * 2))


def test_discretize_half_diagonal_with_nonzero_kernel():
    beta = np.array([[1.0, 0.5]])  # beta J beta* = 1 != 0
    model = TriangularModel.from_constant_beta(beta, (0.0, 1.0), J_OFF)
    op = midpoint(model, 1)
    expected = 0.5 + 0.5j * 1.0 * (beta @ J_OFF @ beta.conj().T)[0, 0]
    assert abs(op.matrix[0, 0] - expected) < 1e-15


def test_discretize_gauss_tableau_with_nonzero_kernel():
    beta = np.array([[1.0, 0.5]])  # beta J beta* = 1 != 0
    model = TriangularModel.from_constant_beta(beta, (0.0, 1.0), J_OFF)
    op = discretize(model, 2)  # one panel, h = 1
    kernel = (beta @ J_OFF @ beta.conj().T)[0, 0]
    root = np.sqrt(3.0) / 6.0
    # diagonal x_i + i h a_ii beta J beta*, a_ii = 1/4
    assert np.allclose(op.matrix.diagonal(), op.nodes + 0.25j * kernel,
                       rtol=0.0, atol=1e-15)
    # off the diagonal i h a_ij beta J beta*: a_12 = 1/4 - sqrt(3)/6 above,
    # a_21 = 1/4 + sqrt(3)/6 below
    assert abs(op.matrix[0, 1] - 1j * (0.25 - root) * kernel) < 1e-15
    assert abs(op.matrix[1, 0] - 1j * (0.25 + root) * kernel) < 1e-15


def test_degenerate_kernel_gives_multiplication_operator(rank_one_model):
    op = discretize(rank_one_model, 16)
    assert fro(op.matrix - np.diag(op.matrix.diagonal())) < 1e-15
    assert np.allclose(op.matrix.diagonal().real, op.nodes)


def test_node_identity_defect_decays():
    x = np.linspace(0.0, 1.0, 257)
    beta = np.stack([np.array([[1.0, 1j * xx]]) for xx in x])
    model = TriangularModel(interval=(0.0, 1.0), J=J_OFF, x=x, beta=beta)
    defects = [discretize(model, n).node_identity_defect() for n in (64, 128, 256)]
    # half-weight diagonal makes the discrete identity exact
    for n, defect in zip((64, 128, 256), defects):
        assert defect <= 100.0 / n


def test_model_rejects_non_increasing_samples():
    # beta would be mis-interpolated between unsorted samples
    x = np.array([0.0, 0.5, 0.3, 1.0])
    beta = np.stack([np.array([[1.0, 1j * xx]]) for xx in x])
    with pytest.raises(ValueError, match="increasing"):
        TriangularModel(interval=(0.0, 1.0), J=J_OFF, x=x, beta=beta)


# -- characteristic functions ---------------------------------------------------


def test_char_fn_constant_beta_closed_form(rank_one_model):
    # oracle: analytic integral of the rank-one resolvent,
    # W(z) = I - i J beta* beta ln((z-b)/(z-a))
    for z in (2j, 1.5 + 0.5j, -2.0 + 0.0j):
        op = discretize(rank_one_model, 512)
        got = char_fn(op, z).value
        log_term = np.log((z - 1.0) / (z - 0.0))
        expected = np.eye(2) - 1j * J_OFF @ rank_one.hamiltonian() * log_term
        assert fro(got - expected) < 1e-4


def test_char_fn_neumann_tail(rank_one_model):
    op = discretize(rank_one_model, 64)
    sample = char_fn(op, 1e6 + 0.0j)
    assert fro(sample.value - np.eye(2)) <= 1e-4


def test_char_fn_matches_fundamental_solution(rank_one_model):
    z = 2j
    op = discretize(rank_one_model, 1024)
    got = char_fn(op, z).value
    ref = char_fn_via_fundamental(rank_one_model, z, tol=1e-11)
    assert ref.method == "fundamental_solution"
    assert fro(got - ref.value) / fro(ref.value) <= 1e-2


def test_char_fn_j_relation_real_z(rank_one_model):
    # inherited from W(b, z): W(conj z)* J W(z) = J for real z off [a, b]
    op = discretize(rank_one_model, 512)
    z = 3.0
    w = char_fn(op, z).value
    w_conj = char_fn(op, np.conj(z)).value
    assert fro(w_conj.conj().T @ J_OFF @ w - J_OFF) < 1e-2


def test_char_fn_refinement_converges(rank_one_model):
    z = 0.5 + 0.2j  # dist(z, [0, 1]) = 0.2 >= 0.1 (b - a)
    ref = char_fn_via_fundamental(rank_one_model, z, tol=1e-12).value
    errors = [
        fro(char_fn(discretize(rank_one_model, n), z).value - ref)
        for n in (128, 256, 512)
    ]
    assert errors[2] < errors[1] < errors[0]


# -- resolvent identity -----------------------------------------------------------


def test_resolvent_identity_zero_beta():
    model = TriangularModel.from_constant_beta(np.zeros((1, 2)), (0.0, 1.0), J_OFF)
    op = discretize(model, 32)
    report = resolvent_identity_check(op, model, 2j)
    assert report.max_residual < 1e-13


def test_resolvent_identity_large_z(rank_one_model):
    op = discretize(rank_one_model, 64)
    report = resolvent_identity_check(op, rank_one_model, 1e6 + 0.0j)
    assert report.max_residual <= 1e-6


def test_resolvent_identity_refinement(rank_one_model):
    # beta J beta* = 0 makes A the multiplication by x, and beta W(x, z) =
    # beta, so the identity holds to rounding at every N; the order is
    # measured on a non-degenerate model at the end of this file
    residuals = [
        resolvent_identity_check(
            discretize(rank_one_model, n), rank_one_model, 2j, tol=1e-11
        ).max_residual
        for n in (128, 256, 512)
    ]
    for n, res in zip((128, 256, 512), residuals):
        assert res <= 10.0 / n
        assert res <= 1e-14


# -- dressing at the operator level -------------------------------------------------


def test_transform_model_trivial(unit_system, rank_one_model):
    from cansys.gbdt import GbdtParams

    params = GbdtParams(B=np.diag([2.0, -1.0]), S0=np.eye(2), Pi0=np.zeros((2, 2)))
    traj = evolve(params, unit_system, tol=1e-10)
    dressed = transform_model(rank_one_model, traj)
    assert max(fro(b - rank_one.BETA) for b in dressed.beta) < 1e-8
    z = 2j
    w = char_fn(discretize(rank_one_model, 128), z).value
    w_t = char_fn(discretize(dressed, 128), z).value
    assert fro(w - w_t) < 1e-7


def test_transform_model_multiplier_relation(rank_one_model, traj_n1):
    # W~(z) = v(b, z) W(z) v(a, z)^{-1}, both sides computed independently
    dressed = transform_model(rank_one_model, traj_n1)
    z = 2j
    w_t = char_fn(discretize(dressed, 1024), z).value
    w = char_fn(discretize(rank_one_model, 1024), z).value
    v_b = transfer(traj_n1, 1.0, z).v
    v_a_inv = np.linalg.inv(transfer(traj_n1, 0.0, z).v)
    assert fro(w_t - v_b @ w @ v_a_inv) <= 1e-2


def test_transformed_char_fn_tends_to_identity(rank_one_model, traj_n1):
    dressed = transform_model(rank_one_model, traj_n1)
    op = discretize(dressed, 256)
    assert fro(char_fn(op, 1e6 + 1e6j).value - np.eye(2)) < 1e-4


def test_transform_commutes_with_discretisation(rank_one_model, traj_n1):
    # char fn of the discretised dressed model against the multiplier
    # relation applied to the discretised original: gap shrinks with N
    z = 1.0 + 1.5j
    v_b = transfer(traj_n1, 1.0, z).v
    v_a_inv = np.linalg.inv(transfer(traj_n1, 0.0, z).v)
    dressed = transform_model(rank_one_model, traj_n1)
    gaps = []
    for n in (64, 256, 1024):
        w_t = char_fn(discretize(dressed, n), z).value
        w = char_fn(discretize(rank_one_model, n), z).value
        gaps.append(fro(w_t - v_b @ w @ v_a_inv))
    assert gaps[2] < gaps[0]
    assert gaps[2] < 1e-2


# -- similarity probe -----------------------------------------------------------------


def test_similarity_probe_zero_beta_self_adjoint():
    model = TriangularModel.from_constant_beta(np.zeros((2, 2)), (0.0, 1.0), np.eye(2))
    report = similarity_probe(model, 32)
    assert report.max_imag == 0.0
    assert report.inside_fraction == 1.0


def test_similarity_probe_identity_beta_refinement():
    model = TriangularModel.from_constant_beta(np.eye(2), (0.0, 1.0), np.eye(2))
    reports = [similarity_probe(model, n) for n in (64, 128, 256)]
    imags = [r.max_imag for r in reports]
    # every block is x_j I + (i / 2N) I, whose eigenvalues come out exactly
    assert imags == [0.5 / n for n in (64, 128, 256)]
    assert imags[2] < imags[1] < imags[0]
    assert imags[2] <= 5e-2
    assert all(r.inside_fraction == 1.0 for r in reports)


def test_similarity_probe_builds_no_sweep_data(monkeypatch):
    # the probe reads the midpoint blocks alone
    def no_sweep(op):
        raise AssertionError("similarity_probe built the char_fn sweep")

    monkeypatch.setattr(DiscretizedOperator, "sweep", property(no_sweep))
    model = TriangularModel.from_constant_beta(np.eye(2), (0.0, 1.0), np.eye(2))
    assert similarity_probe(model, 64).max_imag == 0.5 / 64


def test_similarity_probe_rejects_bad_inputs():
    model = TriangularModel.from_constant_beta(np.eye(2), (0.0, 1.0), J_OFF)
    with pytest.raises(ValueError, match="J = I"):
        similarity_probe(model, 16)
    model = TriangularModel.from_constant_beta(np.array([[1.0, 0.0]]), (0.0, 1.0),
                                               np.eye(2))
    with pytest.raises(ValueError, match="square"):
        similarity_probe(model, 16)
    model = TriangularModel.from_constant_beta(-np.eye(2), (0.0, 1.0), np.eye(2))
    with pytest.raises(ValueError, match="PSD"):
        similarity_probe(model, 16)
    model = TriangularModel.from_constant_beta(np.eye(2), (0.0, 1.0), np.eye(2))
    with pytest.raises(ValueError, match="^num_nodes must be a positive integer"):
        similarity_probe(model, 2.5)


@pytest.mark.parametrize("name, call", [
    ("z", lambda model, op: char_fn(op, np.nan)),
    ("z", lambda model, op: char_fn(op, np.inf)),
    ("z", lambda model, op: char_fn(op, complex(0.5, -np.inf))),
    ("num_nodes", lambda model, op: discretize(model, 2.5)),
    ("num_nodes", lambda model, op: discretize(model, 0)),
    ("num_nodes", lambda model, op: discretize(model, 7)),
], ids=["char_fn-nan", "char_fn-inf", "char_fn-imag-inf", "discretize-float",
        "discretize-zero", "discretize-odd"])
def test_bad_arguments_raise_naming_them(rank_one_model, name, call):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(rank_one_model, discretize(rank_one_model, 8))


def test_similarity_probe_transformed_comparable():
    # J = I system with varying PSD beta; w0 is then unitary and the
    # conjugated model w0* beta w0 should stay spectrally comparable
    interval = (0.0, 1.0)
    x = np.linspace(*interval, 65)
    beta = np.stack([(1.0 + 0.5 * xx) * np.eye(2) for xx in x]).astype(complex)
    spec = HamiltonianSpec.from_beta_grid(x, beta)
    sys_id = CanonicalSystem(J=np.eye(2), interval=interval, hamiltonian=spec)
    params = sample_params(42, sys_id, n=2, positive=True)
    traj = evolve(params, sys_id, tol=1e-10)
    # J = I makes w0 unitary
    w0 = w0_at(traj, 0.5)
    assert fro(w0 @ w0.conj().T - np.eye(2)) < 1e-8

    model = TriangularModel(interval=interval, J=np.eye(2), x=x, beta=beta)
    reports = [similarity_probe(model, n, traj=traj) for n in (64, 128)]
    for rep in reports:
        assert rep.transformed_max_imag <= 2.0 * rep.max_imag + 1e-3
        assert rep.transformed_inside_fraction >= 0.99
    assert reports[1].transformed_max_imag < reports[0].transformed_max_imag


def test_conjugate_transform_distinct_from_right_transform(rank_one_model, traj_n1):
    # the conjugated variant needs square beta; on a square model the two
    # dressings genuinely differ
    with pytest.raises(ValueError, match="square"):
        conjugate_transform_model(rank_one_model, traj_n1)

    interval = (0.0, 1.0)
    x = np.linspace(*interval, 33)
    beta = np.stack([(1.0 + 0.5 * xx) * np.eye(2) for xx in x]).astype(complex)
    spec = HamiltonianSpec.from_beta_grid(x, beta)
    sys_id = CanonicalSystem(J=np.eye(2), interval=interval, hamiltonian=spec)
    traj = evolve(sample_params(7, sys_id, n=2), sys_id, tol=1e-10)
    model = TriangularModel(interval=interval, J=np.eye(2), x=x, beta=beta)
    right = transform_model(model, traj)
    conj = conjugate_transform_model(model, traj)
    assert fro(right.beta_at(0.5) - conj.beta_at(0.5)) > 1e-6


# -- structured layer: sweep, block spectrum, dense diagnostics ------------------

SWEEP_ZS = [0.5 + 1e-3j, 0.5 - 1e-6j, 1e6 + 0.0j, 2j, -3.0 + 0.1j]


def _non_degenerate_model():
    # beta J beta* = 1: the Volterra part is nonzero on the diagonal blocks
    x = np.linspace(0.0, 1.0, 257)
    beta = np.stack([np.array([[1.0, 0.5 + 1j * xx]]) for xx in x])
    return TriangularModel(interval=(0.0, 1.0), J=J_OFF, x=x, beta=beta)


@pytest.fixture(scope="module")
def structured_models():
    """A k = 1 non-degenerate model, a PSD k = m = 2 model with J = I, its
    conjugated dressing, with the J = I trajectory used for it, and a
    k = 3, m = 2 model, whose block solves take the LAPACK route."""
    interval = (0.0, 1.0)
    x = np.linspace(*interval, 65)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    beta = np.stack([(1.0 + 0.5 * xx) * np.eye(2) + 0.3 * np.sin(3.0 * xx) * swap
                     for xx in x]).astype(complex)
    sys_id = CanonicalSystem(J=np.eye(2), interval=interval,
                             hamiltonian=HamiltonianSpec.from_beta_grid(x, beta))
    traj = evolve(sample_params(42, sys_id, n=2, positive=True), sys_id, tol=1e-10)
    psd = TriangularModel(interval=interval, J=np.eye(2), x=x, beta=beta)
    tall = np.stack([[[1.0, 0.5 + 1j * xx], [0.3 * xx, 1.0 - 0.2j],
                      [np.sin(3.0 * xx), 0.2j]] for xx in x])
    return {
        "non_degenerate": _non_degenerate_model(),
        "psd": psd,
        "dressed": conjugate_transform_model(psd, traj),
        "traj": traj,
        "k3": TriangularModel(interval=interval, J=J_OFF, x=x, beta=tall),
    }


@pytest.mark.parametrize("z", SWEEP_ZS)
@pytest.mark.parametrize("name", ["non_degenerate", "psd", "dressed", "k3"])
def test_char_fn_sweep_matches_dense_solve(structured_models, name, z):
    op = discretize(structured_models[name], 128)
    a, kmap = op.matrix, op.channel_map
    dense = np.linalg.solve(a - z * np.eye(a.shape[0]), kmap)
    expected = np.eye(op.m) - 1j * op.J @ kmap.conj().T @ dense
    got = char_fn(op, z).value
    assert fro(got - expected) <= 1e-12 * fro(expected)


@pytest.mark.parametrize("name", ["non_degenerate", "psd"])
def test_midpoint_char_fn_matches_dense_solve(structured_models, name):
    # one node per panel: 1 x 1 blocks go to LAPACK, 2 x 2 ones (k = 2)
    # take the closed form centred on the node
    op = midpoint(structured_models[name], 64)
    a, kmap = op.matrix, op.channel_map
    for z in SWEEP_ZS:
        dense = np.linalg.solve(a - z * np.eye(a.shape[0]), kmap)
        expected = np.eye(op.m) - 1j * op.J @ kmap.conj().T @ dense
        assert fro(char_fn(op, z).value - expected) <= 1e-12 * fro(expected)


def test_char_fn_singular_at_a_node_of_zero_beta():
    model = TriangularModel.from_constant_beta(np.zeros((1, 2)), (0.0, 1.0), J_OFF)
    op = discretize(model, 8)
    with pytest.raises(SingularMatrixError, match="resolvent singular"):
        char_fn(op, op.nodes[3])


def test_char_fn_singular_at_a_node_of_zero_square_beta():
    # k = m = 2: the closed-form block solve meets a zero determinant
    model = TriangularModel.from_constant_beta(np.zeros((2, 2)), (0.0, 1.0), np.eye(2))
    op = discretize(model, 8)
    with pytest.raises(SingularMatrixError, match="resolvent singular"):
        char_fn(op, op.nodes[3])


@pytest.mark.parametrize("name", ["non_degenerate", "psd", "k3"])
def test_panel_factors_match_a_direct_block_solve(structured_models, name):
    # k = 1 takes the per-operator closed form, k = 2 and 3 the LAPACK
    # solve; the reference solves each panel's block of the dense matrix
    op = discretize(structured_models[name], 64)
    a, kmap, q = op.matrix, op.channel_map, 2 * op.k
    for z in SWEEP_ZS:
        got = triangular._panel_factors(op, z)
        assert got.shape == (op.m, op.m, op.nodes.size // 2)
        for p in range(got.shape[-1]):
            rows = slice(p * q, (p + 1) * q)
            solved = np.linalg.solve(a[rows, rows] - z * np.eye(q), kmap[rows])
            want = np.eye(op.m) - 1j * op.J @ kmap[rows].conj().T @ solved
            assert fro(got[..., p] - want) <= 1e-14 * fro(want)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("stack", [(), (5,), (3, 4)])
def test_shifted_solve_matches_lapack(k, stack):
    # one-node panels make k x k diagonal blocks: k = 2 takes the shifted
    # closed form, k = 1 and 3 the LAPACK route.  The stack shape gives
    # the number of panels, 1, 5 and 12.
    n = int(np.prod(stack))
    rng = np.random.default_rng(10 * k + len(stack))
    shape = (n + 1, k, 2)
    beta = 0.5 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    model = TriangularModel(interval=(0.0, 1.0), J=J_OFF,
                            x=np.linspace(0.0, 1.0, n + 1), beta=beta)
    op = midpoint(model, n)
    a, kmap = op.matrix, op.channel_map
    z = 0.3 - 0.7j
    got = triangular._panel_factors(op, z)
    assert got.shape == (2, 2, n)
    for p in range(n):
        rows = slice(p * k, (p + 1) * k)
        solved = np.linalg.solve(a[rows, rows] - z * np.eye(k), kmap[rows])
        want = np.eye(2) - 1j * op.J @ kmap[rows].conj().T @ solved
        assert fro(got[..., p] - want) <= 1e-13 * fro(want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [0.0, 1e-160])
@pytest.mark.parametrize("k", [1, 2])
def test_char_fn_raises_instead_of_warning(k, scale):
    # beta J beta* = 0 makes every block diagonal, x_i I.  At z = x_i its
    # determinant is zero (k = 1, closed form) or LAPACK meets an exact
    # zero pivot (k = 2); a distance of 1e-160 makes the factor overflow
    # for beta of size 1e150.  Each must raise rather than warn or
    # return inf.
    beta = 1e150 * np.array([[1.0, 1j], [2.0, 2j]])[:k]
    model = TriangularModel.from_constant_beta(beta, (0.0, 1.0), J_OFF)
    op = discretize(model, 8)
    with pytest.raises(SingularMatrixError, match="resolvent singular"):
        char_fn(op, op.nodes[2] + 1j * scale)


@pytest.mark.parametrize("name", ["non_degenerate", "psd", "k3"])
def test_two_node_identity_is_exact(structured_models, name):
    # the Gauss tableau meets a_ij + a_ji = 1/2 (b_i = 1/2): A - A* = i K J K*
    # holds to rounding for k = 1, 2 and 3
    model = structured_models[name]
    assert discretize(model, 64).node_identity_defect() <= 1e-14
    # a tableau that breaks the condition, a_12 = a_21 = 1/4 + sqrt(3)/6,
    # breaks the identity
    c, a = _GAUSS2
    broken = _discretize(model, 64, (c, np.array([[a[0, 0], a[1, 0]], a[1]])))
    assert broken.node_identity_defect() > 1e-4


def _smooth_beta(t):
    # beta J beta* != 0 for J = J_OFF, and H(x) = beta* beta turns with x
    t = np.asarray(t, dtype=float)[..., None, None]
    return np.concatenate([np.exp(0.5 * t) + 0j,
                           0.5 + 1j * (1.0 + 0.5 * np.sin(3.0 * t))], axis=-1)


def test_char_fn_converges_at_fourth_order_on_a_callable_beta():
    x = np.linspace(0.0, 1.0, 5)
    model = TriangularModel(interval=(0.0, 1.0), J=J_OFF, x=x, beta=_smooth_beta(x),
                            beta_fn=_smooth_beta)
    z = 0.5 + 0.3j
    ref = fundamental_solution(model.canonical_system(), z, grid=np.array([1.0]),
                               tol=1e-13).values[0]
    panels = np.array([16, 32, 64, 128])

    def rates(tableau):
        errors = np.array([fro(char_fn(_discretize(model, 2 * p, tableau), z).value - ref)
                           for p in panels])
        return np.log2(errors[:-1] / errors[1:])

    assert np.all((rates(_GAUSS2) >= 3.9) & (rates(_GAUSS2) <= 4.1))
    # swapping a_12 and a_21 keeps a_12 + a_21 = 1/2, so the node identity
    # cannot see it; the order falls to two
    c, a = _GAUSS2
    assert np.all(rates((c, a.T)) <= 2.1)


def test_char_fn_reuses_operator_data_exactly(structured_models):
    zs = [2j, 0.5 + 1e-3j, -3.0 + 0.1j]
    for name in ("non_degenerate", "psd", "k3"):
        model = structured_models[name]
        fresh = [char_fn(discretize(model, 64), z).value for z in zs]
        op = discretize(model, 64)
        forward = [char_fn(op, z).value for z in zs]
        backward = [char_fn(op, z).value for z in reversed(zs)][::-1]
        for want, one, two in zip(fresh, forward, backward):
            assert np.array_equal(one, want)
            assert np.array_equal(two, want)


def test_char_fn_large_n_matches_fundamental_solution():
    # a dense (N k)^2 operator would take about 17 GB at this size
    model = _non_degenerate_model()
    n, z = 2**15, 0.5 + 0.2j
    got = char_fn(discretize(model, n), z).value
    ref = char_fn_via_fundamental(model, z, tol=1e-12).value
    assert fro(got - ref) <= 10.0 / n**2 * fro(ref)


def test_block_eigvals_closed_form_matches_lapack():
    # k = 2 blocks of widely spread scales, shifted like x_j I
    rng = np.random.default_rng(2024)
    n = 4096
    blocks = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    blocks *= 10.0 ** rng.uniform(-4.0, 4.0, size=(n, 1, 1))
    blocks += rng.uniform(0.0, 1.0, size=(n, 1, 1)) * np.eye(2)
    got = _block_eigvals(blocks.transpose(1, 2, 0).copy())
    want = np.linalg.eigvals(blocks)
    # the pairing of the two eigenvalues of a block is arbitrary
    err = np.minimum(np.abs(got - want).max(axis=1), np.abs(got - want[:, ::-1]).max(axis=1))
    assert np.all(err <= 1e-14 * np.linalg.norm(blocks, axis=(1, 2)))
    # k = 1 is the entry itself, and k = 3 still goes to LAPACK
    assert np.array_equal(_block_eigvals(blocks[:, :1, :1].transpose(1, 2, 0)),
                          blocks[:, :1, 0])
    tall = rng.normal(size=(3, 3, 5)) + 0j
    assert np.array_equal(_block_eigvals(tall), np.linalg.eigvals(tall.transpose(2, 0, 1)))


def test_similarity_probe_matches_dense_eigenvalues(structured_models):
    # a negative band shrinks the interval, so the inside fraction is not 1
    band = -0.25
    report = similarity_probe(structured_models["psd"], 64, traj=structured_models["traj"],
                              band=band)
    for name, max_imag, inside in (
        ("psd", report.max_imag, report.inside_fraction),
        ("dressed", report.transformed_max_imag, report.transformed_inside_fraction),
    ):
        eigs = np.linalg.eigvals(midpoint(structured_models[name], 64).matrix)
        assert max_imag == pytest.approx(np.abs(eigs.imag).max(), rel=1e-10)
        assert inside == np.mean((eigs.real > -band) & (eigs.real < 1.0 + band))
        assert 0.0 < inside < 1.0


def test_dense_view_has_a_size_guard(rank_one_model, structured_models):
    op = discretize(rank_one_model, MAX_DENSE_ROWS + 2)
    with pytest.raises(ValueError, match="char_fn and similarity_probe"):
        op.matrix
    assert fro(char_fn(op, 1e6 + 0.0j).value - np.eye(2)) <= 1e-4
    # the guard counts rows N k, not nodes
    with pytest.raises(ValueError, match="MAX_DENSE_ROWS"):
        discretize(structured_models["psd"], MAX_DENSE_ROWS // 2 + 2).matrix


def test_structured_layer_memory_is_linear_in_n():
    model = _non_degenerate_model()
    probe_model = TriangularModel.from_constant_beta(np.eye(2), (0.0, 1.0), np.eye(2))
    n = 2048
    tracemalloc.start()
    try:
        op = discretize(model, n)
        char_fn(op, 0.5 + 0.2j)
        similarity_probe(probe_model, n // 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense (N k)^2 operator alone would take 64 MiB
    assert peak < 8 * 2**20


def test_resolvent_identity_refinement_non_degenerate():
    # unlike the rank-one kernel, beta J beta* = 1 leaves a residual at the
    # Gauss nodes well above rounding, which must fall at least at second
    # order (it falls about 8x per doubling)
    model = _non_degenerate_model()
    residuals = [
        resolvent_identity_check(discretize(model, n), model, 2j, tol=1e-11).max_residual
        for n in (64, 128, 256, 512)
    ]
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 3.5 * fine <= coarse
