import tracemalloc

import numpy as np
import pytest

from cansys import rank_one, triangular
from cansys.gbdt import evolve, sample_params, transfer, transformed_system
from cansys.linalg import SingularMatrixError, _adj, fro
from cansys.system import (
    CanonicalSystem,
    HamiltonianSpec,
    fundamental_solution,
    validate_system,
)
from cansys.triangular import (
    _GAUSS2,
    MAX_DENSE_ROWS,
    DiscretizedOperator,
    TriangularModel,
    _discretize,
    char_fn,
    char_fn_via_fundamental,
    discretize,
    resolvent_identity_check,
    similarity_probe,
)

from conftest import assert_bits

J_OFF = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture(scope="module")
def rank_one_model():
    return TriangularModel.from_constant_beta(rank_one.BETA, (0.0, 1.0), J_OFF)


# -- discretisation -----------------------------------------------------------


#: The one-stage Gauss-Legendre tableau (c, a), the midpoint rule.
_MIDPOINT = (np.array([0.5]), np.array([[0.5]]))


def midpoint(model, num_nodes):
    """The one-node midpoint operator whose spectrum similarity_probe forms."""
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


@pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 1.0)], ids=["inf", "-inf"])
def test_model_rejects_a_non_finite_interval(interval):
    # an infinite end would give similarity_probe a NaN max_imag and discretize NaN nodes
    beta = np.stack([np.eye(2)] * 2)
    with pytest.raises(ValueError, match="^interval must be finite"):
        TriangularModel(interval=interval, J=np.eye(2), x=np.array([0.0, 1.0]), beta=beta)


def test_model_rejects_a_signature_of_another_size():
    # a J of another size would fail later, inside discretize with an IndexError
    # and inside char_fn_via_fundamental with a matmul error
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="^beta has 2 columns, J is 3 x 3"):
        TriangularModel(interval=(0.0, 1.0), J=np.eye(3), x=x, beta=np.ones((5, 1, 2)))


def test_model_is_the_canonical_system_with_base_point_a(structured_models):
    # the system routes take the model itself, and agree bitwise with the
    # plain system of the same data
    model = structured_models["psd"]
    spec = model.hamiltonian
    plain = CanonicalSystem(J=model.J, interval=model.interval,
                            hamiltonian=HamiltonianSpec.from_beta_grid(spec.x, spec.beta))
    assert isinstance(model, CanonicalSystem) and model.xi == 0.0
    assert validate_system(model).ok
    for z in (0.5 + 0.2j, 2j):
        assert np.array_equal(fundamental_solution(model, z).values,
                              fundamental_solution(plain, z).values)
    traj = evolve(sample_params(42, model, n=2, positive=True), model, tol=1e-10)
    want = structured_models["traj"]
    for name in ("grid", "s", "pi", "k", "q"):
        assert np.array_equal(getattr(traj, name), getattr(want, name))


def test_char_fn_via_fundamental_is_the_models_rk45_solution(structured_models):
    model = structured_models["non_degenerate"]
    for z in (0.5 + 0.2j, np.array([2j, 0.5 + 1e-2j])):
        want = fundamental_solution(model, z, grid=[1.0], method="rk45").values[..., 0, :, :]
        assert np.array_equal(char_fn_via_fundamental(model, z).value, want)


def _zigzag_beta_grid(J):
    """(x, beta) on 33 nodes, beta = c(x) beta0 with c a sine plus a
    zigzag, so every node is a kink: beta0 J beta0* != 0 for J_OFF, and
    for J = I beta0 is Hermitian positive, which the probe needs."""
    rng = np.random.default_rng(1)
    x = np.linspace(0.0, 1.0, 33)
    zigzag = rng.choice([-1.0, 1.0]) * (-1.0) ** np.arange(x.size)
    c = 1.0 + 0.4 * np.sin(2 * np.pi * (x + rng.uniform())) + 0.02 * zigzag
    beta0 = np.array([[1.0, 0.5 + 1j]]) if J is J_OFF else np.array([[1.0, 0.3j], [-0.3j, 1.0]])
    return x, c[:, None, None] * beta0


@pytest.mark.parametrize("name", ["rank_one", "zigzag", "zigzag_psd"])
def test_plain_factored_system_gives_the_models_bits(name):
    # the routes read the system's factored Hamiltonian, not a model type:
    # a plain CanonicalSystem of the same data gives the same bits
    if name == "rank_one":
        plain = rank_one.make_system(1.0)
        model = TriangularModel.from_constant_beta(rank_one.BETA, (0.0, 1.0), rank_one.J)
    else:
        J = J_OFF if name == "zigzag" else np.eye(2)
        x, beta = _zigzag_beta_grid(J)
        plain = CanonicalSystem(J, (0.0, 1.0), HamiltonianSpec.from_beta_grid(x, beta))
        model = TriangularModel(interval=(0.0, 1.0), J=J, x=x, beta=beta)
    assert type(plain) is CanonicalSystem
    want, got = discretize(model, 64), discretize(plain, 64)
    for field in ("nodes", "weights", "beta", "diag_blocks", "left_factor", "right_factor"):
        assert_bits(getattr(got, field), getattr(want, field))
    zs = np.array([0.5 + 0.2j, 2j, -0.3 + 1e-3j])
    for z in zs:
        assert_bits(char_fn(got, z).value, char_fn(want, z).value)
    assert_bits(char_fn_via_fundamental(plain, zs).value,
                char_fn_via_fundamental(model, zs).value)
    if name == "zigzag_psd":
        want, got = similarity_probe(model, 64), similarity_probe(plain, 64)
        assert_bits(got.max_imag, want.max_imag)
        assert_bits(got.inside_fraction, want.inside_fraction)


def test_routes_need_factored_data_and_two_need_base_point_a(rank_one_model):
    x = np.array([0.0, 1.0])
    h_grid = CanonicalSystem(J_OFF, (0.0, 1.0), HamiltonianSpec.from_grid(
        x, np.stack([rank_one.hamiltonian()] * 2)))
    op = discretize(rank_one_model, 8)
    for call in (lambda: discretize(h_grid, 8),
                 lambda: char_fn_via_fundamental(h_grid, 2j),
                 lambda: resolvent_identity_check(op, h_grid, 2j),
                 lambda: similarity_probe(h_grid, 8)):
        with pytest.raises(ValueError, match="factored Hamiltonian"):
            call()
    # W(b, z) normalised at xi = 0.5 is not the characteristic function
    mid = CanonicalSystem(J_OFF, (0.0, 1.0), rank_one_model.hamiltonian, xi=0.5)
    for call in (lambda: char_fn_via_fundamental(mid, 2j),
                 lambda: resolvent_identity_check(op, mid, 2j)):
        with pytest.raises(ValueError, match="normalised at a = 0.0"):
            call()
    # the operator does not depend on the base point
    assert_bits(discretize(mid, 8).diag_blocks, op.diag_blocks)


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
    dressed = transformed_system(traj)
    assert type(dressed) is CanonicalSystem and dressed.xi == 0.0
    assert max(fro(b - rank_one.BETA) for b in dressed.hamiltonian.beta) < 1e-8
    z = 2j
    w = char_fn(discretize(rank_one_model, 128), z).value
    w_t = char_fn(discretize(dressed, 128), z).value
    assert fro(w - w_t) < 1e-7


def test_transform_model_multiplier_relation(rank_one_model, traj_n1):
    # W~(z) = v(b, z) W(z) v(a, z)^{-1}, both sides computed independently
    dressed = transformed_system(traj_n1)
    z = 2j
    w_t = char_fn(discretize(dressed, 1024), z).value
    w = char_fn(discretize(rank_one_model, 1024), z).value
    v_b = transfer(traj_n1, 1.0, z).v
    v_a_inv = np.linalg.inv(transfer(traj_n1, 0.0, z).v)
    assert fro(w_t - v_b @ w @ v_a_inv) <= 1e-2


def test_transformed_char_fn_tends_to_identity(traj_n1):
    dressed = transformed_system(traj_n1)
    op = discretize(dressed, 256)
    assert fro(char_fn(op, 1e6 + 1e6j).value - np.eye(2)) < 1e-4


def test_transform_commutes_with_discretisation(rank_one_model, traj_n1):
    # char fn of the discretised dressed model against the multiplier
    # relation applied to the discretised original: gap shrinks with N
    z = 1.0 + 1.5j
    v_b = transfer(traj_n1, 1.0, z).v
    v_a_inv = np.linalg.inv(transfer(traj_n1, 0.0, z).v)
    dressed = transformed_system(traj_n1)
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


def test_similarity_probe_builds_no_operator(monkeypatch, structured_models):
    # the probe forms the midpoint spectrum from the samples alone
    def no_operator(op):
        raise AssertionError("a DiscretizedOperator was built")

    monkeypatch.setattr(DiscretizedOperator, "__post_init__", no_operator)
    model = TriangularModel.from_constant_beta(np.eye(2), (0.0, 1.0), np.eye(2))
    with pytest.raises(AssertionError, match="DiscretizedOperator"):
        midpoint(model, 8)
    assert similarity_probe(model, 64).max_imag == 0.5 / 64
    assert similarity_probe(structured_models["psd"], 64).max_imag > 0.0


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
    for num_nodes in (2.5, 0, True):
        with pytest.raises(ValueError, match="^num_nodes must be a positive integer"):
            similarity_probe(model, num_nodes)


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
    GBDT dressing, a plain factored system, with the trajectory used for
    it, and a k = 3, m = 2 model, whose block solves take the LAPACK
    route."""
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
        "dressed": transformed_system(traj),
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
    model = CanonicalSystem(J_OFF, (0.0, 1.0),
                            HamiltonianSpec.from_beta_grid(x, _smooth_beta(x),
                                                           beta_fn=_smooth_beta))
    z = 0.5 + 0.3j
    ref = fundamental_solution(model, z, grid=np.array([1.0]), tol=1e-13).values[0]
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


def _square_psd_model(k, seed=None):
    """J = I and a square PSD factor beta(x) = G(x) G(x)*, not diagonal for
    k > 1, and |beta| < 1: much larger blocks overlap the node spacing and
    leave the dense eigensolve of the reference, not the probe, inexact.
    The generator is seeded by k unless a seed is given."""
    rng = np.random.default_rng(k if seed is None else (k, seed))
    g0, g1 = (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for _ in range(2))
    x = np.linspace(0.0, 1.0, 65)
    g = (g0 + np.sin(3.0 * x)[:, None, None] * g1) / (2.0 * k)
    return TriangularModel(interval=(0.0, 1.0), J=np.eye(k), x=x, beta=g @ _adj(g))


def test_similarity_probe_matches_dense_eigenvalues(structured_models, monkeypatch):
    # a negative band shrinks the interval, so the inside fraction is not 1
    band = -0.25
    monkeypatch.setattr(triangular, "PROBE_BAND", band)
    models = [structured_models["psd"], _square_psd_model(1), _square_psd_model(3)]
    for model in models:
        report = similarity_probe(model, 64)
        eigs = np.linalg.eigvals(midpoint(model, 64).matrix)
        assert report.max_imag == pytest.approx(np.abs(eigs.imag).max(), rel=1e-10)
        assert report.inside_fraction == np.mean((eigs.real > -band) & (eigs.real < 1.0 + band))
        assert 0.0 < report.inside_fraction < 1.0


def _probe_by_eigensolve(model, num_nodes):
    """(max_imag, inside_fraction) from the whole midpoint spectrum: every
    eigenvalue x_j + (i w / 2) lambda of one stacked Hermitian eigensolve."""
    lo, hi = model.interval
    step = (hi - lo) / num_nodes
    nodes = lo + (np.arange(num_nodes) + 0.5) * step
    beta = model.hamiltonian.beta_at(nodes)
    eigs = nodes[:, None] + 0.5j * step * np.linalg.eigvalsh(beta @ _adj(beta))
    band = triangular.PROBE_BAND
    inside = np.mean((eigs.real > lo - band) & (eigs.real < hi + band))
    return float(np.abs(eigs.imag).max()), float(inside)


@pytest.mark.parametrize("band", [triangular.PROBE_BAND, -0.25])
def test_similarity_probe_is_the_eigensolve_bitwise_but_for_the_m2_top(band, monkeypatch):
    # m = 2 takes the top eigenvalue in closed form, which may move by
    # rounding; the inside fraction, and every m = 1, 3 report, are the bits
    # of the whole spectrum
    monkeypatch.setattr(triangular, "PROBE_BAND", band)
    roundoff = np.finfo(float).eps / 2
    for k in (1, 2, 3):
        for seed in range(4):
            model = _square_psd_model(k, seed)
            for n in (16, 64, 256):
                report = similarity_probe(model, n)
                max_imag, inside = _probe_by_eigensolve(model, n)
                assert_bits(report.inside_fraction, inside)
                if k == 2:
                    assert abs(report.max_imag - max_imag) <= 4 * roundoff * max_imag
                else:
                    assert_bits(report.max_imag, max_imag)
            if k == 2:  # Gram matrices far from diagonal: the top needs |g01|
                beta = model.hamiltonian.beta
                gram = beta @ _adj(beta)
                assert np.all(np.abs(gram[:, 0, 1]) > 0.1 * np.abs(gram[:, 0, 0]))


@pytest.mark.parametrize("size", [1.0, 1e6, 1e8])
def test_similarity_probe_psd_check_scales_with_beta(size):
    # rounding puts the PSD defect of PSD data near u |beta|, so large PSD
    # grids pass, and a least eigenvalue of -1e-6 |beta| fails at any size
    rng = np.random.default_rng(0)
    a = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    beta = size * a @ _adj(a)
    x = np.linspace(0.0, 1.0, 9)
    assert similarity_probe(TriangularModel((0.0, 1.0), np.eye(2), x, beta), 16).max_imag > 0
    beta[4] -= (np.linalg.eigvalsh(beta[4])[0] + 1e-6 * np.linalg.norm(beta[4])) * np.eye(2)
    with pytest.raises(ValueError, match=f"beta not PSD Hermitian at sample x = {x[4]}"):
        similarity_probe(TriangularModel((0.0, 1.0), np.eye(2), x, beta), 16)


def test_dense_view_has_a_size_guard(rank_one_model, structured_models):
    op = discretize(rank_one_model, MAX_DENSE_ROWS + 2)
    with pytest.raises(ValueError, match="char_fn works on the blocks"):
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
