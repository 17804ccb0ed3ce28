import tracemalloc

import numpy as np
import pytest

from cansys import rank_one
from cansys.gbdt import evolve, sample_params, transfer, w0_at
from cansys.linalg import SingularMatrixError, fro
from cansys.system import CanonicalSystem, HamiltonianSpec
from cansys.triangular import (
    MAX_DENSE_ROWS,
    TriangularModel,
    _block_eigvals,
    _shifted_solve,
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


def test_discretize_single_node(rank_one_model):
    op = discretize(rank_one_model, 1)
    # x1 I_k + (i/2) w1 beta J beta*, and beta J beta* = 0 here
    assert op.matrix.shape == (1, 1)
    assert abs(op.matrix[0, 0] - 0.5) < 1e-15
    assert np.allclose(op.channel_map, rank_one.BETA)  # sqrt(w) = 1


def test_discretize_half_diagonal_with_nonzero_kernel():
    beta = np.array([[1.0, 0.5]])  # beta J beta* = 1 != 0
    model = TriangularModel.from_constant_beta(beta, (0.0, 1.0), J_OFF)
    op = discretize(model, 1)
    expected = 0.5 + 0.5j * 1.0 * (beta @ J_OFF @ beta.conj().T)[0, 0]
    assert abs(op.matrix[0, 0] - expected) < 1e-15


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
    residuals = [
        resolvent_identity_check(
            discretize(rank_one_model, n), rank_one_model, 2j, tol=1e-11
        ).max_residual
        for n in (128, 256, 512)
    ]
    for n, res in zip((128, 256, 512), residuals):
        assert res <= 10.0 / n
    assert residuals[2] <= residuals[0]


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
], ids=["char_fn-nan", "char_fn-inf", "char_fn-imag-inf", "discretize-float",
        "discretize-zero"])
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


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("stack", [(), (5,), (3, 4)])
def test_shifted_solve_matches_lapack(k, stack):
    rng = np.random.default_rng(10 * k + len(stack))
    shape = stack + (k, k)
    blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape) + 3.0 * np.eye(k)
    rhs = rng.normal(size=stack + (k, 2)) + 1j * rng.normal(size=stack + (k, 2))
    z = 0.3 - 0.7j
    # the solve takes and returns entries-leading stacks, (k, k, ...)
    got = np.moveaxis(_shifted_solve(np.moveaxis(blocks, (-2, -1), (0, 1)), z,
                                     np.moveaxis(rhs, (-2, -1), (0, 1))), (0, 1), (-2, -1))
    expected = np.linalg.solve(blocks - z * np.eye(k), rhs)
    assert got.shape == expected.shape
    assert fro(got - expected) <= 1e-13 * fro(expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [0.0, 1e-160])
@pytest.mark.parametrize("k", [1, 2])
def test_shifted_solve_raises_instead_of_warning(k, scale):
    # a zero determinant (with a nonzero adjugate) must raise before any
    # division; a subnormal one makes the quotient overflow, which must
    # raise rather than return inf
    blocks = np.zeros((k, k, 4), dtype=complex)  # entries-leading
    blocks[...] = np.eye(k)[..., None]
    blocks[..., 2] = scale * np.eye(k) + np.eye(k, k=1)
    rhs = np.full((k, 2, 4), 1e300, dtype=complex)
    with pytest.raises(SingularMatrixError, match="resolvent singular"):
        _shifted_solve(blocks, 0.0, rhs)


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
        eigs = np.linalg.eigvals(discretize(structured_models[name], 64).matrix)
        assert max_imag == pytest.approx(np.abs(eigs.imag).max(), rel=1e-10)
        assert inside == np.mean((eigs.real > -band) & (eigs.real < 1.0 + band))
        assert 0.0 < inside < 1.0


def test_dense_view_has_a_size_guard(rank_one_model, structured_models):
    op = discretize(rank_one_model, MAX_DENSE_ROWS + 1)
    with pytest.raises(ValueError, match="char_fn and similarity_probe"):
        op.matrix
    assert fro(char_fn(op, 1e6 + 0.0j).value - np.eye(2)) <= 1e-4
    # the guard counts rows N k, not nodes
    with pytest.raises(ValueError, match="MAX_DENSE_ROWS"):
        discretize(structured_models["psd"], MAX_DENSE_ROWS // 2 + 1).matrix


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
    # unlike the rank-one kernel, beta J beta* = 1 leaves a midpoint-rule
    # residual well above rounding, which must fall at second order
    model = _non_degenerate_model()
    residuals = [
        resolvent_identity_check(discretize(model, n), model, 2j, tol=1e-11).max_residual
        for n in (64, 128, 256, 512)
    ]
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 3.5 * fine <= coarse
