import numpy as np
import pytest

from cansys import rank_one
from cansys.gbdt import GbdtParams
from cansys.linalg import SingularMatrixError, fro


def test_scenario_constants():
    beta, J, T = rank_one.BETA, rank_one.J, rank_one.T
    assert fro(beta @ J @ beta.conj().T) == 0.0
    assert np.allclose(T @ J @ T.conj().T, 2.0 * J)
    h = rank_one.hamiltonian()
    assert np.allclose(h, h.conj().T)
    assert np.allclose(sorted(np.linalg.eigvalsh(h)), [0.0, 2.0])


def test_fundamental_matrix_normalisation():
    assert np.allclose(rank_one.fundamental_matrix(0.0, 2j), np.eye(2))


def test_fundamental_matrix_matches_stacked_form():
    # independent route: W = T^{-1} [beta; 2i ln(z/(z-x)) beta + beta J]
    beta, J = rank_one.BETA, rank_one.J
    for x, z in [(0.5, 2j), (1.0, -0.3 + 0.8j), (0.7, 3.0)]:
        L = np.log(z) - np.log(z - x)
        stacked = np.vstack([beta, 2j * L * beta + beta @ J])
        expected = np.linalg.inv(rank_one.T) @ stacked
        assert fro(rank_one.fundamental_matrix(x, z) - expected) < 1e-14
        simplified = np.array([[1 + L, 1j * L], [1j * L, 1 - L]])
        assert fro(expected - simplified) < 1e-14


def test_fundamental_matrix_unit_determinant():
    for z in (2j, -1.0 + 0.5j, 5.0):
        w = rank_one.fundamental_matrix(0.8, z)
        assert abs(np.linalg.det(w) - 1.0) < 1e-13


def test_fundamental_matrix_rejects_cut_points():
    with pytest.raises(rank_one.BranchCutError):
        rank_one.fundamental_matrix(0.5, 0.5)
    with pytest.raises(ValueError):
        rank_one.fundamental_matrix(1.5, 2j, b=1.0)


def test_log_branch_continuity():
    # no 2*pi jumps along x for admissible z and poles, including the
    # negative-real edge cases
    xs = np.linspace(0.0, 1.0, 400)
    for z in (2j, -0.5 + 1e-3j, -2.0, 3.5, 0.2 - 0.7j):
        vals = np.array([rank_one.log_ratio(x, z) for x in xs])
        assert np.max(np.abs(np.diff(vals))) < 0.2
    for pole in (1j, -2.0, 1.5 - 0.4j):
        vals = np.log(complex(pole) - xs.astype(complex))
        assert np.max(np.abs(np.diff(vals))) < 0.2


@pytest.fixture
def diag_n2():
    return rank_one.DiagonalParams(
        b_diag=[1j, -0.5 + 0.8j], g=[1.0, 0.3 - 0.2j], h=[0.1j, -0.4]
    )


def test_closed_forms_satisfy_displacement_identity(diag_n2):
    for x in (0.0, 0.33, 0.8, 1.0):
        a = np.diag(1.0 / (diag_n2.b_diag - x))
        s = diag_n2.s_at(x)
        lhs = a @ s - s @ a.conj().T
        rhs = 1j * diag_n2.pi_j_pi(x)
        assert fro(lhs - rhs) < 1e-12
        assert fro(s - s.conj().T) < 1e-13
        pi = diag_n2.pi_at(x)
        assert fro(pi @ rank_one.J @ pi.conj().T - diag_n2.pi_j_pi(x)) < 1e-13


def test_closed_form_w0_is_j_unitary(diag_n2):
    forms = rank_one.dressed_forms(diag_n2.to_gbdt_params(), [0.1, 0.5, 0.9], 2j)
    for w0 in forms.w0:
        assert fro(w0 @ rank_one.J @ w0.conj().T - rank_one.J) < 1e-10


def test_closed_forms_satisfy_evolution_equations(diag_n2):
    # finite differences against Pi_x = -i A Pi J H, S_x = Pi J H J Pi* - (AS + SA*)
    h_step = 1e-4
    H = rank_one.hamiltonian()
    for x in (0.3, 0.6):
        a = np.diag(1.0 / (diag_n2.b_diag - x))
        pi = diag_n2.pi_at(x)
        s = diag_n2.s_at(x)
        d_pi = (diag_n2.pi_at(x + h_step) - diag_n2.pi_at(x - h_step)) / (2 * h_step)
        expected = -1j * a @ pi @ rank_one.J @ H
        assert fro(d_pi - expected) < 1e-6
        d_s = (diag_n2.s_at(x + h_step) - diag_n2.s_at(x - h_step)) / (2 * h_step)
        expected = (
            pi @ rank_one.J @ H @ rank_one.J @ pi.conj().T
            - (a @ s + s @ a.conj().T)
        )
        assert fro(d_s - expected) < 1e-6


def test_closed_form_beta_t_and_h_t(diag_n2):
    # beta w0 in the diagonal shorthand, beta - i g* S^{-1} (B - x) Pi
    x = 0.4
    forms = rank_one.dressed_forms(diag_n2.to_gbdt_params(), x, 2j)
    w0 = forms.w0
    beta_t = rank_one.BETA @ w0
    core = np.linalg.solve(forms.s, np.diag(diag_n2.b_diag - x) @ forms.pi)
    assert fro(beta_t - (rank_one.BETA - 1j * diag_n2.g.conj()[None, :] @ core)) < 1e-11
    h_t = w0.conj().T @ rank_one.hamiltonian() @ w0
    assert fro(h_t - beta_t.conj().T @ beta_t) < 1e-13 * fro(h_t)


def test_dressed_forms_match_diagonal_params_at_order_two(diag_n2):
    xs = np.linspace(0.0, 1.0, 11)
    forms = rank_one.dressed_forms(diag_n2.to_gbdt_params(), xs, 2j)
    for j, x in enumerate(xs):
        assert fro(forms.pi[j] - diag_n2.pi_at(x)) <= 1e-12
        assert fro(forms.s[j] - diag_n2.s_at(x)) <= 1e-12


def test_degenerate_pole_pair_rejected():
    params = rank_one.DiagonalParams(
        b_diag=[1j, -1j], g=[1.0, 1.0], h=[0.0, 0.0]
    )
    with pytest.raises(ValueError, match="evolve"):
        params.s_at(0.5)
    shared = GbdtParams(B=np.diag([1j, -1j]), S0=np.eye(2), Pi0=np.ones((2, 2)))
    with pytest.raises(ValueError, match="share an eigenvalue"):
        rank_one.dressed_forms(shared, 0.5, 2.0)


def order_one_params(B, g, h):
    return rank_one.DiagonalParams(b_diag=[B], g=[g], h=[h]).to_gbdt_params()


def expanded_order_one(B, g, h, x, z):
    """S, beta w0, w0, w_A and v of an order-one dressing at a point (x, z),
    fully expanded on the frame T: an oracle written apart from
    rank_one.dressed_forms."""
    frame_inv = np.linalg.inv(rank_one.T)
    ln = np.log(B - x)
    denom = 2j * abs(g) ** 2 * ln.imag - 1j * h * np.conj(g) - 1j * g * np.conj(h)
    phi = 1j * g * ln + h
    row = np.array([[2.0 * phi, g]]) @ rank_one.T
    col = frame_inv @ np.array([[np.conj(g)], [2.0 * np.conj(phi)]])
    c_w0 = 1j * (B - np.conj(B)) / (2.0 * (np.conj(B) - x) * denom)
    w0 = np.eye(2) - c_w0 * col @ row
    J = rank_one.J
    return {
        "s": denom * (B - x) * (np.conj(B) - x) / (B - np.conj(B)),
        "beta_t": rank_one.BETA - np.conj(g) * c_w0 * row,
        "w0": w0,
        "w_a": np.eye(2) - c_w0 * (x - z) / (B - z) * col @ row,
        "v": ((x - z) * np.eye(2) + (B - x) * J @ w0.conj().T @ J) / (B - z),
    }


def test_order_one_invertibility_always_holds_for_h_zero():
    # Im ln(B - x) never vanishes for B off the real axis, so h = 0 is safe
    forms = rank_one.dressed_forms(order_one_params(1j, 1.0, 0.0),
                                   np.linspace(0.0, 1.0, 21), 2j)
    assert np.all(np.abs(forms.s) > 0)


def test_order_one_simplified_row_matches_general():
    # (e5), the h = 0 specialisation of the beta row, against beta w0
    B, g, x = 1j, 0.7 - 0.3j, 0.45
    ln = np.log(B - x)
    simplified = rank_one.BETA - (B - np.conj(B)) / (
        4.0 * (np.conj(B) - x) * ln.imag) * np.array([[2j * ln, 1.0]]) @ rank_one.T
    general = rank_one.BETA @ rank_one.dressed_forms(order_one_params(B, g, 0.0), x, 2j).w0
    assert fro(general - simplified) < 1e-12


def test_order_one_singular_point_detected():
    B, g = 1j, 1.0
    x_target = 0.5
    h = np.log(B - x_target).imag * g  # Re(h/g) = Im ln(B - x_target)
    params = order_one_params(B, g, h)
    with pytest.raises(SingularMatrixError):
        rank_one.dressed_forms(params, x_target, 2j)
    rank_one.dressed_forms(params, 0.1, 2j)  # fine away from it


def test_order_one_rejects_bad_parameters():
    real_pole = GbdtParams(B=[[2.0]], S0=[[1.0]], Pi0=[[1.0, 0.5]])
    with pytest.raises(ValueError):
        rank_one.dressed_forms(real_pole, 0.5, 2j)
    with pytest.raises(ValueError):
        rank_one.dressed_forms(order_one_params(1j, 0.0, 0.0), 0.5, 2j)  # g = 0
    with pytest.raises(ValueError, match="spectrum of B"):
        rank_one.dressed_forms(order_one_params(1j, 1.0, 0.0), 0.5, [2j, 1j])


def test_jump_matrix_values_and_validation():
    expected_sq = np.array(
        [[1.0 - 2j * np.pi, 2 * np.pi], [2 * np.pi, 1.0 + 2j * np.pi]]
    )
    assert fro(rank_one.jump_matrix() - expected_sq) < 1e-13
    assert fro(rank_one.jump_matrix(0.5, 1.0) - expected_sq) < 1e-13
    with pytest.raises(ValueError):
        rank_one.jump_matrix(1.5, 1.0)


@pytest.mark.parametrize("h_zero", [True, False], ids=["h=0", "h!=0"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dressed_forms_match_the_expanded_order_one_formulas(seed, h_zero):
    # the general forms at n = 1 and the expanded ones are two oracles
    # written apart; they must agree to rounding
    rng = np.random.default_rng(seed)
    B = complex(rng.uniform(-1.0, 2.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5))
    g = complex(*rng.uniform(-1.0, 1.0, 2)) + 0.5
    h = 0.0 if h_zero else complex(*rng.uniform(-0.5, 0.5, 2))
    diag = rank_one.DiagonalParams(b_diag=[B], g=[g], h=[h])
    for x in (0.0, 0.45, 1.0):
        for z in (2j, -0.5 + 0.3j, 1.5 - 0.2j):
            forms = rank_one.dressed_forms(diag.to_gbdt_params(), x, z)
            expected = expanded_order_one(B, g, h, x, z)
            assert fro(forms.pi - diag.pi_at(x)) <= 1e-13
            assert abs(forms.s[0, 0] - expected["s"]) <= 1e-13
            assert fro(rank_one.BETA @ forms.w0 - expected["beta_t"]) <= 1e-13
            for name in ("w0", "w_a", "v"):
                assert fro(getattr(forms, name) - expected[name]) <= 1e-13


def test_transformed_fundamental_matrix_normalisation(diag_n2):
    for z in (2j, -1.0 + 1.0j):
        wt = rank_one.transformed_fundamental_matrix(diag_n2.to_gbdt_params(), 0.0, z)
        assert fro(wt - np.eye(2)) < 1e-11


# the (x, z) grid and the sweep z of the bundled example-n1 task on [0, 1]
GRID_X = np.linspace(0.1, 1.0, 7)
GRID_Z = [2j, 1.0 + 1.5j, -0.7 + 0.5j]
SWEEP_Z = np.array([f + 1.5j for f in (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5)])


def rel_gap(stacked, single):
    return np.linalg.norm(stacked - single) / np.linalg.norm(single)


@pytest.mark.parametrize("h", [0.0, 0.3 - 0.1j], ids=["h=0", "h!=0"])
def test_stacked_order_one_forms_match_the_per_point_ones(h):
    params = order_one_params(1j, 1.0, h)
    forms = rank_one.dressed_forms(params, GRID_X[:, None], GRID_Z)
    assert forms.s.shape == (7, 3, 1, 1) and forms.pi.shape == (7, 3, 1, 2)
    for name in ("w0", "w_a", "v"):
        assert getattr(forms, name).shape == (7, 3, 2, 2)
    single = rank_one.dressed_forms(params, 0.5, 2j)
    assert single.s.shape == (1, 1) and single.pi.shape == (1, 2)
    assert single.w0.shape == single.w_a.shape == single.v.shape == (2, 2)
    for i, x in enumerate(GRID_X):
        for j, z in enumerate(GRID_Z):
            single = rank_one.dressed_forms(params, x, z)
            for name in ("pi", "s", "w0", "w_a", "v"):
                assert rel_gap(getattr(forms, name)[i, j], getattr(single, name)) <= 1e-14


@pytest.mark.parametrize("order", [1, 2])
def test_stacked_transformed_fundamental_matrix_matches_the_per_point_one(order, diag_n2):
    diag = diag_n2 if order == 2 else rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[0.0])
    params = diag.to_gbdt_params()
    stacked = rank_one.transformed_fundamental_matrix(params, 1.0, SWEEP_Z)
    assert stacked.shape == (7, 2, 2)
    for k, z in enumerate(SWEEP_Z):
        single = rank_one.transformed_fundamental_matrix(params, 1.0, z)
        assert single.shape == (2, 2)
        assert rel_gap(stacked[k], single) <= 1e-14
    # x and z broadcast: a grid of x against the sweep
    grid = rank_one.transformed_fundamental_matrix(params, GRID_X[:, None], SWEEP_Z)
    assert grid.shape == (7, 7, 2, 2)
    for i, x in enumerate(GRID_X):
        single = rank_one.transformed_fundamental_matrix(params, x, SWEEP_Z[2])
        assert rel_gap(grid[i, 2], single) <= 1e-14


def test_a_cut_point_anywhere_in_a_stack_raises(diag_n2):
    params = diag_n2.to_gbdt_params()
    with pytest.raises(rank_one.BranchCutError, match="0.5"):
        rank_one.transformed_fundamental_matrix(params, GRID_X[:, None], [2j, 0.5, 1 + 1j])
    with pytest.raises(rank_one.BranchCutError, match="0.3"):
        rank_one.transformed_fundamental_matrix(params, 1.0, [*SWEEP_Z, 0.3])
    with pytest.raises(rank_one.BranchCutError):
        rank_one.fundamental_matrix(0.5, [2j, 1.0])


def test_fundamental_matrix_broadcasts_x_and_z():
    stacked = rank_one.fundamental_matrix(np.array([0.2, 0.5]), 2j)
    assert stacked.shape == (2, 2, 2)
    grid = rank_one.fundamental_matrix(GRID_X[:, None], GRID_Z)
    assert grid.shape == (7, 3, 2, 2)
    for i, x in enumerate([0.2, 0.5]):
        assert rel_gap(stacked[i], rank_one.fundamental_matrix(x, 2j)) <= 1e-15
    for i, x in enumerate(GRID_X):
        for j, z in enumerate(GRID_Z):
            assert rel_gap(grid[i, j], rank_one.fundamental_matrix(x, z)) <= 1e-15
    for bad in (1.5, np.nan):
        with pytest.raises(ValueError, match="outside"):
            rank_one.fundamental_matrix(np.array([0.2, bad]), 2j)


def test_stacked_singular_point_is_located_at_the_first_bad_x():
    B, g, x_target = 1j, 1.0, 0.5
    h = np.log(B - x_target).imag * g  # Re(h/g) = Im ln(B - x_target)
    xs = np.array([0.9, x_target + 1e-13, 0.2, x_target])
    with pytest.raises(SingularMatrixError) as info:
        rank_one.dressed_forms(order_one_params(B, g, h), xs[:, None], GRID_Z)
    assert info.value.location == x_target + 1e-13
