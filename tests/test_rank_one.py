import numpy as np
import pytest

from cansys import rank_one
from cansys.linalg import SingularMatrixError, fro


def test_scenario_constants():
    beta, J, T = rank_one.BETA, rank_one.J, rank_one.T
    assert fro(beta @ J @ beta.conj().T) == 0.0
    assert np.allclose(T @ J @ T.conj().T, 2.0 * J)
    assert np.allclose(rank_one.T_INV @ T, np.eye(2))
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
        expected = rank_one.T_INV @ stacked
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
    for x in (0.1, 0.5, 0.9):
        w0 = diag_n2.w0_at(x)
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
    beta_t = diag_n2.beta_t_at(0.4)
    assert fro(beta_t - rank_one.BETA @ diag_n2.w0_at(0.4)) < 1e-11
    assert fro(diag_n2.h_t_at(0.4) - beta_t.conj().T @ beta_t) < 1e-13


def test_degenerate_pole_pair_rejected():
    params = rank_one.DiagonalParams(
        b_diag=[1j, -1j], g=[1.0, 1.0], h=[0.0, 0.0]
    )
    with pytest.raises(ValueError, match="evolve"):
        params.s_at(0.5)


def test_order_one_invertibility_always_holds_for_h_zero():
    # Im ln(B - x) never vanishes for B off the real axis, so h = 0 is safe
    for x in np.linspace(0.0, 1.0, 21):
        forms = rank_one.order_one_closed_forms(1j, 1.0, 0.0, x, 2j)
        assert abs(forms.s) > 0


def test_order_one_simplified_row_matches_general():
    # (e5) is the h = 0 specialisation of (e4); compare at h exactly 0
    # via the general path with a tiny h
    x = 0.45
    general = rank_one.order_one_closed_forms(1j, 0.7 - 0.3j, 1e-30, x, 2j)
    simplified = rank_one.order_one_closed_forms(1j, 0.7 - 0.3j, 0.0, x, 2j)
    assert fro(general.beta_t - simplified.beta_t) < 1e-12


def test_order_one_singular_point_detected():
    B, g = 1j, 1.0
    x_target = 0.5
    h = np.log(B - x_target).imag * g  # Re(h/g) = Im ln(B - x_target)
    with pytest.raises(SingularMatrixError):
        rank_one.order_one_closed_forms(B, g, h, x_target, 2j)
    rank_one.order_one_closed_forms(B, g, h, 0.1, 2j)  # fine away from it


def test_order_one_rejects_bad_parameters():
    with pytest.raises(ValueError):
        rank_one.order_one_closed_forms(2.0, 1.0, 0.0, 0.5, 2j)  # real pole
    with pytest.raises(ValueError):
        rank_one.order_one_closed_forms(1j, 0.0, 0.0, 0.5, 2j)  # g = 0


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
def test_order_one_closed_forms_match_diagonal_params(seed, h_zero):
    # the expanded n = 1 formulas and the general diagonal ones are two
    # oracles written apart; they must agree to rounding
    rng = np.random.default_rng(seed)
    B = complex(rng.uniform(-1.0, 2.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5))
    g = complex(*rng.uniform(-1.0, 1.0, 2)) + 0.5
    h = 0.0 if h_zero else complex(*rng.uniform(-0.5, 0.5, 2))
    params = rank_one.DiagonalParams(b_diag=[B], g=[g], h=[h])
    for x in (0.0, 0.45, 1.0):
        for z in (2j, -0.5 + 0.3j, 1.5 - 0.2j):
            forms = rank_one.order_one_closed_forms(B, g, h, x, z)
            assert abs(forms.s - params.s_at(x)[0, 0]) <= 1e-13
            assert fro(forms.beta_t - params.beta_t_at(x)) <= 1e-13
            assert fro(forms.w0 - params.w0_at(x)) <= 1e-13
            assert fro(forms.w_a - params.w_a_at(x, z)) <= 1e-13
            assert fro(forms.v - params.v_at(x, z)) <= 1e-13


def test_transformed_fundamental_matrix_normalisation(diag_n2):
    for z in (2j, -1.0 + 1.0j):
        wt = rank_one.transformed_fundamental_matrix(diag_n2, 0.0, z)
        assert fro(wt - np.eye(2)) < 1e-11


# the (x, z) grid and the sweep z of the bundled example-n1 task on [0, 1]
GRID_X = np.linspace(0.1, 1.0, 7)
GRID_Z = [2j, 1.0 + 1.5j, -0.7 + 0.5j]
SWEEP_Z = np.array([f + 1.5j for f in (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5)])


def rel_gap(stacked, single):
    return np.linalg.norm(stacked - single) / np.linalg.norm(single)


@pytest.mark.parametrize("h", [0.0, 0.3 - 0.1j], ids=["h=0", "h!=0"])
def test_stacked_order_one_forms_match_the_per_point_ones(h):
    forms = rank_one.order_one_closed_forms(1j, 1.0, h, GRID_X[:, None], GRID_Z)
    assert forms.s.shape == (7, 3) and forms.beta_t.shape == (7, 3, 1, 2)
    for name in ("w0", "w_a", "v"):
        assert getattr(forms, name).shape == (7, 3, 2, 2)
    single = rank_one.order_one_closed_forms(1j, 1.0, h, 0.5, 2j)
    assert np.ndim(single.s) == 0 and single.beta_t.shape == (1, 2)
    assert single.w0.shape == single.w_a.shape == single.v.shape == (2, 2)
    for i, x in enumerate(GRID_X):
        for j, z in enumerate(GRID_Z):
            single = rank_one.order_one_closed_forms(1j, 1.0, h, x, z)
            for name in ("s", "beta_t", "w0", "w_a", "v"):
                assert rel_gap(getattr(forms, name)[i, j], getattr(single, name)) <= 1e-14


@pytest.mark.parametrize("order", [1, 2])
def test_stacked_transformed_fundamental_matrix_matches_the_per_point_one(order, diag_n2):
    diag = diag_n2 if order == 2 else rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[0.0])
    stacked = rank_one.transformed_fundamental_matrix(diag, 1.0, SWEEP_Z)
    assert stacked.shape == (7, 2, 2)
    for k, z in enumerate(SWEEP_Z):
        single = rank_one.transformed_fundamental_matrix(diag, 1.0, z)
        assert single.shape == (2, 2)
        assert rel_gap(stacked[k], single) <= 1e-14


def test_a_cut_point_anywhere_in_a_stack_raises(diag_n2):
    with pytest.raises(rank_one.BranchCutError, match="0.5"):
        rank_one.order_one_closed_forms(1j, 1.0, 0.0, GRID_X[:, None], [2j, 0.5, 1 + 1j])
    with pytest.raises(rank_one.BranchCutError, match="0.3"):
        rank_one.transformed_fundamental_matrix(diag_n2, 1.0, [*SWEEP_Z, 0.3])
    with pytest.raises(rank_one.BranchCutError):
        rank_one.fundamental_matrix(0.5, [2j, 1.0])


def test_stacked_singular_point_is_located_at_the_first_bad_x():
    B, g, x_target = 1j, 1.0, 0.5
    h = np.log(B - x_target).imag * g  # Re(h/g) = Im ln(B - x_target)
    xs = np.array([0.9, x_target + 1e-13, 0.2, x_target])
    with pytest.raises(SingularMatrixError) as info:
        rank_one.order_one_closed_forms(B, g, h, xs[:, None], GRID_Z)
    assert info.value.location == x_target + 1e-13


def test_h_zero_cross_check_covers_the_whole_stack(monkeypatch):
    # spoil the simplified h = 0 row at the last x of a stack only: a check
    # made at the first x alone would miss it
    t_row = rank_one._t_row

    def spoiled(first, second):
        row = t_row(first, second)
        if second == 1.0 and np.ndim(first) > 2:  # the simplified row, stacked
            row = row.copy()
            row[-1] += 1e-6
        return row

    monkeypatch.setattr(rank_one, "_t_row", spoiled)
    g = 0.7 - 0.3j  # the general row's call then passes g, not 1
    for x in GRID_X:
        rank_one.order_one_closed_forms(1j, g, 0.0, x, 2j)
    with pytest.raises(ArithmeticError, match="h = 0 beta-row"):
        rank_one.order_one_closed_forms(1j, g, 0.0, GRID_X[:, None], GRID_Z)
