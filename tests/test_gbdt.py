import numpy as np
import pytest

from cansys import rank_one
from cansys.gbdt import (
    GbdtParams,
    evolve,
    g0_eval,
    positivity_report,
    sample_params,
    transfer,
    transformed_boundary_values,
    transformed_fundamental,
    transformed_hamiltonian,
    validate_params,
    w0_at,
    w0_lipschitz_bound,
)
from cansys.linalg import SingularMatrixError, cond2, fro, hermitian_part, spec_norm
from cansys.system import (
    CanonicalSystem,
    HamiltonianSpec,
    boundary_values,
    fundamental_solution,
    j_monotonicity_defect,
    kernel_bound,
)

J_OFF = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def trivial_params(n=2, xi=0.0):
    """Pi0 = 0 with Hermitian-compatible B: both identity sides vanish."""
    return GbdtParams(
        B=np.diag([2.0, -1.0])[:n, :n],
        S0=np.eye(n),
        Pi0=np.zeros((n, 2)),
        xi=xi,
    )


# -- validation --------------------------------------------------------------


def test_validate_trivial_params(unit_system):
    report = validate_params(trivial_params(), unit_system)
    assert report.ok
    assert report.identity_residual == 0.0


def test_validate_rejects_pole_inside_interval(unit_system):
    params = GbdtParams(
        B=np.diag([0.5, 2.0]), S0=np.eye(2), Pi0=np.zeros((2, 2))
    )
    report = validate_params(params, unit_system)
    assert any("spectrum" in v for v in report.violations)


def test_validate_rejects_broken_identity(unit_system):
    params = GbdtParams(
        B=np.diag([2.0 + 1j, -1.0]), S0=np.eye(2),
        Pi0=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    report = validate_params(params, unit_system)
    assert any("identity" in v for v in report.violations)


def test_validate_order_one_scenario(unit_system, diag_n1):
    report = validate_params(diag_n1.to_gbdt_params(), unit_system)
    assert report.ok
    assert report.identity_residual <= 1e-12


# -- evolution ----------------------------------------------------------------


def test_zero_pi_stays_zero(unit_system):
    traj = evolve(trivial_params(), unit_system, tol=1e-10)
    assert np.max(np.abs(traj.pi)) < 1e-10
    assert traj.identity_residual <= 1e-10


def test_evolved_matches_closed_forms_order_one(unit_system, traj_n1, diag_n1):
    for j, x in enumerate(traj_n1.grid):
        assert fro(traj_n1.pi[j] - diag_n1.pi_at(x)) < 1e-8
        assert fro(traj_n1.s[j] - diag_n1.s_at(x)) < 1e-8


def test_evolved_matches_closed_forms_order_two(unit_system):
    diag = rank_one.DiagonalParams(
        b_diag=[2j, -0.5 + 0.8j], g=[1.0, 0.3 - 0.2j], h=[0.1j, -0.4]
    )
    traj = evolve(diag.to_gbdt_params(), unit_system,
                  grid=np.linspace(0, 1, 51), tol=1e-12)
    for j, x in enumerate(traj.grid):
        assert fro(traj.pi[j] - diag.pi_at(x)) < 1e-8
        assert fro(traj.s[j] - diag.s_at(x)) < 1e-8


def test_trajectory_initial_values(traj_n1):
    assert fro(traj_n1.k[0] - np.eye(1)) < 1e-14
    assert fro(traj_n1.q[0] - traj_n1.params.S0) < 1e-12


def test_evolve_raises_on_singular_s(unit_system):
    # h tuned so the scalar S vanishes mid-interval; the tight tolerance
    # lets the grid value reach the 1e12 condition threshold
    x_target = 0.5
    h = np.log(1j - x_target).imag
    diag = rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[h])
    with pytest.raises(SingularMatrixError) as excinfo:
        evolve(diag.to_gbdt_params(), unit_system, tol=1e-12)
    assert excinfo.value.location == pytest.approx(x_target, abs=0.01)


# -- positivity ----------------------------------------------------------------


def test_positivity_zero_pi_hermitian_pole(unit_system):
    # Pi = 0 keeps Q constant, so S(x) = K^{-1} S0 K^{-*} stays positive
    params = trivial_params()
    traj = evolve(params, unit_system, tol=1e-10)
    report = positivity_report(traj)
    assert report.ok
    assert report.min_eig_s > 0
    for j, x in enumerate(traj.grid):
        k_inv = np.linalg.inv(traj.k[j])
        assert fro(traj.s[j] - k_inv @ k_inv.conj().T) < 1e-8


def test_positivity_order_one_scenario(unit_system, traj_n1):
    # g != 0, h = 0 keeps the scalar S away from zero on all of [0, 1]
    assert np.min(np.abs(traj_n1.s)) > 0.0
    for x in np.linspace(0, 1, 31):
        assert abs(traj_n1.s_at(x)[0, 0]) > 1e-3


def test_positivity_random_draws(unit_system):
    for seed in range(10):
        params = sample_params(seed, unit_system, n=1 + seed % 4, positive=True)
        traj = evolve(params, unit_system, tol=1e-9)
        report = positivity_report(traj)
        assert report.ok, f"seed {seed}: {report}"


def test_positivity_requires_definite_start(unit_system):
    params = GbdtParams(B=np.diag([2.0, -1.0]), S0=np.diag([1.0, -1.0]),
                        Pi0=np.zeros((2, 2)))
    traj = evolve(params, unit_system, tol=1e-10)
    with pytest.raises(ValueError):
        positivity_report(traj)


# -- transfer -------------------------------------------------------------------


def test_transfer_trivial_is_identity(unit_system):
    traj = evolve(trivial_params(), unit_system, tol=1e-10)
    te = transfer(traj, 0.7, 2j)
    for mat in (te.w_a, te.w0, te.v):
        assert fro(mat - np.eye(2)) < 1e-9


def test_transfer_large_z_approaches_w0(unit_system, traj_n1):
    te_far = transfer(traj_n1, 0.6, 1e6 + 1e6j)
    correction = fro(te_far.w_a - te_far.w0)
    assert correction < 1e-4 * max(1.0, fro(te_far.w0))


def test_transfer_matches_order_one_closed_forms(traj_n1):
    # 0.123456 exercises the dense interpolation between grid samples
    for x in (0.123456, 0.25, 0.5, 0.9):
        for z in (2j, -1.0 + 0.5j, 3.0 + 0.0j):
            forms = rank_one.order_one_closed_forms(1j, 1.0, 0.0, x, z)
            te = transfer(traj_n1, x, z)
            assert fro(te.w_a - forms.w_a) < 1e-9
            assert fro(te.v - forms.v) < 1e-9
            assert fro(te.w0 - forms.w0) < 1e-9


def test_transfer_j_property_and_w0_inverse(traj_n1):
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(0.05, 1.0)
        z = rng.uniform(-1, 2) + 1j * rng.uniform(0.2, 2)
        te = transfer(traj_n1, x, z)
        cond = cond2(traj_n1.s_at(x))
        assert te.j_defect <= 1e-9 * cond
        assert te.w0_inv_residual <= 1e-9 * cond
        w0 = te.w0
        assert fro(w0 @ J_OFF @ w0.conj().T - J_OFF) <= 1e-9 * cond


def test_transfer_broadcasts_like_pointwise_calls(traj_n1):
    xs = np.array([0.0, 0.123456, 0.5, 1.0])
    zs = np.array([2j, -1.0 + 0.5j, 3.0 + 0.0j])
    stacked = transfer(traj_n1, xs[:, None], zs)
    assert stacked.v.shape == (4, 3, 2, 2)
    for i, x in enumerate(xs):
        assert fro(w0_at(traj_n1, xs)[i] - transfer(traj_n1, x, 2j).w0) < 1e-12
        for j, z in enumerate(zs):
            one = transfer(traj_n1, x, z)
            assert (stacked.x[i, j], stacked.z[i, j]) == (one.x, one.z)
            for name in ("w_a", "w0", "w0_inv", "v"):
                assert fro(getattr(stacked, name)[i, j] - getattr(one, name)) < 1e-12
            assert abs(stacked.j_defect[i, j] - one.j_defect) < 1e-12
            assert abs(stacked.w0_inv_residual[i, j] - one.w0_inv_residual) < 1e-12
    # x with more axes than z: every field still carries the broadcast shape
    by_x = transfer(traj_n1, xs, 2j)
    assert by_x.x.shape == by_x.z.shape == by_x.w0_inv_residual.shape == (4,)
    assert by_x.w0.shape == by_x.w0_inv.shape == by_x.v.shape == (4, 2, 2)
    assert fro(by_x.v - stacked.v[:, 0]) < 1e-12


def _nearly_singular_trajectory(unit_system):
    # S vanishes at x = 0.5, between the grid points, so evolve succeeds
    h = np.log(1j - 0.5).imag
    diag = rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[h])
    return evolve(diag.to_gbdt_params(), unit_system,
                  grid=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0], tol=1e-10)


def test_w0_and_dressed_hamiltonian_check_s(unit_system):
    traj = _nearly_singular_trajectory(unit_system)
    dressed = transformed_hamiltonian(traj)
    for evaluate in (lambda: w0_at(traj, 0.5), lambda: dressed.hamiltonian(0.5)):
        with pytest.raises(SingularMatrixError) as excinfo:
            evaluate()
        assert excinfo.value.location == pytest.approx(0.5)


def test_transfer_names_first_singular_point(unit_system):
    traj = _nearly_singular_trajectory(unit_system)
    with pytest.raises(SingularMatrixError) as excinfo:
        transfer(traj, [0.2, 0.5], 2j)
    assert excinfo.value.location == pytest.approx(0.5)


def test_transfer_rejects_spectrum_of_b(traj_n1):
    with pytest.raises(ValueError):
        transfer(traj_n1, 0.5, 1j)
    with pytest.raises(ValueError):
        transfer(traj_n1, 0.5, -1j)  # conjugate also excluded


# -- transformed Hamiltonian ----------------------------------------------------


def test_transformed_hamiltonian_trivial(unit_system):
    traj = evolve(trivial_params(), unit_system, tol=1e-10)
    dressed = transformed_hamiltonian(traj)
    for x in (0.0, 0.5, 1.0):
        assert fro(dressed.hamiltonian(x) - rank_one.hamiltonian()) < 1e-8


def test_transformed_hamiltonian_matches_closed_form(traj_n1, diag_n1):
    dressed = transformed_hamiltonian(traj_n1)
    for x in np.linspace(0.0, 1.0, 11):
        assert fro(dressed.hamiltonian(x) - diag_n1.h_t_at(x)) < 1e-8


def test_transformed_hamiltonian_preserves_rank(traj_n1):
    dressed = transformed_hamiltonian(traj_n1)
    for x in (0.2, 0.7):
        eigs = np.sort(np.linalg.eigvalsh(hermitian_part(dressed.hamiltonian(x))))
        assert abs(eigs[0]) < 1e-10  # still rank one
        assert eigs[1] > 1e-3


def test_transformed_beta_degeneracy_and_kernel_bound(unit_system, traj_n1):
    dressed = transformed_hamiltonian(traj_n1)
    assert dressed.is_factored
    report = kernel_bound(dressed, unit_system.J)
    assert report.degeneracy_defect <= 1e-9
    assert report.finite


def test_transformed_hamiltonian_grid_fallback(unit_system, diag_n1):
    # H-grid input (no factored form) goes through the congruence route
    x = np.linspace(0, 1, 33)
    h = np.stack([rank_one.hamiltonian()] * x.size)
    sys_grid = CanonicalSystem(
        J=J_OFF, interval=(0.0, 1.0), hamiltonian=HamiltonianSpec.from_grid(x, h)
    )
    traj = evolve(diag_n1.to_gbdt_params(), sys_grid,
                  grid=np.linspace(0, 1, 51), tol=1e-11)
    dressed = transformed_hamiltonian(traj)
    assert not dressed.is_factored
    for xx in (0.3, 0.8):
        assert fro(dressed.hamiltonian(xx) - diag_n1.h_t_at(xx)) < 1e-7


# -- transformed fundamental solution ---------------------------------------------


def test_transformed_fundamental_normalisation(traj_n1):
    sol = transformed_fundamental(traj_n1, 2j, grid=np.array([0.0, 0.5, 1.0]))
    assert fro(sol.values[0] - np.eye(2)) < 1e-12


def test_transformed_fundamental_vs_direct_integration(unit_system, traj_n1):
    # dress-then-solve against solve-the-dressed-system
    dressed_spec = transformed_hamiltonian(traj_n1)
    dressed_sys = CanonicalSystem(
        J=unit_system.J, interval=unit_system.interval, hamiltonian=dressed_spec
    )
    grid = np.linspace(0.0, 1.0, 21)
    for z in (2j, -0.8 + 0.6j):
        via_multiplier = transformed_fundamental(traj_n1, z, grid=grid, tol=1e-11)
        direct = fundamental_solution(dressed_sys, z, grid=grid, tol=1e-11)
        diff = max(
            fro(a - b) for a, b in zip(via_multiplier.values, direct.values)
        )
        assert diff <= 1e-6


def test_transformed_fundamental_j_monotone(traj_n1):
    # Im z > 0 but off the pole spectrum {i, -i}
    sol = transformed_fundamental(traj_n1, 0.3 + 0.8j,
                                  grid=np.linspace(0, 1, 21), tol=1e-11)
    assert j_monotonicity_defect(sol) <= 1e-8


def test_transformed_fundamental_matches_explicit(traj_n1, diag_n1):
    grid = np.linspace(0.0, 1.0, 9)
    sol = transformed_fundamental(traj_n1, 2j, grid=grid, tol=1e-12)
    for j, x in enumerate(grid):
        expected = rank_one.transformed_fundamental_matrix(diag_n1, x, 2j)
        assert fro(sol.values[j] - expected) < 1e-8


def test_boundedness_transfer_constant(unit_system, traj_n1):
    # sup |W~(b, z)| <= sup |v(b, z)| sup |v(a, z)^{-1}| sup |W(b, z)| on a probe grid
    zs = [re + 1j * im for re in (-0.5, 0.3, 1.2) for im in (0.01, 0.3, 2.0)]
    w_sup = max(
        spec_norm(fundamental_solution(unit_system, z, grid=np.array([1.0]),
                                       tol=1e-10).values[0])
        for z in zs
    )
    wt_sup = max(
        spec_norm(transformed_fundamental(traj_n1, z, grid=np.array([1.0]),
                                          tol=1e-10).values[0])
        for z in zs
    )
    c = max(spec_norm(transfer(traj_n1, 1.0, z).v) for z in zs) * max(
        spec_norm(np.linalg.inv(transfer(traj_n1, 0.0, z).v)) for z in zs
    )
    assert wt_sup <= c * w_sup * (1.0 + 1e-9)


# -- w0 generator ------------------------------------------------------------------


def test_g0_trivial_is_zero(unit_system):
    traj = evolve(trivial_params(), unit_system, tol=1e-10)
    assert fro(g0_eval(traj, 0.5)) < 1e-9


def test_g0_matches_finite_differences(traj_n1):
    for x in (0.3, 0.7):
        errs = []
        for h in (1e-3, 1e-4):
            fd = (w0_at(traj_n1, x + h) - w0_at(traj_n1, x - h)) / (2 * h)
            errs.append(fro(fd - g0_eval(traj_n1, x) @ w0_at(traj_n1, x)))
        assert errs[0] < 1e-4  # O(h^2) + integration noise
        assert errs[1] < max(1e-2 * errs[0], 1e-7)


def test_w0_lipschitz_bound_finite(traj_n1):
    bound = w0_lipschitz_bound(traj_n1)
    assert np.isfinite(bound)
    # a Lipschitz constant must dominate observed increments
    xs = np.linspace(0.05, 0.95, 10)
    for x0, x1 in zip(xs[:-1], xs[1:]):
        inc = spec_norm(w0_at(traj_n1, x1) - w0_at(traj_n1, x0))
        assert inc <= bound * (x1 - x0) * 1.2 + 1e-9


# -- transformed boundary values ----------------------------------------------------


def test_transformed_boundary_values_trivial(unit_system):
    traj = evolve(trivial_params(), unit_system, tol=1e-10)
    base = boundary_values(unit_system, 1.0, 0.5, tol=1e-10)
    dressed = transformed_boundary_values(traj, 1.0, 0.5, tol=1e-10)
    assert fro(dressed.w_plus - base.w_plus) < 1e-7
    assert fro(dressed.w_minus - base.w_minus) < 1e-7


def test_transformed_boundary_values_two_routes_agree(traj_n1):
    report = transformed_boundary_values(traj_n1, 1.0, 0.5, tol=1e-11)
    assert report.cross_check_error is not None
    assert report.cross_check_error <= report.extrapolation_error + 1e-6


def test_transformed_jump_is_conjugated_base_jump(unit_system, traj_n1):
    # jump~ = v(xi, s) jump v(xi, s)^{-1}: W~+- share the right factor
    # v(xi, s)^{-1} and pick up v(x, s) on the left
    s = 0.4
    base = boundary_values(unit_system, 1.0, s, tol=1e-11)
    dressed = transformed_boundary_values(traj_n1, 1.0, s, tol=1e-11)
    v_xi = transfer(traj_n1, 0.0, s).v
    expected = v_xi @ base.jump @ np.linalg.inv(v_xi)
    assert fro(dressed.jump - expected) <= 1e-3


def test_transformed_boundary_values_spectrum_margin(unit_system):
    diag = rank_one.DiagonalParams(b_diag=[0.5 + 0.00005j], g=[1.0], h=[0.0])
    params = diag.to_gbdt_params()
    with pytest.raises(ValueError):
        # pole projects onto s = 0.5 closer than the spectrum margin
        traj = evolve(params, unit_system, tol=1e-10)
        transformed_boundary_values(traj, 1.0, 0.5, tol=1e-10)


# -- random parameter draws ----------------------------------------------------------


def test_sample_params_identity_and_margin(unit_system):
    for seed in range(20):
        params = sample_params(seed, unit_system, n=1 + seed % 4)
        report = validate_params(params, unit_system)
        assert report.ok, f"seed {seed}: {report.violations}"


def test_sample_params_indefinite_mode(unit_system):
    params = sample_params(123, unit_system, n=3, positive=False)
    assert validate_params(params, unit_system).ok


def test_dressing_varying_degenerate_base():
    # dressing a varying degenerate factor keeps degeneracy and a finite
    # kernel bound (the Lipschitz-transfer property on non-constant data)
    x = np.linspace(0.0, 1.0, 201)
    beta = np.stack([np.array([[1.0, 1j * (1.0 + 0.5 * xx)]]) for xx in x])
    sys_var = CanonicalSystem(
        J=J_OFF, interval=(0.0, 1.0),
        hamiltonian=HamiltonianSpec.from_beta_grid(x, beta),
    )
    params = sample_params(11, sys_var, n=2, positive=True)
    traj = evolve(params, sys_var, grid=np.linspace(0, 1, 101), tol=1e-10)
    dressed = transformed_hamiltonian(traj)
    base = kernel_bound(sys_var.hamiltonian, sys_var.J)
    out = kernel_bound(dressed, sys_var.J)
    assert base.finite and out.finite
    assert out.degeneracy_defect <= 1e-9
    # dressed solution still solves the dressed system
    grid = np.linspace(0.0, 1.0, 9)
    z = 1.1 + 0.9j
    direct = fundamental_solution(
        CanonicalSystem(J=J_OFF, interval=(0.0, 1.0), hamiltonian=dressed),
        z, grid=grid, tol=1e-10,
    )
    via_multiplier = transformed_fundamental(traj, z, grid=grid, tol=1e-10)
    gap = max(fro(a - b) for a, b in zip(via_multiplier.values, direct.values))
    assert gap <= 1e-6


def test_interior_base_point_end_to_end():
    # anchoring at an interior xi integrates both directions and the
    # dressed solution still solves the dressed system
    spec = HamiltonianSpec.from_constant_beta(rank_one.BETA, (0.0, 1.0))
    sys_mid = CanonicalSystem(J=J_OFF, interval=(0.0, 1.0),
                              hamiltonian=spec, xi=0.5)
    params = sample_params(3, sys_mid, n=2)
    traj = evolve(params, sys_mid, grid=np.linspace(0, 1, 41), tol=1e-11)
    assert traj.identity_residual <= 1e-10
    assert fro(traj.k_at(0.5) - np.eye(2)) < 1e-12
    grid = np.linspace(0.0, 1.0, 9)
    z = 0.4 + 1.1j
    dressed_sys = CanonicalSystem(
        J=J_OFF, interval=(0.0, 1.0),
        hamiltonian=transformed_hamiltonian(traj), xi=0.5,
    )
    via_multiplier = transformed_fundamental(traj, z, grid=grid, tol=1e-11)
    direct = fundamental_solution(dressed_sys, z, grid=grid, tol=1e-11)
    assert fro(via_multiplier.values[4] - np.eye(2)) < 1e-12  # x = xi
    gap = max(fro(a - b) for a, b in zip(via_multiplier.values, direct.values))
    assert gap <= 1e-6
