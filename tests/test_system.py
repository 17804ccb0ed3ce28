import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from cansys import rank_one
from cansys.linalg import fro
from cansys.system import (
    CanonicalSystem,
    HamiltonianSpec,
    SpectralPointError,
    _log_weight_product,
    boundary_values,
    extrapolate_eta_sequence,
    fundamental_solution,
    j_monotonicity_defect,
    kernel_bound,
    limit_samples,
    product_integral,
    validate_system,
)

J_OFF = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def zero_system(interval=(0.0, 1.0)):
    spec = HamiltonianSpec.from_constant_beta(np.zeros((1, 2)), interval)
    return CanonicalSystem(J=J_OFF, interval=interval, hamiltonian=spec)


# -- validation -------------------------------------------------------------


def test_validate_rank_one_scenario(unit_system):
    assert validate_system(unit_system).ok


def test_validate_rejects_bad_signature():
    spec = HamiltonianSpec.from_constant_beta(np.zeros((1, 2)), (0.0, 1.0))
    sys = CanonicalSystem(J=2.0 * np.eye(2), interval=(0.0, 1.0), hamiltonian=spec)
    report = validate_system(sys)
    assert any("signature" in v for v in report.violations)


def test_validate_rejects_indefinite_hamiltonian():
    x = np.array([0.0, 1.0])
    h = np.stack([np.diag([1.0, -0.1]).astype(complex)] * 2)
    sys = CanonicalSystem(
        J=np.eye(2), interval=(0.0, 1.0), hamiltonian=HamiltonianSpec.from_grid(x, h)
    )
    report = validate_system(sys)
    assert any("PSD" in v for v in report.violations)
    assert report.min_h_eig == pytest.approx(-0.1, abs=1e-12)


def test_validate_beta_continuity_guard():
    x = np.array([0.0, 0.5, 1.0])
    beta = np.stack(
        [np.zeros((1, 2)), np.array([[5.0, 0.0]]), np.zeros((1, 2))]
    ).astype(complex)
    sys = CanonicalSystem(
        J=J_OFF, interval=(0.0, 1.0),
        hamiltonian=HamiltonianSpec.from_beta_grid(x, beta),
    )
    assert validate_system(sys, beta_lipschitz=100.0).ok
    report = validate_system(sys, beta_lipschitz=1.0)
    assert any("Lipschitz" in v for v in report.violations)


def test_hamiltonian_spec_interpolation_and_cumulative():
    x = np.linspace(0.0, 1.0, 5)
    h = np.stack([np.eye(2) * (1.0 + xx) for xx in x]).astype(complex)
    spec = HamiltonianSpec.from_grid(x, h)
    assert fro(spec.hamiltonian(0.125) - np.eye(2) * 1.125) < 1e-14
    # integral of (1 + x) I over [0, 1] is 1.5 I; Simpson is exact here
    assert fro(spec.cumulative(1.0, 0.0) - 1.5 * np.eye(2)) < 1e-13
    assert fro(spec.cumulative(0.0, 1.0) + 1.5 * np.eye(2)) < 1e-13


def test_cumulative_exact_for_factored_linear_beta():
    # beta linear in x makes H = beta* beta quadratic per panel: Simpson exact
    x = np.linspace(0.0, 1.0, 3)
    beta = np.stack([np.array([[1.0, 1j * xx]]) for xx in x])
    spec = HamiltonianSpec.from_beta_grid(x, beta)
    # H(x) = [[1, ix], [-ix, x^2]]; integral over [0, 1]
    expected = np.array([[1.0, 0.5j], [-0.5j, 1.0 / 3.0]])
    assert fro(spec.cumulative(1.0, 0.0) - expected) < 1e-14


def test_hamiltonian_spec_rejects_bad_samples():
    x = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        HamiltonianSpec(x)  # no data
    with pytest.raises(ValueError):
        HamiltonianSpec.from_grid(x, np.zeros((3, 2, 2)))  # length mismatch
    with pytest.raises(ValueError):
        HamiltonianSpec.from_grid(np.array([0.0, 0.0]), np.zeros((2, 2, 2)))
    bad = np.zeros((2, 2, 2), dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        HamiltonianSpec.from_grid(x, bad)


# -- fundamental solutions ---------------------------------------------------


def test_zero_hamiltonian_gives_identity():
    sol = fundamental_solution(zero_system(), 2j, grid=np.linspace(0, 1, 5))
    assert max(fro(w - np.eye(2)) for w in sol.values) < 1e-12


def test_matches_rank_one_closed_form():
    sys = rank_one.make_system(b=2.0)
    sol = fundamental_solution(sys, 2j, grid=np.array([1.0]), tol=1e-11)
    assert fro(sol.values[0] - rank_one.fundamental_matrix(1.0, 2j, b=2.0)) < 1e-8


def test_scalar_quadrature_closed_form():
    # m = 1, J = 1, H = 1: W(x, z) = exp(i ln(z / (z - x)))
    spec = HamiltonianSpec.from_constant_beta(np.eye(1), (0.0, 1.0))
    sys = CanonicalSystem(J=np.eye(1), interval=(0.0, 1.0), hamiltonian=spec)
    z = 1.5 + 0.5j
    sol = fundamental_solution(sys, z, grid=np.array([0.8]), tol=1e-12)
    expected = np.exp(1j * (np.log(z) - np.log(z - 0.8)))
    assert abs(sol.values[0][0, 0] - expected) < 1e-10


def test_base_point_normalisation_and_determinant(unit_system):
    sol = fundamental_solution(unit_system, 1.0 + 1.0j, grid=np.linspace(0, 1, 9))
    assert fro(sol.values[0] - np.eye(2)) < 1e-12
    assert all(abs(np.linalg.det(w)) > 1e-6 for w in sol.values)


def test_interior_base_point_integrates_both_directions():
    spec = HamiltonianSpec.from_constant_beta(rank_one.BETA, (0.0, 1.0))
    sys = CanonicalSystem(J=J_OFF, interval=(0.0, 1.0), hamiltonian=spec, xi=0.5)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    sol = fundamental_solution(sys, 2j, grid=grid, tol=1e-11)
    assert fro(sol.values[2] - np.eye(2)) < 1e-12
    # cross-check against the closed form renormalised at xi = 0.5
    w_half = rank_one.fundamental_matrix(0.5, 2j)
    for x, w in zip(grid, sol.values):
        expected = rank_one.fundamental_matrix(float(x), 2j) @ np.linalg.inv(w_half)
        assert fro(w - expected) < 1e-9


def test_rejects_points_near_the_cut(unit_system):
    with pytest.raises(SpectralPointError):
        fundamental_solution(unit_system, 0.5 + 1e-9j)
    with pytest.raises(SpectralPointError):
        fundamental_solution(unit_system, 0.5)


def test_cocycle_property(unit_system):
    z = 1.2 + 0.9j
    tol = 1e-11
    full = fundamental_solution(unit_system, z, grid=np.array([0.4, 1.0]), tol=tol)
    spec = unit_system.hamiltonian
    restarted = CanonicalSystem(
        J=unit_system.J, interval=unit_system.interval, hamiltonian=spec, xi=0.4
    )
    second = fundamental_solution(restarted, z, grid=np.array([1.0]), tol=tol)
    gap = fro(second.values[0] @ full.values[0] - full.values[1])
    assert gap < 10 * max(full.error_estimate, second.error_estimate)


def test_conjugate_symmetry(unit_system):
    # W(x, conj(z)) = J W(x, z)^{-*} J
    z = 0.7 + 1.3j
    grid = np.array([1.0])
    w = fundamental_solution(unit_system, z, grid=grid, tol=1e-12).values[0]
    w_conj = fundamental_solution(unit_system, np.conj(z), grid=grid,
                                  tol=1e-12).values[0]
    expected = J_OFF @ np.linalg.inv(w.conj().T) @ J_OFF
    assert fro(w_conj - expected) < 1e-10


# -- product integrals -------------------------------------------------------


def test_product_integral_zero_hamiltonian():
    sol = product_integral(zero_system(), 2j, np.linspace(0, 1, 9))
    assert max(fro(w - np.eye(2)) for w in sol.values) < 1e-14


def test_product_integral_single_factor(unit_system):
    # one subinterval: exactly exp(i J H delta / (z - midpoint))
    z = 2j
    sol = product_integral(unit_system, z, np.array([0.0, 1.0]))
    expected = scipy.linalg.expm(1j / (z - 0.5) * (J_OFF @ rank_one.hamiltonian()))
    assert fro(sol.values[1] - expected) < 1e-14


def test_product_integral_midpoint_order_two(unit_system):
    z = 2j
    ref = rank_one.fundamental_matrix(1.0, z)
    errors = []
    for num in (8, 16, 32, 64):
        sol = product_integral(unit_system, z, np.linspace(0, 1, num + 1))
        errors.append(fro(sol.values[-1] - ref))
        assert errors[-1] <= sol.error_estimate * 2.0 + 1e-12
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.6)  # observed order ~ 2 under midpoint rule


def test_product_integral_agrees_with_ode(unit_system):
    z = -0.5 + 0.8j
    ode = fundamental_solution(unit_system, z, grid=np.linspace(0, 1, 5), tol=1e-10)
    prod = product_integral(unit_system, z, np.linspace(0, 1, 257))
    ode_at = ode.values[-1]
    assert fro(prod.values[-1] - ode_at) < max(prod.error_estimate,
                                               ode.error_estimate)


def test_product_integral_requires_left_base_point():
    spec = HamiltonianSpec.from_constant_beta(rank_one.BETA, (0.0, 1.0))
    sys = CanonicalSystem(J=J_OFF, interval=(0.0, 1.0), hamiltonian=spec, xi=0.5)
    with pytest.raises(ValueError):
        product_integral(sys, 2j, np.linspace(0, 1, 5))


def test_product_integral_rejects_near_cut_points(unit_system):
    with pytest.raises(SpectralPointError):
        product_integral(unit_system, 0.5 + 1e-8j, np.linspace(0, 1, 5))


def test_product_integral_j_unitary_real_z(unit_system):
    sol = product_integral(unit_system, 4.0, np.linspace(0, 1, 65))
    assert j_monotonicity_defect(sol) <= 10 * sol.error_estimate


# -- J-monotonicity ----------------------------------------------------------


def test_j_monotonicity_zero_hamiltonian():
    sol = fundamental_solution(zero_system(), 1j, grid=np.linspace(0, 1, 5))
    assert j_monotonicity_defect(sol) == 0.0


def test_j_unitarity_for_real_z(unit_system):
    tol = 1e-11
    sol = fundamental_solution(unit_system, 3.0, grid=np.linspace(0, 1, 9), tol=tol)
    assert j_monotonicity_defect(sol) <= 10 * tol


def test_j_monotonicity_rank_one_upper_half_plane(unit_system):
    sol = fundamental_solution(unit_system, 1j, grid=np.linspace(0, 1, 21), tol=1e-11)
    assert j_monotonicity_defect(sol) <= 1e-9
    sol = fundamental_solution(unit_system, -1j, grid=np.linspace(0, 1, 21), tol=1e-11)
    assert j_monotonicity_defect(sol) <= 1e-9


# -- boundary values ---------------------------------------------------------


def test_boundary_values_off_cut_jump_is_identity(unit_system):
    report = boundary_values(unit_system, 0.5, 0.8, tol=1e-11)
    assert fro(report.jump - np.eye(2)) < max(report.extrapolation_error, 1e-8)
    assert fro(report.w_plus - report.w_minus) < max(report.extrapolation_error, 1e-8)


def test_boundary_values_reproduce_rank_one_jump(unit_system):
    expected = rank_one.jump_matrix()
    for s in (0.25, 0.5, 0.75):
        report = boundary_values(unit_system, 1.0, s, tol=1e-11)
        assert not report.divergent
        assert report.converged
        assert fro(report.jump - expected) < report.extrapolation_error + 1e-3
        # V is the constant 2 pi J beta* beta for this scenario
        assert fro(report.v - 2 * np.pi * J_OFF @ rank_one.hamiltonian()) < 1e-6


def test_boundary_values_v_uniformly_bounded(unit_system):
    norms = [
        fro(boundary_values(unit_system, 1.0, s, tol=1e-10).v)
        for s in np.linspace(0.15, 0.85, 7)
    ]
    assert max(norms) < 2.0 * min(norms) + 1e-6


def test_boundary_values_margin_enforced(unit_system):
    with pytest.raises(ValueError):
        boundary_values(unit_system, 1.0, 1e-4)
    with pytest.raises(ValueError):
        boundary_values(unit_system, 1.0, 1.0 - 1e-4)


# Kinked commuting profile beta = c(x) [1, i]: H = c^2 H0 with J H0 nilpotent,
# so W(1, s +/- i0) = I + i J H0 (PV int c(t)^2 / (s - t) dt -/+ i pi c(s)^2).
PROFILE_X = np.linspace(0.0, 1.0, 33)
PROFILE_C = (1.0 + 0.4 * np.sin(2 * np.pi * (PROFILE_X + 0.3))
             + 0.02 * (-1.0) ** np.arange(PROFILE_X.size))  # a kink at every node


def profile_system():
    spec = HamiltonianSpec.from_beta_grid(
        PROFILE_X, PROFILE_C[:, None, None] * rank_one.BETA
    )
    return CanonicalSystem(J=J_OFF, interval=(0.0, 1.0), hamiltonian=spec)


def cauchy_oracle(s, side):
    """The limit from scipy quad: a Cauchy-weight window around s (holding
    no node but s itself) plus plain quadrature between the kinks."""
    def c2(t):
        return np.interp(t, PROFILE_X, PROFILE_C) ** 2

    others = PROFILE_X[np.abs(PROFILE_X - s) > 1e-12]
    w = 0.5 * np.min(np.abs(others - s))
    pv = -quad(c2, s - w, s + w, weight="cauchy", wvar=s, epsabs=1e-14,
               epsrel=1e-11, limit=200)[0]
    ends = np.unique(np.concatenate([PROFILE_X, [s - w, s + w]]))
    for lo, hi in zip(ends[:-1], ends[1:]):
        if not s - w <= lo < s + w:
            pv += quad(lambda t: c2(t) / (s - t), lo, hi, epsabs=1e-14)[0]
    weight = pv - side * 1j * np.pi * c2(s)
    return np.eye(2) + 1j * J_OFF @ rank_one.hamiltonian() * weight


@pytest.mark.parametrize("s", [
    PROFILE_X[16],                                       # on a kink
    PROFILE_X[16] + 0.03 * PROFILE_X[1],                 # 0.03 panels right of one
    PROFILE_X[9] - 0.03 * PROFILE_X[1],                  # 0.03 panels left of one
])
def test_boundary_values_kinked_commuting_profile(s):
    report = boundary_values(profile_system(), 1.0, s, tol=1e-10)
    assert not report.divergent
    assert fro(report.w_plus - cauchy_oracle(s, +1)) < 1e-8
    assert fro(report.w_minus - cauchy_oracle(s, -1)) < 1e-8


# -- kernel bounds ------------------------------------------------------------


def test_kernel_bound_constant_degenerate(unit_system):
    report = kernel_bound(unit_system.hamiltonian, unit_system.J)
    assert report.sup_bound == 0.0
    assert report.degeneracy_defect < 1e-14
    assert report.finite


def test_kernel_bound_linear_beta_analytic():
    # beta(x) = [1, ix] gives beta(x) J beta(t)* = i (x - t), bound 1
    x = np.linspace(0.0, 1.0, 201)
    beta = np.stack([np.array([[1.0, 1j * xx]]) for xx in x])
    spec = HamiltonianSpec.from_beta_grid(x, beta)
    report = kernel_bound(spec, J_OFF)
    assert report.sup_bound == pytest.approx(1.0, abs=1e-10)
    assert report.degeneracy_defect < 1e-12


def test_kernel_bound_non_degenerate_reported_infinite():
    x = np.linspace(0.0, 1.0, 11)
    beta = np.stack([np.array([[1.0, 0.1 * xx]]) for xx in x])
    report = kernel_bound(HamiltonianSpec.from_beta_grid(x, beta), J_OFF)
    assert not report.finite
    assert "degenerate" in report.diagnostic


def test_kernel_bound_requires_factored_form():
    x = np.array([0.0, 1.0])
    spec = HamiltonianSpec.from_grid(x, np.stack([np.eye(2)] * 2).astype(complex))
    with pytest.raises(ValueError):
        kernel_bound(spec, np.eye(2))


# -- a varying degenerate system ----------------------------------------------


@pytest.fixture(scope="module")
def varying_system():
    # beta(x) = [1, i (1 + x/2)] keeps beta J beta* = 0 while H(x) varies;
    # the divided-difference kernel is i (x - t) / 2, so the bound is 1/2
    x = np.linspace(0.0, 1.0, 201)
    beta = np.stack([np.array([[1.0, 1j * (1.0 + 0.5 * xx)]]) for xx in x])
    return CanonicalSystem(
        J=J_OFF, interval=(0.0, 1.0),
        hamiltonian=HamiltonianSpec.from_beta_grid(x, beta),
    )


def test_varying_system_valid(varying_system):
    assert validate_system(varying_system, beta_lipschitz=1.0).ok
    report = kernel_bound(varying_system.hamiltonian, varying_system.J)
    assert report.sup_bound == pytest.approx(0.5, abs=1e-10)


def test_varying_system_product_vs_ode(varying_system):
    for z in (2j, 1.4 - 0.8j, -0.6 + 0.0j):
        ode = fundamental_solution(varying_system, z,
                                   grid=np.linspace(0, 1, 5), tol=1e-10)
        prod = product_integral(varying_system, z, np.linspace(0, 1, 257))
        gap = fro(prod.values[-1] - ode.values[-1])
        assert gap < max(prod.error_estimate, ode.error_estimate)


def test_varying_system_conjugate_symmetry(varying_system):
    z = 0.3 + 1.1j
    grid = np.array([1.0])
    w = fundamental_solution(varying_system, z, grid=grid, tol=1e-12).values[0]
    w_conj = fundamental_solution(varying_system, np.conj(z), grid=grid,
                                  tol=1e-12).values[0]
    expected = J_OFF @ np.linalg.inv(w.conj().T) @ J_OFF
    assert fro(w_conj - expected) < 1e-10


def test_varying_system_j_monotone(varying_system):
    sol = fundamental_solution(varying_system, 0.5 + 0.7j,
                               grid=np.linspace(0, 1, 11), tol=1e-11)
    assert j_monotonicity_defect(sol) <= 1e-9


def test_varying_system_boundary_limits_exist(varying_system):
    # Lipschitz degenerate kernel: the cut limits exist and V stays bounded
    report = boundary_values(varying_system, 1.0, 0.5, tol=1e-10)
    assert not report.divergent
    assert report.extrapolation_error < 1e-4
    assert fro(report.v) < 50.0


@pytest.mark.parametrize("s", [0.5, 0.5037])  # on a sample node, and between two
def test_varying_system_cut_limits_match_rk45_richardson(varying_system, s):
    # the independent route: RK45 along an eta ladder, Richardson-extrapolated
    etas = 1e-2 * 2.0 ** -np.arange(6)
    plus, minus = limit_samples(varying_system, 1.0, s, etas, 1e-12)
    report = boundary_values(varying_system, 1.0, s, tol=1e-10)
    assert not report.divergent
    # the refinement stops at the panel cap short of tol, and says so
    assert not report.converged
    assert fro(report.w_plus - extrapolate_eta_sequence(etas, plus)[0]) < 1e-7
    assert fro(report.w_minus - extrapolate_eta_sequence(etas, minus)[0]) < 1e-7


@pytest.mark.parametrize("s", [0.5, 0.5037])
@pytest.mark.parametrize("eta", [1e-2, 1e-4])
def test_varying_system_log_weight_product_near_cut(varying_system, s, eta):
    z = s + 1j * eta
    w, _ = _log_weight_product(varying_system, 1.0, z, rho=1 / 16)
    ode = fundamental_solution(varying_system, z, grid=np.array([1.0]), tol=1e-12)
    assert fro(w - ode.values[0]) < 1e-7
