import dataclasses

import numpy as np
import pytest

from cansys import gbdt, rank_one, system
from cansys.gbdt import (
    GbdtParams,
    evolve,
    positivity_report,
    sample_params,
    transfer,
    transformed_boundary_values,
    transformed_fundamental,
    transformed_system,
    validate_params,
    w0_at,
)
from cansys.linalg import SingularMatrixError, _adj, cond2, fro, hermitian_part, spec_norm
from cansys.system import (
    CanonicalSystem,
    HamiltonianSpec,
    boundary_values,
    fundamental_solution,
    j_monotonicity_defect,
    kernel_bound,
)

from conftest import assert_bits

J_OFF = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def count_evaluations(monkeypatch):
    """Wrap the solver cansys.system calls; returns the list of the RHS
    evaluations of every solve made after the call."""
    counts = []
    solve_ivp = system.solve_ivp

    def counting(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        counts.append(sol.nfev)
        return sol

    monkeypatch.setattr(system, "solve_ivp", counting)
    return counts


def worst_fro(got, expected):
    """Largest Frobenius distance over a stack of matrices."""
    return float(np.max(np.linalg.norm(got - expected, axis=(-2, -1))))


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


@pytest.mark.parametrize("params, violation", [
    (GbdtParams(B=np.diag([2.0, -1.0]), S0=np.diag([1.0 + 0.5j, 1.0]),
                Pi0=np.zeros((2, 2))),
     "S0 not Hermitian (defect 1.00e+00)"),
    (GbdtParams(B=np.diag([2.0, -1.0]), S0=np.eye(2), Pi0=np.zeros((2, 3))),
     "Pi0 has 3 columns, system size is 2"),
    (trivial_params(xi=1.5), "xi = 1.5 outside [0.0, 1.0]"),
], ids=["s0-not-hermitian", "pi0-columns", "xi-outside"])
def test_validate_reports_each_violation(unit_system, params, violation):
    assert validate_params(params, unit_system).violations == [violation]


# -- evolution ----------------------------------------------------------------


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
def test_evolve_tol_must_be_positive_and_finite(unit_system, diag_n1, tol):
    with pytest.raises(ValueError, match="^tol must be a positive finite number"):
        evolve(diag_n1.to_gbdt_params(), unit_system, tol=tol)


@pytest.mark.parametrize("grid, message", [
    ([0.0, 0.5, 1.5], "grid must be nonempty and within"),
    ([0.0, np.nan, 1.0], "grid must be finite"),
    ([], "grid must be nonempty and within"),
], ids=["past-b", "nan", "empty"])
def test_evolve_checks_its_grid(unit_system, diag_n1, grid, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        evolve(diag_n1.to_gbdt_params(), unit_system, grid=grid)



def test_zero_pi_stays_zero(unit_system):
    traj = evolve(trivial_params(), unit_system, tol=1e-10)
    assert np.max(np.abs(traj.pi)) < 1e-10
    assert traj.identity_residual <= 1e-10


def test_evolved_matches_closed_forms_order_one(unit_system, traj_n1, diag_n1):
    for j, x in enumerate(traj_n1.grid):
        assert fro(traj_n1.pi[j] - diag_n1.pi_at(x)) < 1e-8
        assert fro(traj_n1.s[j] - diag_n1.s_at(x)) < 1e-8


def test_bundled_trajectory_meets_the_closed_forms_to_rounding(
        unit_system, diag_n1, monkeypatch):
    # the bundled scenario's trajectory (example-n1 evolves at 1e-12): one
    # eighth-order span on constant H; RK45 took 746 evaluations and left
    # the v residual at 7.6e-13
    counts = count_evaluations(monkeypatch)
    traj = evolve(diag_n1.to_gbdt_params(), unit_system,
                  grid=np.linspace(0.0, 1.0, 201), tol=1e-12)
    assert sum(counts) <= 400
    xs = np.linspace(0.1, 1.0, 7)
    zs = [2j, 1.0 + 1.5j, -0.7 + 0.5j]
    te = transfer(traj, xs[:, None], zs)
    beta = unit_system.hamiltonian.beta_at(xs)[:, None]
    forms = rank_one.dressed_forms(traj.params, xs[:, None], zs)
    worst = [
        worst_fro(traj.s_at(xs)[:, None], forms.s), worst_fro(beta @ te.w0, beta @ forms.w0),
        worst_fro(te.w_a, forms.w_a), worst_fro(te.v, forms.v),
    ]
    assert np.all(np.array(worst) <= 1e-13)


def matrix_rhs(params, sys):
    """evolve's right-hand side in its matrix form, for any order n:
    (-i A Pi J H, Pi J H J Pi* - (A S + S A*), K A) with A = (B - x)^{-1}."""
    n, m = params.n, params.m
    J, spec = sys.J, sys.hamiltonian

    def rhs(x, y):
        pi = y[: n * m].reshape(n, m)
        s = y[n * m : n * m + n * n].reshape(n, n)
        k = y[n * m + n * n :].reshape(n, n)
        if n == 1:
            a = np.array([[1.0 / (complex(params.B[0, 0]) - x)]])
        else:
            a = np.linalg.inv(params.B - x * np.eye(n))
        pj = pi @ J
        u = pj @ spec.hamiltonian(x)
        sources = [-1j * (a @ u), u @ pj.conj().T - (a @ s + s @ a.conj().T), k @ a]
        return np.concatenate([block.ravel() for block in sources])

    return rhs


def zigzag_system(xi=0.0):
    """beta = c(x) [1, i] with a kink at every one of 33 nodes."""
    x = np.linspace(0.0, 1.0, 33)
    c = 1.0 + 0.4 * np.sin(2 * np.pi * (x + 0.3)) + 0.02 * (-1.0) ** np.arange(33)
    return CanonicalSystem(
        J=J_OFF, interval=(0.0, 1.0), xi=xi,
        hamiltonian=HamiltonianSpec.from_beta_grid(x, c[:, None, None] * rank_one.BETA),
    )


def signature_three_system():
    """m = 3: J = diag(1, 1, -1) and a constant full-rank H."""
    g = np.random.default_rng(3).standard_normal((3, 3)) * (1 + 1j)
    h = g.conj().T @ g
    spec = HamiltonianSpec.from_grid(np.array([0.0, 1.0]), np.stack([h, h]))
    return CanonicalSystem(J=np.diag([1.0, 1.0, -1.0]), interval=(0.0, 1.0), hamiltonian=spec)


def random_states(seed, size, count):
    """(x, y) pairs: x in [0, 1], y complex with entries over six decades."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        y = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        yield rng.uniform(), y * 10.0 ** rng.uniform(-3, 3, size)


def test_evolve_restarts_at_the_kinks_of_a_zigzag_profile(monkeypatch):
    zigzag = zigzag_system(xi=0.4)  # xi between two nodes
    params = sample_params(1, zigzag, n=2)
    counts = count_evaluations(monkeypatch)
    traj = evolve(params, zigzag, tol=1e-12)
    assert len(counts) == 33  # one solve per piece between xi and the kinks
    assert sum(counts) < 5392 / 4  # one RK45 span per direction took 5392
    assert traj.identity_residual <= 1e-11
    # the dense evaluator finds each grid point's piece on both sides of xi
    pi, s, k = traj.state_at(traj.grid)
    assert np.array_equal(pi, traj.pi) and np.array_equal(s, traj.s)
    assert np.array_equal(k, traj.k)
    assert fro(traj.k_at(0.4) - np.eye(2)) == 0.0


def test_evolved_matches_closed_forms_order_two(unit_system):
    diag = rank_one.DiagonalParams(
        b_diag=[2j, -0.5 + 0.8j], g=[1.0, 0.3 - 0.2j], h=[0.1j, -0.4]
    )
    traj = evolve(diag.to_gbdt_params(), unit_system,
                  grid=np.linspace(0, 1, 51), tol=1e-12)
    for j, x in enumerate(traj.grid):
        assert fro(traj.pi[j] - diag.pi_at(x)) < 1e-8
        assert fro(traj.s[j] - diag.s_at(x)) < 1e-8


@pytest.fixture(params=["unit", "zigzag", "m3"])
def rhs_system(request, unit_system):
    """Constant and kinked H at m = 2, and constant H at m = 3."""
    if request.param == "unit":
        return unit_system
    return zigzag_system() if request.param == "zigzag" else signature_three_system()


def test_order_one_rhs_is_the_matrix_form_bit_for_bit(rhs_system):
    # the scalar n = 1 right-hand side must keep every product's rounding
    sys = rhs_system
    params = sample_params(5, sys, n=1)
    rhs, expected = gbdt._evolve_rhs(params, sys.J, sys.hamiltonian), matrix_rhs(params, sys)
    for x, y in random_states(11, sys.m + 2, 1000):
        assert_bits(rhs(x, y), expected(x, y))


def test_order_two_rhs_adjugate_is_the_inverse_to_rounding(rhs_system):
    sys = rhs_system
    # two stable inverses of B - x differ by about cond(B - x) unit roundoffs:
    # 2.4 at worst over 20 draws of 300 points, 6.7e-15 relative at worst
    roundoff = np.finfo(float).eps / 2
    for seed in range(5):
        params = sample_params(seed, sys, n=2)
        rhs = gbdt._evolve_rhs(params, sys.J, sys.hamiltonian)
        expected = matrix_rhs(params, sys)
        for x, y in random_states(12 + seed, 2 * sys.m + 8, 200):
            want = expected(x, y)
            bound = 4 * roundoff * np.linalg.cond(params.B - x * np.eye(2))
            assert np.linalg.norm(rhs(x, y) - want) <= bound * np.linalg.norm(want)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("xi", [0.0, 0.5])
def test_evolved_k_meets_its_closed_form(unit_system, n, xi):
    # K' = K A, K(xi) = I with A = (B - x)^{-1} solves to
    # K = (B - x)^{-1} (B - xi) = I + (x - xi) (B - x)^{-1}
    sys = CanonicalSystem(unit_system.J, unit_system.interval, unit_system.hamiltonian, xi=xi)
    tol = 1e-10
    for seed in (0, 1):
        params = sample_params(seed, sys, n=n)
        traj = evolve(params, sys, tol=tol)
        x = traj.grid[:, None, None]
        k = np.eye(n) + (x - xi) * np.linalg.inv(params.B - x * np.eye(n))
        scale = float(np.max(np.linalg.norm(k, axis=(1, 2))))
        assert float(np.max(np.linalg.norm(traj.k - k, axis=(1, 2)))) <= tol * scale


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


def test_positivity_holds_on_both_sides_of_an_interior_base_point(diag_n1):
    # Q = K S K* nondecreasing gives S^{-1} <= K* S(xi)^{-1} K right of xi
    # and the reverse left of it; on this trajectory (the bundled dressing
    # anchored at xi = 0.5) the right-hand bound misses by 0.145 left of xi
    spec = HamiltonianSpec.from_constant_beta(rank_one.BETA, (0.0, 1.0))
    sys_mid = CanonicalSystem(J=J_OFF, interval=(0.0, 1.0), hamiltonian=spec, xi=0.5)
    traj = evolve(diag_n1.to_gbdt_params(xi=0.5), sys_mid, tol=1e-10)
    assert (traj.grid < 0.5).any() and (traj.grid > 0.5).any()
    report = positivity_report(traj)
    assert report.ok and report.inverse_bound_defect <= 10 * traj.ode_tol
    # S one percent too small right of xi, or too large left of it, breaks
    # that side's bound near xi, where the bound is tight; the other
    # direction only widens the margin
    for side, breaking in ((traj.grid > 0.5, 0.99), (traj.grid < 0.5, 1.01)):
        for factor, ok in ((breaking, False), (2.0 - breaking, True)):
            s = traj.s.copy()
            s[side] *= factor
            report = positivity_report(dataclasses.replace(traj, s=s))
            assert report.ok is ok, (factor, report)


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


def test_transfer_matches_the_closed_forms_at_order_one(traj_n1):
    # 0.123456 exercises the dense interpolation between grid samples
    xs = np.array([0.123456, 0.25, 0.5, 0.9])[:, None]
    zs = [2j, -1.0 + 0.5j, 3.0 + 0.0j]
    forms = rank_one.dressed_forms(traj_n1.params, xs, zs)
    te = transfer(traj_n1, xs, zs)
    assert worst_fro(te.w_a, forms.w_a) < 1e-9
    assert worst_fro(te.v, forms.v) < 1e-9
    assert worst_fro(te.w0, forms.w0) < 1e-9


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


@pytest.fixture(scope="module")
def bundled_traj(unit_system, diag_n1):
    """The trajectory a bundled `cansys run` evolves: ode_tol 1e-10 on
    evolve's default grid."""
    return evolve(diag_n1.to_gbdt_params(), unit_system, tol=1e-10)


@pytest.fixture(scope="module")
def traj_n2(unit_system):
    return evolve(sample_params(3, unit_system, n=2), unit_system, tol=1e-10)


# transformed_fundamental's stack (xi, then a grid, against a batch of z),
# one point, and the pair x = xi, 0.7 of a dressed cut limit at z = 0.5
TRANSFER_CASES = [
    (np.append(0.0, np.linspace(0.0, 1.0, 51))[:, None],
     np.array([-0.5 + 1.5j, 1.5j, 0.25 + 1.5j, 1.0 + 1.5j, 2j, 2.0 - 1.0j])),
    (0.3, 2j),
    ([0.0, 0.7], 0.5 - 0.0j),
]


@pytest.mark.parametrize("name", ["bundled_traj", "traj_n2"])
def test_transformed_fundamental_is_transfers_v_around_rk45_bitwise(request, name):
    traj = request.getfixturevalue(name)
    z = np.array([1.5j, 0.25 + 1.5j, 2.0 - 1.0j])
    grid = np.linspace(0.0, 1.0, 9)
    got = transformed_fundamental(traj, z, grid=grid)
    base = fundamental_solution(traj.system, z, grid=grid, tol=system.ODE_TOL,
                                method="rk45")
    v = transfer(traj, np.append(traj.system.xi, grid)[:, None], z).v
    v = np.moveaxis(v, 0, 1)  # (x, z) to (z, x)
    assert_bits(got.values, v[:, 1:] @ base.values @ np.linalg.inv(v[:, :1]))


@pytest.mark.parametrize("name", ["bundled_traj", "traj_n2"])
def test_j_defect_is_the_conj_z_j_relation_bitwise(request, name):
    traj = request.getfixturevalue(name)
    J = traj.system.J
    for x, z in TRANSFER_CASES:
        te = transfer(traj, x, z)
        w_a_conj = transfer(traj, x, np.conj(z)).w_a
        expected = np.linalg.norm(_adj(w_a_conj) @ J @ te.w_a - J, axis=(-2, -1))
        assert_bits(te.j_defect, expected)


@pytest.mark.parametrize("name", ["bundled_traj", "traj_n2"])
def test_transfer_forms_its_diagnostics_on_first_read(request, name, monkeypatch):
    # v costs the frame's solve against S and one resolvent solve; j_defect
    # adds the conj(z) resolvent solve once, and the residual adds none
    traj = request.getfixturevalue(name)
    calls = []
    solve = np.linalg.solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    for x, z in TRANSFER_CASES:
        calls.clear()
        te = transfer(traj, x, z)
        assert te.v.shape[-2:] == (traj.m, traj.m) and len(calls) == 2
        assert np.all(np.isfinite(te.j_defect)) and np.all(np.isfinite(te.w0_inv_residual))
        assert te.j_defect is te.j_defect and len(calls) == 3


@pytest.mark.parametrize("name", ["bundled_traj", "traj_n2"])
def test_transformed_beta_samples_are_the_dense_dressing_bitwise(request, name):
    traj = request.getfixturevalue(name)
    grid = traj.grid
    expected = traj.system.hamiltonian.beta_at(grid) @ w0_at(traj, grid)
    assert_bits(transformed_system(traj).hamiltonian.beta, expected)


def test_transformed_h_samples_are_the_dense_congruence_bitwise(diag_n1):
    x = np.linspace(0, 1, 33)
    h = np.stack([rank_one.hamiltonian()] * x.size)
    sys_grid = CanonicalSystem(
        J=J_OFF, interval=(0.0, 1.0), hamiltonian=HamiltonianSpec.from_grid(x, h)
    )
    traj = evolve(diag_n1.to_gbdt_params(), sys_grid, tol=1e-10)
    w0 = w0_at(traj, traj.grid)
    expected = hermitian_part(_adj(w0) @ sys_grid.hamiltonian.hamiltonian(traj.grid) @ w0)
    assert_bits(transformed_system(traj).hamiltonian.h, expected)


def _nearly_singular_trajectory(unit_system):
    # S vanishes at x = 0.5, between the grid points, so evolve succeeds
    h = np.log(1j - 0.5).imag
    diag = rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[h])
    return evolve(diag.to_gbdt_params(), unit_system,
                  grid=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0], tol=1e-10)


def test_w0_and_dressed_hamiltonian_check_s(unit_system):
    traj = _nearly_singular_trajectory(unit_system)
    dressed = transformed_system(traj).hamiltonian
    for evaluate in (lambda: w0_at(traj, 0.5), lambda: dressed.hamiltonian(0.5)):
        with pytest.raises(SingularMatrixError) as excinfo:
            evaluate()
        assert excinfo.value.location == pytest.approx(0.5)


def test_transfer_names_first_singular_point(unit_system):
    traj = _nearly_singular_trajectory(unit_system)
    with pytest.raises(SingularMatrixError) as excinfo:
        transfer(traj, [0.2, 0.5], 2j)
    assert excinfo.value.location == pytest.approx(0.5)


@pytest.mark.parametrize("name, call", [
    ("z", lambda traj: transfer(traj, 0.5, np.nan)),
    ("x", lambda traj: transfer(traj, np.nan, 2j)),
    ("x", lambda traj: w0_at(traj, np.nan)),
    ("x", lambda traj: w0_at(traj, [0.5, np.inf])),
], ids=["transfer-z", "transfer-x", "w0-x", "w0-array-x"])
def test_non_finite_points_raise_naming_them(traj_n1, name, call):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(traj_n1)


def test_transfer_rejects_spectrum_of_b(traj_n1):
    with pytest.raises(ValueError):
        transfer(traj_n1, 0.5, 1j)
    with pytest.raises(ValueError):
        transfer(traj_n1, 0.5, -1j)  # conjugate also excluded


# -- transformed Hamiltonian ----------------------------------------------------


def test_transformed_hamiltonian_trivial(unit_system):
    traj = evolve(trivial_params(), unit_system, tol=1e-10)
    dressed = transformed_system(traj).hamiltonian
    for x in (0.0, 0.5, 1.0):
        assert fro(dressed.hamiltonian(x) - rank_one.hamiltonian()) < 1e-8


def closed_form_h_t(params, x):
    """The dressed Hamiltonian w0* H w0 from rank_one.dressed_forms."""
    w0 = rank_one.dressed_forms(params, x, 2j).w0
    return _adj(w0) @ rank_one.hamiltonian() @ w0


def test_transformed_hamiltonian_matches_closed_form(traj_n1, diag_n1):
    dressed = transformed_system(traj_n1).hamiltonian
    xs = np.linspace(0.0, 1.0, 11)
    expected = closed_form_h_t(diag_n1.to_gbdt_params(), xs)
    for x, h_t in zip(xs, expected):
        assert fro(dressed.hamiltonian(x) - h_t) < 1e-8


def test_transformed_hamiltonian_preserves_rank(traj_n1):
    dressed = transformed_system(traj_n1).hamiltonian
    for x in (0.2, 0.7):
        eigs = np.sort(np.linalg.eigvalsh(hermitian_part(dressed.hamiltonian(x))))
        assert abs(eigs[0]) < 1e-10  # still rank one
        assert eigs[1] > 1e-3


def test_transformed_beta_degeneracy_and_kernel_bound(unit_system, traj_n1):
    dressed = transformed_system(traj_n1).hamiltonian
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
    dressed = transformed_system(traj).hamiltonian
    assert not dressed.is_factored
    for xx in (0.3, 0.8):
        assert fro(dressed.hamiltonian(xx) - closed_form_h_t(traj.params, xx)) < 1e-7


@pytest.fixture(scope="module")
def dressed_callables(traj_n1, diag_n1):
    """The exact callables of every dressed producer, by name."""
    x = np.linspace(0, 1, 33)
    h = np.stack([rank_one.hamiltonian()] * x.size)
    sys_grid = CanonicalSystem(
        J=J_OFF, interval=(0.0, 1.0), hamiltonian=HamiltonianSpec.from_grid(x, h)
    )
    traj_grid = evolve(diag_n1.to_gbdt_params(), sys_grid,
                       grid=np.linspace(0, 1, 51), tol=1e-11)
    return {
        "factored": transformed_system(traj_n1).hamiltonian.beta_fn,
        "h-grid": transformed_system(traj_grid).hamiltonian.h_fn,
    }


@pytest.mark.parametrize("name", ["factored", "h-grid"])
def test_dressed_callables_take_arrays(dressed_callables, name):
    # one call on an array of points gives the stack of the scalar calls
    fn = dressed_callables[name]
    x = np.linspace(0.05, 0.95, 7)
    stacked = np.stack([fn(xx) for xx in x])
    assert fro(fn(x) - stacked) <= 1e-14


# -- transformed fundamental solution ---------------------------------------------


def test_transformed_fundamental_normalisation(traj_n1):
    sol = transformed_fundamental(traj_n1, 2j, grid=np.array([0.0, 0.5, 1.0]))
    assert fro(sol.values[0] - np.eye(2)) < 1e-12


def test_transformed_fundamental_vs_direct_integration(unit_system, traj_n1):
    # dress-then-solve against solve-the-dressed-system
    dressed_sys = transformed_system(traj_n1)
    grid = np.linspace(0.0, 1.0, 21)
    for z in (2j, -0.8 + 0.6j):
        via_multiplier = transformed_fundamental(traj_n1, z, grid=grid, tol=1e-11)
        direct = fundamental_solution(dressed_sys, z, grid=grid, tol=1e-11,
                                      method="rk45")
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
    expected = rank_one.transformed_fundamental_matrix(diag_n1.to_gbdt_params(), grid, 2j)
    for j in range(grid.size):
        assert fro(sol.values[j] - expected[j]) < 1e-8


def jordan_params(n):
    """Dressing parameters whose pole matrix B is one n x n Jordan block,
    with S(0) = I.  A = B^{-1} = (1 + i)/2 I + M for a nilpotent M of rank
    n - 1 chosen so that -i (A - A*) has one positive and one negative
    eigenvalue; Pi(0) realises it as Pi(0) J Pi(0)* = p p* - q q*, so the
    identity A S - S A* = i Pi J Pi* holds at 0."""
    nilpotent = {2: [[0, 2], [0, 0]], 3: [[0, 3**0.5, -1j], [0, 0, 3**0.5], [0, 0, 0]]}[n]
    a = (0.5 + 0.5j) * np.eye(n) + np.array(nilpotent)
    eigs, vecs = np.linalg.eigh(-1j * (a - _adj(a)))  # -1, (0,) then 3 or 4
    p, q = vecs[:, -1] * np.sqrt(eigs[-1]), vecs[:, 0] * np.sqrt(-eigs[0])
    pi0 = np.column_stack([p + q, p - q]) / np.sqrt(2)  # J = [[0, 1], [1, 0]]
    return GbdtParams(B=np.linalg.inv(a), S0=np.eye(n), Pi0=pi0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, None], ids=["draw0", "draw1", "draw2", "jordan"])
def test_engine_meets_the_closed_forms_for_any_b(unit_system, seed, n):
    # seeded non-normal draws and a Jordan block: evolve's (Pi, S), transfer
    # and transformed_fundamental against rank_one.dressed_forms
    params = jordan_params(n) if seed is None else sample_params(seed, unit_system, n)
    if seed is None:
        eig = np.linalg.eigvals(params.B)[0]
        assert np.linalg.matrix_rank(params.B - eig * np.eye(n), tol=1e-8) == n - 1
    grid = np.linspace(0.0, 1.0, 11)
    zs = np.array([2j, -0.5 + 0.7j, 1.5 - 0.4j])
    traj = evolve(params, unit_system, grid=grid, tol=1e-12)
    forms = rank_one.dressed_forms(params, np.append(0.0, grid)[:, None], zs)
    assert worst_fro(traj.pi, forms.pi[1:, 0]) <= 1e-10
    assert worst_fro(traj.s, forms.s[1:, 0]) <= 1e-10
    te = transfer(traj, grid[:, None], zs)
    for name in ("w0", "w_a", "v"):
        expected = getattr(forms, name)[1:]
        gap = np.linalg.norm(getattr(te, name) - expected, axis=(-2, -1))
        assert np.all(gap <= 1e-10 * np.maximum(1.0, np.linalg.norm(expected, axis=(-2, -1))))
    # W~ = v(x) W v(0)^{-1} amplifies the base solve's error by at most
    # kappa = |v(x)| |v(0)^{-1}|
    sol = transformed_fundamental(traj, zs, grid=grid, tol=1e-12)
    expected = rank_one.transformed_fundamental_matrix(params, grid[:, None], zs)
    kappa = (np.linalg.norm(forms.v[1:], axis=(-2, -1))
             * np.linalg.norm(np.linalg.inv(forms.v[:1]), axis=(-2, -1)))
    gap = np.linalg.norm(np.moveaxis(sol.values, 0, 1) - expected, axis=(-2, -1))
    assert np.all(gap <= 1e-10 * kappa)


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


def test_g0_matches_finite_differences(traj_n1):
    # the paper's identity d/dx w0 = G0 w0, with the generator
    # G0 = -J (i Pi* S^{-1} Pi - H J Pi* S^{-1} Pi + Pi* S^{-1} Pi J H)
    # formed here from the trajectory's state and H
    J = traj_n1.system.J
    for x in (0.3, 0.7):
        pi, s, _ = traj_n1.state_at(x)
        core = _adj(pi) @ np.linalg.solve(s, pi)
        h = traj_n1.system.hamiltonian.hamiltonian(x)
        g0 = -J @ (1j * core - h @ J @ core + core @ J @ h)
        errs = []
        for step in (1e-3, 1e-4):
            fd = (w0_at(traj_n1, x + step) - w0_at(traj_n1, x - step)) / (2 * step)
            errs.append(fro(fd - g0 @ w0_at(traj_n1, x)))
        assert errs[0] < 1e-4  # O(h^2) + integration noise
        assert errs[1] < max(1e-2 * errs[0], 1e-7)


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


@pytest.mark.parametrize("s", [0.4, 0.5])
def test_transformed_boundary_values_dressed_system_check(traj_n1, s):
    # boundary_values on the dressed system reproduces v W+- v(xi)^{-1}
    report = transformed_boundary_values(traj_n1, 1.0, s, tol=1e-11)
    assert report.cross_check_error <= 1e-10


def test_transformed_boundary_values_cross_check_can_fail(traj_n1, monkeypatch):
    # run the check on the undressed system: the two routes must disagree
    monkeypatch.setattr(
        gbdt, "transformed_system", lambda traj: traj.system
    )
    report = transformed_boundary_values(traj_n1, 1.0, 0.5, tol=1e-11)
    assert report.cross_check_error > 1.0


def test_transformed_boundary_values_need_both_refinements_converged(traj_n1):
    # at s = 0.7 the base limits converge, but the dressed-system check
    # stops at the panel cap short of tol
    s, tol = 0.7, 1e-10
    sys = traj_n1.system
    direct = boundary_values(transformed_system(traj_n1), 1.0, s, tol=tol)
    assert direct.panels > system.MAX_CUT_PANELS and not direct.converged
    assert boundary_values(sys, 1.0, s, tol=tol).converged
    report = transformed_boundary_values(traj_n1, 1.0, s, tol=tol)
    assert not report.converged and not report.divergent


@pytest.mark.parametrize("which", [0, 1])  # the base limits, the dressed check
def test_transformed_boundary_values_report_either_divergence(traj_n1, monkeypatch, which):
    calls = []

    def flagging(*args, **kwargs):
        report = boundary_values(*args, **kwargs)
        calls.append(report)
        if len(calls) - 1 == which:
            report.divergent, report.converged = True, False
        return report

    monkeypatch.setattr(gbdt, "boundary_values", flagging)
    report = transformed_boundary_values(traj_n1, 1.0, 0.5, tol=1e-8)
    assert len(calls) == 2
    assert report.divergent and not report.converged


def test_transformed_jump_is_conjugated_base_jump(unit_system, traj_n1):
    # jump~ = v(xi, s) jump v(xi, s)^{-1}: W~+- share the right factor
    # v(xi, s)^{-1} and pick up v(x, s) on the left
    s = 0.4
    base = boundary_values(unit_system, 1.0, s, tol=1e-11)
    dressed = transformed_boundary_values(traj_n1, 1.0, s, tol=1e-11)
    v_xi = transfer(traj_n1, 0.0, s).v
    expected = v_xi @ base.jump @ np.linalg.inv(v_xi)
    assert fro(dressed.jump - expected) <= 1e-3


def drawn_zigzag_trajectory(seed):
    """An n = 1 draw evolved on a seeded zigzag profile, with a point s
    inside a profile panel: beta = c(x) [1, i] on 33 nodes, c a sine of
    seeded phase plus a zigzag of seeded sign, so every node is a kink."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, 33)
    zigzag = rng.choice([-1.0, 1.0]) * (-1.0) ** np.arange(x.size)
    c = 1.0 + 0.4 * np.sin(2 * np.pi * (x + rng.uniform())) + 0.02 * zigzag
    sys = CanonicalSystem(
        J=J_OFF, interval=(0.0, 1.0),
        hamiltonian=HamiltonianSpec.from_beta_grid(x, c[:, None, None] * rank_one.BETA),
    )
    traj = evolve(sample_params(seed, sys, n=1), sys, tol=1e-11)
    s = x[rng.integers(2, x.size - 3)] + rng.uniform(0.3, 0.7) * (x[1] - x[0])
    return traj, s


@pytest.fixture(scope="module", params=[1, 2, 3])
def kinked(request):
    return drawn_zigzag_trajectory(request.param)


def test_transformed_boundary_values_converge_on_a_kinked_base(kinked):
    # the dressed system's samples hold the base kinks, so its cut limits
    # converge and agree with the multiplier route
    traj, s = kinked
    report = transformed_boundary_values(traj, 1.0, s, tol=1e-8)
    assert report.converged
    assert report.cross_check_error <= 1e-8


def test_dressed_system_of_a_kinked_base_keeps_its_kinks(kinked):
    traj, _ = kinked
    dressed = transformed_system(traj)
    assert np.isin(traj.system.hamiltonian.kinks, dressed.hamiltonian.x).all()
    sol = fundamental_solution(dressed, 0.4 + 0.5j, tol=1e-8)
    assert sol.converged and sol.panels <= system.MAX_CUT_PANELS


def test_dressed_system_samples_the_kinks_within_the_grid():
    # the trajectory covers [0, 0.5] only: kinks past it are not sampled
    sys = zigzag_system()
    traj = evolve(sample_params(1, sys, n=1), sys, grid=np.linspace(0.0, 0.5, 11),
                  tol=1e-10)
    kinks = sys.hamiltonian.kinks
    expected = np.union1d(traj.grid, kinks[kinks < 0.5])
    assert_bits(transformed_system(traj).hamiltonian.x, expected)


def test_transformed_boundary_values_spectrum_margin(unit_system):
    # the pole keeps its margin from [0, 1], so evolve accepts it, but it
    # lies closer than the margin to the real point s = 1.5
    diag = rank_one.DiagonalParams(b_diag=[1.5 + 1e-5j], g=[1.0], h=[0.0])
    traj = evolve(diag.to_gbdt_params(), unit_system, tol=1e-10)
    with pytest.raises(ValueError, match="spectrum margin"):
        transformed_boundary_values(traj, 1.0, 1.5, tol=1e-10)


# -- random parameter draws ----------------------------------------------------------


def test_sample_params_identity_and_margin(unit_system):
    for seed in range(20):
        params = sample_params(seed, unit_system, n=1 + seed % 4)
        report = validate_params(params, unit_system)
        assert report.ok, f"seed {seed}: {report.violations}"


def test_sample_params_indefinite_mode(unit_system):
    params = sample_params(123, unit_system, n=3, positive=False)
    assert validate_params(params, unit_system).ok


@pytest.mark.parametrize("n", [0, -1, 2.5, True])
def test_sample_params_rejects_bad_n(unit_system, n):
    with pytest.raises(ValueError, match="^n must be a positive integer"):
        sample_params(0, unit_system, n=n)


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
    dressed = transformed_system(traj)
    base = kernel_bound(sys_var.hamiltonian, sys_var.J)
    out = kernel_bound(dressed.hamiltonian, sys_var.J)
    assert base.finite and out.finite
    assert out.degeneracy_defect <= 1e-9
    # dressed solution still solves the dressed system
    grid = np.linspace(0.0, 1.0, 9)
    z = 1.1 + 0.9j
    direct = fundamental_solution(dressed, z, grid=grid, tol=1e-10, method="rk45")
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
    dressed_sys = transformed_system(traj)
    assert dressed_sys.xi == 0.5
    via_multiplier = transformed_fundamental(traj, z, grid=grid, tol=1e-11)
    direct = fundamental_solution(dressed_sys, z, grid=grid, tol=1e-11, method="rk45")
    assert fro(via_multiplier.values[4] - np.eye(2)) < 1e-12  # x = xi
    gap = max(fro(a - b) for a, b in zip(via_multiplier.values, direct.values))
    assert gap <= 1e-6
