import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from cansys import rank_one, system
from cansys.linalg import _adj, fro, hermitian_part
from cansys.system import (
    CanonicalSystem,
    HamiltonianSpec,
    MAX_CUT_PANELS,
    ROUNDING_GROWTH,
    SpectralPointError,
    _cut_limits,
    _expm_small,
    _graded_breakpoints,
    _halved,
    _level_products,
    _log1p,
    _log_weight_product,
    _magnus_exponents,
    _mul,
    _ordered_product,
    _refine,
    _total_product,
    boundary_values,
    fundamental_solution,
    j_monotonicity_defect,
    kernel_bound,
    product_integral,
    validate_system,
)

from conftest import assert_bits
from rk45_reference import extrapolate_eta_sequence, limit_samples

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


def test_validate_rejects_non_hermitian_h_samples():
    # I plus a skew part 0.5: their Hermitian part, which H(x) returns, is I
    x = np.array([0.0, 1.0])
    h = np.stack([np.array([[1.0, 0.5], [-0.5, 1.0]], dtype=complex)] * 2)
    sys = CanonicalSystem(J=J_OFF, interval=(0.0, 1.0),
                          hamiltonian=HamiltonianSpec.from_grid(x, h))
    report = validate_system(sys)
    assert report.violations == [f"H not PSD Hermitian at x_{j} = {x[j]}"
                                 for j in (0, 1)]
    assert report.min_h_eig == 1.0


@pytest.mark.parametrize("size", [1.0, 1e6, 1e8])
def test_validate_psd_check_scales_with_the_data(size):
    # rounding puts the PSD defect of PSD data near u |H|, so large PSD
    # grids pass, and a least eigenvalue of -1e-6 |H| fails at any size
    rng = np.random.default_rng(0)
    a = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    x = np.linspace(0.0, 1.0, 9)
    h = size * a @ _adj(a)
    for spec in (HamiltonianSpec.from_grid(x, h),
                 HamiltonianSpec.from_beta_grid(x, np.sqrt(size) * a[:, :1])):
        assert validate_system(CanonicalSystem(J=J_OFF, interval=(0.0, 1.0),
                                               hamiltonian=spec)).ok
    h[4] -= (np.linalg.eigvalsh(h[4])[0] + 1e-6 * np.linalg.norm(h[4])) * np.eye(2)
    report = validate_system(CanonicalSystem(J=J_OFF, interval=(0.0, 1.0),
                                             hamiltonian=HamiltonianSpec.from_grid(x, h)))
    assert report.violations == [f"H not PSD Hermitian at x_4 = {x[4]}"]


def test_validate_rejects_a_hamiltonian_of_another_size():
    spec = HamiltonianSpec.from_constant_beta(np.ones((1, 3)), (0.0, 1.0))
    report = validate_system(CanonicalSystem(J=J_OFF, interval=(0.0, 1.0),
                                             hamiltonian=spec))
    assert report.violations == ["Hamiltonian size 3 != system size 2"]


@pytest.mark.parametrize("xi", [5.0, -0.5, np.nan, np.inf])
def test_base_point_must_lie_in_the_interval(xi):
    spec = HamiltonianSpec.from_constant_beta(np.zeros((1, 2)), (0.0, 1.0))
    with pytest.raises(ValueError, match=r"^xi = .* outside \[0.0, 1.0\]"):
        CanonicalSystem(J=J_OFF, interval=(0.0, 1.0), hamiltonian=spec, xi=xi)


def test_hamiltonian_spec_interpolation():
    x = np.linspace(0.0, 1.0, 5)
    h = np.stack([np.eye(2) * (1.0 + xx) for xx in x]).astype(complex)
    spec = HamiltonianSpec.from_grid(x, h)
    assert fro(spec.hamiltonian(0.125) - np.eye(2) * 1.125) < 1e-14


def _interp_stack_reference(xgrid, values, xq):
    """The np.clip formula _interp_stack replaced, on a 1-D array of points."""
    j = np.clip(np.searchsorted(xgrid, xq), 1, xgrid.size - 1)
    x0, x1 = xgrid[j - 1], xgrid[j]
    w = np.clip((xq - x0) / (x1 - x0), 0.0, 1.0)
    return (1.0 - w)[:, None, None] * values[j - 1] + w[:, None, None] * values[j]


def _interpolation_cases(kind, x, rng):
    """(samples, evaluate, spec) triples: a spec's beta or H samples at
    m = 2, or for "shapes" (k, m) beta stacks with zero and -0.0 samples,
    interpolated by _interp_stack itself."""
    if kind == "shapes":
        cases = []
        for shape in [(1, 2), (2, 2), (3, 2), (2, 3)]:
            samples = _complex_stack(rng, (x.size,) + shape)
            samples[[3, 8]] = 0.0
            samples[[4, 9]] = complex(-0.0, -0.0)
            samples[5, 0] = complex(-0.0, 0.0)
            cases.append((samples, lambda t, s=samples: system._interp_stack(x, s, t),
                          HamiltonianSpec(x, beta=samples)))
        return cases
    samples = _complex_stack(rng, (x.size, 2, 2))
    spec = HamiltonianSpec(x, **{kind: samples})
    if kind == "beta":
        return [(samples, spec.beta_at, spec)]
    return [(spec.h, lambda t: system._interp_stack(spec.x, spec.h, t), spec)]


@pytest.mark.parametrize("kind", ["beta", "h", "shapes"])
def test_interpolation_is_bit_identical_to_the_clip_formula(kind):
    rng = np.random.default_rng(11)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 15)), [1.0]])
    cases = _interpolation_cases(kind, x, rng)
    # outside [x_0, x_N] (where the end values hold), inside, and on nodes
    points = np.concatenate([[-0.3, 1.25, 0.37], rng.uniform(-0.2, 1.2, 500), x])
    for stack, evaluate, spec in cases:
        ref = _interp_stack_reference(x, stack, points)
        assert_bits(evaluate(points), ref)
        assert_bits(evaluate(points[:520].reshape(26, 20)),
                    ref[:520].reshape((26, 20) + stack.shape[1:]))
        for i in (0, 1, 2, 503, 519):  # the first three, x_0 and x_N
            assert_bits(evaluate(float(points[i])), ref[i])
            assert_bits(evaluate(np.asarray(points[i])), ref[i])
        # H at one point is the matching entry of the stacked evaluation
        stacked = spec.hamiltonian(points)
        for t, h in zip(points, stacked):
            assert_bits(spec.hamiltonian(float(t)), h)


def _interpolated_specs():
    rng = np.random.default_rng(5)
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 9)), [1.0]])
    beta = rng.standard_normal((x.size, 1, 2)) + 1j * rng.standard_normal((x.size, 1, 2))
    return {
        "beta-grid": HamiltonianSpec(x, beta=beta),
        "h-grid": HamiltonianSpec(x, h=np.conj(beta).swapaxes(1, 2) @ beta + np.eye(2)),
        "constant-beta": HamiltonianSpec.from_constant_beta(beta[3], (0.0, 1.0)),
    }


@pytest.mark.parametrize("kind", ["beta-grid", "h-grid", "constant-beta"])
def test_a_scalar_point_gives_the_bits_of_an_array_point(kind):
    # the ODE right-hand sides pass one float, the Magnus kernel arrays
    spec = _interpolated_specs()[kind]
    x = spec.x
    points = np.concatenate([x, 0.5 * (x[:-1] + x[1:]), x[:-1] + 0.1 * np.diff(x),
                             [-0.4, x[0] - 1e-9, x[-1] + 1e-9, 1.3]])
    h_stack = spec.hamiltonian(points)
    beta_stack = spec.beta_at(points) if spec.is_factored else None
    for i, t in enumerate(points):
        for point in (float(t), np.float64(t)):
            h = spec.hamiltonian(point)
            assert h.shape == (2, 2)
            assert np.array_equal(h, h_stack[i])
            assert np.array_equal(h, spec.hamiltonian(np.asarray(point)))
            if beta_stack is not None:
                assert np.array_equal(spec.beta_at(point), beta_stack[i])
    # outside the grid the end values hold
    assert np.array_equal(spec.hamiltonian(-0.4), spec.hamiltonian(float(x[0])))
    assert np.array_equal(spec.hamiltonian(1.3), spec.hamiltonian(float(x[-1])))


@pytest.mark.parametrize("field", ["h_fn", "beta_fn"])
def test_a_scalar_point_reaches_the_callable(field):
    spec = _interpolated_specs()["beta-grid"]
    seen = []

    def fn(t):
        seen.append(t)
        return spec.hamiltonian(t) if field == "h_fn" else spec.beta_at(t)

    wrapped = HamiltonianSpec(spec.x, beta=spec.beta, **{field: fn})
    for point in (0.3, np.float64(0.3), 1.3):
        seen.clear()
        assert np.array_equal(wrapped.hamiltonian(point), spec.hamiltonian(point))
        assert seen == [point] and type(seen[0]) is type(point)


def test_hamiltonian_spec_calls_callables_once_per_evaluation():
    # a callable takes an array of points and returns the stack behind it
    x = np.linspace(0.0, 1.0, 5)
    calls = []

    def beta_fn(t):
        calls.append(np.shape(t))
        t = np.asarray(t)[..., None, None]
        return np.array([[1.0, 0.0]]) + t * np.array([[0.0, 1j]])

    spec = HamiltonianSpec(x, beta=beta_fn(x), beta_fn=beta_fn)
    spec_h = HamiltonianSpec(x, h=spec.hamiltonian(x), h_fn=spec.hamiltonian)
    calls.clear()
    t = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    h = spec_h.hamiltonian(t)
    assert calls == [t.shape]
    assert h.shape == (2, 3, 2, 2)
    assert fro(h[1, 2] - np.array([[1.0, 0.6j], [-0.6j, 0.36]])) < 1e-15
    assert spec.beta_at(0.5).shape == (1, 2)


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


@pytest.mark.parametrize("x", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf],
                               [-np.inf, 0.5, 1.0]], ids=["nan", "inf", "-inf"])
def test_hamiltonian_spec_rejects_non_finite_grid(x):
    # NaN and infinite spacings pass the strictly-increasing test
    x = np.array(x)
    with pytest.raises(ValueError, match="^sample grid must be finite"):
        HamiltonianSpec.from_grid(x, np.stack([np.eye(2)] * 3))
    with pytest.raises(ValueError, match="^sample grid must be finite"):
        HamiltonianSpec.from_beta_grid(x, np.ones((3, 1, 2)))


@pytest.mark.parametrize("factored", [{"beta": np.ones((2, 1, 2))},
                                      {"beta_fn": lambda t: np.ones(np.shape(t) + (1, 2))}],
                         ids=["beta", "beta_fn"])
def test_hamiltonian_spec_rejects_h_samples_with_factored_data(factored):
    # the factor would take precedence and drop H = 5 I unseen
    with pytest.raises(ValueError, match="^H samples cannot join factored data"):
        HamiltonianSpec(np.array([0.0, 1.0]), h=5.0 * np.stack([np.eye(2)] * 2), **factored)


@pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)],
                         ids=["inf", "-inf", "nan"])
def test_canonical_system_rejects_a_non_finite_interval(interval):
    spec = HamiltonianSpec.from_constant_beta(np.eye(2), (0.0, 1.0))
    with pytest.raises(ValueError, match=r"^interval must be finite"):
        CanonicalSystem(J=np.eye(2), interval=interval, hamiltonian=spec)


# -- constant data -------------------------------------------------------------

#: A 1 x 2 factor whose interpolation (1 - w) beta + w beta need not round
#: back to beta.
BETA_OFF = np.array([[0.3 + 0.7j, -1.1 + 0.2j]])


def _constant_specs():
    x = np.linspace(0.0, 1.0, 4)
    h = _adj(BETA_OFF) @ BETA_OFF + np.array([[1.0, 0.25j], [-0.25j, 1.0]])
    return {
        "constant-beta": HamiltonianSpec.from_constant_beta(BETA_OFF, (0.0, 1.0)),
        "beta-grid": HamiltonianSpec(x, beta=np.stack([BETA_OFF] * x.size)),
        "h-grid": HamiltonianSpec(x, h=np.stack([h] * x.size)),
    }


def _interpolates(spec, monkeypatch):
    """Whether H at a scalar or at an array of points reaches the
    interpolation of the samples."""

    def no_interpolation(*args):
        raise AssertionError("interpolated")

    with monkeypatch.context() as patch:
        patch.setattr(system, "_interp_stack", no_interpolation)
        try:
            for point in (0.37, np.array([0.1, 0.9])):
                spec.hamiltonian(point)
                if spec.is_factored:
                    spec.beta_at(point)
        except AssertionError:
            return True
    return False


@pytest.mark.parametrize("kind", ["constant-beta", "beta-grid", "h-grid"])
def test_equal_samples_are_one_stored_matrix(kind, monkeypatch):
    spec = _constant_specs()[kind]
    assert not _interpolates(spec, monkeypatch)
    assert spec.hamiltonian(0.2) is spec.hamiltonian(0.9)


@pytest.mark.parametrize("kind", ["beta-grid", "h-grid"])
def test_a_sample_one_ulp_off_is_interpolated(kind, monkeypatch):
    spec = _constant_specs()[kind]
    field = "beta" if kind == "beta-grid" else "h"
    samples = getattr(spec, field).copy()
    samples[2, 0, 1] = complex(np.nextafter(samples[2, 0, 1].real, np.inf),
                               samples[2, 0, 1].imag)
    off = HamiltonianSpec(spec.x, **{field: samples})
    assert _interpolates(off, monkeypatch)
    assert not np.array_equal(off.hamiltonian(spec.x), spec.hamiltonian(spec.x))


@pytest.mark.parametrize("field", ["h_fn", "beta_fn"])
def test_a_callable_takes_precedence_over_equal_samples(field):
    # equal samples with a callable are not constant data: every evaluation
    # reaches the callable, whose values differ from the samples'
    spec = _constant_specs()["constant-beta"]
    seen = []

    def fn(t):
        seen.append(t)
        scaled = 2.0 * spec.beta_at(t)
        return _adj(scaled) @ scaled if field == "h_fn" else scaled

    wrapped = HamiltonianSpec(spec.x, beta=spec.beta, **{field: fn})
    points = np.array([0.1, 0.6])
    assert np.array_equal(wrapped.hamiltonian(0.3), 4.0 * spec.hamiltonian(0.3))
    assert np.array_equal(wrapped.hamiltonian(points), 4.0 * spec.hamiltonian(points))
    assert seen[0] == 0.3 and seen[1] is points and len(seen) == 2


@pytest.mark.parametrize("kind", ["constant-beta", "h-grid"])
def test_the_stored_matrix_is_read_only_and_arrays_are_fresh(kind):
    spec = _constant_specs()[kind]
    evaluations = [spec.hamiltonian] + ([spec.beta_at] if spec.is_factored else [])
    for evaluate in evaluations:
        stored = evaluate(0.5)
        before = stored.copy()
        with pytest.raises(ValueError):
            stored[0, 0] = 7.0
        stack = evaluate(np.array([0.25, 0.5]))
        assert stack.flags.writeable and stack.flags.owndata
        stack[...] = 7.0
        assert np.array_equal(evaluate(0.5), before)
        assert np.array_equal(evaluate(np.array([0.25])), before[None])


@pytest.mark.parametrize("kind", ["constant-beta", "beta-grid", "h-grid"])
def test_constant_h_is_its_formula_bitwise_at_every_shape(kind):
    spec = _constant_specs()[kind]
    if spec.is_factored:
        expected = _adj(BETA_OFF) @ BETA_OFF
    else:
        expected = hermitian_part(spec.h[0])
    points = np.linspace(-0.1, 1.1, 12).reshape(4, 3)
    for point in (0.4, np.float64(0.4), np.asarray(0.4), points):
        h = spec.hamiltonian(point)
        assert h.shape == np.shape(point) + (2, 2)
        assert_bits(h, np.broadcast_to(expected, h.shape))


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


def test_grid_at_the_base_point_alone_gives_identity(unit_system):
    for method in ("magnus", "rk45"):
        sol = fundamental_solution(unit_system, 2j, grid=np.array([0.0, 0.0]),
                                   method=method)
        assert np.array_equal(sol.values, np.stack([np.eye(2)] * 2))


def test_unknown_method_is_rejected(unit_system):
    with pytest.raises(ValueError, match="method"):
        fundamental_solution(unit_system, 2j, method="euler")


@pytest.mark.parametrize("z, tol", [
    (2j, 1e-10), (-0.5 + 0.1j, 1e-10), (1.5, 1e-10), (0.5 + 1e-2j, 1e-10),
    (0.3 - 1e-3j, 1e-10), (0.7 + 1e-4j, 1e-10), (0.5037 + 1e-5j, 1e-10),
    (0.5 + 0.3j, 1e-12), (0.5037 + 1e-5j, 1e-12), (1.0 + 1e-3j, 1e-13),
])
def test_rk45_error_estimate_is_calibrated(unit_system, z, tol):
    # on constant H, tol times the solver's steps bounds the true error
    # within 100x (on kinked samples it is only a heuristic)
    grid = np.linspace(0.0, 1.0, 11)
    sol = fundamental_solution(unit_system, z, grid=grid, tol=tol, method="rk45")
    exact = np.stack([rank_one.fundamental_matrix(x, z) for x in grid])
    err = float(np.max(np.linalg.norm(sol.values - exact, axis=(1, 2))))
    assert err <= sol.error_estimate <= 100 * err
    assert sol.method == "rk45" and sol.converged
    assert sol.panels == round(sol.error_estimate / tol)


# -- product integrals -------------------------------------------------------


def test_product_integral_zero_hamiltonian():
    sol = product_integral(zero_system(), 2j, np.linspace(0, 1, 9))
    assert max(fro(w - np.eye(2)) for w in sol.values) < 1e-14


def test_product_integral_exact_for_constant_h(unit_system):
    # constant H: every Magnus factor is exact, however coarse the partition
    z = 2j
    ref = rank_one.fundamental_matrix(1.0, z)
    for num in (1, 8, 64):
        sol = product_integral(unit_system, z, np.linspace(0, 1, num + 1))
        assert fro(sol.values[-1] - ref) <= 1e-13


def _assert_order_four(sys, z):
    ref = fundamental_solution(sys, z, grid=np.array([1.0]),
                               tol=1e-13, method="rk45").values[0]
    errors = []
    for num in (8, 16, 32, 64):
        sol = product_integral(sys, z, np.linspace(0, 1, num + 1))
        errors.append(fro(sol.values[-1] - ref))
        assert errors[-1] <= sol.error_estimate
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 3.5)  # fourth-order Magnus factors


@pytest.mark.parametrize("z", [2j, 0.5 + 0.3j])
def test_product_integral_order_four(varying_system, z):
    _assert_order_four(varying_system, z)


def _callable_beta(t):
    # beta J beta* = 0 for J = J_OFF, and H(x) = beta* beta turns with x
    t = np.asarray(t, dtype=float)[..., None, None]
    return np.concatenate([np.exp(0.5 * t) + 0j, 1j * (1.0 + 0.5 * np.sin(3.0 * t))],
                          axis=-1)


def callable_system():
    # a non-commuting H known only as a callable: not quadratic on any panel
    x = np.linspace(0.0, 1.0, 5)
    spec = HamiltonianSpec.from_beta_grid(x, _callable_beta(x), beta_fn=_callable_beta)
    return CanonicalSystem(J=J_OFF, interval=(0.0, 1.0), hamiltonian=spec)


@pytest.mark.parametrize("z", [2j, 0.5 + 0.3j])
def test_product_integral_order_four_on_a_callable(z):
    _assert_order_four(callable_system(), z)


def test_product_integral_agrees_with_ode(unit_system):
    z = -0.5 + 0.8j
    ode = fundamental_solution(unit_system, z, grid=np.linspace(0, 1, 5), tol=1e-10,
                               method="rk45")
    prod = product_integral(unit_system, z, np.linspace(0, 1, 257))
    ode_at = ode.values[-1]
    assert fro(prod.values[-1] - ode_at) < max(prod.error_estimate,
                                               ode.error_estimate)


def test_product_integral_requires_left_base_point():
    spec = HamiltonianSpec.from_constant_beta(rank_one.BETA, (0.0, 1.0))
    sys = CanonicalSystem(J=J_OFF, interval=(0.0, 1.0), hamiltonian=spec, xi=0.5)
    with pytest.raises(ValueError):
        product_integral(sys, 2j, np.linspace(0, 1, 5))


def test_product_integral_rejects_partition_past_b():
    # H is not defined past b; interpolation would extend it as a constant
    with pytest.raises(ValueError, match="within"):
        product_integral(rank_one.make_system(1.0), 2j, np.linspace(0, 2, 9))


def test_product_integral_rejects_near_cut_points(unit_system):
    with pytest.raises(SpectralPointError):
        product_integral(unit_system, 0.5 + 1e-8j, np.linspace(0, 1, 5))


def test_product_integral_j_unitary_real_z(unit_system):
    sol = product_integral(unit_system, 4.0, np.linspace(0, 1, 65))
    assert j_monotonicity_defect(sol) <= 10 * sol.error_estimate


# -- small-matrix kernels ------------------------------------------------------
# The kernels take and return entries-leading stacks, (m, m, n); the
# references below are built and compared as (n, m, m) stacks.


def _rel(got, ref):
    return float(np.max(np.linalg.norm(got - ref, axis=(-2, -1))
                        / np.linalg.norm(ref, axis=(-2, -1))))


def _lead(stack):
    """The entries-leading (m, k, ...) form of a (..., m, k) stack."""
    return np.moveaxis(stack, (-2, -1), (0, 1))


def _trail(stack):
    """The (..., m, k) form of an entries-leading (m, k, ...) stack."""
    return np.moveaxis(stack, (0, 1), (-2, -1))


def _traceless(delta):
    # N = [[0, q], [delta^2 / q, 0]] has N^2 = delta^2 I
    q = 1.7 + 0.4j
    return np.array([[0.0, q], [delta * delta / q, 0.0]])


@pytest.mark.parametrize("omega", [
    np.array([[0.7j, 0.7], [0.7, -0.7j]]),                # nilpotent: delta = 0
    (0.3 - 0.2j) * np.eye(2) + _traceless(0.99e-4),        # series branch
    (0.3 - 0.2j) * np.eye(2) + _traceless(1.01e-4),        # closed form
    (0.3 - 0.2j) * np.eye(2) + _traceless(3e-3),           # series would be off
    (0.3 - 0.2j) * np.eye(2) + _traceless(2.5 - 1.0j),
    40j * np.eye(2) + np.array([[0.2 + 0.1j, -0.4j], [0.3, 0.5 - 0.2j]]),
], ids=["nilpotent", "below-1e-4", "above-1e-4", "3e-3", "large-delta", "imag-tau"])
def test_expm_small_matches_scipy(omega):
    assert _rel(_expm_small(omega), scipy.linalg.expm(omega)) <= 1e-14


def _expm_small_everywhere(omega):
    """The 2 x 2 closed form with cosh and sinh of every entry, the series
    put in by np.where below |delta| = 1e-4."""
    omega = np.asarray(omega, dtype=complex)
    tau = 0.5 * (omega[0, 0] + omega[1, 1])
    p = 0.5 * (omega[0, 0] - omega[1, 1])
    d2 = p * p + omega[0, 1] * omega[1, 0]
    delta = np.sqrt(d2)
    small = np.abs(delta) < 1e-4
    delta = np.where(small, 1.0, delta)
    cosh = np.where(small, 1.0 + 0.5 * d2, np.cosh(delta))
    sinhc = np.where(small, 1.0 + d2 / 6.0, np.sinh(delta) / delta)
    scale = np.exp(tau)
    cosh, sinhc = scale * cosh, scale * sinhc
    out = np.empty_like(omega)
    out[0, 0] = cosh + sinhc * p
    out[1, 1] = cosh - sinhc * p
    out[0, 1] = sinhc * omega[0, 1]
    out[1, 0] = sinhc * omega[1, 0]
    return out


def test_expm_small_is_the_where_form_bitwise():
    # exponents of delta from 1e-8 to 3 on either side of the switch
    rng = np.random.default_rng(13)
    deltas = np.concatenate([10.0 ** rng.uniform(-8, np.log10(0.99e-4), 40),
                             10.0 ** rng.uniform(np.log10(1.01e-4), 0.5, 40)])
    deltas = deltas * np.exp(1j * rng.uniform(0, 2 * np.pi, deltas.size))
    tau = 0.3 * _complex_stack(rng, deltas.size)
    omega = np.moveaxis(np.stack([t * np.eye(2) + _traceless(d)
                                  for t, d in zip(tau, deltas)]), 0, -1)
    mixed = rng.permutation(deltas.size)
    for stack in (omega[..., :40], omega[..., 40:], omega[..., mixed],
                  omega[..., mixed].reshape(2, 2, 8, 10), omega[..., :0]):
        assert_bits(_expm_small(stack), _expm_small_everywhere(stack))
    for j in (0, 39, 40, 79):  # one 2 x 2 matrix, small and large
        assert_bits(_expm_small(omega[..., j]), _expm_small_everywhere(omega[..., j]))


def test_expm_small_large_imaginary_tau():
    # scipy's squaring loses digits at |tau| = 1000; e^tau exp(N) does not
    n = np.array([[0.0, 0.3 + 0.1j], [-0.2 + 0.4j, 0.0]])
    omega = 1000j * np.eye(2) + n
    assert _rel(_expm_small(omega), np.exp(1000j) * scipy.linalg.expm(n)) <= 1e-14


def test_expm_small_on_near_cut_magnus_exponents(varying_system):
    z = 0.5037 + 1e-5j
    t = _graded_breakpoints(varying_system.hamiltonian.x, 0.0, 1.0, z, 1 / 16)
    omega, _, _ = _magnus_exponents(varying_system, z, _halved(t), [slice(None)])
    assert _rel(_trail(_expm_small(omega)), scipy.linalg.expm(_trail(omega))) <= 1e-14


def test_expm_small_falls_back_to_scipy_for_other_sizes():
    rng = np.random.default_rng(3)
    omega = 0.4 * (rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3)))
    assert _rel(_trail(_expm_small(_lead(omega))), scipy.linalg.expm(omega)) <= 1e-14


def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("inner", [1, 2, 3])
@pytest.mark.parametrize("shapes", [((2, None, 7), (None, 2, 7)),
                                    ((2, None, 1), (None, 2, 7)),
                                    ((2, None, 7), (None, 2, 1))],
                         ids=["stack-stack", "matrix-stack", "stack-matrix"])
def test_mul_matches_matmul(shapes, inner):
    rng = np.random.default_rng(inner)
    a, b = (_complex_stack(rng, tuple(inner if d is None else d for d in shape))
            for shape in shapes)
    expected = np.matmul(_trail(a), _trail(b))
    got = _mul(a, b)
    assert _trail(got).shape == expected.shape
    assert _rel(_trail(got), expected) <= 1e-14


def _factors_and_loop(n, m):
    rng = np.random.default_rng(n * 10 + m)
    factors = np.eye(m) + 0.3 * _complex_stack(rng, (n, m, m)) / np.sqrt(m)
    expected = [np.eye(m, dtype=complex)]
    for f in factors:
        expected.append(f @ expected[-1])
    return factors, np.stack(expected)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 64, 65, 1000])
def test_ordered_product_matches_a_matmul_loop(n, m):
    # lengths around powers of two meet every edge of the up- and down-sweep
    factors, expected = _factors_and_loop(n, m)
    got = _ordered_product(_lead(factors))
    assert got.shape == (m, m, n + 1)
    assert _rel(_trail(got), expected) <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 64, 65, 1000])
def test_ordered_product_scans_each_batch_as_alone(n, m):
    # a batch axis between the entries and the factors: each batch is
    # scanned as it would be alone, bit for bit
    factors, expected = _factors_and_loop(n, m)
    stack = np.stack([_lead(factors) ** (k + 1) for k in range(3)], axis=2)
    got = _ordered_product(stack)
    assert got.shape == (m, m, 3, n + 1)
    for k in range(3):
        assert np.array_equal(got[:, :, k], _ordered_product(stack[:, :, k]))
    assert _rel(_trail(got[:, :, 0]), expected) <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 65, 1000])
def test_total_product_is_the_loops_last_product(n, m):
    factors, expected = _factors_and_loop(n, m)
    assert _rel(_total_product(_lead(factors)), expected[-1]) <= 1e-13


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



def test_j_monotonicity_takes_each_z_of_a_batch_with_its_sign(unit_system):
    grid = np.linspace(0, 1, 11)
    for zs in ([2j, 1 + 1j], [2j, 0.5 - 1j, 3.0]):
        sol = fundamental_solution(unit_system, zs, grid=grid, tol=1e-11, method="rk45")
        alone = [j_monotonicity_defect(dataclasses.replace(sol, z=z, values=w))
                 for z, w in zip(sol.z, sol.values)]
        assert j_monotonicity_defect(sol) == max(alone) <= 1e-9
    # the form of the other half-plane fails at every z of the batch
    mirrored = dataclasses.replace(sol, z=np.conj(sol.z))
    assert j_monotonicity_defect(mirrored) > 0.1

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


def test_boundary_values_cut_runs_between_xi_and_x(unit_system):
    # the cut of W(x, .) is the segment between xi and x, not [a, x]
    def based_at(xi):
        return CanonicalSystem(J=unit_system.J, interval=unit_system.interval,
                               hamiltonian=unit_system.hamiltonian, xi=xi)

    with pytest.raises(ValueError, match="margin"):
        boundary_values(based_at(0.5), 1.0, 0.5)  # s = xi, an end of the cut
    r2 = rank_one.jump_matrix()
    for xi, x, s, expected in [(0.3, 1.0, 0.5, r2), (0.3, 1.0, 0.2, np.eye(2)),
                               (0.8, 0.5, 0.6, np.linalg.inv(r2))]:
        report = boundary_values(based_at(xi), x, s, tol=1e-11)
        assert report.converged and not report.divergent
        assert fro(report.jump - expected) <= 1e-12


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


@pytest.mark.parametrize("wiggle", [0.0, 0.02])  # a sampled sine, and the zigzag
@pytest.mark.parametrize("kind", ["beta", "h"])
def test_kinks_of_a_sampled_profile_are_its_interior_nodes(wiggle, kind):
    sine = 1.0 + 0.4 * np.sin(2 * np.pi * (PROFILE_X + 0.3))
    c = sine + wiggle * (-1.0) ** np.arange(PROFILE_X.size)
    beta = c[:, None, None] * rank_one.BETA
    samples = beta if kind == "beta" else np.conj(np.swapaxes(beta, 1, 2)) @ beta
    spec = HamiltonianSpec(PROFILE_X, **{kind: samples})
    assert np.array_equal(spec.kinks, PROFILE_X[1:-1])


def test_constant_linear_and_callable_specs_have_no_kinks(unit_system, varying_system):
    x = np.linspace(0.0, 1.0, 201)
    kinked = PROFILE_C[:, None, None] * rank_one.BETA
    specs = [
        unit_system.hamiltonian,
        HamiltonianSpec.from_grid(x[::40], np.stack([rank_one.hamiltonian()] * 6)),
        varying_system.hamiltonian,  # beta linear in x on 201 nodes
        HamiltonianSpec.from_grid(x, (1.0 + 3.0 * x[:, None, None]) * np.eye(2)
                                  + x[:, None, None] * np.array([[0, 1j], [-1j, 0]])),
        # the callable takes precedence over kinked samples
        HamiltonianSpec.from_beta_grid(PROFILE_X, kinked, beta_fn=lambda t: (
            np.asarray(t)[..., None, None] + 1.0) * rank_one.BETA),
    ]
    assert [spec.kinks.size for spec in specs] == [0] * len(specs)


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


def test_kernel_bound_chunks_keep_the_first_maximum(monkeypatch, unit_system):
    # beta(x) = [1, i (1 + x/2)]: every pair's ratio is 1/2 up to rounding,
    # so the first maximum in tril_indices order must survive chunking
    x = np.linspace(0.0, 1.0, 201)
    beta = np.stack([np.array([[1.0, 1j * (1.0 + 0.5 * xx)]]) for xx in x])
    spec = HamiltonianSpec.from_beta_grid(x, beta)
    whole = kernel_bound(spec, J_OFF)
    monkeypatch.setattr(system, "KERNEL_CHUNK_PAIRS", 7)
    chunked = kernel_bound(spec, J_OFF)
    assert (chunked.sup_bound, chunked.argmax_pair, chunked.degeneracy_defect) == (
        whole.sup_bound, whole.argmax_pair, whole.degeneracy_defect)
    # a constant factor ties every pair at 0: the first one wins
    flat = kernel_bound(unit_system.hamiltonian, unit_system.J)
    grid = unit_system.hamiltonian.x
    assert flat.argmax_pair == (grid[1], grid[0])


def _kernel_bound_by_svd(x, beta, J):
    """sup over t < x of the largest singular value of beta(x) J beta(t)*
    over x - t, and the first pair attaining it in tril_indices order."""
    corr = np.einsum("iam,mn,jbn->ijab", beta, J, beta.conj())
    norms = np.linalg.svd(corr, compute_uv=False)[..., 0]
    i, j = np.tril_indices(x.size, -1)
    ratios = norms[i, j] / (x[i] - x[j])
    best = int(np.argmax(ratios))
    return ratios[best], (x[i[best]], x[j[best]])


def _random_degenerate_factor(rng, x, k):
    """beta(x) = U(x) [p(x) I, i q(x) R] with U unitary, p, q real and R real
    symmetric, so beta(x) J beta(x)* = 0 for J = [[0, I], [I, 0]] while
    beta(x) J beta(t)* = i (q(x) p(t) - p(x) q(t)) U(x) R U(t)*."""
    p, q = rng.standard_normal((2, x.size))
    r = rng.standard_normal((k, k))
    u, _ = np.linalg.qr(rng.standard_normal((x.size, k, k))
                        + 1j * rng.standard_normal((x.size, k, k)))
    blocks = np.concatenate([p[:, None, None] * np.eye(k),
                             1j * q[:, None, None] * (r + r.T)], axis=2)
    return u @ blocks, np.kron(J_OFF.real, np.eye(k))


@pytest.mark.parametrize("k, chunk", [(1, None), (1, 7), (2, None)])
def test_kernel_bound_norm_matches_svd(monkeypatch, k, chunk):
    # k = 1 takes |beta J beta*|; k = 2 must still take the largest
    # singular value
    rng = np.random.default_rng(5 + k)
    x = np.sort(rng.uniform(0.0, 1.0, 120))
    beta, J = _random_degenerate_factor(rng, x, k)
    if chunk is not None:
        monkeypatch.setattr(system, "KERNEL_CHUNK_PAIRS", chunk)
    report = kernel_bound(HamiltonianSpec.from_beta_grid(x, beta), J)
    sup, pair = _kernel_bound_by_svd(x, beta, J)
    assert report.finite
    assert abs(report.sup_bound - sup) <= 1e-15 * sup
    assert report.argmax_pair == pair


def test_kernel_bound_requires_factored_form():
    x = np.array([0.0, 1.0])
    spec = HamiltonianSpec.from_grid(x, np.stack([np.eye(2)] * 2).astype(complex))
    with pytest.raises(ValueError):
        kernel_bound(spec, np.eye(2))
    with pytest.raises(ValueError):
        system._degeneracy(spec, np.eye(2))


def _kernel_bound_cases(unit_system):
    """(spec, J) of the degenerate and non-degenerate kernels above."""
    x = np.linspace(0.0, 1.0, 201)
    rng = np.random.default_rng(6)
    x_random = np.sort(rng.uniform(0.0, 1.0, 120))
    return [
        (unit_system.hamiltonian, unit_system.J),
        *[(HamiltonianSpec.from_beta_grid(x, np.stack([np.array([[1.0, f(xx)]])
                                                        for xx in x])), J_OFF)
          for f in (lambda t: 1j * t, lambda t: 0.1 * t, lambda t: 1j * (1.0 + 0.5 * t))],
        *[(HamiltonianSpec.from_beta_grid(x_random, beta), J)
          for beta, J in (_random_degenerate_factor(rng, x_random, k) for k in (1, 2))],
    ]


def test_degeneracy_test_decides_kernel_bounds_finiteness(unit_system):
    finite = []
    for spec, J in _kernel_bound_cases(unit_system):
        report = kernel_bound(spec, J)
        beta, diag, degenerate = system._degeneracy(spec, J)
        assert degenerate == report.finite
        assert float(np.max(diag)) == report.degeneracy_defect
        assert np.array_equal(beta, spec.beta)
        finite.append(degenerate)
    assert finite == [True, True, False, True, True, True]


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
    assert validate_system(varying_system).ok
    report = kernel_bound(varying_system.hamiltonian, varying_system.J)
    assert report.sup_bound == pytest.approx(0.5, abs=1e-10)


def test_varying_system_product_vs_ode(varying_system):
    for z in (2j, 1.4 - 0.8j, -0.6 + 0.0j):
        ode = fundamental_solution(varying_system, z,
                                   grid=np.linspace(0, 1, 5), tol=1e-10, method="rk45")
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
    grid = np.array([1.0])
    sol = fundamental_solution(varying_system, z, grid=grid, tol=1e-8)
    ode = fundamental_solution(varying_system, z, grid=grid, tol=1e-12, method="rk45")
    assert fro(sol.values[0] - ode.values[0]) < 1e-7


# -- Magnus route of fundamental_solution ---------------------------------------


@pytest.mark.parametrize("z", [0.5 + 0.3j, 0.5037 + 1e-2j, 0.5037 + 1e-4j, 0.2 - 1e-5j])
def test_magnus_error_estimate_bounds_the_error(varying_system, z):
    # the RK45 reference is within its own (calibrated) estimate of W, so
    # the Magnus error is at most the gap plus that estimate
    grid = np.linspace(0.0, 1.0, 21)
    sol = fundamental_solution(varying_system, z, grid=grid, tol=1e-8)
    ref = fundamental_solution(varying_system, z, grid=grid, tol=1e-13, method="rk45")
    assert sol.method == "magnus" and sol.converged
    gap = float(np.max(np.linalg.norm(sol.values - ref.values, axis=(1, 2))))
    assert gap + ref.error_estimate <= sol.error_estimate <= 1e-8


def test_magnus_route_reports_the_panel_cap(varying_system):
    sol = fundamental_solution(varying_system, 0.5037 + 1e-4j, tol=1e-10)
    assert not sol.converged
    assert sol.panels > MAX_CUT_PANELS
    assert sol.error_estimate > 1e-10


def profile_fundamental(grid, z):
    """W(x, z) = I + i J H0 int_0^x c(t)^2 / (z - t) dt on the kinked
    profile, each linear piece of c integrated in closed form in long
    double: with A = c(z) and u = z - t, the piece is
    -A^2 ln(u1 / u0) + 2 A c' (u1 - u0) - c'^2 (u1^2 - u0^2) / 2."""
    z = np.clongdouble(z)
    xs, cs = PROFILE_X.astype(np.longdouble), PROFILE_C.astype(np.longdouble)
    slope = np.diff(cs) / np.diff(xs)
    out = []
    for x in grid:
        ends = np.append(xs[xs < x], np.longdouble(x))
        q = slope[:ends.size - 1]
        big_a = cs[:ends.size - 1] + q * (z - ends[:-1])
        u0, u1 = z - ends[:-1], z - ends[1:]
        weight = np.sum(-big_a**2 * np.log(u1 / u0) + 2 * big_a * q * (u1 - u0)
                        - q**2 * (u1**2 - u0**2) / 2)
        out.append(np.eye(2) + 1j * J_OFF @ rank_one.hamiltonian() * complex(weight))
    return np.array(out)


@pytest.mark.parametrize("s", [PROFILE_X[16], PROFILE_X[16] + 0.03 * PROFILE_X[1],
                               PROFILE_X[9] - 0.03 * PROFILE_X[1]])
@pytest.mark.parametrize("eta", [1e-2, 1e-3, 1e-4, -1e-5])
def test_magnus_error_estimate_bounds_rounding_on_a_commuting_profile(s, eta):
    # every factor is exact here, so two levels differ by rounding only;
    # the rounding floor keeps the estimate above the error
    sol = fundamental_solution(profile_system(), s + 1j * eta)
    err = np.max(np.linalg.norm(sol.values - profile_fundamental(sol.grid, sol.z),
                                axis=(1, 2)))
    assert sol.converged
    assert err <= sol.error_estimate <= 1e-10


@pytest.mark.parametrize("s", [PROFILE_X[16], PROFILE_X[16] + 0.03 * PROFILE_X[1],
                               PROFILE_X[9] - 0.03 * PROFILE_X[1]])
@pytest.mark.parametrize("eta", [1e-2, 1e-3, 1e-4, -1e-5])
def test_rk45_error_estimate_bounds_the_error_on_a_kinked_profile(s, eta):
    # restarted at every kink, RK45 meets no kink inside a step, and tol
    # times its steps bounds the error within 100x, as on constant H
    sol = fundamental_solution(profile_system(), s + 1j * eta, method="rk45")
    err = np.max(np.linalg.norm(sol.values - profile_fundamental(sol.grid, sol.z),
                                axis=(1, 2)))
    assert err <= sol.error_estimate <= 100 * err


# -- one kernel pass per call -------------------------------------------------


def _products(sys, z, t, levels):
    """The partial products of the Magnus factors of each level of
    ``levels`` (every panel of t halved ``level`` times), each level's own
    scan over all of its factors, from one exponent build and one
    exponential call."""
    points = t
    for _ in range(levels[-1] + 1):
        points = _halved(points)
    omega, _, counts = _magnus_exponents(
        sys, z, points, [slice(None, None, 2 ** (levels[-1] - level)) for level in levels]
    )
    factors = np.split(_expm_small(omega), np.cumsum(counts)[:-1], axis=-1)
    return [_ordered_product(f) for f in factors]


@pytest.mark.parametrize("which, s", [
    ("varying", 0.5), ("varying", 0.5037),
    ("profile", PROFILE_X[16]), ("profile", PROFILE_X[16] + 0.03 * PROFILE_X[1]),
], ids=["varying-node", "varying-between", "profile-node", "profile-between"])
def test_one_pass_equals_separate_passes(varying_system, which, s):
    # non-commuting and kinked commuting H, s on a sample node and between two
    sys = varying_system if which == "varying" else profile_system()

    grid, z = np.linspace(0.0, 1.0, 21), s + 1e-3j
    # levels 0 + 1 of fundamental_solution
    for level, (w, panels) in zip((0, 1), _log_weight_product(sys, grid, z, (0, 1))):
        [(alone, alone_panels)] = _log_weight_product(sys, grid, z, (level,))
        assert np.array_equal(w, alone) and panels == alone_panels
    # levels 0 + 1 of boundary_values, both limits of each
    for level, (w, panels) in zip((0, 1), _cut_limits(sys, 1.0, s, (0, 1))):
        [(alone, alone_panels)] = _cut_limits(sys, 1.0, s, (level,))
        assert np.array_equal(w, alone) and panels == alone_panels
    # a partition and its halving, as product_integral takes them
    partition = np.linspace(0.0, 1.0, 65)
    z = s + 0.4j
    coarse_p, fine_p = _products(sys, z, partition, (0, 1))
    [alone] = _products(sys, z, partition, (0,))
    assert np.array_equal(coarse_p, alone)
    [alone] = _products(sys, z, _halved(partition), (0,))
    assert np.array_equal(fine_p, alone)
    # the halves multiplied in pairs and both levels in one scan: at the
    # partition, each level's own scan
    paired = _level_products(sys, z, partition, (0, 1))
    assert np.array_equal(paired[:, :, 0], coarse_p)
    assert np.array_equal(paired[:, :, 1], fine_p[..., ::2])


def _counting(sys):
    """sys with H behind a callable that records the points of each call."""
    spec = sys.hamiltonian
    points = []

    def counting(t):
        points.append(np.size(t))
        return spec.hamiltonian(t)

    counted = CanonicalSystem(J=sys.J, interval=sys.interval, xi=sys.xi,
                              hamiltonian=HamiltonianSpec(spec.x, beta=spec.beta,
                                                          h_fn=counting))
    return counted, points


@pytest.mark.parametrize("s", [0.5, 0.5037])  # on a sample node, and between two
def test_cut_limits_evaluate_h_once_per_point_of_each_level(varying_system, s):
    # both limits of a level share its breakpoints, so H is evaluated once
    # at their nodes and midpoints, not per limit, and the Gauss values
    # come from the panel quadratic
    spec = varying_system.hamiltonian
    sys, points = _counting(varying_system)
    report = boundary_values(sys, 1.0, s, tol=1e-7)
    nodes = np.concatenate([spec.x, [0.0, 1.0]])
    sizes = []  # breakpoints of each level, s dropped
    while not sizes or sizes[-1] - 1 < report.panels:
        t = _graded_breakpoints(nodes, 0.0, 1.0, complex(s), 0.5 ** (len(sizes) + 1))
        sizes.append(np.count_nonzero(t != s))
    assert sizes[-1] - 1 == report.panels and len(sizes) >= 3
    assert sum(points) == sum(2 * n - 1 for n in sizes)
    assert len(points) == len(sizes) - 1  # levels 0 + 1 share one pass


@pytest.mark.parametrize("z", [0.5 + 0.3j, 2j])
def test_a_panel_set_and_its_halving_evaluate_h_once_per_distinct_point(varying_system, z):
    # P panels and their halving have 4P + 1 distinct points: the ends, the
    # midpoints and the midpoints of the halves, taken in one H call
    sys, points = _counting(varying_system)
    product_integral(sys, z, np.linspace(0.0, 1.0, 257))
    assert points == [4 * 256 + 1]
    points.clear()
    sol = fundamental_solution(sys, z)  # converges at level 1: one pass
    assert sol.converged
    assert points == [4 * (sol.panels // 2) + 1]


ULP_PANEL = np.array([0.0, 0.5, np.nextafter(0.5, 1.0), 1.0])


def test_an_ulp_wide_panel_halves_into_the_identity_and_itself():
    # the panel [0.5, 0.5 + ulp] has its midpoint at one of its ends, so
    # one of its halves has zero width: its factor is I, with no warning
    z = 0.3 + 0.5j
    ref = np.stack([rank_one.fundamental_matrix(x, z) for x in ULP_PANEL])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        product = product_integral(rank_one.make_system(1.0), z, ULP_PANEL)
        solution = fundamental_solution(rank_one.make_system(1.0), z, grid=ULP_PANEL)
    assert np.isfinite(product.error_estimate) and product.error_estimate <= 1e-14
    assert np.isfinite(solution.error_estimate) and solution.converged
    for sol in (product, solution):
        assert np.max(np.linalg.norm(sol.values - ref, axis=(1, 2))) <= 1e-14


# -- the exponents, the halving and the memory of a pass --------------------------


def _explicit_exponents(sys, z, t):
    """The exponents of one breakpoint array t with the Gauss commutator in
    its explicit form [A(g2), A(g1)], A = i J H / (z - t), each A a product
    with J; the weight integral as :func:`_magnus_exponents` takes it."""
    J, sqrt3 = sys.J[..., None], np.sqrt(3.0)
    t0, t1 = t[:-1], t[1:]
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    h = _lead(sys.hamiltonian.hamiltonian(np.concatenate([t, mid])))
    h0, h1, hm = h[..., :t.size - 1], h[..., 1:t.size], h[..., t.size:]
    c1, c2 = 0.5 * (h1 - h0), 0.5 * (h1 + h0) - hm
    zeta = (z - mid) / half
    weighted = ((hm + zeta * (c1 + zeta * c2)) * _log1p((t1 - t0) / (z - t1))
                - 2.0 * (c1 + zeta * c2))
    ja1, ja2 = (_mul(J, hm + sign * c1 / sqrt3 + c2 / 3.0)
                / (z - (mid + sign * half / sqrt3)) for sign in (-1.0, 1.0))
    commutator = _mul(ja2, ja1) - _mul(ja1, ja2)  # [A(g2), A(g1)] = -commutator
    return _mul(1j * J, weighted) - (half**2 / sqrt3) * commutator


@pytest.mark.parametrize("z", [0.5 + 0.3j, 0.5037 + 1e-3j, 0.2 - 1e-5j])
@pytest.mark.parametrize("which", ["varying", "callable"])
def test_exponents_match_the_explicit_commutator(varying_system, which, z):
    # J (M - M*), M = H(g2) J H(g1), stands for the commutator because H is
    # Hermitian; on panels graded towards Re z, near the cut and off it
    sys = varying_system if which == "varying" else callable_system()
    t = _graded_breakpoints(sys.hamiltonian.x, 0.0, 1.0, z, 0.5)
    omega, _, _ = _magnus_exponents(sys, z, _halved(t), [slice(None)])
    assert _rel(_trail(omega), _trail(_explicit_exponents(sys, z, t))) <= 1e-14


@pytest.mark.parametrize("z", [2j, 0.5 + 0.3j, -0.6])
@pytest.mark.parametrize("which", ["varying", "callable"])
def test_product_integral_estimate_is_the_halving_difference(varying_system, which, z):
    # the halving's factors are multiplied in pairs before the scan; the
    # values are the coarse scan's, and the estimate is twice the largest
    # difference from the unmerged scan of the halving at the partition
    sys = varying_system if which == "varying" else callable_system()
    partition = np.linspace(0.0, 1.0, 65)
    halving = _halved(partition)
    sol = product_integral(sys, z, partition)
    coarse, fine = (_trail(p) for p in _products(sys, z, partition, (0, 1)))
    assert np.array_equal(sol.values, coarse)
    expected = 2.0 * np.max(np.linalg.norm(fine[::2] - coarse, axis=(1, 2)))
    floor = (ROUNDING_GROWTH * 0.5 * np.finfo(float).eps * (halving.size - 1)
             * np.max(np.linalg.norm(coarse, axis=(1, 2))))
    assert abs(sol.error_estimate - expected) <= floor


@pytest.mark.parametrize("call", [
    lambda sys: fundamental_solution(sys, PROFILE_X[16] + 0.03 * PROFILE_X[1] + 1e-4j),
    lambda sys: product_integral(sys, 0.5 + 0.3j, np.linspace(0.0, 1.0, 257)),
], ids=["near-cut-w", "product-integral"])
def test_a_magnus_pass_holds_few_stacks(monkeypatch, call):
    # the largest pass's exponents fill one complex (m, m, P) stack; the
    # calls peak at 9.4 and 9.3 of them, H read through views and released
    # once the quadratic's coefficients hold it
    sys = profile_system()
    panels = []

    def recording(sys, z, points, levels):
        out = _magnus_exponents(sys, z, points, levels)
        panels.append(sum(out[2]))
        return out

    monkeypatch.setattr(system, "_magnus_exponents", recording)
    call(sys)  # first-call allocations are no pass's
    panels.clear()
    tracemalloc.start()
    try:
        call(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 16 * sys.m**2 * max(panels)


# -- argument checks ------------------------------------------------------------


def untouchable_system():
    """A system whose H must not be evaluated: the checks come first."""
    def refuse(x):
        raise AssertionError("H evaluated before the arguments were checked")

    spec = HamiltonianSpec(np.array([0.0, 1.0]), h=np.stack([np.eye(2)] * 2), h_fn=refuse)
    return CanonicalSystem(J=J_OFF, interval=(0.0, 1.0), hamiltonian=spec)


@pytest.mark.parametrize("name, call", [
    ("s", lambda sys: boundary_values(sys, 1.0, np.nan)),
    ("s", lambda sys: boundary_values(sys, 1.0, np.inf)),
    ("x", lambda sys: boundary_values(sys, np.nan, 0.5)),
    ("z", lambda sys: fundamental_solution(sys, complex(np.nan, 1.0))),
    ("z", lambda sys: fundamental_solution(sys, complex(np.inf, 1.0))),
    ("z", lambda sys: fundamental_solution(sys, [1j, complex(np.nan, 1.0)],
                                           method="rk45")),
    ("grid", lambda sys: fundamental_solution(sys, 1j, grid=[0.0, np.nan])),
    ("grid", lambda sys: fundamental_solution(sys, 1j, grid=[0.0, np.nan],
                                              method="rk45")),
    ("z", lambda sys: product_integral(sys, complex(np.nan, 1.0), [0.0, 0.5, 1.0])),
    ("partition", lambda sys: product_integral(sys, 1j, [0.0, np.nan, 1.0])),
], ids=["bv-s-nan", "bv-s-inf", "bv-x-nan", "fs-z-nan", "fs-z-inf", "fs-batch-z-nan",
        "fs-grid-nan", "rk45-grid-nan", "pi-z-nan", "pi-partition-nan"])
def test_non_finite_arguments_raise_naming_them(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(untouchable_system())


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-10, np.inf])
@pytest.mark.parametrize("call", [
    lambda sys, tol: fundamental_solution(sys, 1j, tol=tol),
    lambda sys, tol: fundamental_solution(sys, 1j, tol=tol, method="rk45"),
    lambda sys, tol: boundary_values(sys, 1.0, 0.5, tol=tol),
], ids=["magnus", "rk45", "boundary_values"])
def test_tol_must_be_positive_and_finite(call, tol):
    with pytest.raises(ValueError, match="^tol must be a positive finite number"):
        call(untouchable_system(), tol)


def test_refine_stops_at_a_non_finite_difference():
    # a NaN difference never meets tol; at a constant panel count nothing
    # else would stop the refinement
    levels_asked = []

    def product(levels):
        levels_asked.extend(levels)
        if max(levels) > 10:
            raise AssertionError("refinement ran past level 10")
        return [(np.full((3, 2, 2), np.nan), 16) for _ in levels]

    values, panels, diffs = _refine(product, 1e-10)
    assert levels_asked == [0, 1]
    assert panels == 16 and len(diffs) == 1 and np.isnan(diffs[0])


# -- many z in one RK45 solve -------------------------------------------------


def solo_rk45(sys, z, grid, tol):
    """W by one-point RK45, the right-hand side written out for one z."""
    J, spec, m = sys.J, sys.hamiltonian, sys.m

    def rhs(x, y):
        return (1j / (z - x) * (J @ spec.hamiltonian(x) @ y.reshape(m, m))).ravel()

    flat, _, steps = system.integrate_matrix_ode(
        rhs, sys.xi, np.eye(m, dtype=complex).ravel(), grid, tol, tol * 1e-2,
        "RK45", spec.kinks,
    )
    return flat.reshape(grid.size, m, m), steps


BATCH_Z = np.array([2j, -0.5 + 0.1j, 1.5, 0.5 + 1e-2j, 0.3 - 1e-3j, 0.7 + 0.3j,
                    1.2 - 0.5j, -0.2 + 1j])


@pytest.mark.parametrize("which", ["unit", "kinked"])
def test_scalar_z_rounds_as_the_one_point_solve(unit_system, which):
    sys = unit_system if which == "unit" else profile_system()
    grid = np.linspace(0.0, 1.0, 11)
    for z in (2j, 0.5 + 1e-2j, 1.5):
        sol = fundamental_solution(sys, z, grid=grid, tol=1e-10, method="rk45")
        values, steps = solo_rk45(sys, z, grid, 1e-10)
        assert np.array_equal(sol.values, values) and sol.panels == steps
        assert sol.z == z and sol.values.shape == (11, 2, 2)
        one = fundamental_solution(sys, [z], grid=grid, tol=1e-10, method="rk45")
        assert one.values.shape == (1, 11, 2, 2) and np.array_equal(one.values[0], values)


def recorded_solves(monkeypatch):
    """Wrap the solver cansys.system calls; returns the list of the
    (t_span, OdeSolution) of every solve made after the call."""
    solves = []
    solve_ivp = system.solve_ivp

    def recording(fun, t_span, *args, **kwargs):
        sol = solve_ivp(fun, t_span, *args, **kwargs)
        solves.append((t_span, sol.sol))
        return sol

    monkeypatch.setattr(system, "solve_ivp", recording)
    return solves


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
@pytest.mark.parametrize("which", ["unit", "kinked"])
def test_stacked_dense_output_is_scipys_bit_for_bit(unit_system, monkeypatch, method, which):
    # xi inside, so pieces run both ways; the kinked profile restarts at
    # each of its 31 interior nodes
    base = unit_system if which == "unit" else profile_system()
    sys = CanonicalSystem(base.J, base.interval, base.hamiltonian, xi=0.4)
    J, spec, z = sys.J, sys.hamiltonian, 0.5 + 0.3j

    def rhs(x, y):
        return (1j / (z - x) * (J @ spec.hamiltonian(x) @ y.reshape(2, 2))).ravel()

    y0 = np.eye(2, dtype=complex).ravel()
    solves = recorded_solves(monkeypatch)
    _, dense, _ = system.integrate_matrix_ode(
        rhs, sys.xi, y0, np.linspace(0.0, 1.0, 11), 1e-8, 1e-10, method, spec.kinks,
    )
    assert len(solves) == (2 if which == "unit" else 33)
    rng = np.random.default_rng(7)
    points, expected = [], []
    for (t0, t1), sol in solves:
        lo, hi = min(t0, t1), max(t0, t1)
        # random points and every step end; a piece end that is not xi
        # belongs to the piece below it, and only the lowest piece has lo
        t = np.concatenate([rng.uniform(lo, hi, 40), sol.ts])
        t = t[((t > lo) | (lo == 0.0)) & (t != sys.xi)]
        assert t.size > 40
        points.append(t)
        expected.append(sol(t).T)
        # one point alone, which scipy's RK45 multiplies out by another BLAS call
        for x in t[::7]:
            assert_bits(dense(x), sol(x))
    points, expected = np.concatenate(points), np.concatenate(expected)
    assert np.isin(spec.kinks, points).all()
    assert_bits(dense(points), expected)
    assert_bits(dense(sys.xi), y0)
    for outside in (-1e-3, 1.0 + 1e-3):
        with pytest.raises(ValueError, match="outside the integrated range"):
            dense(np.array([0.5, outside]))


def test_each_z_of_a_batch_is_within_the_estimate(unit_system):
    grid = np.linspace(0.0, 1.0, 11)
    sol = fundamental_solution(unit_system, BATCH_Z, grid=grid, tol=1e-10,
                               method="rk45")
    assert sol.values.shape == (8, 11, 2, 2) and np.array_equal(sol.z, BATCH_Z)
    assert sol.error_estimate == 1e-10 * sol.panels
    for z, values in zip(BATCH_Z, sol.values):
        exact = np.stack([rank_one.fundamental_matrix(x, z) for x in grid])
        assert np.max(np.linalg.norm(values - exact, axis=(1, 2))) <= sol.error_estimate


def test_a_batch_is_no_less_accurate_than_solo_solves(unit_system):
    # each point's local error is held at least as tightly as alone, and
    # the joint solve takes fewer steps than the solo solves together
    grid = np.linspace(0.0, 1.0, 11)
    exact = np.array([[rank_one.fundamental_matrix(x, z) for x in grid] for z in BATCH_Z])
    batch = fundamental_solution(unit_system, BATCH_Z, grid=grid, tol=1e-10,
                                 method="rk45")
    solos = [fundamental_solution(unit_system, z, grid=grid, tol=1e-10, method="rk45")
             for z in BATCH_Z]
    solo_err = max(np.max(np.linalg.norm(s.values - e, axis=(1, 2)))
                   for s, e in zip(solos, exact))
    assert np.max(np.linalg.norm(batch.values - exact, axis=(-2, -1))) <= solo_err
    assert batch.panels < sum(s.panels for s in solos)


def test_batch_z_needs_rk45(unit_system):
    with pytest.raises(ValueError, match="magnus"):
        fundamental_solution(unit_system, [2j, 1.5])


def test_a_batch_point_near_the_cut_is_named(unit_system):
    with pytest.raises(SpectralPointError, match=r"z = \(0\.4\+1e-09j\)"):
        fundamental_solution(unit_system, [2j, 0.4 + 1e-9j, 1.5], method="rk45")


@pytest.mark.parametrize("z", [np.array([], dtype=complex), np.ones((2, 2)) * 2j],
                         ids=["empty", "2d"])
def test_batch_z_must_be_a_non_empty_1d_array(unit_system, z):
    with pytest.raises(ValueError, match="non-empty 1-D"):
        fundamental_solution(unit_system, z, method="rk45")


def test_batched_callers_agree_with_their_solo_calls(traj_n1):
    from cansys.gbdt import transformed_fundamental
    from cansys.triangular import TriangularModel, char_fn_via_fundamental

    # each side is within its own error estimate, so the two differ by at
    # most the sum of their estimates
    tol, grid = 1e-10, np.linspace(0.0, 1.0, 11)
    zs = np.array([f + 1.5j for f in (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5)] + [2j])
    batch = transformed_fundamental(traj_n1, zs, grid=grid, tol=tol)
    assert batch.values.shape == (8, 11, 2, 2)
    for z, values in zip(zs, batch.values):
        solo = transformed_fundamental(traj_n1, z, grid=grid, tol=tol)
        gap = np.max(np.linalg.norm(values - solo.values, axis=(1, 2)))
        assert gap <= batch.error_estimate + solo.error_estimate
    model = TriangularModel.from_constant_beta(rank_one.BETA, (0.0, 1.0), J_OFF)
    points = [0.5 + 0.2j, 0.5 - 0.15j, 1.3 + 0.4j, -0.2 + 0.5j, 0.8 + 2.0j]
    refs = char_fn_via_fundamental(model, points, tol=tol)
    assert refs.value.shape == (5, 2, 2)
    for z, value in zip(points, refs.value):
        assert fro(value - char_fn_via_fundamental(model, z, tol=tol).value) <= 10 * tol
