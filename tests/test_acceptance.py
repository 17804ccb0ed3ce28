"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N PASS/FAIL`` line (visible with
``pytest -s`` or in captured output) and asserts the stated tolerance and
the desk-scale runtime budget.
"""

import json
import time

import numpy as np
import pytest

from cansys import rank_one
from cansys.cli import main as cli_main
from cansys.gbdt import (
    evolve,
    positivity_report,
    sample_params,
    transfer,
    transformed_fundamental,
    transformed_system,
)
from cansys.linalg import cond2, fro
from cansys.scenarios import scenario_path
from cansys.system import (
    boundary_values,
    fundamental_solution,
    kernel_bound,
)
from cansys.triangular import (
    TriangularModel,
    char_fn,
    char_fn_via_fundamental,
    discretize,
    similarity_probe,
)

ODE_TOL = 1e-9


def _report(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"criterion {number:2d} {status}: {name} ({detail}; "
        f"{elapsed:.1f}s of {budget:.0f}s)"
    )
    assert ok, f"criterion {number}: {name}: {detail}"
    assert elapsed < budget, f"criterion {number}: took {elapsed:.1f}s >= {budget}s"


@pytest.fixture(scope="module")
def scenario_system():
    return rank_one.make_system(b=1.0)


@pytest.fixture(scope="module")
def seed_suite(scenario_system):
    """The 100 seeded draws (n <= 4, m = 2) shared by criteria 1 and 9."""
    start = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 101)
    trajectories = []
    for seed in range(100):
        params = sample_params(seed, scenario_system, n=1 + seed % 4,
                               positive=False)
        trajectories.append(evolve(params, scenario_system, grid=grid,
                                   tol=ODE_TOL))
    return trajectories, time.perf_counter() - start


def test_criterion_1_identity_suite(seed_suite):
    trajectories, elapsed = seed_suite
    start = time.perf_counter()
    worst = max(t.identity_residual for t in trajectories)
    elapsed += time.perf_counter() - start
    _report(1, "identity residual over 100 seeded draws", worst <= 10 * ODE_TOL,
            f"max residual {worst:.2e} <= {10 * ODE_TOL:.0e}", elapsed, 30.0)


def test_criterion_2_transform_consistency(scenario_system):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for seed in range(20):
        params = sample_params(seed, scenario_system, n=1 + seed % 4)
        traj = evolve(params, scenario_system, grid=grid, tol=1e-10)
        dressed_sys = transformed_system(traj)
        poles = np.linalg.eigvals(params.B)
        picked = []
        while len(picked) < 5:
            z = rng.uniform(-1.0, 2.0) + 1j * rng.choice([-1, 1]) * rng.uniform(
                0.3, 2.0
            )
            if min(np.abs(poles - z).min(), np.abs(poles - np.conj(z)).min()) < 0.2:
                continue
            picked.append(z)
        # the 5 points of a seed as one stacked RK45 solve on each route
        via_multiplier = transformed_fundamental(traj, picked, grid=grid, tol=1e-10)
        direct = fundamental_solution(dressed_sys, picked, grid=grid, tol=1e-10,
                                      method="rk45")
        worst = max(
            worst,
            float(np.max(np.linalg.norm(via_multiplier.values - direct.values,
                                        axis=(-2, -1)))),
        )
    _report(2, "dressed solution vs direct integration", worst <= 1e-6,
            f"max grid difference {worst:.2e} <= 1e-6",
            time.perf_counter() - start, 60.0)


def test_criterion_3_j_properties(scenario_system):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_ratio = 0.0
    for seed in range(5):
        params = sample_params(seed, scenario_system, n=1 + seed % 4)
        traj = evolve(params, scenario_system, grid=np.linspace(0, 1, 51),
                      tol=1e-10)
        poles = np.linalg.eigvals(params.B)
        sampled = 0
        while sampled < 10:
            x = rng.uniform(0.02, 1.0)
            z = rng.uniform(-1.0, 2.0) + 1j * rng.choice([-1, 1]) * rng.uniform(
                0.2, 2.0
            )
            if min(np.abs(poles - z).min(), np.abs(poles - np.conj(z)).min()) < 0.2:
                continue
            sampled += 1
            te = transfer(traj, x, z)
            cond = cond2(traj.s_at(x))
            worst_ratio = max(worst_ratio, te.j_defect / cond)
            w0_defect = fro(
                te.w0 @ scenario_system.J @ te.w0.conj().T - scenario_system.J
            )
            worst_ratio = max(worst_ratio, w0_defect / cond)
    _report(3, "transfer-matrix J-properties at 50 samples",
            worst_ratio <= 1e-9,
            f"max residual/cond(S) {worst_ratio:.2e} <= 1e-9",
            time.perf_counter() - start, 5.0)


def test_criterion_4_positivity(scenario_system):
    start = time.perf_counter()
    min_eig = np.inf
    worst_q = worst_bound = 0.0
    for seed in range(100):
        params = sample_params(seed, scenario_system, n=1 + seed % 4,
                               positive=True)
        traj = evolve(params, scenario_system, grid=np.linspace(0, 1, 101),
                      tol=ODE_TOL)
        report = positivity_report(traj)
        min_eig = min(min_eig, report.min_eig_s)
        worst_q = max(worst_q, report.q_step_defect)
        worst_bound = max(worst_bound, report.inverse_bound_defect)
    ok = min_eig > 0 and worst_q <= 1e-8 and worst_bound <= 10 * ODE_TOL
    _report(4, "positivity transport over 100 positive-definite seeds", ok,
            f"min eig {min_eig:.2e}, Q defect {worst_q:.2e}, "
            f"inverse-bound defect {worst_bound:.2e}",
            time.perf_counter() - start, 30.0)


def test_criterion_5_closed_form_oracles(scenario_system):
    start = time.perf_counter()
    # (a) integrated fundamental solution vs the explicit logarithmic form
    xs = np.linspace(0.1, 1.0, 10)
    zs = [
        0.5 + 0.4j, 1.6 + 0.8j, -0.4 + 0.6j, 2.5 + 0.0j, -1.2 + 0.0j,
        0.5 - 0.4j, 1.3 - 0.9j, -0.3 - 1.5j, 0.2 + 2.0j, 1.0 - 0.35j,
    ]
    w_err = 0.0
    for z in zs:
        sol = fundamental_solution(scenario_system, z, grid=xs, tol=1e-11)
        for j, x in enumerate(xs):
            w_err = max(w_err,
                        fro(sol.values[j] - rank_one.fundamental_matrix(x, z)))
    # (b) evolved (Pi, S) vs the closed forms, order two
    diag2 = rank_one.DiagonalParams(
        b_diag=[2j, -0.5 + 0.8j], g=[1.0, 0.3 - 0.2j], h=[0.1j, -0.4]
    )
    traj2 = evolve(diag2.to_gbdt_params(), scenario_system,
                   grid=np.linspace(0, 1, 51), tol=1e-11)
    pi_s_err = max(
        max(fro(traj2.pi[j] - diag2.pi_at(x)), fro(traj2.s[j] - diag2.s_at(x)))
        for j, x in enumerate(traj2.grid)
    )
    # (c) order-one engine outputs vs the closed forms
    params1 = rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[0.0]).to_gbdt_params()
    traj1 = evolve(params1, scenario_system, grid=np.linspace(0, 1, 201), tol=1e-12)
    x1 = np.array([0.2, 0.5, 0.8])[:, None]
    z1 = [2j, -1.0 + 0.5j, 3.0 + 0.0j]
    forms = rank_one.dressed_forms(params1, x1, z1)
    te = transfer(traj1, x1, z1)
    beta = scenario_system.hamiltonian.beta_at(x1)
    pairs = [(te.w0, forms.w0), (te.w_a, forms.w_a), (te.v, forms.v),
             (beta @ te.w0, beta @ forms.w0), (traj1.s_at(x1), forms.s)]
    n1_err = max(np.max(np.linalg.norm(got - exp, axis=(-2, -1))) for got, exp in pairs)
    ok = w_err <= 1e-8 and pi_s_err <= 1e-8 and n1_err <= 1e-9
    _report(5, "closed-form scenario oracles", ok,
            f"W {w_err:.2e} <= 1e-8, (Pi,S) {pi_s_err:.2e} <= 1e-8, "
            f"order-one {n1_err:.2e} <= 1e-9",
            time.perf_counter() - start, 20.0)


def test_criterion_6_boundary_jump(scenario_system):
    start = time.perf_counter()
    expected = rank_one.jump_matrix()
    worst = 0.0
    v_norms = []
    for s in (0.2, 0.35, 0.5, 0.65, 0.8):
        report = boundary_values(scenario_system, 1.0, s, tol=1e-10)
        assert not report.divergent
        worst = max(worst, fro(report.jump - expected))
        v_norms.append(fro(report.v))
    uniform = max(v_norms) <= 1.5 * min(v_norms)
    ok = worst <= 1e-3 and uniform
    _report(6, "boundary-value jump against the constant factor", ok,
            f"max jump error {worst:.2e} <= 1e-3, "
            f"|V| in [{min(v_norms):.3f}, {max(v_norms):.3f}]",
            time.perf_counter() - start, 60.0)


def test_criterion_7_characteristic_identity(scenario_system):
    start = time.perf_counter()
    model = TriangularModel.from_constant_beta(
        rank_one.BETA, scenario_system.interval, scenario_system.J
    )
    zs = [0.5 + 0.2j, 0.5 - 0.15j, 1.3 + 0.4j, -0.2 + 0.5j, 0.8 + 2.0j]
    ops = {n: discretize(model, n) for n in (256, 512, 1024)}
    worst_rel = 0.0
    worst_cut = np.inf
    # the 5 references as one stacked RK45 solve; the doubling is measured
    # against the exact W(1, z), which is more accurate than that route
    refs = char_fn_via_fundamental(model, zs, tol=1e-11).value
    exact = rank_one.fundamental_matrix(1.0, np.array(zs))
    for z, ref, w in zip(zs, refs, exact):
        values = [char_fn(ops[n], z).value for n in (256, 512, 1024)]
        worst_rel = max(worst_rel, fro(values[-1] - ref) / fro(ref))
        errs = [fro(value - w) for value in values]
        # fourth order cuts the error 16x per doubling
        worst_cut = min(worst_cut, errs[0] / errs[1], errs[1] / errs[2])
    ok = worst_rel <= 1e-2 and worst_cut >= 8.0
    _report(7, "characteristic function equals the fundamental solution", ok,
            f"max relative error {worst_rel:.2e} <= 1e-2 at N=1024, "
            f"error against the closed form cut {worst_cut:.1f}x >= 8x "
            "per doubling",
            time.perf_counter() - start, 60.0)


def test_criterion_8_transformed_characteristic(scenario_system):
    start = time.perf_counter()
    diag1 = rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[0.0])
    traj = evolve(diag1.to_gbdt_params(), scenario_system,
                  grid=np.linspace(0, 1, 201), tol=1e-11)
    model = TriangularModel.from_constant_beta(
        rank_one.BETA, scenario_system.interval, scenario_system.J
    )
    dressed = transformed_system(traj)
    worst = 0.0
    for z in (2j, 1.5 + 1.0j, -0.8 + 0.9j):
        w_t = char_fn(discretize(dressed, 1024), z).value
        w = char_fn(discretize(model, 1024), z).value
        v_b = transfer(traj, 1.0, z).v
        v_a_inv = np.linalg.inv(transfer(traj, 0.0, z).v)
        worst = max(worst, fro(w_t - v_b @ w @ v_a_inv))
    _report(8, "dressed characteristic function multiplier relation",
            worst <= 1e-2, f"max deviation {worst:.2e} <= 1e-2 at N=1024",
            time.perf_counter() - start, 60.0)


def test_criterion_9_kernel_bound_transfer(scenario_system, seed_suite):
    trajectories, _ = seed_suite
    start = time.perf_counter()
    base = kernel_bound(scenario_system.hamiltonian, scenario_system.J)
    assert base.finite and base.sup_bound == 0.0
    worst = 0.0
    for traj in trajectories:
        dressed = transformed_system(traj)
        report = kernel_bound(dressed.hamiltonian, scenario_system.J)
        ok_one = report.finite
        worst = max(worst, report.sup_bound if ok_one else np.inf)
        if not ok_one:
            break
    ok = np.isfinite(worst)
    _report(9, "kernel bound stays finite for all dressed factors", ok,
            f"max dressed bound {worst:.2e}",
            time.perf_counter() - start, 10.0)


def test_criterion_10_similarity_probe():
    start = time.perf_counter()
    model = TriangularModel.from_constant_beta(np.eye(2), (0.0, 1.0), np.eye(2))
    imags = [similarity_probe(model, n).max_imag for n in (64, 128, 256)]
    ok = imags[-1] <= 5e-2 and imags[0] > imags[1] > imags[2]
    _report(10, "similarity probe has near-real spectrum", ok,
            f"max |Im| {imags[-1]:.2e} <= 5e-2 at N=256, "
            f"sequence {['%.1e' % v for v in imags]}",
            time.perf_counter() - start, 30.0)


def test_criterion_11_determinism(tmp_path):
    start = time.perf_counter()
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main(["run", str(scenario_path()), "--out", str(out)])
        assert code == 0
        outs.append((out / "results.json").read_bytes())
    identical = outs[0] == outs[1]
    payload = json.loads(outs[0])
    ok = identical and payload["all_pass"]
    _report(11, "bundled scenario is byte-deterministic", ok,
            f"{len(outs[0])} bytes, identical: {identical}",
            time.perf_counter() - start, 120.0)
