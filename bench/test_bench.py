"""Checks of the benchmark's own pieces: oracle, tracing and metric lists.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest bench``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import oracle
import reference
import run
import tracing
import cansys.gbdt
import cansys.system
from cansys import rank_one

ONE = (np.array([0.0, 1.0]), np.ones(2))


@pytest.mark.parametrize("z", [2j, 0.5 + 1e-3j, 0.5 - 1e-3j, -0.5 + 0.1j, 1.5, -0.2])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
def test_constant_profile_matches_rank_one_closed_form(z, x):
    expected = rank_one.fundamental_matrix(x, z)
    assert np.abs(oracle.fundamental(*ONE, x, z) - expected).max() < 1e-14


def test_constant_profile_jump_matches_rank_one():
    assert np.abs(oracle.jump(*ONE, 0.4) - rank_one.jump_matrix()).max() == 0.0
    w_plus = oracle.fundamental(*ONE, 1.0, 0.4, side=+1)
    w_minus = oracle.fundamental(*ONE, 1.0, 0.4, side=-1)
    assert np.abs(np.linalg.solve(w_minus, w_plus) - rank_one.jump_matrix()).max() < 1e-13
    near = rank_one.fundamental_matrix(1.0, 0.4 + 1e-12j)
    assert np.abs(w_plus - near).max() < 1e-10


def test_piecewise_linear_integral_matches_quadrature():
    rng = np.random.default_rng(0)
    x_grid = np.linspace(0.0, 1.0, 9)
    c = rng.uniform(0.5, 1.5, x_grid.size)
    z = 0.37 + 0.2j
    t = np.linspace(0.0, 0.8, 400001)
    f = np.interp(t, x_grid, c) ** 2 / (z - t)
    quad = np.sum((f[1:] + f[:-1]) / 2 * np.diff(t))
    assert abs(oracle.weighted_integral(x_grid, c, 0.8, z) - quad) < 1e-8


def test_cut_limits_jump_by_the_local_profile():
    rng = np.random.default_rng(1)
    x_grid = np.linspace(0.0, 1.0, 33)
    c = rng.uniform(0.5, 1.5, x_grid.size)
    s = 0.418
    w_plus = oracle.fundamental(x_grid, c, 1.0, s, side=+1)
    w_minus = oracle.fundamental(x_grid, c, 1.0, s, side=-1)
    assert np.abs(np.linalg.solve(w_minus, w_plus) - oracle.jump(x_grid, c, s)).max() < 1e-12
    near = oracle.fundamental(x_grid, c, 1.0, s - 1e-11j)
    assert np.abs(w_minus - near).max() < 1e-8


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_passes_are_whole_and_repeat_only_while_they_fit():
    assert [list(batch) for batch in run.passes([1, 2], 0.0)] == [[1, 2]]
    assert sum(1 for _ in run.passes([1], 0.05)) > 1  # an instant pass repeats


def test_tracer_spans_self_time_and_restores_originals():
    original = cansys.system.fundamental_solution
    params = rank_one.DiagonalParams(b_diag=[1j], g=[1.0], h=[0.0]).to_gbdt_params()
    system = rank_one.make_system(1.0)
    tracer = tracing.Tracer()
    start = tracer.begin(0)
    traj = cansys.gbdt.evolve(params, system, grid=np.linspace(0.0, 1.0, 11))
    cansys.gbdt.transformed_fundamental(traj, 2j)
    tracer.end(0, start)
    assert cansys.system.fundamental_solution is original
    assert cansys.gbdt.fundamental_solution is original
    metrics = tracer.layer_metrics(overhead_frac=0.0)
    assert metrics["gbdt.evolve.calls"] == 1
    assert metrics["system.fundamental_solution.calls"] == 1
    assert metrics["gbdt.evolve.rhs_evals"] > 0 and metrics["system.ode_rhs_evals"] > 0
    assert metrics["system.h_evals"] > 0
    assert metrics["trace.coverage"] > 0.99
    assert all(v >= 0 for k, v in metrics.items() if k.endswith("self_s"))


@pytest.mark.parametrize("kind", sorted(reference.KINDS))
def test_sandwich_scales_each_piece_by_the_reference_around_it(kind):
    clock = reference.Sandwich(kind)
    assert clock.time(lambda: 7) == 7
    clock.time(lambda: None)
    assert len(clock.wall) == 2 and len(clock._units) == 3
    u = clock._units
    for i, (wall, ref) in enumerate(zip(clock.wall, clock.ref)):
        assert ref == pytest.approx(wall * reference.UNIT_S / ((u[i] + u[i + 1]) / 2))
