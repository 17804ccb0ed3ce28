"""Cold start: scipy loads on the first adaptive solve, not on import.

Each cold-path case runs in a fresh interpreter whose ``sys.modules``
maps "scipy" to None, so any scipy import there raises ImportError.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from cansys import system
from cansys.gbdt import evolve
from cansys.scenarios import scenario_path

ROOT = Path(__file__).resolve().parents[1]

BLOCK_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'


def _fresh_python(code, cwd, block_scipy=True):
    """Run code in a new interpreter importing cansys from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    script = (BLOCK_SCIPY if block_scipy else "") + textwrap.dedent(code)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_import_loads_no_scipy(tmp_path):
    _fresh_python("""
        import sys
        import cansys
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert not loaded, loaded
    """, tmp_path, block_scipy=False)


def test_run_and_report_without_scipy(tmp_path):
    config = json.loads(scenario_path().read_text(encoding="utf-8"))
    config["tasks"] = ["validate", {"task": "rh-jump", "s": [0.3, 0.7], "x": 1.0},
                       {"task": "probe", "N": [64, 128]}]
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    _fresh_python("""
        from cansys import cli
        assert cli.main(["run", "config.json", "--out", "out"]) == 0
        assert cli.main(["report", "out/results.json"]) == 0
    """, tmp_path)
    assert json.loads((tmp_path / "out" / "results.json").read_text())["all_pass"]


def test_numpy_routes_run_without_scipy_and_rk45_needs_it(tmp_path):
    _fresh_python("""
        import numpy as np
        from cansys import rank_one
        from cansys.system import boundary_values, fundamental_solution, product_integral
        from cansys.triangular import TriangularModel, char_fn, discretize, similarity_probe

        canonical = rank_one.make_system()
        z = 0.5 + 0.3j
        assert np.isfinite(fundamental_solution(canonical, z).values).all()
        assert np.isfinite(boundary_values(canonical, 1.0, 0.5).jump).all()
        partition = np.linspace(0.0, 1.0, 17)
        assert np.isfinite(product_integral(canonical, z, partition).values).all()
        model = TriangularModel.from_constant_beta(rank_one.BETA, (0.0, 1.0), canonical.J)
        assert np.isfinite(char_fn(discretize(model, 64), z).value).all()
        probe = TriangularModel.from_constant_beta(np.eye(2), (0.0, 1.0), np.eye(2))
        assert similarity_probe(probe, 64).max_imag == 0.5 / 64
        try:
            fundamental_solution(canonical, z, method="rk45")
        except ImportError:
            pass
        else:
            raise AssertionError("rk45 ran without scipy")
    """, tmp_path)


def test_adaptive_solves_go_through_the_module_solve_ivp(monkeypatch, unit_system, diag_n1):
    spans = []
    original = system.solve_ivp

    def counting(rhs, t_span, *args, **kwargs):
        spans.append(t_span)
        return original(rhs, t_span, *args, **kwargs)

    monkeypatch.setattr(system, "solve_ivp", counting)
    evolve(diag_n1.to_gbdt_params(), unit_system)
    assert spans
    spans.clear()
    system.fundamental_solution(unit_system, 0.5 + 0.3j, method="rk45")
    assert spans
