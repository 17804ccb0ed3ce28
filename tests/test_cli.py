import json

import numpy as np
import pytest

import cansys
from cansys import cli, system
from cansys.cli import main
from cansys.gbdt import GbdtTrajectory
from cansys.scenarios import scenario_path
from cansys.system import HamiltonianSpec

#: The example-n1 checks and their fixed bounds.
N1_BOUNDS = {"n1_s_residual": 1e-8, "n1_beta_residual": 1e-8, "n1_wa_residual": 1e-9,
             "n1_v_residual": 1e-9, "n1_wtilde_residual": 1e-8}


def minimal_config(**overrides):
    config = {
        "schema_version": 1,
        "system": {
            "m": 2,
            "J": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            "interval": [0.0, 1.0],
            "xi": 0.0,
            "hamiltonian": {"type": "constant-beta", "beta": [[[1, 0], [0, 1]]]},
        },
        "gbdt": {"n": 1, "b_diag": [[0, 1]], "g": [[1, 0]], "h": [[0, 0]]},
        "tasks": ["validate"],
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def test_bundled_scenario_passes(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(scenario_path()), "--out", str(out)])
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert results["all_pass"] is True
    assert results["failure"] is None
    assert "transformed_sweep.csv" in results["artifacts"]
    sweep = (out / "transformed_sweep.csv").read_text().splitlines()
    assert sweep[0].startswith("re_z,im_z,re_00,im_00")
    # x-format fundamental-solution grid: x then row-major re/im entries
    grid_csv = (out / "transformed_solution.csv").read_text().splitlines()
    assert grid_csv[0] == "x,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11"
    first = [float(v) for v in grid_csv[1].split(",")]
    assert first[0] == 0.0
    assert np.allclose(first[1:], [1, 0, 0, 0, 0, 0, 1, 0])  # W~(xi) = I
    # report renders the table and exits 0
    assert main(["report", str(out / "results.json")]) == 0
    table = capsys.readouterr().out
    assert "n1_wtilde_residual" in table
    assert "FAIL" not in table


def count_evolves(monkeypatch):
    """Record the tolerance of every evolve the runner makes."""
    tols, evolve = [], cli.evolve

    def counting(*args, tol, **kwargs):
        tols.append(tol)
        return evolve(*args, tol=tol, **kwargs)

    monkeypatch.setattr(cli, "evolve", counting)
    return tols


def test_one_trajectory_per_run_at_ode_tol(tmp_path, monkeypatch):
    # the bundled scenario (ode_tol 1e-10) lists example-n1, whose closed-form
    # comparisons hold at the config's tolerance; every task reads that one
    # trajectory
    tols = count_evolves(monkeypatch)
    raw = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["run", str(scenario_path()), "--out", str(out)]) == 0
        raw.append((out / "results.json").read_bytes())
    assert tols == [1e-10, 1e-10]
    assert raw[0] == raw[1]
    checks = json.loads(raw[0])["checks"]
    n1 = [c for c in checks if c["task"] == "example-n1"]
    assert len(n1) == 5 and all(c["pass"] for c in n1)
    evolve_checks = {c["name"]: c["bound"] for c in checks if c["task"] == "evolve"}
    assert evolve_checks["identity_residual"] == 1e-9  # still 10 ode_tol


def test_trajectory_without_example_n1_uses_ode_tol(tmp_path, monkeypatch):
    tols = count_evolves(monkeypatch)
    config = minimal_config(tasks=["evolve", "transform"])
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    assert tols == [1e-9]


def test_rh_jump_csv_columns(tmp_path):
    out = tmp_path / "out"
    config = minimal_config(tasks=[{"task": "rh-jump", "s": [0.4, 0.6], "x": 1.0}])
    code = main(["run", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == 0
    lines = (out / "rh_jump.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "s"
    assert "re_00" in header and "im_11" in header
    assert header[-2:] == ["norm_v", "jump_error"]
    assert len(lines) == 3
    # jump error column stays small for the constant degenerate scenario
    assert all(float(line.split(",")[-1]) < 1e-3 for line in lines[1:])


def rh_jump_from(xi):
    """A config whose only task is rh-jump at its default s, based at xi."""
    config = minimal_config(tasks=[{"task": "rh-jump"}])
    config["system"]["xi"] = xi
    return config


def test_rh_jump_reference_follows_the_cut_from_xi(tmp_path):
    # the default s are 0.2 .. 0.8: off the cut [0.4, 1] the jump is I,
    # on it R^2, and the reference says which
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, rh_jump_from(0.4))), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["all_pass"] is True
    assert {c["name"] for c in results["checks"]} == {"v_sup", "jump_max_error"}
    lines = (out / "rh_jump.csv").read_text().splitlines()[1:]
    assert len(lines) == 5
    assert all(float(line.split(",")[-1]) < 1e-3 for line in lines)


def test_rh_jump_at_xi_is_a_numerical_failure(tmp_path, capsys):
    # s = 0.5 = xi is an end of the cut: no limits there, and no NaN row
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, rh_jump_from(0.5))), "--out", str(out)]) == 1
    assert "s = 0.5" in capsys.readouterr().err
    results = json.loads((out / "results.json").read_text())
    assert "s = 0.5" in results["failure"]
    assert "rh_jump.csv" not in results["artifacts"]
    assert not (out / "rh_jump.csv").exists()


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "tasks": [,]\n}', encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "broken.json:2" in err


def test_bad_signature_matrix_exits_2(tmp_path, capsys):
    config = minimal_config()
    config["system"]["J"] = [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert '"J"' in err or "J" in err
    assert "config.json:" in err  # line-anchored


def test_unknown_key_rejected(tmp_path, capsys):
    config = minimal_config()
    config["system"]["hamiltonain"] = {}  # typo'd key
    path = write_config(tmp_path, config)
    assert main(["run", str(path)]) == 2
    assert "hamiltonain" in capsys.readouterr().err


def test_dimension_mismatch_rejected(tmp_path, capsys):
    config = minimal_config()
    config["gbdt"]["g"] = [[1, 0], [2, 0]]  # length 2 for n = 1
    path = write_config(tmp_path, config)
    assert main(["run", str(path)]) == 2
    assert "'g'" in capsys.readouterr().err


def test_numerical_failure_exits_1(tmp_path, capsys):
    h = float(np.log(1j - 0.5).imag)
    config = minimal_config(
        gbdt={"n": 1, "b_diag": [[0, 1]], "g": [[1, 0]], "h": [[h, 0]]},
        tasks=["evolve"],
        tolerances={"ode_tol": 1e-12},
    )
    out = tmp_path / "out"
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "singular" in err.lower()
    results = json.loads((out / "results.json").read_text())
    assert results["failure"] is not None
    assert results["all_pass"] is False


def test_validation_violations_fail_the_run(tmp_path):
    config = minimal_config()
    config["gbdt"] = {
        "n": 1,
        "B": [[[0.5, 0]]],  # pole inside the interval
        "S0": [[[1, 0]]],
        "Pi0": [[[0, 0], [0, 0]]],
    }
    out = tmp_path / "out"
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(out)]) == 1
    results = json.loads((out / "results.json").read_text())
    failing = [c for c in results["checks"] if not c["pass"]]
    assert any(c["name"] == "params_violations" for c in failing)


def test_report_empty_checks(tmp_path, capsys):
    config = minimal_config(tasks=[])
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    assert main(["report", str(out / "results.json")]) == 0
    table = capsys.readouterr().out
    assert "status" in table.splitlines()[-1]  # header only


def test_report_flags_failing_row(tmp_path, capsys):
    results = {
        "schema_version": 1,
        "checks": [
            {"task": "t", "name": "good", "value": 0.0, "bound": 1.0, "pass": True},
            {"task": "t", "name": "bad", "value": 2.0, "bound": 1.0, "pass": False},
        ],
        "failure": None,
        "all_pass": False,
    }
    path = tmp_path / "results.json"
    path.write_text(json.dumps(results), encoding="utf-8")
    assert main(["report", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_beta_grid_system_end_to_end(tmp_path):
    xs = [0.0, 0.25, 0.5, 0.75, 1.0]
    beta_rows = [[[[1, 0], [0, 1.0 + 0.5 * x]]] for x in xs]
    config = minimal_config(tasks=["validate", "evolve", "transform",
                                   {"task": "charfn", "N": 128}])
    config["system"]["hamiltonian"] = {"type": "beta-grid", "x": xs,
                                       "beta": beta_rows}
    out = tmp_path / "out"
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["all_pass"] is True
    assert "transformed_beta.csv" in results["artifacts"]


def test_validate_catches_non_hermitian_h_samples(tmp_path):
    # I plus a skew part 0.5 at both nodes: the samples, not their
    # Hermitian part, must be checked
    skewed = [[[1, 0], [0.5, 0]], [[-0.5, 0], [1, 0]]]
    config = without_gbdt(tasks=["validate"])
    config["system"]["hamiltonian"] = {"type": "h-grid", "x": [0.0, 1.0],
                                       "h": [skewed, skewed]}
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 1
    results = json.loads((out / "results.json").read_text())
    assert results["checks"] == [{"task": "validate", "name": "system_violations",
                                  "value": 2.0, "bound": 0.0, "pass": False}]
    assert results["all_pass"] is False


def test_charfn_needs_factored_hamiltonian(tmp_path, capsys):
    config = minimal_config(tasks=[{"task": "charfn", "N": 16}])
    config["system"]["hamiltonian"] = {
        "type": "h-grid",
        "x": [0.0, 1.0],
        "h": [[[[1, 0], [0, 1]], [[0, -1], [1, 0]]]] * 2,
    }
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "factored" in capsys.readouterr().err


def test_report_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_tol_override(tmp_path):
    config = minimal_config(tasks=["evolve"])
    out = tmp_path / "out"
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(out), "--tol", "1e-8"]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["tolerances"]["ode_tol"] == 1e-8
    identity = [c for c in results["checks"] if c["name"] == "identity_residual"][0]
    assert identity["bound"] == 1e-7


def test_rh_jump_rejects_eta_ladder_keys(tmp_path, capsys):
    # cut limits come from graded products, not an eta ladder: the old
    # ladder knobs are unknown keys, not silently ignored ones
    out = str(tmp_path / "out")
    task = minimal_config(tasks=[{"task": "rh-jump", "s": [0.5], "eta0": 1e-3}])
    assert main(["run", str(write_config(tmp_path, task)), "--out", out]) == 2
    assert "eta0" in capsys.readouterr().err
    tol = minimal_config(tasks=["validate"], tolerances={"levels": 8})
    assert main(["run", str(write_config(tmp_path, tol)), "--out", out]) == 2
    assert "levels" in capsys.readouterr().err


def line_of(path, *keys):
    """1-based line of the first '"key"' in a written config, each key
    looked for at or after the line of the one before it."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lineno = 1
    for key in keys:
        lineno = next(i for i in range(lineno, len(lines) + 1)
                      if f'"{key}"' in lines[i - 1])
    return lineno


#: One two-node panel at a z within 0.5 of the cut: a relative error of 4e-2
CHARFN_ONE_PANEL = [{"task": "charfn", "N": 2, "z": [[0.5, 0.5]]}]


def test_charfn_at_one_node_fails(tmp_path):
    # one Nystrom panel is too coarse near the cut
    out = tmp_path / "out"
    config = minimal_config(tasks=CHARFN_ONE_PANEL)
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == 1
    results = json.loads((out / "results.json").read_text())
    check = results["checks"][0]
    assert check["name"] == "charfn_max_rel_error"
    assert check["bound"] == 1e-2 and check["value"] > 1e-2
    assert results["tolerances"] == {"ode_tol": 1e-9}


@pytest.mark.parametrize("key", ["psd_tol", "charfn_tol", "jump_tol", "n1_tol",
                                 "transfer_tol", "probe_tol", "v_sup_bound"])
def test_check_bounds_are_not_config_keys(tmp_path, capsys, key):
    # no config can loosen a check: the one-panel charfn run above stays failing
    config = minimal_config(tasks=CHARFN_ONE_PANEL, tolerances={"ode_tol": 1e-9, key: 1.0})
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config.json:{line_of(path, key)}: unknown key '{key}'" in err


def test_evolve_rejects_points(tmp_path, capsys):
    config = minimal_config(tasks=[{"task": "evolve", "points": 7}])
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config.json:{line_of(path, 'points')}: unknown key 'points'" in err


def bad_pole(b_diag, interval):
    config = minimal_config()
    config["system"]["interval"] = interval
    config["system"]["xi"] = interval[0]
    config["gbdt"]["b_diag"] = [[b_diag, 0]]
    return config


def grid_config(x):
    config = minimal_config()
    config["system"]["hamiltonian"] = {
        "type": "beta-grid", "x": x, "beta": [[[[1, 0], [0, 1]]]] * len(x),
    }
    return config


def with_blocks(system=None, hamiltonian=None, gbdt=None, **overrides):
    """minimal_config with keys of its 'system', 'hamiltonian' and 'gbdt'
    blocks replaced (a value of None deletes the key), then ``overrides``
    (None deletes a top-level key)."""
    config = minimal_config()
    for block, changes in ((config["system"], system),
                           (config["system"]["hamiltonian"], hamiltonian),
                           (config["gbdt"], gbdt), (config, overrides)):
        for key, value in (changes or {}).items():
            if value is None:
                del block[key]
            else:
                block[key] = value
    return config


BETA_ROW = [[1, 0], [0, 1]]  # the 1 x 2 factor beta = [1, i]
EYE = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


def two_sample_grid(field, first, second):
    """The 'system' change to a two-node beta-grid or h-grid."""
    return {"hamiltonian": {"type": f"{field}-grid", "x": [0.0, 1.0],
                            field: [first, second]}}


BAD_VALUES = {
    "gbdt_xi_string": (
        minimal_config(gbdt={"n": 1, "b_diag": [[0, 1]], "g": [[1, 0]],
                             "h": [[0, 0]], "xi": "abc"}),
        ("gbdt", "xi"),
    ),
    "ode_tol_string": (minimal_config(tolerances={"ode_tol": "1e-9"}), ("ode_tol",)),
    "ode_tol_negative": (minimal_config(tolerances={"ode_tol": -1}), ("ode_tol",)),
    "ode_tol_zero": (minimal_config(tolerances={"ode_tol": 0}), ("ode_tol",)),
    "real_pole_right_of_interval": (bad_pole(0.2, [0.5, 1.5]), ("b_diag",)),
    "real_pole_inside_interval": (bad_pole(-0.5, [-1.0, 1.0]), ("b_diag",)),
    "rh_jump_x_string": (
        minimal_config(tasks=[{"task": "rh-jump", "s": [0.5], "x": "1"}]),
        ("tasks", "x"),
    ),
    "grid_x_not_increasing": (grid_config([0.0, 1.0, 0.5]), ("x",)),
    "grid_x_not_a_number": (grid_config([0.0, "0.5", 1.0]), ("x",)),
    "rh_jump_s_not_a_list": (
        minimal_config(tasks=[{"task": "rh-jump", "s": 0.5}]), ("tasks", "s"),
    ),
    "charfn_z_not_a_list": (
        minimal_config(tasks=[{"task": "charfn", "N": 8, "z": 2.0}]), ("tasks", "z"),
    ),
    # two Gauss nodes per panel
    "charfn_N_odd": (minimal_config(tasks=[{"task": "charfn", "N": 7}]), ("tasks", "N")),
    "output_not_a_string": (minimal_config(output=5), ("output",)),
    "beta_entry_not_a_pair": (
        with_blocks(hamiltonian={"beta": [[[1, 0, 0], [0, 1]]]}),
        ("system", "hamiltonian", "beta"),
    ),
    "beta_not_a_matrix": (with_blocks(hamiltonian={"beta": 5}),
                          ("system", "hamiltonian", "beta")),
    "beta_of_three_columns": (
        with_blocks(hamiltonian={"beta": [[[1, 0], [0, 0], [1, 0]]]}),
        ("system", "hamiltonian", "beta"),
    ),
    "J_of_the_wrong_shape": (with_blocks(system={"J": [[[1, 0]]]}), ("system", "J")),
    "g_not_a_list": (with_blocks(gbdt={"g": 5}), ("gbdt", "g")),
    "system_without_m": (with_blocks(system={"m": None}), ("system",)),
    "interval_reversed": (with_blocks(system={"interval": [1.0, 0.0]}),
                          ("system", "interval")),
    "hamiltonian_without_type": (with_blocks(hamiltonian={"type": None}),
                                 ("system", "hamiltonian")),
    "hamiltonian_type_unknown": (with_blocks(hamiltonian={"type": "spline"}),
                                 ("system", "hamiltonian", "type")),
    "beta_grid_samples_of_three_columns": (
        with_blocks(system=two_sample_grid("beta", [[[1, 0], [0, 0], [1, 0]]],
                                           [[[1, 0], [0, 0], [1, 0]]])),
        ("system", "hamiltonian", "beta"),
    ),
    "beta_grid_samples_of_two_shapes": (
        with_blocks(system=two_sample_grid("beta", [BETA_ROW], EYE)),
        ("system", "hamiltonian", "beta"),
    ),
    "h_grid_samples_of_two_shapes": (
        with_blocks(system=two_sample_grid("h", EYE, [[[1, 0], [0, 0]]])),
        ("system", "hamiltonian", "h"),
    ),
    "system_xi_outside_interval": (with_blocks(system={"xi": 2.0}), ("system", "xi")),
    "shorthand_with_explicit_B": (with_blocks(gbdt={"B": [[[0, 1]]]}), ("gbdt", "B")),
    "gbdt_without_S0": (
        with_blocks(gbdt={"b_diag": None, "g": None, "h": None, "B": [[[0, 1]]],
                          "Pi0": [[[1, 0], [0, 0]]]}),
        ("gbdt",),
    ),
    "config_without_tasks": (with_blocks(tasks=None), ("schema_version",)),
    "tolerances_not_an_object": (minimal_config(tolerances=5), ("tolerances",)),
    "tasks_not_a_list": (minimal_config(tasks="validate"), ("tasks",)),
}


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_bad_config_values_exit_2(tmp_path, capsys, case):
    config, keys = BAD_VALUES[case]
    path = write_config(tmp_path, config)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{line_of(path, *keys)}: ")
    assert f"'{keys[-1]}'" in err
    assert not (tmp_path / "out" / "results.json").exists()


@pytest.mark.parametrize("overrides", [{"schema_version": 2}, {"output": 5}],
                         ids=["bad_schema_version", "bad_output"])
@pytest.mark.parametrize("where", ["option", "config"])
def test_rejected_config_leaves_no_output_directory(tmp_path, overrides, where):
    out = tmp_path / "out"
    config = minimal_config(**overrides)
    args = ["--out", str(out)]
    if where == "config":
        config.setdefault("output", str(out))
        args = []
    assert main(["run", str(write_config(tmp_path, config)), *args]) == 2
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "0"])
def test_tol_option_must_be_finite_and_positive(tmp_path, capsys, tol):
    path = write_config(tmp_path, minimal_config(tasks=["evolve"]))
    assert main(["run", str(path), "--out", str(tmp_path / "out"), f"--tol={tol}"]) == 2
    assert "'--tol' must be a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    "[]",
    '{"checks": [{"task": "t", "value": 0.0, "bound": 1.0, "pass": true}]}',
    '{"checks": 3}',
], ids=["not_an_object", "check_without_name", "checks_not_a_list"])
def test_report_rejects_corrupt_results(tmp_path, capsys, content):
    path = tmp_path / "results.json"
    path.write_text(content, encoding="utf-8")
    assert main(["report", str(path)]) == 2
    assert "corrupt results file" in capsys.readouterr().err


def bundled_config(tasks=None):
    config = json.loads(scenario_path().read_text(encoding="utf-8"))
    if tasks is not None:
        config["tasks"] = tasks
    return config


def probe_sizes_in_bundled(sizes):
    config = bundled_config()
    config["tasks"][-1]["N"] = sizes
    return config


def without_gbdt(**overrides):
    config = minimal_config(**overrides)
    del config["gbdt"]
    return config


def bundled_with(block, **values):
    """The bundled config with some keys of one block changed."""
    config = bundled_config()
    config[block].update(values)
    return config


def signature(*signs):
    """The diagonal signature matrix diag(signs) as config entries."""
    return [[[sign if i == j else 0, 0] for j in range(len(signs))]
            for i, sign in enumerate(signs)]


# the gbdt shorthand builds Pi(xi) and S(xi) on the rank-one frame: the
# bundled config's evolve on other systems must be rejected at 'b_diag'
SHORTHAND_OFF_RANK_ONE = {
    "J_diag_1_minus_1": {"J": signature(1, -1)},
    "m_3": {"m": 3, "J": signature(1, 1, -1),
            "hamiltonian": {"type": "constant-beta", "beta": [[[1, 0], [0, 0], [1, 0]]]}},
}


@pytest.mark.parametrize("case", list(SHORTHAND_OFF_RANK_ONE))
def test_gbdt_shorthand_needs_the_rank_one_signature(tmp_path, capsys, case):
    config = bundled_with("system", **SHORTHAND_OFF_RANK_ONE[case])
    config["tasks"] = ["validate", "evolve"]
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{line_of(path, 'gbdt', 'b_diag')}: 'b_diag': ")
    assert "J = [[0, 1], [1, 0]]" in err
    assert not out.exists()


def test_bundled_run_interpolates_no_hamiltonian(tmp_path, monkeypatch):
    # constant data is one stored matrix: no H or beta evaluation of the
    # bundled run interpolates, and its outputs keep every byte
    reference = tmp_path / "reference"
    assert main(["run", str(scenario_path()), "--out", str(reference)]) == 0

    def no_interpolation(*args):
        raise AssertionError("interpolated")

    monkeypatch.setattr(system, "_interp_stack", no_interpolation)
    out = tmp_path / "out"
    assert main(["run", str(scenario_path()), "--out", str(out)]) == 0
    names = sorted(path.name for path in reference.iterdir())
    assert names == sorted(path.name for path in out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name


# beta = [1, i (1 + x/2)]: degenerate, but not the rank-one system
VARYING_BETA = {"type": "beta-grid", "x": [0.0, 0.5, 1.0],
                "beta": [[[[1, 0], [0, 1 + x / 2]]] for x in (0.0, 0.5, 1.0)]}


# config, and the keys leading to the offending one: the task's name, then
# the option, if the option is at fault
BAD_TASKS = {
    "charfn_N_negative_after_evolve": (
        bundled_config(["validate", "evolve", {"task": "charfn", "N": -1}]),
        ("charfn", "N"),
    ),
    "charfn_z_empty": (minimal_config(tasks=[{"task": "charfn", "z": []}]),
                       ("charfn", "z")),
    "rh_jump_s_empty": (minimal_config(tasks=[{"task": "rh-jump", "s": []}]),
                        ("rh-jump", "s")),
    "probe_N_empty": (minimal_config(tasks=[{"task": "probe", "N": []}]),
                      ("probe", "N")),
    "probe_N_zero_after_charfn_N": (probe_sizes_in_bundled([0]), ("probe", "N")),
    "probe_N_bare_int": (probe_sizes_in_bundled(64), ("probe", "N")),
    "probe_band": (minimal_config(tasks=[{"task": "probe", "band": 1.0}]),
                   ("probe", "band")),
    "charfn_compare": (minimal_config(tasks=[{"task": "charfn", "compare": "no"}]),
                       ("charfn", "compare")),
    "evolve_without_gbdt_after_rh_jump": (
        without_gbdt(tasks=["validate", {"task": "rh-jump", "s": [0.5]}, "evolve"]),
        ("rh-jump", "evolve"),
    ),
    "unknown_task_after_validate": (minimal_config(tasks=["validate", "evolv"]),
                                    ("validate", "evolv")),
    # the closed forms of example-n1 hold on the rank-one system alone
    "example_n1_on_a_varying_beta": (
        bundled_with("system", hamiltonian=VARYING_BETA), ("charfn", "example-n1"),
    ),
    "example_n1_with_gbdt_xi_off_0": (
        bundled_with("gbdt", xi=0.5), ("charfn", "example-n1"),
    ),
    "example_n1_on_an_interval_off_0": (
        bundled_with("system", interval=[0.25, 1.0], xi=0.25), ("charfn", "example-n1"),
    ),
}


@pytest.mark.parametrize("case", list(BAD_TASKS))
def test_bad_task_entries_exit_2_before_anything_is_written(tmp_path, capsys, case):
    config, keys = BAD_TASKS[case]
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{line_of(path, 'tasks', *keys)}: ")
    assert f"'{keys[-1]}'" in err
    assert not out.exists()


# config with a task entry that is neither a name nor an object with a
# 'task' name, and the text of the line that opens that entry
MALFORMED_TASK_ENTRIES = {
    "first_entry_a_number": (minimal_config(tasks=[5]), "5"),
    "number_after_validate": (bundled_config(["validate", 5]), "5"),
    "object_without_task_after_validate": (bundled_config(["validate", {"N": 3}]), "{"),
}


@pytest.mark.parametrize("case", list(MALFORMED_TASK_ENTRIES))
def test_malformed_task_entry_is_anchored_at_itself(tmp_path, capsys, case):
    config, opening = MALFORMED_TASK_ENTRIES[case]
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    lines = path.read_text(encoding="utf-8").splitlines()
    entry = next(i for i in range(line_of(path, "tasks") + 1, len(lines) + 1)
                 if lines[i - 1].strip() == opening)
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{entry}: ")
    assert "'tasks'" in err
    assert not out.exists()


def test_example_n1_checks_fail_on_a_perturbed_trajectory(tmp_path, monkeypatch):
    # Pi and S off by one part in a million: every closed-form comparison of
    # example-n1 must report it against its fixed bound
    state_at = GbdtTrajectory.state_at

    def perturbed(self, x):
        pi, s, k = state_at(self, x)
        return pi * (1 + 1e-6), s * (1 + 1e-6), k

    monkeypatch.setattr(GbdtTrajectory, "state_at", perturbed)
    path = write_config(tmp_path, bundled_config(["example-n1"]))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    checks = json.loads((out / "results.json").read_text())["checks"]
    assert sorted(c["name"] for c in checks) == sorted(N1_BOUNDS)
    for c in checks:
        assert c["bound"] == N1_BOUNDS[c["name"]]
        assert c["value"] > c["bound"] and c["pass"] is False


def test_transform_checks_fail_on_a_non_degenerate_dressed_factor(tmp_path, monkeypatch):
    # beta~ = [1, 1] has beta~ J beta~* = 2: the degeneracy test must see it
    def non_degenerate(traj):
        return HamiltonianSpec.from_beta_grid(
            traj.grid, np.ones((traj.grid.size, 1, 2), dtype=complex))

    monkeypatch.setattr(cli, "transformed_hamiltonian", non_degenerate)
    path = write_config(tmp_path, bundled_config(["transform"]))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads((out / "results.json").read_text())["checks"]}
    assert checks["transformed_degeneracy"]["value"] == 2.0
    assert checks["transformed_kernel_bound_finite"]["value"] == 1.0
    for name in ("transformed_degeneracy", "transformed_kernel_bound_finite"):
        assert checks[name]["pass"] is False


def test_bundled_run_forms_no_kernel_supremum(tmp_path, monkeypatch):
    def no_supremum(spec, J):
        raise AssertionError("kernel_bound called")

    for module in (cansys, system, cli):
        monkeypatch.setattr(module, "kernel_bound", no_supremum, raising=False)
    out = tmp_path / "out"
    assert main(["run", str(scenario_path()), "--out", str(out)]) == 0
    checks = json.loads((out / "results.json").read_text())["checks"]
    names = {c["name"] for c in checks if c["task"] == "transform"}
    assert {"transformed_degeneracy", "transformed_kernel_bound_finite"} <= names


def test_out_naming_a_plain_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("kept\n", encoding="utf-8")
    path = write_config(tmp_path, minimal_config())
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert f"{out}: cannot make the output directory" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "kept\n"


def gbdt_first(h):
    """minimal_config with the 'gbdt' block, whose shorthand has an 'h', written
    before 'system', whose Hamiltonian is the h-grid ``h`` on x = [0, 1]."""
    config = minimal_config()
    system = config.pop("system")
    system["hamiltonian"] = {"type": "h-grid", "x": [0.0, 1.0], "h": h}
    config = {"gbdt": config.pop("gbdt"), **config, "system": system}
    return config


@pytest.mark.parametrize("h", [[EYE], [EYE, [[[1, 0], [0, 0]], [[0, 0]]]]],
                         ids=["one_sample_for_two_x", "ragged_sample_rows"])
def test_system_diagnostic_is_anchored_inside_the_system_block(tmp_path, capsys, h):
    # the gbdt block's "h" comes first in the file; the diagnostic must name
    # the line of the h-grid's own "h"
    path = write_config(tmp_path, gbdt_first(h))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert line_of(path, "h") < line_of(path, "system", "hamiltonian", "h")
    assert err.startswith(f"{path}:{line_of(path, 'system', 'hamiltonian', 'h')}: ")
    assert "'h'" in err


def per_cell_table(key_names, keys, mats):
    """The table as one repr(float(.)) per cell, the formatting cli._table
    must reproduce byte for byte."""
    mats = np.asarray(mats)
    keys = np.reshape(keys, (len(mats), len(key_names)))
    rows = []
    for key, mat in zip(keys, mats):
        cells = [repr(float(k)) for k in key]
        for value in mat.ravel():
            cells += [repr(float(value.real)), repr(float(value.imag))]
        rows.append(cells)
    return rows


SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 3.0, -7.0, 1e16, 0.1,
           1.0 / 3.0, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_table_cells_match_per_cell_repr(real):
    rng = np.random.default_rng(5)
    values = np.array(SPECIAL)
    mats = rng.choice(values, size=(40, 2, 3))
    if not real:  # set the parts directly: 1j * inf would put a nan in re
        mats = mats.astype(complex)
        mats.imag = rng.choice(values, size=mats.shape)
    keys = [(float(a), float(b)) for a, b in rng.choice(values, size=(40, 2))]
    header, rows = cli._table(["re_z", "im_z"], keys, mats)
    assert rows == per_cell_table(["re_z", "im_z"], keys, mats)
    assert header[:4] == ["re_z", "im_z", "re_00", "im_00"] and len(header) == 14
    int_keys = np.arange(40)  # integer keys print as floats
    assert cli._table(["x"], int_keys, mats)[1] == per_cell_table(["x"], int_keys, mats)
    assert cli._matrix_cells(mats[3]) == per_cell_table(["x"], [0.0], mats[3:4])[0][1:]
