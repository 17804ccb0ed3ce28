"""Batch front-end: JSON scenario configs in, reports and CSV grids out.

``cansys run config.json [--out DIR] [--tol T]`` executes the config's
task list and writes ``results.json`` (one value/bound/pass record per
check) plus per-task CSV files; the exit code is 0 iff every check
passed, 1 on a failing check or a numerical failure, 2 on a malformed
config.  ``cansys report results.json`` renders the table.

Config schema (complex scalars are [re, im] pairs everywhere)::

    {
      "schema_version": 1,
      "output": "out",                      # optional, --out overrides
      "tolerances": {"ode_tol": 1e-9, ...}, # optional knobs
      "system": {
        "m": 2,
        "J": [[[0,0],[1,0]], [[1,0],[0,0]]],
        "interval": [0.0, 1.0],
        "xi": 0.0,
        "hamiltonian": {"type": "constant-beta", "beta": [[[1,0],[0,1]]]}
                       # | {"type": "beta-grid", "x": [...], "beta": [...]}
                       # | {"type": "h-grid",    "x": [...], "h": [...]}
      },
      "gbdt": {"n": 1, "b_diag": [[0,1]], "g": [[1,0]], "h": [[0,0]]}
              # -- or explicit "B", "S0", "Pi0" matrices --
      "tasks": ["validate", "evolve", {"task": "charfn", "N": 256, ...}]
    }

Unknown keys are rejected with a line-anchored diagnostic; all matrix
blocks are dimension-checked before any computation starts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import rank_one
from .gbdt import (
    GbdtParams,
    evolve,
    transfer,
    transformed_fundamental,
    transformed_hamiltonian,
    validate_params,
)
from .linalg import SingularMatrixError, _adj, fro, hermitian_part
from .system import (
    CanonicalSystem,
    HamiltonianSpec,
    SpectralPointError,
    _signature_defect,
    boundary_values,
    kernel_bound,
    validate_system,
)
from .triangular import (
    TriangularModel,
    char_fn,
    char_fn_via_fundamental,
    discretize,
    similarity_probe,
)

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {
    "ode_tol": 1e-9,
    "psd_tol": 1e-10,
    "charfn_tol": 1e-2,
    "jump_tol": 1e-3,
    "n1_tol": 1e-8,
    "transfer_tol": 1e-9,
    "probe_tol": 5e-2,
    "v_sup_bound": 1e3,
}

_TASK_KEYS = {
    "validate": set(),
    "evolve": {"points"},
    "transform": set(),
    "charfn": {"z", "N", "compare"},
    "rh-jump": {"s", "x"},
    "example-n1": {"z"},
    "probe": {"N", "band"},
}


class ConfigError(Exception):
    """Config rejected; ``key`` anchors the diagnostic to a config line."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class NumericalFailure(Exception):
    def __init__(self, task, message):
        super().__init__(f"task '{task}': {message}")
        self.task = task


# -- config parsing ---------------------------------------------------------


def _check_keys(block, allowed, where):
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}", key=key)


def _complex_from(value, key):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(p, (int, float)) for p in value)
    ):
        raise ConfigError(f"'{key}' entries must be [re, im] pairs", key=key)
    return complex(value[0], value[1])


def _cmatrix_from(value, key, shape=None):
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ConfigError(f"'{key}' must be a matrix of [re, im] pairs", key=key)
    rows = [[_complex_from(e, key) for e in row] for row in value]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"'{key}' has ragged rows", key=key)
    m = np.array(rows, dtype=complex)
    if shape is not None and m.shape != shape:
        raise ConfigError(f"'{key}' must have shape {shape}, got {m.shape}", key=key)
    return m


def _cvector_from(value, key, length=None):
    if not isinstance(value, list):
        raise ConfigError(f"'{key}' must be a list of [re, im] pairs", key=key)
    v = np.array([_complex_from(e, key) for e in value], dtype=complex)
    if length is not None and v.size != length:
        raise ConfigError(f"'{key}' must have length {length}", key=key)
    return v


def _build_system(block):
    _check_keys(block, {"m", "J", "interval", "xi", "hamiltonian"}, "'system'")
    for required in ("m", "J", "interval", "hamiltonian"):
        if required not in block:
            raise ConfigError(f"'system' is missing '{required}'", key="system")
    m = block["m"]
    if not isinstance(m, int) or m < 1:
        raise ConfigError("'m' must be a positive integer", key="m")
    jmat = _cmatrix_from(block["J"], "J", shape=(m, m))
    j_defect = _signature_defect(jmat)
    if j_defect > 1e-12:
        raise ConfigError(
            f"'J' is not a signature matrix (J = J* = J^-1 defect {j_defect:.2e})",
            key="J",
        )
    interval = block["interval"]
    if (
        not isinstance(interval, list)
        or len(interval) != 2
        or not all(isinstance(e, (int, float)) for e in interval)
        or not interval[0] < interval[1]
    ):
        raise ConfigError("'interval' must be [a, b] with a < b", key="interval")
    ham = block["hamiltonian"]
    if not isinstance(ham, dict) or "type" not in ham:
        raise ConfigError("'hamiltonian' must carry a 'type'", key="hamiltonian")
    kind = ham["type"]
    if kind == "constant-beta":
        _check_keys(ham, {"type", "beta"}, "'hamiltonian'")
        beta = _cmatrix_from(ham.get("beta"), "beta")
        if beta.shape[1] != m:
            raise ConfigError(f"'beta' must have {m} columns", key="beta")
        spec = HamiltonianSpec.from_constant_beta(beta, tuple(interval))
    elif kind in ("beta-grid", "h-grid"):
        field = "beta" if kind == "beta-grid" else "h"
        _check_keys(ham, {"type", "x", field}, "'hamiltonian'")
        x = ham.get("x")
        if not isinstance(x, list) or len(x) < 2:
            raise ConfigError("'x' must list at least two sample points", key="x")
        samples = ham.get(field)
        if not isinstance(samples, list) or len(samples) != len(x):
            raise ConfigError(f"'{field}' must match the length of 'x'", key=field)
        stack = np.stack([_cmatrix_from(s, field) for s in samples])
        if stack.shape[2] != m or (kind == "h-grid" and stack.shape[1] != m):
            raise ConfigError(f"'{field}' samples must be compatible with m={m}",
                              key=field)
        if kind == "beta-grid":
            spec = HamiltonianSpec.from_beta_grid(np.array(x, dtype=float), stack)
        else:
            spec = HamiltonianSpec.from_grid(np.array(x, dtype=float), stack)
    else:
        raise ConfigError(f"unknown hamiltonian type '{kind}'", key="type")
    xi = block.get("xi", interval[0])
    if not isinstance(xi, (int, float)) or not interval[0] <= xi <= interval[1]:
        raise ConfigError("'xi' must lie inside the interval", key="xi")
    try:
        return CanonicalSystem(J=jmat, interval=tuple(interval),
                               hamiltonian=spec, xi=float(xi))
    except ValueError as exc:
        raise ConfigError(str(exc), key="system") from exc


def _build_gbdt(block, sys):
    _check_keys(block, {"n", "B", "S0", "Pi0", "b_diag", "g", "h", "xi"}, "'gbdt'")
    n = block.get("n")
    if not isinstance(n, int) or n < 1:
        raise ConfigError("'n' must be a positive integer", key="n")
    xi = float(block.get("xi", sys.xi))
    shorthand = "b_diag" in block
    if shorthand:
        for forbidden in ("B", "S0", "Pi0"):
            if forbidden in block:
                raise ConfigError(
                    "give either the b_diag/g/h shorthand or explicit B/S0/Pi0",
                    key=forbidden,
                )
        b_diag = _cvector_from(block.get("b_diag"), "b_diag", length=n)
        g = _cvector_from(block.get("g"), "g", length=n)
        h = _cvector_from(block.get("h"), "h", length=n)
        diag = rank_one.DiagonalParams(b_diag=b_diag, g=g, h=h)
        diag.validate_poles(b=sys.interval[1])
        return diag.to_gbdt_params(xi=xi), diag
    for required in ("B", "S0", "Pi0"):
        if required not in block:
            raise ConfigError(f"'gbdt' is missing '{required}'", key="gbdt")
    params = GbdtParams(
        B=_cmatrix_from(block["B"], "B", shape=(n, n)),
        S0=_cmatrix_from(block["S0"], "S0", shape=(n, n)),
        Pi0=_cmatrix_from(block["Pi0"], "Pi0", shape=(n, sys.m)),
        xi=xi,
    )
    return params, None


def _normalise_tasks(raw):
    if not isinstance(raw, list):
        raise ConfigError("'tasks' must be a list", key="tasks")
    tasks = []
    for entry in raw:
        if isinstance(entry, str):
            entry = {"task": entry}
        if not isinstance(entry, dict) or "task" not in entry:
            raise ConfigError("each task must be a name or a {'task': ...} object",
                              key="tasks")
        name = entry["task"]
        if name not in _TASK_KEYS:
            raise ConfigError(f"unknown task '{name}'", key="tasks")
        _check_keys({k: v for k, v in entry.items() if k != "task"},
                    _TASK_KEYS[name], f"task '{name}'")
        tasks.append(entry)
    return tasks


# -- output helpers ---------------------------------------------------------


def _entry_columns(rows, cols):
    names = []
    for i in range(rows):
        for j in range(cols):
            names += [f"re_{i}{j}", f"im_{i}{j}"]
    return names


def _matrix_cells(mat):
    cells = []
    for value in np.asarray(mat).ravel():
        cells += [repr(float(value.real)), repr(float(value.imag))]
    return cells


def _table(key_names, keys, mats):
    """CSV header and rows: the key columns, then re/im of every entry of
    the row's matrix (``keys`` holds one value or one tuple per row)."""
    mats = np.asarray(mats)
    keys = np.reshape(keys, (len(mats), len(key_names)))
    header = list(key_names) + _entry_columns(*mats.shape[1:])
    rows = [
        [repr(float(k)) for k in key] + _matrix_cells(mat)
        for key, mat in zip(keys, mats)
    ]
    return header, rows


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_solution_csv(solution, path):
    """Write a fundamental-solution grid: columns x, then re/im per entry."""
    _write_csv(Path(path), *_table(["x"], solution.grid, solution.values))


# -- task runner ------------------------------------------------------------


class _Runner:
    def __init__(self, config, out_dir, tol_override):
        _check_keys(
            config,
            {"schema_version", "system", "gbdt", "tasks", "tolerances", "output"},
            "the top level",
        )
        if config.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {SCHEMA_VERSION}", key="schema_version"
            )
        if "system" not in config or "tasks" not in config:
            raise ConfigError("config needs 'system' and 'tasks'", key="schema_version")
        self.tol = dict(DEFAULT_TOLERANCES)
        tol_block = config.get("tolerances", {})
        _check_keys(tol_block, set(DEFAULT_TOLERANCES), "'tolerances'")
        self.tol.update(tol_block)
        if tol_override is not None:
            self.tol["ode_tol"] = tol_override
        self.system = _build_system(config["system"])
        self.params = None
        self.diag = None
        if "gbdt" in config:
            self.params, self.diag = _build_gbdt(config["gbdt"], self.system)
        self.tasks = _normalise_tasks(config["tasks"])
        self.out = Path(out_dir)
        self.checks = []
        self.artifacts = []
        self._traj = None

    # one uniform record shape: pass iff value <= bound
    def check(self, task, name, value, bound):
        value = float(value)
        bound = float(bound)
        self.checks.append(
            {
                "task": task,
                "name": name,
                "value": value,
                "bound": bound,
                "pass": bool(value <= bound),
            }
        )

    def trajectory(self):
        if self._traj is None:
            if self.params is None:
                raise ConfigError("this task needs a 'gbdt' block", key="tasks")
            a, b = self.system.interval
            try:
                self._traj = evolve(
                    self.params,
                    self.system,
                    grid=np.linspace(a, b, 201),
                    tol=self.tol["ode_tol"],
                )
            except SingularMatrixError as exc:
                raise NumericalFailure("evolve", str(exc)) from exc
        return self._traj

    def emit(self, name, header, rows):
        path = self.out / name
        _write_csv(path, header, rows)
        self.artifacts.append(name)

    # -- tasks ------------------------------------------------------------

    def run_validate(self, options):
        report = validate_system(self.system, psd_tol=self.tol["psd_tol"])
        self.check("validate", "system_violations", len(report.violations), 0)
        if self.params is not None:
            preport = validate_params(self.params, self.system)
            self.check("validate", "params_violations", len(preport.violations), 0)
            self.check(
                "validate", "params_identity_residual",
                preport.identity_residual, 1e-10,
            )

    def run_evolve(self, options):
        traj = self.trajectory()
        tol = self.tol["ode_tol"]
        self.check("evolve", "identity_residual", traj.identity_residual, 10 * tol)
        s0_pd = float(np.linalg.eigvalsh(hermitian_part(self.params.S0))[0]) > 0
        if s0_pd:
            from .gbdt import positivity_report

            rep = positivity_report(traj)
            self.check("evolve", "s_negativity", max(0.0, -rep.min_eig_s), 0.0)
            self.check("evolve", "q_monotonicity_defect", rep.q_step_defect, 10 * tol)
            self.check("evolve", "inverse_bound_defect",
                       rep.inverse_bound_defect, 10 * tol)
        for name, stack in (("pi", traj.pi), ("s", traj.s),
                            ("k", traj.k), ("q", traj.q)):
            self.emit(f"evolve_{name}.csv", *_table(["x"], traj.grid, stack))

    def run_transform(self, options):
        traj = self.trajectory()
        # dressed H on the trajectory grid, from the samples it stores
        dressed = transformed_hamiltonian(traj)
        h = dressed.h if dressed.beta is None else _adj(dressed.beta) @ dressed.beta
        psd_defect = max(
            0.0,
            float(np.max(np.linalg.norm(h - _adj(h), axis=(1, 2)))),
            -float(np.min(np.linalg.eigvalsh(hermitian_part(h))[:, 0])),
        )
        self.check("transform", "transformed_psd_defect", psd_defect,
                   self.tol["psd_tol"] * 100)
        self.emit("transformed_hamiltonian.csv", *_table(["x"], traj.grid, h))
        if dressed.is_factored:
            base = kernel_bound(self.system.hamiltonian, self.system.J)
            out = kernel_bound(dressed, self.system.J)
            if base.degeneracy_defect <= 1e-9:
                self.check("transform", "transformed_degeneracy",
                           out.degeneracy_defect, 1e-9)
            if base.finite:
                self.check("transform", "transformed_kernel_bound_finite",
                           0.0 if out.finite else 1.0, 0.0)
            self.emit("transformed_beta.csv", *_table(["x"], traj.grid, dressed.beta))

    def run_charfn(self, options):
        if not self.system.hamiltonian.is_factored:
            raise ConfigError("charfn needs a factored Hamiltonian", key="tasks")
        num = options.get("N", 512)
        if not isinstance(num, int) or num < 1:
            raise ConfigError("charfn 'N' must be a positive integer", key="N")
        a, b = self.system.interval
        z_list = [
            _complex_from(z, "z") for z in options.get(
                "z", [[0.0, 2.0 * (b - a)], [b + a, 1.0 * (b - a)], [a - b, b - a]]
            )
        ]
        model = TriangularModel.from_hamiltonian(
            self.system.hamiltonian, self.system.interval, self.system.J
        )
        op = discretize(model, num)
        worst = 0.0
        values = []
        for z in z_list:
            values.append(char_fn(op, z).value)
            if options.get("compare", True):
                ref = char_fn_via_fundamental(model, z, tol=self.tol["ode_tol"])
                worst = max(worst, fro(values[-1] - ref.value) / fro(ref.value))
        self.emit("charfn.csv", *_table(["re_z", "im_z"],
                                        [(z.real, z.imag) for z in z_list], values))
        if options.get("compare", True):
            self.check("charfn", "charfn_max_rel_error", worst,
                       self.tol["charfn_tol"])

    def _constant_degenerate_reference(self):
        spec = self.system.hamiltonian
        if not spec.is_factored or spec.beta is None:
            return None
        if np.max(np.abs(spec.beta - spec.beta[0])) > 1e-12:
            return None
        beta = spec.beta[0]
        if fro(beta @ self.system.J @ beta.conj().T) > 1e-12:
            return None
        return np.eye(self.system.m) + 2.0 * np.pi * self.system.J \
            @ beta.conj().T @ beta

    def run_rh_jump(self, options):
        a, b = self.system.interval
        x = float(options.get("x", b))
        fractions = (0.2, 0.35, 0.5, 0.65, 0.8)
        s_list = [float(s) for s in options.get(
            "s", [a + f * (x - a) for f in fractions]
        )]
        reference = self._constant_degenerate_reference()
        rows = []
        worst_jump, v_sup = 0.0, 0.0
        for s in s_list:
            try:
                rep = boundary_values(
                    self.system, x, s, tol=min(self.tol["ode_tol"], 1e-10)
                )
            except (SpectralPointError, ValueError) as exc:
                raise NumericalFailure("rh-jump", f"s = {s}: {exc}") from exc
            if rep.divergent:
                raise NumericalFailure(
                    "rh-jump", f"cut limits divergent at s = {s}"
                )
            v_sup = max(v_sup, fro(rep.v))
            cells = [repr(s)] + _matrix_cells(rep.jump) + [repr(fro(rep.v))]
            if reference is not None:
                err = fro(rep.jump - reference)
                worst_jump = max(worst_jump, err)
                cells.append(repr(err))
            rows.append(cells)
        header = ["s"] + _entry_columns(self.system.m, self.system.m) + ["norm_v"]
        if reference is not None:
            header.append("jump_error")
        self.emit("rh_jump.csv", header, rows)
        self.check("rh-jump", "v_sup", v_sup, self.tol["v_sup_bound"])
        if reference is not None:
            self.check("rh-jump", "jump_max_error", worst_jump, self.tol["jump_tol"])

    def run_example_n1(self, options):
        if self.diag is None or self.diag.n != 1:
            raise ConfigError(
                "example-n1 needs the order-one b_diag/g/h shorthand", key="tasks"
            )
        a, b = self.system.interval
        # closed-form comparisons at 1e-9 need a tighter trajectory than
        # the shared one
        try:
            traj = evolve(
                self.params, self.system, grid=np.linspace(a, b, 201),
                tol=min(self.tol["ode_tol"], 1e-12),
            )
        except SingularMatrixError as exc:
            raise NumericalFailure("example-n1", str(exc)) from exc
        B = complex(self.diag.b_diag[0])
        g = complex(self.diag.g[0])
        h = complex(self.diag.h[0])
        xs = np.linspace(a + 0.1 * (b - a), b, 7)
        zs = [a + 2j * (b - a), b + 1.5j * (b - a), a - 0.7 * (b - a) + 0.5j]
        te = transfer(traj, xs[:, None], zs)
        s = traj.s_at(xs)
        beta = self.system.hamiltonian.beta_at(xs) @ te.w0[:, 0]
        s_err = beta_err = wa_err = v_err = wt_err = 0.0
        # the closed forms are scalar, one (x, z) at a time
        for i, x in enumerate(xs):
            forms = rank_one.order_one_closed_forms(B, g, h, x, zs[0], b=b)
            s_err = max(s_err, abs(s[i, 0, 0] - forms.s))
            beta_err = max(beta_err, fro(beta[i] - forms.beta_t))
            for j, z in enumerate(zs):
                forms_z = rank_one.order_one_closed_forms(B, g, h, x, z, b=b)
                wa_err = max(wa_err, fro(te.w_a[i, j] - forms_z.w_a))
                v_err = max(v_err, fro(te.v[i, j] - forms_z.v))
        sweep_z = [
            _complex_from(z, "z") for z in options.get(
                "z",
                [[a + f * (b - a), 1.5 * (b - a)] for f in
                 (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5)],
            )
        ]
        # one RK45 solve per z: the base solution W(b, z) has no shared route
        sweep = []
        for z in sweep_z:
            sweep.append(transformed_fundamental(
                traj, z, grid=np.array([b]), tol=min(self.tol["ode_tol"], 1e-10)
            ).values[0])
            explicit = rank_one.transformed_fundamental_matrix(self.diag, b, z, b=b)
            wt_err = max(wt_err, fro(sweep[-1] - explicit))
        self.emit("transformed_sweep.csv", *_table(
            ["re_z", "im_z"], [(z.real, z.imag) for z in sweep_z], sweep))
        grid_solution = transformed_fundamental(
            traj, zs[0], grid=np.linspace(a, b, 51),
            tol=min(self.tol["ode_tol"], 1e-10),
        )
        write_solution_csv(grid_solution, self.out / "transformed_solution.csv")
        self.artifacts.append("transformed_solution.csv")
        n1 = self.tol["n1_tol"]
        self.check("example-n1", "n1_s_residual", s_err, n1)
        self.check("example-n1", "n1_beta_residual", beta_err, n1)
        self.check("example-n1", "n1_wa_residual", wa_err, self.tol["transfer_tol"])
        self.check("example-n1", "n1_v_residual", v_err, self.tol["transfer_tol"])
        self.check("example-n1", "n1_wtilde_residual", wt_err, n1)

    def run_probe(self, options):
        sizes = options.get("N", [64, 128])
        if isinstance(sizes, int):
            sizes = [sizes]
        if not all(isinstance(n, int) and n > 0 for n in sizes):
            raise ConfigError("probe 'N' must be positive integers", key="N")
        band = float(options.get("band", 1e-2))
        m = self.system.m
        model = TriangularModel.from_constant_beta(
            np.eye(m), self.system.interval, np.eye(m)
        )
        imags = []
        for num in sizes:
            rep = similarity_probe(model, int(num), band=band)
            imags.append(rep.max_imag)
            self.check("probe", f"probe_max_imag_N{num}", rep.max_imag,
                       self.tol["probe_tol"])
            self.check("probe", f"probe_outside_fraction_N{num}",
                       1.0 - rep.inside_fraction, 0.01)
        if len(imags) > 1:
            self.check("probe", "probe_imag_increase",
                       max(np.diff(imags)), 0.0)

    def run(self):
        dispatch = {
            "validate": self.run_validate,
            "evolve": self.run_evolve,
            "transform": self.run_transform,
            "charfn": self.run_charfn,
            "rh-jump": self.run_rh_jump,
            "example-n1": self.run_example_n1,
            "probe": self.run_probe,
        }
        for entry in self.tasks:
            options = {k: v for k, v in entry.items() if k != "task"}
            try:
                dispatch[entry["task"]](options)
            except (ConfigError, NumericalFailure):
                raise
            except (SingularMatrixError, SpectralPointError, ValueError) as exc:
                raise NumericalFailure(entry["task"], str(exc)) from exc


def _locate_key(text, key):
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return None


def run(config_path, out_dir=None, tol=None):
    """Execute a scenario config; returns the process exit code."""
    path = Path(config_path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"{path}: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print(f"{path}:1: config must be a JSON object", file=sys.stderr)
        return 2

    out = Path(out_dir) if out_dir else Path(config.get("output", "out"))
    out.mkdir(parents=True, exist_ok=True)
    try:
        runner = _Runner(config, out, tol)
    except ConfigError as exc:
        lineno = _locate_key(text, exc.key) if exc.key else None
        anchor = f"{path}:{lineno}" if lineno else str(path)
        print(f"{anchor}: {exc}", file=sys.stderr)
        return 2

    failure = None
    try:
        runner.run()
    except ConfigError as exc:
        lineno = _locate_key(text, exc.key) if exc.key else None
        anchor = f"{path}:{lineno}" if lineno else str(path)
        print(f"{anchor}: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, SingularMatrixError) as exc:
        failure = str(exc)
        print(f"numerical failure: {failure}", file=sys.stderr)

    all_pass = failure is None and all(c["pass"] for c in runner.checks)
    results = {
        "schema_version": SCHEMA_VERSION,
        "scenario": path.name,
        "tolerances": {k: float(v) for k, v in runner.tol.items()},
        "checks": runner.checks,
        "artifacts": sorted(runner.artifacts),
        "failure": failure,
        "all_pass": bool(all_pass),
    }
    (out / "results.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if failure is not None:
        return 1
    return 0 if all_pass else 1


def report_summary(results_path):
    """Render results.json as a table; exit 1 iff anything failed."""
    path = Path(results_path)
    try:
        results = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"{path}: cannot read results: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"{path}:{exc.lineno}: corrupt results file: {exc.msg}", file=sys.stderr)
        return 2
    checks = results.get("checks", [])
    width = max([len(c["name"]) for c in checks], default=10)
    print(f"{'task':<12} {'check':<{width}} {'value':>13} {'bound':>13} status")
    for c in checks:
        status = "pass" if c["pass"] else "FAIL"
        print(
            f"{c['task']:<12} {c['name']:<{width}} "
            f"{c['value']:>13.4e} {c['bound']:>13.4e} {status}"
        )
    failure = results.get("failure")
    if failure:
        print(f"numerical failure: {failure}")
    ok = failure is None and all(c["pass"] for c in checks)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cansys",
        description="canonical-system dressing scenarios: run configs, report results",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a scenario config")
    run_parser.add_argument("config", help="path to the scenario JSON")
    run_parser.add_argument("--out", default=None, help="output directory")
    run_parser.add_argument("--tol", type=float, default=None,
                            help="override ode_tol")
    report_parser = sub.add_parser("report", help="print a results.json table")
    report_parser.add_argument("results", help="path to results.json")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out_dir=args.out, tol=args.tol)
    return report_summary(args.results)


if __name__ == "__main__":
    sys.exit(main())
