"""Batch front-end: JSON scenario configs in, reports and CSV grids out.

``cansys run config.json [--out DIR] [--tol T]`` executes the config's
task list and writes ``results.json`` (one value/bound/pass record per
check) plus per-task CSV files; the exit code is 0 iff every check
passed, 1 on a failing check or a numerical failure, 2 on a malformed
config or an output directory that cannot be made.  ``cansys report
results.json`` renders the table.

Config schema (complex scalars are [re, im] pairs everywhere)::

    {
      "schema_version": 1,
      "output": "out",                      # optional, --out overrides
      "tolerances": {"ode_tol": 1e-9},      # optional; --tol overrides
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

The task table ``_TASKS`` names the tasks; per task it gives the
``_Runner`` method that runs it, each option's parser and default, and
what the config must hold for it.  The whole config, every task entry
included, is checked before the output directory is made, so a rejected
config writes nothing; each diagnostic is anchored at the config line
of the offending key, a task entry at its own line and a task option
inside its own task entry.  The one
tolerance a config sets is ``ode_tol`` (default ``gbdt.ODE_TOL``), the
accuracy every solve of the run aims for, the trajectory's included;
every check has a fixed bound, tabled at the bound constants below.

The ``transform`` task writes the samples of ``gbdt.transformed_system``:
the dense-output dressing on the trajectory grid plus the kinks of the
base data.  Its
``transformed_kernel_bound_finite`` check is the degeneracy test that
:func:`~cansys.system.kernel_bound` applies before it returns +inf
(``system._degeneracy``): identical to ``kernel_bound(...).finite`` on
finite samples barring overflow, without the O(N^2) pair supremum.
``example-n1`` needs the system of ``rank_one.make_system(b)`` and a
'gbdt' block with xi = 0, of any order and either form: it compares the
engine with ``rank_one.dressed_forms``, which holds on that system for
any pole matrix B that shares no eigenvalue with B*.  The 'gbdt' block's
``b_diag``/``g``/``h`` shorthand builds Pi(xi) and S(xi) by the closed
forms of ``rank_one.DiagonalParams``, on the frame ``rank_one.T`` of the
signature ``rank_one.J``, so it needs m = 2 and that J; any other system
gives explicit ``B``, ``S0`` and ``Pi0``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import rank_one
from .gbdt import (
    ODE_TOL,
    GbdtParams,
    evolve,
    positivity_report,
    transfer,
    transformed_fundamental,
    transformed_system,
    validate_params,
)
from .linalg import PSD_TOL, SingularMatrixError, _adj, fro, hermitian_part, psd_defect
from .system import (
    DEGENERACY_TOL,
    CanonicalSystem,
    HamiltonianSpec,
    SpectralPointError,
    _degeneracy,
    _signature_defect,
    boundary_values,
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

#: Fixed check bounds, which no config moves.  Besides these six, the evolve
#: residuals take 10 ode_tol, params_identity_residual 1e-10,
#: transformed_psd_defect 100 PSD_TOL (relative to max(1, |H~|_F), as
#: linalg.psd_bound), transformed_degeneracy DEGENERACY_TOL
#: and probe_outside_fraction_N* 1e-2; every other check must read 0.
CHARFN_TOL = 1e-2  # charfn_max_rel_error
JUMP_TOL = 1e-3  # jump_max_error
N1_TOL = 1e-8  # n1_s_residual, n1_beta_residual, n1_wtilde_residual
TRANSFER_TOL = 1e-9  # n1_wa_residual, n1_v_residual
PROBE_TOL = 5e-2  # probe_max_imag_N*
V_SUP_BOUND = 1e3  # v_sup


class ConfigError(Exception):
    """Config rejected; ``key`` anchors the diagnostic to a config line."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class NumericalFailure(Exception):
    def __init__(self, task, message):
        super().__init__(f"task '{task}': {message}")


# -- config parsing ---------------------------------------------------------


def _check_keys(block, allowed, where, anchor=()):
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}", key=(*anchor, key))


def _key_name(key):
    """The key a diagnostic names: the last one of a _locate_key tuple."""
    return key if isinstance(key, str) else key[-1]


def _is_number(value):
    """A finite int or float; JSON true/false load as bools, not numbers."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _number_from(value, key, positive=False):
    """float(value); ``key`` may be a tuple of keys, as for _locate_key."""
    if not _is_number(value) or (positive and value <= 0):
        kind = "positive number" if positive else "number"
        raise ConfigError(f"'{_key_name(key)}' must be a finite {kind}", key=key)
    return float(value)


def _positive_int(value, key):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"'{_key_name(key)}' must be a positive integer", key=key)
    return value


def _even_positive_int(value, key):
    """A positive even integer: a node count of two-node panels."""
    if _positive_int(value, key) % 2:
        raise ConfigError(f"'{_key_name(key)}' must be a positive even integer", key=key)
    return value


def _list_of(parse):
    """Parser of a non-empty list whose every entry ``parse`` accepts."""

    def parse_list(value, key):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"'{_key_name(key)}' must be a non-empty list", key=key)
        return [parse(entry, key) for entry in value]

    return parse_list


def _complex_from(value, key):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_number(p) for p in value)
    ):
        raise ConfigError(f"'{_key_name(key)}' entries must be [re, im] pairs",
                          key=key)
    return complex(value[0], value[1])


def _cmatrix_from(value, key, shape=None):
    name = _key_name(key)
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ConfigError(f"'{name}' must be a matrix of [re, im] pairs", key=key)
    rows = [[_complex_from(e, key) for e in row] for row in value]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"'{name}' has ragged rows", key=key)
    m = np.array(rows, dtype=complex)
    if shape is not None and m.shape != shape:
        raise ConfigError(f"'{name}' must have shape {shape}, got {m.shape}", key=key)
    return m


def _cvector_from(value, key, length=None):
    name = _key_name(key)
    if not isinstance(value, list):
        raise ConfigError(f"'{name}' must be a list of [re, im] pairs", key=key)
    v = np.array([_complex_from(e, key) for e in value], dtype=complex)
    if length is not None and v.size != length:
        raise ConfigError(f"'{name}' must have length {length}", key=key)
    return v


def _build_system(block):
    """The CanonicalSystem of the 'system' block; a diagnostic is anchored
    inside the block, so a key another block also has is not mistaken
    for it."""
    at = ("system",)
    _check_keys(block, {"m", "J", "interval", "xi", "hamiltonian"}, "'system'", at)
    for required in ("m", "J", "interval", "hamiltonian"):
        if required not in block:
            raise ConfigError(f"'system' is missing '{required}'", key=at)
    m = _positive_int(block["m"], (*at, "m"))
    jmat = _cmatrix_from(block["J"], (*at, "J"), shape=(m, m))
    j_defect = _signature_defect(jmat)
    if j_defect > 1e-12:
        raise ConfigError(
            f"'J' is not a signature matrix (J = J* = J^-1 defect {j_defect:.2e})",
            key=(*at, "J"),
        )
    interval = block["interval"]
    if (
        not isinstance(interval, list)
        or len(interval) != 2
        or not all(_is_number(e) for e in interval)
        or not interval[0] < interval[1]
    ):
        raise ConfigError("'interval' must be [a, b] of finite numbers with a < b",
                          key=(*at, "interval"))
    ham, at_ham = block["hamiltonian"], (*at, "hamiltonian")
    if not isinstance(ham, dict) or "type" not in ham:
        raise ConfigError("'hamiltonian' must carry a 'type'", key=at_ham)
    kind = ham["type"]
    if kind == "constant-beta":
        _check_keys(ham, {"type", "beta"}, "'hamiltonian'", at_ham)
        beta = _cmatrix_from(ham.get("beta"), (*at_ham, "beta"))
        if beta.shape[1] != m:
            raise ConfigError(f"'beta' must have {m} columns", key=(*at_ham, "beta"))
        spec = HamiltonianSpec.from_constant_beta(beta, tuple(interval))
    elif kind in ("beta-grid", "h-grid"):
        field = "beta" if kind == "beta-grid" else "h"
        at_field = (*at_ham, field)
        _check_keys(ham, {"type", "x", field}, "'hamiltonian'", at_ham)
        x = ham.get("x")
        if (not isinstance(x, list) or len(x) < 2 or not all(map(_is_number, x))
                or not all(x0 < x1 for x0, x1 in zip(x, x[1:]))):
            raise ConfigError(
                "'x' must list at least two strictly increasing numbers",
                key=(*at_ham, "x"),
            )
        samples = ham.get(field)
        if not isinstance(samples, list) or len(samples) != len(x):
            raise ConfigError(f"'{field}' must match the length of 'x'", key=at_field)
        mats = [_cmatrix_from(s, at_field) for s in samples]
        rows, cols = mats[0].shape
        if (any(mat.shape != (rows, cols) for mat in mats) or cols != m
                or (kind == "h-grid" and rows != m)):
            raise ConfigError(f"'{field}' samples must share one shape compatible "
                              f"with m={m}", key=at_field)
        stack = np.stack(mats)
        if kind == "beta-grid":
            spec = HamiltonianSpec.from_beta_grid(np.array(x, dtype=float), stack)
        else:
            spec = HamiltonianSpec.from_grid(np.array(x, dtype=float), stack)
    else:
        raise ConfigError(f"'type' must be constant-beta, beta-grid or h-grid, "
                          f"not '{kind}'", key=(*at_ham, "type"))
    xi = block.get("xi", interval[0])
    if not _is_number(xi) or not interval[0] <= xi <= interval[1]:
        raise ConfigError("'xi' must lie inside the interval", key=(*at, "xi"))
    return CanonicalSystem(J=jmat, interval=tuple(interval), hamiltonian=spec,
                           xi=float(xi))


def _build_gbdt(block, sys):
    """The GbdtParams of the 'gbdt' block, anchored inside the block as
    :func:`_build_system` is."""
    at = ("gbdt",)
    _check_keys(block, {"n", "B", "S0", "Pi0", "b_diag", "g", "h", "xi"}, "'gbdt'", at)
    n = _positive_int(block.get("n"), (*at, "n"))
    xi = _number_from(block.get("xi", sys.xi), (*at, "xi"))
    shorthand = "b_diag" in block
    if shorthand:
        for forbidden in ("B", "S0", "Pi0"):
            if forbidden in block:
                raise ConfigError(
                    f"'{forbidden}' cannot join the b_diag/g/h shorthand: give "
                    "either the shorthand or explicit B/S0/Pi0",
                    key=(*at, forbidden),
                )
        if not np.array_equal(sys.J, rank_one.J):
            # Pi(xi) and S(xi) come from the frame rank_one.T, which holds
            # T J T* = 2 J for this J alone
            raise ConfigError(
                "'b_diag': the b_diag/g/h shorthand needs the rank-one signature, "
                "m = 2 and J = [[0, 1], [1, 0]]; give explicit B/S0/Pi0 otherwise",
                key=(*at, "b_diag"),
            )
        b_diag = _cvector_from(block.get("b_diag"), (*at, "b_diag"), length=n)
        g = _cvector_from(block.get("g"), (*at, "g"), length=n)
        h = _cvector_from(block.get("h"), (*at, "h"), length=n)
        try:
            return rank_one.DiagonalParams(b_diag=b_diag, g=g, h=h).to_gbdt_params(xi=xi)
        except ValueError as exc:
            # a real pole b_i = conj(b_i) leaves the closed-form S undefined
            raise ConfigError(f"'b_diag': {exc}", key=(*at, "b_diag")) from exc
    for required in ("B", "S0", "Pi0"):
        if required not in block:
            raise ConfigError(f"'gbdt' is missing '{required}'", key=at)
    return GbdtParams(
        B=_cmatrix_from(block["B"], (*at, "B"), shape=(n, n)),
        S0=_cmatrix_from(block["S0"], (*at, "S0"), shape=(n, n)),
        Pi0=_cmatrix_from(block["Pi0"], (*at, "Pi0"), shape=(n, sys.m)),
        xi=xi,
    )


# -- output helpers ---------------------------------------------------------


def _entry_columns(rows, cols):
    names = []
    for i in range(rows):
        for j in range(cols):
            names += [f"re_{i}{j}", f"im_{i}{j}"]
    return names


def _table(key_names, keys, mats):
    """CSV header and rows: the key columns, then re/im of every entry of
    the row's matrix (``keys`` holds one value or one tuple per row)."""
    mats = np.ascontiguousarray(mats, dtype=complex)
    keys = np.reshape(np.asarray(keys, dtype=float), (len(mats), len(key_names)))
    header = list(key_names) + _entry_columns(*mats.shape[1:])
    cells = mats.reshape(len(mats), -1).view(float).tolist()
    rows = [list(map(repr, key + row)) for key, row in zip(keys.tolist(), cells)]
    return header, rows


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
            raise ConfigError(f"a 'schema_version' {SCHEMA_VERSION} config needs "
                              "'system' and 'tasks'", key="schema_version")
        tol_block = config.get("tolerances", {})
        if not isinstance(tol_block, dict):
            raise ConfigError("'tolerances' must be an object", key="tolerances")
        _check_keys(tol_block, {"ode_tol"}, "'tolerances'")
        self.ode_tol = _number_from(tol_block.get("ode_tol", ODE_TOL), "ode_tol",
                                    positive=True)
        if tol_override is not None:
            self.ode_tol = _number_from(tol_override, "--tol", positive=True)
        self.system = _build_system(config["system"])
        self.params = None
        if "gbdt" in config:
            self.params = _build_gbdt(config["gbdt"], self.system)
        self.tasks = self._parse_tasks(config["tasks"])
        output = config.get("output", "out")
        if not isinstance(output, str):
            raise ConfigError("'output' must be a path string", key="output")
        self.out = Path(out_dir if out_dir else output)
        self.checks = []
        self.artifacts = []
        self._traj = None

    def _parse_tasks(self, raw):
        """(name, typed options) per task entry, against ``_TASKS``.

        A diagnostic is anchored at the offending entry by its index in
        the list: at the entry itself, at its name, or at the offending
        option inside it, so a key that another entry also has is not
        mistaken for it.
        """
        if not isinstance(raw, list):
            raise ConfigError("'tasks' must be a list", key="tasks")
        a, b = self.system.interval
        tasks = []
        for index, entry in enumerate(raw):
            at = ("tasks", index)
            if isinstance(entry, str):
                entry, anchor = {"task": entry}, at
            else:
                anchor = (*at, "task")
            if not isinstance(entry, dict) or not isinstance(entry.get("task"), str):
                raise ConfigError("each of 'tasks' must be a name or a "
                                  "{'task': name} object", key=at)
            name = entry["task"]
            if name not in _TASKS:
                raise ConfigError(f"unknown task '{name}'", key=anchor)
            task = _TASKS[name]
            _check_keys(entry, {"task", *task.options}, f"task '{name}'", at)
            if task.needs is not None:
                what, met = _NEEDS[task.needs]
                if not met(self):
                    raise ConfigError(f"task '{name}' needs {what}", key=anchor)
            options = {}
            for key, (parse, default) in task.options.items():
                value = entry[key] if key in entry else default(a, b, options)
                options[key] = parse(value, (*at, key))
            tasks.append((name, options))
        return tasks

    def check(self, task, name, value, bound):
        """One uniform record shape: pass iff value <= bound."""
        value, bound = float(value), float(bound)
        self.checks.append({"task": task, "name": name, "value": value,
                            "bound": bound, "pass": bool(value <= bound)})

    def trajectory(self):
        """The one (Pi, S, K) trajectory every task of the run reads,
        evolved once, at ode_tol, on evolve's default grid."""
        if self._traj is None:
            try:
                self._traj = evolve(self.params, self.system, tol=self.ode_tol)
            except SingularMatrixError as exc:
                raise NumericalFailure("evolve", str(exc)) from exc
        return self._traj

    def emit(self, name, header, rows):
        _write_csv(self.out / name, header, rows)
        self.artifacts.append(name)

    # -- tasks ------------------------------------------------------------

    def run_validate(self):
        report = validate_system(self.system)
        self.check("validate", "system_violations", len(report.violations), 0)
        if self.params is not None:
            preport = validate_params(self.params, self.system)
            self.check("validate", "params_violations", len(preport.violations), 0)
            self.check(
                "validate", "params_identity_residual",
                preport.identity_residual, 1e-10,
            )

    def run_evolve(self):
        traj = self.trajectory()
        tol = self.ode_tol
        self.check("evolve", "identity_residual", traj.identity_residual, 10 * tol)
        s0_pd = float(np.linalg.eigvalsh(hermitian_part(self.params.S0))[0]) > 0
        if s0_pd:
            rep = positivity_report(traj)
            self.check("evolve", "s_negativity", max(0.0, -rep.min_eig_s), 0.0)
            self.check("evolve", "q_monotonicity_defect", rep.q_step_defect, 10 * tol)
            self.check("evolve", "inverse_bound_defect",
                       rep.inverse_bound_defect, 10 * tol)
        for name, stack in (("pi", traj.pi), ("s", traj.s),
                            ("k", traj.k), ("q", traj.q)):
            self.emit(f"evolve_{name}.csv", *_table(["x"], traj.grid, stack))

    def run_transform(self):
        traj = self.trajectory()
        # dressed H on the trajectory grid plus the base kinks
        dressed = transformed_system(traj).hamiltonian
        h = dressed.h if dressed.beta is None else _adj(dressed.beta) @ dressed.beta
        # psd_bound's criterion: the defect relative to max(1, |H~_j|_F)
        scale = np.maximum(1.0, np.linalg.norm(h, axis=(-2, -1)))
        self.check("transform", "transformed_psd_defect",
                   np.max(psd_defect(h) / scale), PSD_TOL * 100)
        self.emit("transformed_hamiltonian.csv", *_table(["x"], dressed.x, h))
        if dressed.is_factored:
            # kernel_bound's degeneracy test, without its O(N^2) supremum
            _, base_diag, base_degenerate = _degeneracy(self.system.hamiltonian,
                                                        self.system.J)
            _, diag, degenerate = _degeneracy(dressed, self.system.J)
            if np.max(base_diag) <= DEGENERACY_TOL:
                self.check("transform", "transformed_degeneracy",
                           np.max(diag), DEGENERACY_TOL)
            if base_degenerate:
                self.check("transform", "transformed_kernel_bound_finite",
                           0.0 if degenerate else 1.0, 0.0)
            self.emit("transformed_beta.csv", *_table(["x"], dressed.x, dressed.beta))

    def run_charfn(self, N, z):
        # the model is the system with base point a, whatever the config's xi
        model = CanonicalSystem(self.system.J, self.system.interval, self.system.hamiltonian)
        op = discretize(model, N)
        values = [char_fn(op, point).value for point in z]
        # one stacked RK45 solve for every z: the reference shares no route
        refs = char_fn_via_fundamental(model, np.array(z), tol=self.ode_tol).value
        worst = max(fro(got - ref) / fro(ref) for got, ref in zip(values, refs))
        self.emit("charfn.csv", *_table(["re_z", "im_z"],
                                        [(p.real, p.imag) for p in z], values))
        self.check("charfn", "charfn_max_rel_error", worst, CHARFN_TOL)

    def _constant_degenerate_generator(self):
        """2 pi J beta* beta for constant degenerate beta, else None: the
        exact jump at s is I + 2 pi sigma J beta* beta, sigma = +1 for
        xi < s < x, -1 for x < s < xi and 0 off the cut."""
        spec = self.system.hamiltonian
        if not spec.is_factored or spec.beta is None:
            return None
        if np.max(np.abs(spec.beta - spec.beta[0])) > 1e-12:
            return None
        beta = spec.beta[0]
        if fro(beta @ self.system.J @ beta.conj().T) > 1e-12:
            return None
        return 2.0 * np.pi * self.system.J @ beta.conj().T @ beta

    def run_rh_jump(self, x, s):
        generator = self._constant_degenerate_generator()
        xi = self.system.xi
        reports = []
        for point in s:
            try:
                rep = boundary_values(self.system, x, point, tol=self.ode_tol)
            except (SpectralPointError, ValueError) as exc:
                raise NumericalFailure("rh-jump", f"s = {point}: {exc}") from exc
            if rep.divergent:
                raise NumericalFailure("rh-jump", f"cut limits divergent at s = {point}")
            reports.append(rep)
        header, rows = _table(["s"], s, [rep.jump for rep in reports])
        header.append("norm_v")
        worst_jump, v_sup = 0.0, 0.0
        for point, rep, cells in zip(s, reports, rows):
            norm_v = fro(rep.v)
            v_sup = max(v_sup, norm_v)
            cells.append(repr(norm_v))
            if generator is not None:
                sigma = (xi < point < x) - (x < point < xi)
                err = fro(rep.jump - (np.eye(self.system.m) + sigma * generator))
                worst_jump = max(worst_jump, err)
                cells.append(repr(err))
        if generator is not None:
            header.append("jump_error")
        self.emit("rh_jump.csv", header, rows)
        self.check("rh-jump", "v_sup", v_sup, V_SUP_BOUND)
        if generator is not None:
            self.check("rh-jump", "jump_max_error", worst_jump, JUMP_TOL)

    def run_example_n1(self, z):
        a, b = self.system.interval
        traj = self.trajectory()
        xs = np.linspace(a + 0.1 * (b - a), b, 7)
        zs = [a + 2j * (b - a), b + 1.5j * (b - a), a - 0.7 * (b - a) + 0.5j]
        te = transfer(traj, xs[:, None], zs)
        s = traj.s_at(xs)
        beta = self.system.hamiltonian.beta_at(xs)
        # one stacked oracle call over the grid; S and w0 depend on x alone,
        # so the zs[0] column holds them
        forms = rank_one.dressed_forms(self.params, xs[:, None], zs)
        # one stacked RK45 solve for the sweep z and the grid's zs[0]: the base
        # solution has no shared route; the sweep is read at x = b
        solved = transformed_fundamental(
            traj, np.array([*z, zs[0]]), grid=np.linspace(a, b, 51), tol=self.ode_tol
        )
        sweep = solved.values[:-1, -1]
        explicit = rank_one.transformed_fundamental_matrix(self.params, b, np.array(z), b=b)

        def worst(got, expected):
            return float(np.max(np.linalg.norm(got - expected, axis=(-2, -1))))

        self.emit("transformed_sweep.csv", *_table(
            ["re_z", "im_z"], [(p.real, p.imag) for p in z], sweep))
        self.emit("transformed_solution.csv", *_table(
            ["x"], solved.grid, solved.values[-1]))
        self.check("example-n1", "n1_s_residual", worst(s, forms.s[:, 0]), N1_TOL)
        self.check("example-n1", "n1_beta_residual",
                   worst(beta @ te.w0[:, 0], beta @ forms.w0[:, 0]), N1_TOL)
        self.check("example-n1", "n1_wa_residual", worst(te.w_a, forms.w_a), TRANSFER_TOL)
        self.check("example-n1", "n1_v_residual", worst(te.v, forms.v), TRANSFER_TOL)
        self.check("example-n1", "n1_wtilde_residual", worst(sweep, explicit), N1_TOL)

    def run_probe(self, N):
        m = self.system.m
        model = TriangularModel.from_constant_beta(
            np.eye(m), self.system.interval, np.eye(m)
        )
        imags = []
        for num in N:
            rep = similarity_probe(model, num)
            imags.append(rep.max_imag)
            self.check("probe", f"probe_max_imag_N{num}", rep.max_imag, PROBE_TOL)
            self.check("probe", f"probe_outside_fraction_N{num}",
                       1.0 - rep.inside_fraction, 0.01)
        if len(imags) > 1:
            self.check("probe", "probe_imag_increase",
                       max(np.diff(imags)), 0.0)

    def run(self):
        for name, options in self.tasks:
            try:
                _TASKS[name].run(self, **options)
            except (SingularMatrixError, SpectralPointError, ValueError) as exc:
                raise NumericalFailure(name, str(exc)) from exc


class _Task(NamedTuple):
    run: Callable
    #: option name -> (parser, default); parsed in this order, and the
    #: default is a function of the interval (a, b) and the options before it
    options: dict = {}
    needs: str | None = None  # a key of _NEEDS


def _is_rank_one(run):
    """A 'gbdt' block on the system of ``rank_one.make_system(b)``, the one
    the closed forms of example-n1 hold on: J = ``rank_one.J``, constant
    beta = ``rank_one.BETA`` on [0, b] and xi = 0, the 'gbdt' block's xi
    included."""
    sys, beta = run.system, run.system.hamiltonian.beta
    return (run.params is not None and np.array_equal(sys.J, rank_one.J)
            and sys.interval[0] == 0.0 and sys.xi == 0.0 and run.params.xi == 0.0
            and beta is not None and beta.shape[1:] == rank_one.BETA.shape
            and np.all(beta == rank_one.BETA))


#: What a task can need: the diagnostic's words, and the test on the runner.
_NEEDS = {
    "gbdt": ("a 'gbdt' block", lambda run: run.params is not None),
    "factored": ("a factored Hamiltonian",
                 lambda run: run.system.hamiltonian.is_factored),
    "rank-one": ("the rank-one system with xi = 0 in both blocks: "
                 "J = [[0, 1], [1, 0]], constant beta = [1, i] on [0, b]",
                 _is_rank_one),
}

_COMPLEXES = _list_of(_complex_from)

#: The tasks a config may list, each with its method, options and need.
_TASKS = {
    "validate": _Task(_Runner.run_validate),
    "evolve": _Task(_Runner.run_evolve, needs="gbdt"),
    "transform": _Task(_Runner.run_transform, needs="gbdt"),
    "charfn": _Task(_Runner.run_charfn, {
        "N": (_even_positive_int, lambda a, b, o: 512),
        "z": (_COMPLEXES, lambda a, b, o: [[0.0, 2.0 * (b - a)], [b + a, b - a],
                                           [a - b, b - a]]),
    }, needs="factored"),
    "rh-jump": _Task(_Runner.run_rh_jump, {
        "x": (_number_from, lambda a, b, o: b),
        "s": (_list_of(_number_from), lambda a, b, o: [
            a + f * (o["x"] - a) for f in (0.2, 0.35, 0.5, 0.65, 0.8)]),
    }),
    "example-n1": _Task(_Runner.run_example_n1, {
        "z": (_COMPLEXES, lambda a, b, o: [
            [a + f * (b - a), 1.5 * (b - a)]
            for f in (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5)]),
    }, needs="rank-one"),
    "probe": _Task(_Runner.run_probe, {
        "N": (_list_of(_positive_int), lambda a, b, o: [64, 128]),
    }),
}


def _locate_key(text, key):
    """Line of the first '"key"' in the text; a tuple of keys finds each
    one after the end of the one before it, and an int i in it the start
    of entry i of the JSON array that opens next."""
    pos = 0
    for part in (key,) if isinstance(key, str) else key:
        if isinstance(part, int):
            pos = _array_entry(text, pos, part)
        else:
            pos = text.find(f'"{part}"', pos)
            pos = pos if pos < 0 else pos + len(part) + 2
        if pos < 0:
            return None
    return text.count("\n", 0, pos) + 1


def _array_entry(text, pos, index):
    """Offset of entry ``index`` of the JSON array that opens at or after
    ``pos``, found by decoding the entries before it; -1 if there is none."""
    decoder, space = json.JSONDecoder(), re.compile(r"\s*")
    pos = text.find("[", pos)
    if pos < 0:
        return -1
    pos = space.match(text, pos + 1).end()
    try:
        for _ in range(index):
            _, end = decoder.raw_decode(text, pos)
            pos = space.match(text, text.index(",", end) + 1).end()
    except ValueError:  # no such entry
        return -1
    return pos


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

    try:
        runner = _Runner(config, out_dir, tol)
    except ConfigError as exc:
        lineno = _locate_key(text, exc.key) if exc.key else None
        anchor = f"{path}:{lineno}" if lineno else str(path)
        print(f"{anchor}: {exc}", file=sys.stderr)
        return 2
    try:
        # made only once the whole config is accepted
        runner.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"{runner.out}: cannot make the output directory: {exc.strerror}",
              file=sys.stderr)
        return 2
    failure = None
    try:
        runner.run()
    except NumericalFailure as exc:
        failure = str(exc)
        print(f"numerical failure: {failure}", file=sys.stderr)

    all_pass = failure is None and all(c["pass"] for c in runner.checks)
    results = {
        "schema_version": SCHEMA_VERSION,
        "scenario": path.name,
        "tolerances": {"ode_tol": runner.ode_tol},
        "checks": runner.checks,
        "artifacts": sorted(runner.artifacts),
        "failure": failure,
        "all_pass": bool(all_pass),
    }
    (runner.out / "results.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
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
    try:
        checks = [(str(c["task"]), str(c["name"]), float(c["value"]),
                   float(c["bound"]), bool(c["pass"]))
                  for c in results.get("checks", [])]
        failure = results.get("failure")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        print(f"{path}: corrupt results file: {exc!r}", file=sys.stderr)
        return 2
    width = max([len(name) for _, name, *_ in checks], default=10)
    print(f"{'task':<12} {'check':<{width}} {'value':>13} {'bound':>13} status")
    for task, name, value, bound, passed in checks:
        print(
            f"{task:<12} {name:<{width}} "
            f"{value:>13.4e} {bound:>13.4e} {'pass' if passed else 'FAIL'}"
        )
    if failure:
        print(f"numerical failure: {failure}")
    ok = failure is None and all(passed for *_, passed in checks)
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
