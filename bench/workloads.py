"""The three benchmark workloads: seeded inputs, one timed op, one oracle check.

Each workload is a closed loop driven by one client.  ``build(seed)``
makes the fixed list of op inputs through cansys's public constructors
(this is the timed set-up), ``run(op)`` is the timed operation and
``check(op, result)`` compares the result with an oracle that does not
use the route being timed.  ``check`` returns the worst oracle error of
the op and raises :class:`CheckFailed` when an error exceeds its
tolerance.

Why these three:

* ``scenario`` -- ROADMAP's end-to-end definition (``cansys run`` on the
  bundled scenario) and the only workload that exercises ``cli``.
* ``cut`` -- near-cut and cut-limit work on a non-constant degenerate H,
  where RK45 must resolve the interpolant's kinks; the constant-H
  scenario never does, so a cut kernel exact only for constant H shows.
* ``triangular`` -- dense Nystrom discretisation and resolvent solves at
  N = 512..2048, whose time and memory grow as N^3 and N^2.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import oracle
# timed calls go through module attributes, where tracing re-binds them
from cansys import cli, system, triangular
from cansys.scenarios import scenario_path
from cansys.system import CanonicalSystem, HamiltonianSpec, validate_system
from cansys.triangular import TriangularModel

#: Sample grid of the scalar profile c(x) on [0, 1].
PROFILE_X = np.linspace(0.0, 1.0, 33)


class CheckFailed(Exception):
    """An op's result disagrees with its oracle beyond tolerance."""


def _rel_err(got, ref):
    return float(np.max(np.abs(np.asarray(got) - ref)) / max(1.0, np.max(np.abs(ref))))


def _require(error, tol, what):
    if not error <= tol:
        raise CheckFailed(f"{what}: error {error:.3e} > tolerance {tol:.1e}")
    return error


def _draw_profile(rng):
    """Real positive c on PROFILE_X: a sine of seeded phase plus a zigzag
    of seeded sign, so every sample point is a kink of similar strength."""
    phase = rng.uniform()
    zigzag = rng.choice([-1.0, 1.0]) * (-1.0) ** np.arange(PROFILE_X.size)
    return 1.0 + 0.4 * np.sin(2 * np.pi * (PROFILE_X + phase)) + 0.02 * zigzag


def _off_cut(rng, lo=0.3, hi=1.0):
    """z with Re z in [-0.5, 1.5] and |Im z| in [lo, hi], either half-plane."""
    return complex(rng.uniform(-0.5, 1.5), rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


class Scenario:
    """One op = one in-process ``cansys run`` of the bundled scenario."""

    REFERENCE = "ode"  # kind of reference work it is timed against (reference.py)

    #: Tolerances of the checks made here from the CSV outputs.
    JUMP_TOL = 1e-3  # the jump_tol that ``cansys run`` applies itself
    CHARFN_TOL_N2 = 10.0  # relative error times N^2

    #: results.json checks that compare with a closed form.
    ORACLE_CHECKS = ("jump_max_error", "charfn_max_rel_error")

    def __init__(self, scratch):
        self.scratch = scratch
        self.reference = None

    def build(self, seed):
        config = scenario_path("rank_one_n1")
        tasks = json.loads(config.read_text(encoding="utf-8"))["tasks"]
        self.charfn_n = next(t["N"] for t in tasks if isinstance(t, dict)
                             and t.get("task") == "charfn")
        return [config]

    def run(self, config):
        out = Path(tempfile.mkdtemp(prefix="scenario-", dir=self.scratch))
        return out, cli.main(["run", str(config), "--out", str(out)])

    def check(self, config, result):
        out, code = result
        try:
            written = sum(p.stat().st_size for p in out.iterdir())
            if code != 0:
                raise CheckFailed(f"cansys run exited with {code}")
            raw = (out / "results.json").read_bytes()
            if self.reference is None:
                self.reference = raw
            elif raw != self.reference:
                raise CheckFailed("results.json differs from the first op's bytes")
            results = json.loads(raw)
            if not results["all_pass"]:
                raise CheckFailed("results.json reports a failing check")
            errors = [c["value"] for c in results["checks"]
                      if c["name"] in self.ORACLE_CHECKS or c["name"].startswith("n1_")]
            xg, ones = np.array([0.0, 1.0]), np.ones(2)
            for row in _csv_rows(out / "rh_jump.csv"):
                got = np.array(row[1:9:2]) + 1j * np.array(row[2:9:2])
                ref = oracle.jump(xg, ones, row[0]).ravel()
                errors.append(_require(_rel_err(got, ref), self.JUMP_TOL, "jump"))
            tol = self.CHARFN_TOL_N2 / self.charfn_n**2
            for row in _csv_rows(out / "charfn.csv"):
                got = np.array(row[2::2]) + 1j * np.array(row[3::2])
                ref = oracle.fundamental(xg, ones, 1.0, complex(row[0], row[1])).ravel()
                errors.append(_require(_rel_err(got, ref), tol, "char_fn"))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return max(errors), {"cli_bytes_written": written}


def _csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


class Cut:
    """One op = a cut limit, a near-cut solve, a product integral and a
    kernel bound on a seeded scalar-profile system."""

    REFERENCE = "ode"

    #: One pass of about 25-35 s at 3-4.5 s per op with its reference
    #: work; six ops meet every eta decade twice.
    OPS = 6
    OFFSETS = (0.1, 0.5, 0.9, 0.3)
    PARTITION = np.linspace(0.0, 1.0, 257)
    LIMIT_TOL = 1e-3  # the jump_tol that ``cansys run`` applies to cut limits
    NEAR_CUT_TOL = 1e-5
    PRODUCT_TOL = 1e-3
    KERNEL_TOL = 1e-12

    def build(self, seed):
        rng = np.random.default_rng(seed)
        ops = []
        for i in range(self.OPS):
            c = _draw_profile(rng)
            spec = HamiltonianSpec.from_beta_grid(PROFILE_X, c[:, None, None] * oracle.BETA0)
            canonical = CanonicalSystem(J=oracle.J, interval=(0.0, 1.0),
                                        hamiltonian=spec, xi=0.0)
            report = validate_system(canonical)
            if not report.ok:
                raise ValueError("; ".join(report.violations))
            # s keeps several default margins (1e-2) from the cut endpoints.
            # Its offset inside a profile panel cycles so that every run
            # meets s near a kink of c, where the cut limits lose most
            # accuracy, but no nearer than 0.09 panels (2.8e-3): closer in,
            # the eta ladder of boundary_values straddles the kink and the
            # extrapolation can come back divergent.  eta cycles through the
            # decades 1e-5 .. 1e-2.
            panel = rng.integers(2, PROFILE_X.size - 3)
            offset = self.OFFSETS[i % len(self.OFFSETS)] + rng.uniform(-0.01, 0.01)
            s = PROFILE_X[panel] + offset * (PROFILE_X[1] - PROFILE_X[0])
            eta = 10.0 ** rng.uniform(-5 + i % 3, -4 + i % 3)
            near = s + 1j * rng.choice([-1.0, 1.0]) * eta
            ops.append((canonical, c, s, near, _off_cut(rng, 0.3, 1.0)))
        return ops

    def run(self, op):
        canonical, _, s, near, far = op
        return (
            system.boundary_values(canonical, 1.0, s),
            system.fundamental_solution(canonical, near),
            system.product_integral(canonical, far, self.PARTITION),
            system.kernel_bound(canonical.hamiltonian, canonical.J),
        )

    def check(self, op, result):
        _, c, s, near, far = op
        limits, solution, product, kernel = result
        if limits.divergent:
            raise CheckFailed(f"boundary values divergent at s = {s}")
        errors = [
            _require(_rel_err(limits.jump, oracle.jump(PROFILE_X, c, s)),
                     self.LIMIT_TOL, "jump"),
            _require(_rel_err(limits.w_plus, oracle.fundamental(PROFILE_X, c, 1.0, s, +1)),
                     self.LIMIT_TOL, "W(s + i0)"),
            _require(_rel_err(limits.w_minus, oracle.fundamental(PROFILE_X, c, 1.0, s, -1)),
                     self.LIMIT_TOL, "W(s - i0)"),
        ]
        ref = np.stack([oracle.fundamental(PROFILE_X, c, x, near) for x in solution.grid])
        errors.append(_require(_rel_err(solution.values, ref), self.NEAR_CUT_TOL,
                               "near-cut W"))
        ref = np.stack([oracle.fundamental(PROFILE_X, c, x, far) for x in product.grid])
        errors.append(_require(_rel_err(product.values, ref), self.PRODUCT_TOL,
                               "product integral"))
        # beta J beta* = c(x) c(t) beta0 J beta0* = 0: the kernel vanishes
        if not kernel.finite:
            raise CheckFailed("kernel bound reported divergent")
        _require(kernel.sup_bound, self.KERNEL_TOL, "kernel bound")
        return max(errors), {}


class Triangular:
    """One op = discretize at N, char_fn at 3 z and a similarity probe."""

    REFERENCE = "lu"

    #: Two cycles of SIZES, one pass of about 7-9 s.
    OPS = 6
    SIZES = (512, 1024, 2048)
    CHARFN_TOL_N2 = 10.0  # relative error times N^2
    PROBE_TOL = 1e-9

    def build(self, seed):
        rng = np.random.default_rng(seed)
        ops = []
        for i in range(self.OPS):
            c = _draw_profile(rng)
            model = TriangularModel(interval=(0.0, 1.0), J=oracle.J, x=PROFILE_X,
                                    beta=c[:, None, None] * oracle.BETA0)
            probe_model = TriangularModel(interval=(0.0, 1.0), J=np.eye(2), x=PROFILE_X,
                                          beta=c[:, None, None] * np.eye(2))
            size = self.SIZES[i % 3]
            zs = [_off_cut(rng, 0.3, 1.0) for _ in range(3)]
            ops.append((model, probe_model, c, size, zs))
        return ops

    def run(self, op):
        model, probe_model, _, size, zs = op
        operator = triangular.discretize(model, size)
        values = [triangular.char_fn(operator, z).value for z in zs]
        return values, triangular.similarity_probe(probe_model, size // 8)

    def check(self, op, result):
        _, _, c, size, zs = op
        values, probe = result
        tol = self.CHARFN_TOL_N2 / size**2
        errors = [
            _require(_rel_err(w, oracle.fundamental(PROFILE_X, c, 1.0, z)), tol, "char_fn")
            for z, w in zip(zs, values)
        ]
        num = size // 8
        nodes = (np.arange(num) + 0.5) / num
        ref = oracle.probe_max_imag(nodes, np.full(num, 1.0 / num),
                                    oracle.profile_at(PROFILE_X, c, nodes))
        errors.append(_require(abs(probe.max_imag - ref) / ref, self.PROBE_TOL,
                               "probe max |Im|"))
        if probe.inside_fraction < 1.0:
            raise CheckFailed(f"probe inside fraction {probe.inside_fraction} < 1")
        return max(errors), {}


def make(name, scratch):
    if name == "scenario":
        return Scenario(scratch)
    return {"cut": Cut, "triangular": Triangular}[name]()
