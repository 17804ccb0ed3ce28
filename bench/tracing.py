"""Outside-in tracing of cansys for the traced benchmark run.

Spans wrap every public module-level function of the six layers
(``system``, ``gbdt``, ``triangular``, ``linalg``, ``cli``, ``rank_one``).
``HamiltonianSpec.hamiltonian``, the H evaluation inside every
right-hand side, is too frequent for a span each: its calls and seconds
are summed on the enclosing span instead.  Each wrapper is re-bound under every name a cansys
module imported the function by (``cansys.cli.boundary_values``,
``cansys.gbdt.fundamental_solution``, ...), so calls between modules
are seen too.  At the numpy/scipy boundary the same mechanism counts
``solve_ivp`` results, ``scipy.linalg.expm`` matrices and
``numpy.linalg`` calls; those counts land on the innermost open span.

Nothing is patched until :meth:`Tracer.install`; :meth:`Tracer.uninstall`
restores every original, so untraced operations run the plain program.
Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

LAYERS = ("system", "gbdt", "triangular", "linalg", "cli", "rank_one")
NUMPY_LINALG = ("solve", "inv", "svd", "cond", "eig", "eigvals", "eigh", "eigvalsh")
DECOMPOSITIONS = ("svd", "cond", "eig", "eigvals", "eigh", "eigvalsh")
#: Counter holding time spent in aggregated leaf calls under a span.
CHILD_S = "leaf_child_s"

# span record fields
NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    """Span and counter recorder for cansys calls made during traced ops."""

    def __init__(self):
        self.spans = []
        self.ops = []  # (op index, start, end)
        self.op_counts = defaultdict(float)  # per-op facts measured outside spans
        self._stack = []
        self._patches = []
        self._op = None

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf(self, key, fn):
        """Aggregate a hot call into counters of the enclosing span:
        ``<key>`` calls and ``<key>_s`` seconds outside the spans the call
        opens itself (a dressed H calls ``gbdt.w0_at``), the latter also
        booked as child time so the enclosing span's self time excludes it."""
        tracer = self

        def timed(*args, **kwargs):
            first = len(tracer.spans)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                own = time.perf_counter() - start
                parent = tracer._stack[-1] if tracer._stack else -1
                for s in tracer.spans[first:]:
                    if s[PARENT] == parent:
                        own -= s[END] - s[START]
                tracer.count(key)
                tracer.count(key + "_s", own)
                tracer.count(CHILD_S, own)

        timed.__wrapped__ = fn
        return timed

    def count(self, key, value=1):
        """Add to a counter of the innermost open span."""
        if not self._stack:
            self.op_counts[key] += value
            return
        record = self.spans[self._stack[-1]]
        if record[COUNTS] is None:
            record[COUNTS] = defaultdict(float)
        record[COUNTS][key] += value

    def _counting(self, fn, counter):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(result, *args)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the public cansys functions and the numpy/scipy boundary."""
        import cansys

        modules = {layer: importlib.import_module(f"cansys.{layer}") for layer in LAYERS}
        hooks = {
            "triangular.discretize": self._on_discretize,
            "triangular.char_fn": self._on_char_fn,
        }
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._span(name, obj, hooks.get(name))
        for mod in [cansys, importlib.import_module("cansys.scenarios"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

        spec = modules["system"].HamiltonianSpec
        self._patch(spec, "hamiltonian", self._leaf("h_evals", spec.hamiltonian))
        self._patch(
            modules["system"], "solve_ivp",
            self._counting(modules["system"].solve_ivp, self._on_solve_ivp),
        )
        self._patch(scipy.linalg, "expm", self._counting(scipy.linalg.expm, self._on_expm))
        for fn in NUMPY_LINALG:
            key = f"np.{fn}"
            self._patch(
                np.linalg, fn,
                self._counting(getattr(np.linalg, fn), lambda _r, *_a, k=key: self.count(k)),
            )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin(self, op):
        self._op = op
        self.install()
        return time.perf_counter()

    def end(self, op, start):
        stop = time.perf_counter()
        self.uninstall()
        self.ops.append((op, start, stop))
        self._op = None
        return stop - start

    # -- boundary counters --------------------------------------------------

    def _on_solve_ivp(self, sol, *args):
        self.count("ode_solves")
        self.count("ode_nfev", sol.nfev)
        # RK45 spends one evaluation at t0, one choosing the first step
        # and six per attempted step; accepted steps are the dense pieces
        self.count("ode_attempts", (sol.nfev - 2) / 6)
        if sol.sol is not None:
            self.count("ode_steps", len(sol.sol.ts) - 1)
        if sol.status < 0:
            self.count("ode_failures")

    def _on_expm(self, result, *args):
        self.count("expm_matrices", int(np.prod(np.shape(result)[:-2], dtype=int)))

    def _on_discretize(self, args, op):
        self.count("operator_bytes", op.matrix.nbytes + op.channel_map.nbytes)

    def _on_char_fn(self, args, sample):
        # computed, not measured: complex LU of the n x n operator
        # (8/3 n^3 real flops) plus the solve against m columns (8 n^2 m)
        n = args[0].matrix.shape[0]
        self.count("char_fn_flop", 8 / 3 * n**3 + 8 * n**2 * sample.value.shape[0])

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self, overhead_frac):
        """Per-layer metrics of the traced ops, each normalised per op."""
        spans = self.spans
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
            if s[COUNTS]:
                child[i] += s[COUNTS].get(CHILD_S, 0.0)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, s in enumerate(spans):
            calls[s[NAME]] += 1
            self_s[s[NAME]] += s[END] - s[START] - child[i]

        def layer_self(layer):
            return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        # counters, attributed through each counted span's ancestry
        ode = defaultdict(float)  # owner -> counter -> total
        under_bv = 0.0
        gbdt = defaultdict(float)
        flat = defaultdict(float, self.op_counts)
        for i, s in enumerate(spans):
            if not s[COUNTS]:
                continue
            names = []
            j = i
            while j >= 0:
                names.append(spans[j][NAME])
                j = spans[j][PARENT]
            owner = next(
                (n for n in names if n in ("system.fundamental_solution", "gbdt.evolve")),
                None,
            )
            in_gbdt = any(n.startswith("gbdt.") for n in names)
            for key, value in s[COUNTS].items():
                flat[key] += value
                if key.startswith("ode_") and owner is not None:
                    ode[owner, key] += value
                if key == "ode_solves" and "system.boundary_values" in names:
                    under_bv += value
                if in_gbdt:
                    gbdt[key] += value

        fs = "system.fundamental_solution"
        attempts = ode[fs, "ode_attempts"]
        bv_calls = calls["system.boundary_values"]
        ops = [stop - start for _, start, stop in self.ops]
        top = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
        values = {
            "system.boundary_values.calls": bv_calls,
            "system.boundary_values.self_s": self_s["system.boundary_values"],
            "system.ode_solves_per_cut_limit": under_bv / bv_calls if bv_calls else 0.0,
            "system.ode_rhs_evals": ode[fs, "ode_nfev"],
            "system.ode_steps": ode[fs, "ode_steps"],
            "system.ode_accept_ratio": ode[fs, "ode_steps"] / attempts if attempts else 0.0,
            "system.ode_failures": flat["ode_failures"],
            "system.h_evals": flat["h_evals"],
            "system.h_eval_s": flat["h_evals_s"],
            "system.integrate_matrix_ode.self_s": self_s["system.integrate_matrix_ode"],
            "system.fundamental_solution.calls": calls[fs],
            "system.fundamental_solution.self_s": self_s[fs],
            "system.product_integral.calls": calls["system.product_integral"],
            "system.product_integral.self_s": self_s["system.product_integral"],
            "system.expm_matrices": flat["expm_matrices"],
            "system.kernel_bound.self_s": self_s["system.kernel_bound"],
            "system.self_s": layer_self("system") + flat["h_evals_s"],
            "gbdt.evolve.calls": calls["gbdt.evolve"],
            "gbdt.evolve.self_s": self_s["gbdt.evolve"],
            "gbdt.evolve.rhs_evals": ode["gbdt.evolve", "ode_nfev"],
            "gbdt.transfer.calls": calls["gbdt.transfer"],
            "gbdt.transfer.self_s": self_s["gbdt.transfer"],
            "gbdt.transformed_fundamental.self_s": self_s["gbdt.transformed_fundamental"],
            "gbdt.transformed_hamiltonian.self_s": self_s["gbdt.transformed_hamiltonian"],
            "gbdt.w0_at.calls": calls["gbdt.w0_at"],
            "gbdt.linear_solves": gbdt["np.solve"],
            "gbdt.decomps": sum(gbdt[f"np.{fn}"] for fn in DECOMPOSITIONS),
            "gbdt.self_s": layer_self("gbdt"),
            "linalg.expm.calls": calls["linalg.expm"],
            "linalg.solve.calls": calls["linalg.solve"],
            "linalg.cond2.calls": calls["linalg.cond2"],
            "linalg.self_s": layer_self("linalg"),
            "triangular.discretize.calls": calls["triangular.discretize"],
            "triangular.discretize.self_s": self_s["triangular.discretize"],
            "triangular.char_fn.calls": calls["triangular.char_fn"],
            "triangular.char_fn.self_s": self_s["triangular.char_fn"],
            "triangular.similarity_probe.self_s": self_s["triangular.similarity_probe"],
            "triangular.operator_bytes": flat["operator_bytes"],
            "triangular.char_fn.gflop": flat["char_fn_flop"] / 1e9,
            "triangular.self_s": layer_self("triangular"),
            "cli.run.self_s": layer_self("cli"),
            "cli.bytes_written": flat["cli_bytes_written"],
            "rank_one.self_s": layer_self("rank_one"),
        }
        per_op = 1.0 / max(len(ops), 1)
        out = {}
        for name, unit, _better in PER_LAYER:
            if name == "trace.coverage":
                out[name] = top / sum(ops)
            elif name == "trace.overhead_frac":
                out[name] = overhead_frac
            elif unit.endswith("/op"):
                out[name] = values[name] * per_op
            else:
                out[name] = values[name]
        return out

    def write(self, path, meta):
        spans = [
            [s[NAME], s[START], s[END], s[PARENT], s[OP], dict(s[COUNTS] or {})]
            for s in self.spans
        ]
        path.write_text(
            json.dumps({"meta": meta, "fields": ["name", "start", "end", "parent", "op",
                                                 "counts"],
                        "ops": self.ops, "spans": spans}),
            encoding="utf-8",
        )


# (name, unit, better) of every per-layer metric; "/op" units are totals
# over the traced ops divided by their number
PER_LAYER = [
    ("system.boundary_values.calls", "count/op", "lower"),
    ("system.boundary_values.self_s", "s/op", "lower"),
    ("system.ode_solves_per_cut_limit", "count", "lower"),
    ("system.ode_rhs_evals", "count/op", "lower"),
    ("system.ode_steps", "count/op", "lower"),
    ("system.ode_accept_ratio", "fraction", "higher"),
    ("system.ode_failures", "count/op", "lower"),
    ("system.h_evals", "count/op", "lower"),
    ("system.h_eval_s", "s/op", "lower"),
    ("system.integrate_matrix_ode.self_s", "s/op", "lower"),
    ("system.fundamental_solution.calls", "count/op", "lower"),
    ("system.fundamental_solution.self_s", "s/op", "lower"),
    ("system.product_integral.calls", "count/op", "lower"),
    ("system.product_integral.self_s", "s/op", "lower"),
    ("system.expm_matrices", "count/op", "lower"),
    ("system.kernel_bound.self_s", "s/op", "lower"),
    ("system.self_s", "s/op", "lower"),
    ("gbdt.evolve.calls", "count/op", "lower"),
    ("gbdt.evolve.self_s", "s/op", "lower"),
    ("gbdt.evolve.rhs_evals", "count/op", "lower"),
    ("gbdt.transfer.calls", "count/op", "lower"),
    ("gbdt.transfer.self_s", "s/op", "lower"),
    ("gbdt.transformed_fundamental.self_s", "s/op", "lower"),
    ("gbdt.transformed_hamiltonian.self_s", "s/op", "lower"),
    ("gbdt.w0_at.calls", "count/op", "lower"),
    ("gbdt.linear_solves", "count/op", "lower"),
    ("gbdt.decomps", "count/op", "lower"),
    ("gbdt.self_s", "s/op", "lower"),
    ("linalg.expm.calls", "count/op", "lower"),
    ("linalg.solve.calls", "count/op", "lower"),
    ("linalg.cond2.calls", "count/op", "lower"),
    ("linalg.self_s", "s/op", "lower"),
    ("triangular.discretize.calls", "count/op", "lower"),
    ("triangular.discretize.self_s", "s/op", "lower"),
    ("triangular.char_fn.calls", "count/op", "lower"),
    ("triangular.char_fn.self_s", "s/op", "lower"),
    ("triangular.similarity_probe.self_s", "s/op", "lower"),
    ("triangular.operator_bytes", "B/op", "lower"),
    ("triangular.char_fn.gflop", "GFLOP/op", "lower"),
    ("triangular.self_s", "s/op", "lower"),
    ("cli.run.self_s", "s/op", "lower"),
    ("cli.bytes_written", "B/op", "lower"),
    ("rank_one.self_s", "s/op", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
]
