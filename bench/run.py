"""cansys benchmark: one seeded closed-loop workload per run.

Usage (from the repository root)::

    python3 bench/run.py --workload cut --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory; nothing
needs installing.  A run times set-up (import plus input construction)
in SETUP_CHILDREN child processes and reports their median, sets up once
more in this process, then runs whole passes over the workload's fixed,
seeded op list, checking every op against its oracle.  A pass is never
cut short; another one starts only while the last pass still fits in
``--seconds``, so every run measures the same inputs for a given seed,
however fast the machine is.  Set-ups and ops are timed between blocks
of fixed reference work (``reference.py``) and reported in reference
seconds, which cancel the host's own speed swings.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs every op twice,
untraced and traced in alternating order, and reports per-layer metrics
from the spans, including the tracing overhead.  Readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: BLAS threads; one keeps timings steady on a small shared machine.
#: Set in main() before numpy is first imported; children inherit it.
BLAS_THREADS = 1

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scenario", "cut", "triangular")
#: Set-ups timed per run, each in a fresh child process.
SETUP_CHILDREN = 5

# (name, unit, better) of the end-to-end metrics; times are in reference
# seconds (see reference.py)
END_TO_END = [
    ("ops_per_ref_s", "1/s", "higher"),
    ("op_p50_ref_ms", "ms", "lower"),
    ("accuracy_digits", "digits", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]


def setup(workload, seed):
    """Import cansys from src/ and build the workload's inputs; timed."""
    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "cansys" / "__init__.py").is_file():
        raise SystemExit(f"error: no cansys sources under {src}")
    sys.path.insert(0, str(src))
    import cansys

    if Path(cansys.__file__).resolve().parent != (src / "cansys").resolve():
        raise SystemExit(f"error: imported cansys from {cansys.__file__}, not {src}")
    import workloads

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    wl = workloads.make(workload, scratch)
    ops = wl.build(seed)
    return wl, ops, time.perf_counter() - start


def setup_in_child(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up child failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def blas_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"library": f"{blas['name']} {blas.get('version', '')}".strip(),
            "threads": BLAS_THREADS, "nproc": os.cpu_count()}


def timed_op(wl, op):
    """Run one op; returns (seconds, result or None, error text or None)."""
    start = time.perf_counter()
    try:
        result = wl.run(op)
    except Exception:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, traceback.format_exc()
    return time.perf_counter() - start, result, None


def checked(wl, op, result, failure):
    """Oracle error of one op, or None when it failed (reported on stderr)."""
    import workloads

    if failure is None:
        try:
            return wl.check(op, result)
        except workloads.CheckFailed as exc:
            failure = str(exc)
    print(f"op failed: {failure}", file=sys.stderr)
    return None


def passes(ops, seconds):
    """Yield whole passes over ops: the first always, another only while
    the last pass would still fit in the time left."""
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        yield ops
        last = time.perf_counter() - begun
        if time.perf_counter() - start + last > seconds:
            return


def run_untraced(wl, ops, seconds):
    """Returns the ops' Sandwich (wall and reference seconds), their
    oracle errors and the number that failed."""
    import reference

    clock, errors, failed = reference.Sandwich(wl.REFERENCE), [], 0
    for batch in passes(ops, seconds):
        for op in batch:
            _, result, failure = clock.time(lambda: timed_op(wl, op))
            outcome = checked(wl, op, result, failure)
            del result
            if outcome is None:
                failed += 1
            else:
                errors.append(outcome[0])
    return clock, errors, failed


def run_traced(wl, ops, seconds, tracer):
    """Each op runs untraced and traced, the order alternating."""
    plain, traced, failed, attempted = [], [], 0, 0
    i = 0
    for batch in passes(ops, seconds):
        for op in batch:
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    start = tracer.begin(i)
                    _, result, failure = timed_op(wl, op)
                    traced.append(tracer.end(i, start))
                else:
                    elapsed, result, failure = timed_op(wl, op)
                    plain.append(elapsed)
                outcome = checked(wl, op, result, failure)
                del result
                attempted += 1
                if outcome is None:
                    failed += 1
                elif with_trace:
                    for key, value in outcome[1].items():
                        tracer.op_counts[key] += value
            i += 1
    return plain, traced, attempted, failed


def end_to_end(ops, errors, setups):
    """Metrics from the ops' and set-ups' Sandwich clocks."""
    worst = max(errors) if errors else 1.0  # no op passed: zero digits
    latencies = ops.ref
    values = {
        "ops_per_ref_s": len(latencies) / sum(latencies),
        "op_p50_ref_ms": 1e3 * statistics.median(latencies),
        "accuracy_digits": -math.log10(max(worst, 1e-300)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups.ref),
    }
    notes = {
        "ops_per_ref_s": f"wall {len(ops.wall) / sum(ops.wall):.4g}/s",
        "op_p50_ref_ms": f"of {len(latencies)} ops; wall "
                         f"{1e3 * statistics.median(ops.wall):.4g} ms",
        "accuracy_digits": f"worst oracle error {worst:.3e}",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups.ref)
                   + f"; wall {statistics.median(setups.wall):.4g} s",
    }
    return values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    if args.setup_only:
        print(setup(args.workload, args.seed)[2])
        return 0

    wl, ops, _ = setup(args.workload, args.seed)
    import reference

    setups = reference.Sandwich("ode")  # set-up is mostly imports: interpreter work
    for _ in range(0 if args.trace else SETUP_CHILDREN):
        setups.time(lambda: setup_in_child(args.workload, args.seed))
    info = blas_info()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"blas {info['library']}  threads {info['threads']} of nproc {info['nproc']}")

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        plain, traced, attempted, failed = run_traced(wl, ops, args.seconds, tracer)
        overhead = sum(traced) / sum(plain) - 1.0
        values = tracer.layer_metrics(overhead)
        spec = tracing.PER_LAYER
        notes = {"trace.overhead_frac": f"{len(traced)} traced vs {len(plain)} plain ops"}
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "blas": info, "metrics": values})
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        clock, errors, failed = run_untraced(wl, ops, args.seconds)
        attempted = len(clock.wall)
        values, notes = end_to_end(clock, errors, setups)
        spec = END_TO_END
        notes["error_rate"] = f"{failed} of {attempted} ops failed"

    for name, unit, better in spec:
        print(f"{name:<38} {values[name]:>14.6g} {unit:<9} ({better} is better)  "
              f"{notes.get(name, '')}")
    if not args.trace:
        print(f"{'error_rate':<38} {failed / attempted:>14.6g} {'fraction':<9} "
              f"(lower is better)  {notes['error_rate']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
