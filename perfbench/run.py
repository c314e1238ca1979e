"""Benchmark of adakern: train, bounds and predict on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload svm-large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                 # all three workloads, one process each

One invocation runs one workload in this process.  It times repetitions of
the workload for ``--seconds`` seconds and prints every metric by name and
unit, then, as its last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
listed in BENCHMARK.json; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics.  Results, run context and
spans are also written under ``.bench_out/``.  README.md in this directory
describes the workloads and every metric.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Fixed before numpy loads: on a 2-core machine two BLAS threads gave no
# speed-up over one and spread more from run to run.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
# Problem instances generated per run, keyed by --trace.  The untraced run
# trains each measured repetition on the next instance and reports the mean
# gap over all of them, so a seed's figures do not hang on one draw of the
# data; the traced run keeps to one instance so that its counts can repeat
# exactly.
POOL = {0: 6, 1: 1}
# Measured repetitions per run, at least: every instance of the pool once,
# and in a traced run two traced and two untraced repetitions.
MIN_REPS = {0: 6, 1: 4}

# Count-like per-layer metrics that tracer hooks take from call arguments or
# results: span name -> (metric, amount).  Eigendecomposition flops are
# computed, not measured: 9 n^3 for eigenvalues and eigenvectors (Golub and
# Van Loan).
HOOKS = {
    "linalg.sym_eig": ("linalg.sym_eig.flops_computed",
                       lambda args, result: 9 * len(args[0]) ** 3),
    "solver.solve": ("solver.solve.iterations",
                     lambda args, result: result[2].iterations),
    "svr.solve_svr": ("svr.solve_svr.iterations",
                      lambda args, result: result[2].iterations),
    "scale.solve_blocks": ("scale.block_iterations",
                           lambda args, result: sum(t.iterations for t in result.traces)),
    "scale.bound_report": ("scale.screened_positive",
                           lambda args, result: len(result.screened_positive_indices)),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="one workload; all three when omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def median(values):
    return statistics.median(values) if values else float("nan")


def op_s(rep, op):
    """Median time of one operation within a repetition; 0 if it never ran."""
    return median(rep["times"].get(op, [0.0]))


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "adakern").glob("*.py")))


def run_context(np, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "src_lines": src_lines(),
        "machine": platform.machine(),
    }


class Recorder:
    """Times the operations of one repetition and collects its checks."""

    def __init__(self, tracer=None):
        self.tracer, self.times, self.checks = tracer, {}, []

    @contextlib.contextmanager
    def op(self, name):
        span = self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext()
        start = perf_counter()
        with span:
            yield
        self.times.setdefault(name, []).append(perf_counter() - start)

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))


def run_workload(spec, name, seed, seconds, trace):
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(spec, name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(spec, name, seed, seconds, trace, workdir):
    started = perf_counter()
    import numpy as np

    import workloads
    from tracer import Tracer
    import_s = perf_counter() - started

    make = workloads.WORKLOADS[name]
    setup = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        wl = make()
        pool = [wl.make(seed, k, workdir) for k in range(POOL[trace])]
        warm = make(**make.tiny)
        warm.rep(warm.make(seed, 0, workdir), Recorder())
        setup.append(perf_counter() - t)

    tracer = Tracer(HOOKS) if trace else None
    layers = {} if trace else None
    start = perf_counter()
    reps, checks, gaps, sizes, errors = _repeat(wl, pool, tracer, layers, seconds, trace)
    measured_s = perf_counter() - start

    traced_reps = [r for r in reps if r["traced"]]
    if trace:
        repeat = [(r["calls"], r["counts"]) for r in traced_reps]
        checks.append(("counts_repeat", len(traced_reps) >= 2 and all(x == repeat[0] for x in repeat)))
    ops = sum(len(t) for r in reps for t in r["times"].values()) + len(errors)
    attempted = ops + len(checks)
    failed = len(errors) + sum(1 for _, ok in checks if not ok)

    untraced = [r for r in reps[1:] if not r["traced"]]
    values = {}
    if untraced and not errors:
        values.update({
            "train_s": median([op_s(r, "train") for r in untraced]),
            "train_gap_rel": statistics.fmean(gaps),
            "predict_pts_per_s": median([wl.m / op_s(r, "predict") for r in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "model_bytes": median(sizes),
            "setup_s": import_s + median(setup),
        })
        bounds = [op_s(r, "bounds") for r in untraced if "bounds" in r["times"]]
        if bounds:
            values["bounds_s"] = median(bounds)
        if trace and traced_reps:
            values.update(layer_values(spec, traced_reps, untraced, layers))
    values["error_rate"] = failed / max(attempted, 1)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "context": run_context(np, seed), "measured_s": measured_s,
        "setup_repeats_s": setup, "import_s": import_s, "gaps": gaps,
        "model_bytes": sizes, "values": values, "reps": reps, "errors": errors,
        "failed_checks": [c for c, ok in checks if not ok],
    }
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=float))
    if trace:
        tracer.write(OUT / f"{name}-seed{seed}-spans.csv.gz")
    return values, attempted, failed, record


def _repeat(wl, pool, tracer, layers, seconds, trace):
    """Timed repetitions; returns (reps, checks, gaps, model sizes, errors).

    Repetition 0 warms the allocator and caches at full size and is left
    out of the medians.  Measured repetitions cycle the pool starting again
    at instance 0, so at least one repeat is always compared bit for bit.
    """
    reps, checks, gaps, sizes, errors, digests = [], [], [], [], [], {}
    start = perf_counter()
    while True:
        measured = len(reps)
        k = 0 if measured == 0 else (measured - 1) % len(pool)
        traced = bool(trace) and measured % 2 == 1
        rec = Recorder(tracer if traced else None)
        first = len(tracer.spans) if traced else 0
        if traced:
            tracer.counts.clear()
            tracer.install()
        t = perf_counter()
        try:
            out = wl.rep(pool[k], rec)
        except Exception:
            errors.append(traceback.format_exc())
            break
        finally:
            if traced:
                tracer.uninstall()
        wall = perf_counter() - t
        rep = {"instance": k, "traced": traced, "times": rec.times,
               "checks": rec.checks, "wall_s": wall}
        if traced:
            self_s, calls = tracer.self_times(first)
            rep["self_s"], rep["calls"] = dict(self_s), dict(calls)
            rep["counts"] = dict(tracer.counts)
            rep["resolve_eta_s"] = sum(e - s for n_, s, e, _ in tracer.spans[first:]
                                       if n_ == "solver.resolve_eta")
        reps.append(rep)
        checks.extend(rec.checks)
        if k in digests:
            checks.append(("deterministic_results", out["digest"] == digests[k]))
        else:
            # Gap, model size and the final checks, once per instance and
            # outside every timed region.
            digests[k] = out["digest"]
            final = Recorder()
            try:
                gap_rel, size = wl.finish(pool[k], out, final, layers)
            except Exception:
                errors.append(traceback.format_exc())
                break
            gaps.append(gap_rel)
            sizes.append(size)
            checks.extend(final.checks)
        del out
        if measured >= MIN_REPS[trace] and perf_counter() - start + wall > seconds:
            break
    return reps, checks, gaps, sizes, errors


def layer_values(spec, traced_reps, untraced, layers):
    first = traced_reps[0]
    values = {}
    for metric in spec["per_layer"]:
        key = metric["name"]
        if key.endswith(".self_s"):
            span = key[: -len(".self_s")]
            values[key] = median([r["self_s"].get(span, 0.0) for r in traced_reps])
        elif key.endswith(".calls"):
            values[key] = first["calls"].get(key[: -len(".calls")], 0)
        elif key in first["counts"]:
            values[key] = first["counts"][key]
    values["solver.resolve_eta.s"] = median([r["resolve_eta_s"] for r in traced_reps])
    values["trace.overhead_s"] = (median([op_s(r, "train") for r in traced_reps])
                                  - median([op_s(r, "train") for r in untraced]))
    values["trace.self_cover"] = median([sum(r["self_s"].values()) / r["wall_s"]
                                         for r in traced_reps])
    values["trace.bounds_s"] = median([op_s(r, "bounds") for r in traced_reps])
    values.update(layers)
    for metric in spec["per_layer"]:
        values.setdefault(metric["name"], 0)
    return values


def emit(spec, name, seed, trace, values, attempted, failed, record):
    print(f"workload {name}  seed {seed}  trace {trace}")
    for key, value in record["context"].items():
        print(f"  context.{key} = {value}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(bounds_s="s", error_rate="ratio")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    shown = list(metrics) + [k for k in ("bounds_s", "error_rate") if not trace and k in values]
    for key in shown:
        note = "" if key in metrics else "  (not gated)"
        print(f"  {key} = {values[key]!r} {units[key]}{note}")
    for error in record["errors"]:
        print(error, file=sys.stderr)
    for check in record["failed_checks"]:
        print(f"  FAILED check {check}")
    complete = len(metrics) == len(listed)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


def run_all(spec, args):
    """Each workload in its own process, one after another."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "adakern" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a full checkout; src/adakern or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(spec, args)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    values, attempted, failed, record = run_workload(
        spec, args.workload, args.seed, args.seconds, args.trace)
    return emit(spec, args.workload, args.seed, args.trace, values, attempted, failed, record)


if __name__ == "__main__":
    sys.exit(main())
