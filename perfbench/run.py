#!/usr/bin/env python3
"""regcca benchmark: three closed-loop workloads through the public API.

    python3 perfbench/run.py --workload panel --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run sets up the workload's fixed inputs several times (``setup_s`` is the
median of a fresh-interpreter ``import regcca`` plus the input build), then
repeats timed passes until ``--seconds`` have elapsed (``cpu_s`` is the
mean pass), checking each pass's outputs outside the timed region.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it holds the run's details: machine, BLAS
thread count, exact solver counts per pass, criterion summaries and any
failed check.

Times are CPU seconds of this process and its waited-for children (the
import probes, a sweep's pool workers), not wall seconds: on a shared host
the wall time of the same pass moves by a quarter from run to run with the
load of other tenants, its CPU time far less.  The wall time of each pass
is kept in the detail line.

With ``--trace 1`` the passes alternate untraced and traced on the same
inputs; the per-layer metrics are per traced pass and, as spans are timed
on the wall clock, ``trace.overhead_s`` is the mean traced wall time minus
the median untraced one, so the self times of all spans (``bench.pass`` is
the benchmark's own code) add up to the untraced wall time plus the overhead.

BLAS runs on one thread so that solver counts repeat exactly.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import FIT_SPANS, ROOT_SPAN, Interposer, Tracer, span_names, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
SETUP_REPS = 5

END_TO_END_UNITS = {
    "setup_s": "s", "cpu_s": "s", "fits_per_cpu_s": "1/s", "peak_rss_mb": "MB",
    "success_frac": "ratio", "converged_frac": "ratio", "nondegenerate_frac": "ratio",
    "oracle_error": "sin2",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("panel", "canonical_pair", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_seconds():
    """User plus system CPU seconds of this process and of its children that
    have been waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def import_package():
    """Start a fresh interpreter that imports the package; its CPU time
    shows in ``cpu_seconds`` once it has ended."""
    subprocess.run([sys.executable, "-c", "import regcca, regcca.cli"], cwd=ROOT,
                   capture_output=True, timeout=120, check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


def peak_rss_mb():
    """Peak resident memory of this process plus its largest child (the
    set-up import probes, or a sweep's pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_passes(wl, inputs, args, tracer):
    """Timed passes until the time is up; with a tracer, each sample seed
    runs untraced and then traced.  No pass starts that would likely end
    more than half a pass after the time is up, so that a run of long
    passes (one panel sample) stays near ``--seconds``.  Returns (untraced,
    traced) results."""
    untraced, traced = [], []
    start = time.perf_counter()
    j = 0
    while True:
        s = wl.sample_seed(args.seed, j)
        for tr in ((None, tracer) if tracer else (None,)):
            if tr is None:
                c0, t0 = cpu_seconds(), time.perf_counter()
                res = wl.run_pass(inputs, s)
                res.wall_s = time.perf_counter() - t0
                res.cpu_s = cpu_seconds() - c0
                untraced.append(res)
            else:
                with tr.installed():
                    with tr.root():
                        res = wl.run_pass(inputs, s)
                res.wall_s = tr.last_root_s
                traced.append(res)
            res.sample_seed = s
            wl.check_pass(inputs, res)
            # the counts hold what the metrics need; keeping every pass's
            # estimates would make peak memory grow with the pass count
            res.estimates.clear()
            res.raw.clear()
        j += 1
        elapsed = time.perf_counter() - start
        if len(untraced) >= wl.min_passes and elapsed * (j + 0.5) / j >= args.seconds:
            return untraced, traced


def trimmed_mean(values, cut=0.1):
    """Mean of the values left after dropping the lowest and highest tenth.

    Steadier than the median here: the estimates of one pass fall in a
    cluster per estimator kind, and the median jumps between clusters."""
    xs = sorted(values)
    k = int(cut * len(xs))
    return statistics.fmean(xs[k:len(xs) - k]) if xs else float("nan")


def tally(passes):
    """(attempted, failed): fits and commands attempted; failed fits,
    failed commands and outputs that failed a check."""
    attempted = sum(r.fits_attempted + r.commands for r in passes)
    failed = sum(r.fits_failed + r.commands_failed + r.failed_checks for r in passes)
    return attempted, failed


def end_to_end(setup_s, passes):
    def count(key):
        return sum(r.counts[key] for r in passes)

    fits = count("fits")
    errors = [v for r in passes for v in r.oracle_errors]
    attempted, failed = tally(passes)
    values = {
        "setup_s": setup_s,
        "cpu_s": statistics.fmean(r.cpu_s for r in passes),
        "fits_per_cpu_s": fits / sum(r.cpu_s for r in passes),
        "peak_rss_mb": peak_rss_mb(),
        "success_frac": 1.0 - min(failed, attempted) / max(attempted, 1),
        "converged_frac": 1.0 - count("nonconverged") / max(fits, 1),
        "nondegenerate_frac": 1.0 - count("degenerate") / max(fits, 1),
        "oracle_error": trimmed_mean(errors),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, untraced, traced):
    n = len(traced)
    agg = tracer.aggregate()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in [ROOT_SPAN] + span_names():
        if name in tracer.missing:
            continue
        rec = agg.get(name, {"calls": 0, "self_s": 0.0, "durations": []})
        put(f"{name}.self_s", rec["self_s"] / n, "s")
        put(f"{name}.calls", rec["calls"] / n, "count")
        if name in FIT_SPANS:
            p50, tail_pct, tail = tail_percentile(rec["durations"])
            put(f"{name}.p50_ms", 1e3 * p50, "ms")
            put(f"{name}.tail_ms", 1e3 * tail, "ms")
            put(f"{name}.tail_pct", tail_pct, "%")
            put(f"{name}.samples", len(rec["durations"]), "count")

    def count(key):
        return sum(r.counts.get(key, 0) for r in traced) / n

    scca_fits = count("scca_fits")
    put("estimators.scca.inner_iterations", count("scca_inner_iterations"), "count")
    put("estimators.scca.converged_ratio",
        count("scca_converged") / scca_fits if scca_fits else 0.0, "ratio")
    put("estimators.nonconverged", count("nonconverged"), "count")
    put("estimators.degenerate", count("degenerate"), "count")
    put("estimators.sweep.failures", count("sweep_failures"), "count")
    iters = count("glasso_iterations")
    glasso = agg.get("glasso.glasso_fit", {"durations": [], "errors": 0})
    put("glasso.iterations", iters, "count")
    put("glasso.s_per_iteration", sum(glasso["durations"]) / n / iters if iters else 0.0, "s")
    put("glasso.failures", glasso["errors"] / n, "count")
    put("cli.output_files", count("output_files"), "count")
    put("cli.output_bytes", count("output_bytes"), "bytes")
    traced_wall = statistics.fmean(r.wall_s for r in traced)
    put("trace.traced_wall_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - statistics.median(r.wall_s for r in untraced), "s")
    return out


def details(args, wl, setups, untraced, traced, missing):
    passes = untraced + traced
    summaries = [wl.summary(r.records) for r in untraced]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "setup_runs_cpu_s": setups,
        "pass_cpus_s": [r.cpu_s for r in untraced],
        "pass_walls_s": {"untraced": [r.wall_s for r in untraced],
                         "traced": [r.wall_s for r in traced]},
        "solver_counts": [{"sample_seed": r.sample_seed, **r.counts} for r in passes],
        "summaries": [{"sample_seed": r.sample_seed, **s}
                      for r, s in zip(untraced, summaries) if s],
        "problems": [p for r in passes for p in r.problems][:20],
        "missing_spans": missing,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "regcca" / "__init__.py").is_file():
        print(f"benchmark: no regcca package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import regcca
    import workloads

    if Path(regcca.__file__).resolve().parent != (SRC / "regcca").resolve():
        print(f"benchmark: regcca imported from {regcca.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    capture = Interposer()
    try:
        wl = workloads.make(args.workload, capture)
        setups = []
        for _ in range(SETUP_REPS):
            c0 = cpu_seconds()
            import_package()
            inputs = wl.build(args.seed, workdir)
            setups.append(cpu_seconds() - c0)
        tracer = Tracer() if args.trace else None
        untraced, traced = run_passes(wl, inputs, args, tracer)
    finally:
        capture.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted, failed = tally(untraced + traced)
    if args.trace:
        metrics = per_layer(tracer, untraced, traced)
    else:
        metrics = end_to_end(statistics.median(setups), untraced)
    print(json.dumps({"detail": details(args, wl, setups, untraced, traced,
                                        tracer.missing if tracer else [])}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
