#!/usr/bin/env python3
"""Benchmark pairs of two source trees, and fixed-seed work counts.

Pair mode runs ``perfbench/run.py`` from two sibling copies of the
repository, a parent and a change, alternately for ``--rounds`` rounds per
workload: round i runs both trees at benchmark seed ``--seed`` + i, the
parent first in even rounds and the change first in odd ones.  It writes
``BENCH_<tag>.json`` at the root of the change tree: every run's metrics
line, per side the median and quartiles of each end-to-end metric, the
rounds the change won by the direction ``BENCHMARK.json`` gives each metric
(ties count for neither), and the work counts of both trees, taken in
``--rounds`` alternating rounds too, with the same summary of their CPU
seconds.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads canonical_pair cli_session --rounds 10 --seconds 20 \\
        --seed 41 --tag newton-finish

Count mode (``--counts TREE``) prints, as one JSON line, the work of the
80 criterion-3 fits of each estimator on sample seeds 13000-13009 (n 100
and 400, the preset's grids, K=1) in TREE, with one BLAS thread: scca's
LADMM outer iterations and glasso's eigendecompositions (ADMM iterations)
and CG products, the exact counts that do not depend on the host, and the
CPU seconds of each, which do.  Under ``panel_scca`` it adds, per sample
seed 500 and 501, the bootstrap panel's scca sweep (the preset's grid, K=3,
V=5: 24 fits): outer iterations, uncertified fits, pairs that reached
``max_outer`` and CPU seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

COUNT_SEEDS = range(13000, 13010)
COUNT_N = (100, 400)
PANEL_SEEDS = (0, 1)


def work_counts(tree):
    """The criterion-3 work counts of the package under ``tree/src``."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from regcca.datamodel import center_and_covariance, make_folds
    from regcca.estimators import scca_fit, sweep_trajectory
    from regcca.experiments import CANONICAL_PAIR_DEFAULTS as cfg, _bootstrap_truth, preset_config
    from regcca.glasso import glasso_fit
    from regcca.synth import canonical_pair_covariance, mvn_sample

    cov, _ = canonical_pair_covariance(cfg["p"], cfg["q"], [cfg["rho1"]], cfg["support_size"],
                                       within_view="suo_sp", seed=cfg["model_seed"])
    counts = dict.fromkeys(("scca_fits", "scca_outer_iterations", "scca_uncertified",
                            "glasso_fits", "glasso_eigendecompositions", "glasso_cg_products",
                            "scca_cpu_s", "glasso_cpu_s"), 0)
    for seed in COUNT_SEEDS:
        for n in COUNT_N:
            data, sample = center_and_covariance(mvn_sample(cov, n, seed=1000 * seed + n))
            for tau in cfg["grids"]["scca"]:
                start = time.process_time()
                est = scca_fit(data, tau, 1)
                counts["scca_cpu_s"] += time.process_time() - start
                counts["scca_fits"] += 1
                counts["scca_outer_iterations"] += sum(est.provenance.info["outer_iterations"])
                counts["scca_uncertified"] += not est.provenance.converged
            for lam in cfg["grids"]["gcca"]:
                start = time.process_time()
                diagnostics = glasso_fit(sample.joint(), lam).diagnostics
                counts["glasso_cpu_s"] += time.process_time() - start
                counts["glasso_fits"] += 1
                counts["glasso_eigendecompositions"] += diagnostics["iterations"]
                counts["glasso_cg_products"] += diagnostics["cg_products"]

    # the bootstrap panel's scca sweep, as run_bootstrap_panel_bench runs it
    panel = preset_config("bootstrap-panel", {})
    boot_cov = _bootstrap_truth(panel)
    counts["panel_scca"] = {}
    for s in PANEL_SEEDS:
        data, _ = center_and_covariance(mvn_sample(boot_cov, panel["n"], seed=500 + s))
        folds = make_folds(data.n, panel["V"], seed=s)
        start = time.process_time()
        traj = sweep_trajectory("scca", data, panel["grids"]["scca"], folds, panel["K"], seed=s)
        cpu = time.process_time() - start
        fits = list(traj.estimates.values())
        counts["panel_scca"][str(500 + s)] = {
            "fits": len(fits), "failures": len(traj.failures),
            "outer_iterations": sum(sum(e.provenance.info["outer_iterations"]) for e in fits),
            "uncertified": sum(not e.provenance.converged for e in fits),
            "capped_pairs": sum(e.provenance.info["returned"].count("capped") for e in fits),
            "cpu_s": cpu}
    return counts


def tree_counts(tree):
    """``work_counts`` of ``tree``, in a fresh interpreter of this script."""
    done = subprocess.run([sys.executable, __file__, "--counts", str(tree)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_benchmark(tree, workload, seed, seconds):
    """The metrics line of one ``perfbench/run.py`` run in ``tree``."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(runs, better):
    """Per metric: each side's quartiles, and the rounds the change won."""
    out = {}
    for name, direction in better.items():
        sides = {side: [run[side]["metrics"][name]["value"] for run in runs]
                 for side in ("parent", "change")}
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {side: dict(zip(("q1", "median", "q3"), quartiles(values)))
                     for side, values in sides.items()}
        out[name]["change_wins"] = wins
    return out


def count_run(tree):
    """``tree_counts`` of ``tree`` with their CPU seconds as a metrics line."""
    counts = tree_counts(tree)
    cpu = {name: counts[name] for name in ("scca_cpu_s", "glasso_cpu_s")}
    cpu.update({f"panel_scca_{seed}_cpu_s": panel["cpu_s"]
                for seed, panel in counts["panel_scca"].items()})
    return {"metrics": {name: {"value": value} for name, value in cpu.items()}, "counts": counts}


def alternating(rounds, measure, label):
    """``measure(side, i)`` of both sides in each round i, the parent first
    in even rounds; prints each round's ``label`` metric."""
    runs = []
    for i in range(rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs.append({"first": order[0], **{side: measure(side, i) for side in order}})
        print(f"round {i + 1}/{rounds}: {label} parent "
              f"{runs[-1]['parent']['metrics'][label]['value']:.3f} change "
              f"{runs[-1]['change']['metrics'][label]['value']:.3f}", flush=True)
    return runs


def pairs(args):
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    report = {"rounds": args.rounds, "seconds": args.seconds, "first_seed": args.seed,
              "workloads": {}}
    for workload in args.workloads:
        print(workload, flush=True)
        runs = alternating(args.rounds, lambda side, i: run_benchmark(
            trees[side], workload, args.seed + i, args.seconds), "cpu_s")
        for i, run in enumerate(runs):
            run["seed"] = args.seed + i
        report["workloads"][workload] = {"runs": runs, "summary": summarise(runs, better)}
    print("counts", flush=True)
    runs = alternating(args.rounds, lambda side, i: count_run(trees[side]), "scca_cpu_s")
    report["counts"] = {"runs": runs, "summary": summarise(
        runs, dict.fromkeys(runs[0]["parent"]["metrics"], "lower"))}
    path = trees["change"] / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", metavar="TREE",
                        help="print the criterion-3 and panel work counts of TREE and exit")
    parser.add_argument("--parent", help="the parent tree")
    parser.add_argument("--change", default=".", help="the changed tree (default: .)")
    parser.add_argument("--workloads", nargs="+", default=["canonical_pair", "cli_session"])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tag", help="names BENCH_<tag>.json")
    args = parser.parse_args(argv)
    if args.counts:
        print(json.dumps(work_counts(args.counts)))
        return 0
    if not (args.parent and args.tag):
        parser.error("pair mode needs --parent and --tag")
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    pairs(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
