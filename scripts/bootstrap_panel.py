#!/usr/bin/env python3
"""Parametric-bootstrap panel: four estimators swept over penalty and fold.

Builds a fixed oracle covariance by graphical-lasso-bootstrapping synthetic
seed data, redraws n samples per seed, and sweeps rcca/spls/scca/gcca over
their grids with V-fold cross-validation.  Records CV correlation criteria
next to their oracle counterparts, the top-3 subspace errors and whether
every fit of the cell converged.
"""

import argparse
from pathlib import Path

from regcca.datamodel import write_csv_table, write_json
from regcca.experiments import (
    BOOTSTRAP_PANEL_DEFAULTS,
    BOOTSTRAP_PANEL_FIELDS,
    run_bootstrap_panel_bench,
    summarise_bootstrap_panel,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="bench_bootstrap_panel", help="output directory")
    parser.add_argument("--seeds", type=int, default=BOOTSTRAP_PANEL_DEFAULTS["n_seeds"])
    parser.add_argument("--n", type=int, default=BOOTSTRAP_PANEL_DEFAULTS["n"])
    args = parser.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        records = run_bootstrap_panel_bench(n_seeds=args.seeds, n=args.n)
    except ValueError as exc:
        # the arguments only size the run, so the preset rejected one of them
        parser.error(str(exc))

    write_csv_table(outdir / "records.csv", BOOTSTRAP_PANEL_FIELDS,
                    [[r.get(f) for f in BOOTSTRAP_PANEL_FIELDS] for r in records])

    summary = summarise_bootstrap_panel(records, BOOTSTRAP_PANEL_DEFAULTS["kinds"])
    write_json(outdir / "summary.json", summary)
    for kind, vals in summary.items():
        if not vals["seeds_used"]:
            print(f"{kind}: no seed with a scored cell")
            continue
        print(f"{kind}: cv-oracle gap={vals['median_cv_oracle_gap_r2s1']:.3f} "
              f"vt_U3={vals['median_vt_U3']:.3f} wt_U3={vals['median_wt_U3']:.3f} "
              f"best R2s3-cv={vals['median_best_R2s3_cv']:.3f} "
              f"non-converged cells={vals['nonconverged_cells']}")


if __name__ == "__main__":
    main()
