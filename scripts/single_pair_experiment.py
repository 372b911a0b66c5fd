#!/usr/bin/env python3
"""Single-canonical-pair benchmark: estimator error versus sample size.

Plants one sparse canonical pair (rho = 0.9, support 5) in a banded
sparse-precision model, draws n samples per seed, fits each estimator over
its penalty grid and records the oracle correlation and first-pair errors.
Writes a long-format CSV plus a per-(kind, n) summary of grid-best medians.
"""

import argparse
from pathlib import Path

from regcca.datamodel import write_csv_table, write_json
from regcca.experiments import (
    CANONICAL_PAIR_DEFAULTS,
    CANONICAL_PAIR_FIELDS,
    run_canonical_pair_bench,
    summarise_canonical_pair,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="bench_single_pair", help="output directory")
    parser.add_argument("--seeds", type=int, default=CANONICAL_PAIR_DEFAULTS["n_seeds"])
    parser.add_argument("--n", type=int, nargs="+",
                        default=CANONICAL_PAIR_DEFAULTS["n_list"],
                        help="sample sizes to benchmark")
    parser.add_argument("--kinds", nargs="+", default=CANONICAL_PAIR_DEFAULTS["kinds"],
                        choices=list(CANONICAL_PAIR_DEFAULTS["grids"]))
    args = parser.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        records = run_canonical_pair_bench(n_seeds=args.seeds, n_list=args.n, kinds=args.kinds)
    except ValueError as exc:
        # the arguments only size the run, so the preset rejected one of them
        parser.error(str(exc))

    write_csv_table(outdir / "records.csv", CANONICAL_PAIR_FIELDS,
                    [[r[f] for f in CANONICAL_PAIR_FIELDS] for r in records])

    summary = summarise_canonical_pair(records, args.kinds, args.n)
    printable = {f"{kind}@n={n}": vals for (kind, n), vals in summary.items()}
    write_json(outdir / "summary.json", printable)
    for key in sorted(printable):
        vals = printable[key]
        if not vals["seeds_used"]:
            print(f"{key}: no seed with a scored penalty")
            continue
        print(f"{key}: oracle rho={vals['median_rho_oracle']:.3f} "
              f"wt_u1={vals['median_wt_u1']:.3f} vt_u1={vals['median_vt_u1']:.3f}")


if __name__ == "__main__":
    main()
