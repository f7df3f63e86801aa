"""Regenerate reference.json, the i_sic tolerances of the correctness check.

    python3 perfbench/make_reference.py

Run from the repository root.  For every workload it runs the commands once
per seed (1001..1000+SEEDS) and records, per sweep point, the mean i_sic and a
tolerance of five standard deviations across seeds (at least MIN_TOL bits).
For workloads that estimate the upper bound it records `ub_sigmas`: i_sic
and UB each carry a jackknife error over n_blk blocks, so their combined
error has about 2 (n_blk - 1) degrees of freedom, and the allowed excess of
i_sic over UB is the one-sided UB_FALSE_ALARM quantile of Student's t at
that count, in combined standard errors.  The entry is tied to the sized
config by its key, so resizing a workload disables its reference check until
this script is run again.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

from run import Bench
from workloads import REFERENCE_PATH, WORKLOADS, i_sic_by_point

SEEDS = 12
MIN_TOL = 0.05
UB_FALSE_ALARM = 1e-4


def main() -> int:
    root = Path.cwd()
    reference = {}
    for name in WORKLOADS:
        workload = WORKLOADS[name]
        per_point = {p: [] for p in workload.powers}
        for seed in range(1001, 1001 + SEEDS):
            bench = Bench(root, name, seed)
            bench.reference = {}
            it = bench.iteration(traced=False, index=0)
            if it["problems"]:
                print(f"{name} seed {seed}: {it['problems']}", file=sys.stderr)
                return 1
            for p, v in i_sic_by_point(bench.rates_path()).items():
                per_point[p].append(v)
        means = [statistics.mean(per_point[p]) for p in workload.powers]
        sds = [statistics.stdev(per_point[p]) for p in workload.powers]
        reference[name] = {
            "key": workload.key,
            "seeds": SEEDS,
            "p_tx_db": workload.powers,
            "i_sic": [round(m, 4) for m in means],
            "tol": [math.ceil(max(5 * sd, MIN_TOL) * 1000) / 1000
                    for sd in sds],
        }
        if workload.has_ub:
            from scipy.stats import t as student_t

            dof = 2 * (workload.config["eval"]["n_blk"] - 1)
            reference[name]["ub_sigmas"] = round(
                float(student_t.ppf(1.0 - UB_FALSE_ALARM, dof)), 2)
        print(name, json.dumps(reference[name]))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
