#!/usr/bin/env python3
"""Time `gbdt.train` on a fixed synthetic table and fingerprint the model.

The table is shaped like a pipeline valid table (4,000 rows x 37
columns): dense scores, sparse scores that are mostly zero, and a few
low-cardinality count columns, with labels drawn from a logistic model of
some of them. The parameters are those of the screen and ranker fits:
15 leaves, 15 rounds, learning rate 0.1, min_data_in_leaf 10, l2 1.0,
feature_fraction 0.8.

Prints the median wall time over --repeats calls and the sha256 of the
model's canonical JSON, so two checkouts can be compared for speed and
for identical trees:

    PYTHONPATH=src python scripts/bench_gbdt.py --repeats 7
"""

import argparse
import hashlib
import json
import statistics
import time

import numpy as np

from cmrec import gbdt
from cmrec.features import FeatureTable

SEED = 0
N_ROWS, N_DENSE, N_SPARSE, N_COUNT = 4000, 17, 14, 6
PARAMS = gbdt.GbdtParams(num_leaves=15, n_rounds=15, learning_rate=0.1,
                         min_data_in_leaf=10, l2_leaf_reg=1.0,
                         feature_fraction=0.8, seed=0)


def make_table() -> FeatureTable:
    rng = np.random.default_rng(SEED)
    dense = rng.normal(size=(N_ROWS, N_DENSE))
    sparse = rng.exponential(size=(N_ROWS, N_SPARSE))
    sparse[rng.random((N_ROWS, N_SPARSE)) < 0.7] = 0.0
    counts = rng.poisson(3.0, size=(N_ROWS, N_COUNT)).astype(np.float64)
    values = np.round(np.hstack([dense, sparse, counts]), 4)
    logit = (values[:, 0] + 0.5 * values[:, 1] + 0.8 * values[:, N_DENSE]
             - 0.3 * values[:, N_DENSE + N_SPARSE] - 1.5)
    labels = (rng.random(N_ROWS) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int8)
    users = tuple(f"u{r // 40}" for r in range(N_ROWS))
    items = tuple(f"i{r}" for r in range(N_ROWS))
    columns = tuple(f"f{j}" for j in range(values.shape[1]))
    return FeatureTable(users, items, columns, values, labels)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed gbdt.train calls (default 5)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    table = make_table()
    times, digests = [], set()
    for _ in range(args.repeats):
        start = time.perf_counter()
        model = gbdt.train(table, PARAMS)
        times.append(time.perf_counter() - start)
        canon = json.dumps(gbdt.model_to_dict(model), sort_keys=True)
        digests.add(hashlib.sha256(canon.encode("utf-8")).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"repeated fits disagree: {sorted(digests)}")
    print(f"table {table.n_rows}x{len(table.columns)} seed {SEED}; "
          f"{len(model.trees)} trees")
    print(f"median {statistics.median(times):.4f} s over {args.repeats} calls "
          f"(min {min(times):.4f}, max {max(times):.4f})")
    print(f"sha256 {digests.pop()}")


if __name__ == "__main__":
    main()
