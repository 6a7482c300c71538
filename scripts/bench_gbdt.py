#!/usr/bin/env python3
"""Time `gbdt.train`, the feature screen, `gbdt.predict` and
`gbdt.oof_ndcg` on a fixed synthetic table and fingerprint their results.

The table is shaped like a pipeline valid table (4,000 rows x 37
columns): dense scores, sparse scores that are mostly zero, and a few
low-cardinality count columns, with labels drawn from a logistic model of
some of them. The training parameters are those of the screen and ranker
fits: 15 leaves, 15 rounds, learning rate 0.1, min_data_in_leaf 10, l2
1.0, feature_fraction 0.8. The screen is `selection.run_selection` of
that table against a second table drawn the same way, with the
perfbench rank_small screen settings: 2 folds, 1 shuffle, cv_epsilon
-0.005, and a trainer of 15 leaves, 4 rounds, learning rate 0.1,
min_data_in_leaf 10. The prediction is `gbdt.predict` of the trained
model on the same table. The NDCG is `gbdt.oof_ndcg` of the table's 100
users' 40 rows each, ranked by a seeded normal score vector: one
grouping of the rows into a ranked run and one NDCG@10 over it.

Prints the median wall times over --repeats calls of each, the sha256 of
the model's canonical JSON, the sha256 of the screen's kept list and
report, the sha256 of the predictions' float64 bytes and the NDCG's
value, so two checkouts can be compared for speed and for identical
results (`measure(repeats)` returns the same figures as a dict):

    PYTHONPATH=src python scripts/bench_gbdt.py --repeats 7
"""

import argparse
import hashlib
import json
import statistics
import time

import numpy as np

from cmrec import gbdt, selection
from cmrec.features import FeatureTable

SEED = 0
N_ROWS, N_DENSE, N_SPARSE, N_COUNT = 4000, 17, 14, 6
PARAMS = gbdt.GbdtParams(num_leaves=15, n_rounds=15, learning_rate=0.1,
                         min_data_in_leaf=10, l2_leaf_reg=1.0,
                         feature_fraction=0.8, seed=0)
SCREEN = dict(trainer=gbdt.GbdtParams(num_leaves=15, n_rounds=4,
                                      learning_rate=0.1, min_data_in_leaf=10),
              folds=2, n_shuffles=1, shift_threshold=0.10, cv_epsilon=-0.005,
              seed=0)


def make_table(seed: int = SEED) -> FeatureTable:
    rng = np.random.default_rng(seed)
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


def timed(fn, repeats: int, fingerprint):
    """Median, min and max wall time of repeats calls, and the sha256 of
    the one fingerprint (bytes) every call's result gives."""
    times, digests = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(fingerprint(result)).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"repeated calls disagree: {sorted(digests)}")
    return result, (statistics.median(times), min(times), max(times)), digests.pop()


def measure(repeats: int) -> dict:
    """The (median, min, max) wall seconds of repeats calls of the
    training, the screen, the prediction and the NDCG, the digests of the
    first three results and the NDCG's value. Each training call bins the
    table, as every fit of the pipeline does."""
    table = make_table()
    model, train_s, digest = timed(
        lambda: gbdt.train(table, PARAMS,
                           gbdt.bin_rows(table.values, PARAMS.max_bins)),
        repeats, lambda m: json.dumps(gbdt.model_to_dict(m),
                                      sort_keys=True).encode("utf-8"))
    test = make_table(SEED + 1)
    (kept, _), screen_s, screen_digest = timed(
        lambda: selection.run_selection(table, test, **SCREEN), repeats,
        lambda result: json.dumps(result, sort_keys=True).encode("utf-8"))
    _, predict_s, predict_digest = timed(
        lambda: gbdt.predict(model, table), repeats,
        lambda preds: preds.tobytes())
    scores = np.random.default_rng(SEED).normal(size=table.n_rows)
    ndcg, ndcg_s, _ = timed(lambda: gbdt.oof_ndcg(table, scores), repeats,
                            lambda value: repr(value).encode())
    return {"rows": table.n_rows, "columns": len(table.columns),
            "trees": len(model.trees), "train_s": train_s, "sha256": digest,
            "kept": len(kept), "screen_s": screen_s,
            "screen_sha256": screen_digest, "predict_s": predict_s,
            "predict_sha256": predict_digest, "ndcg_s": ndcg_s,
            "ndcg": ndcg}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed calls of each (default 5)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    out = measure(args.repeats)
    print(f"table {out['rows']}x{out['columns']} seed {SEED}; "
          f"{out['trees']} trees")
    med, lo, hi = out["train_s"]
    print(f"median {med:.4f} s over {args.repeats} calls "
          f"(min {lo:.4f}, max {hi:.4f})")
    print(f"sha256 {out['sha256']}")
    med, lo, hi = out["screen_s"]
    print(f"screen kept {out['kept']} of {out['columns']}; median "
          f"{med:.4f} s over {args.repeats} calls (min {lo:.4f}, max {hi:.4f})")
    print(f"screen sha256 {out['screen_sha256']}")
    med, lo, hi = out["predict_s"]
    print(f"predict {out['rows']} rows; median {med:.4f} s over "
          f"{args.repeats} calls (min {lo:.4f}, max {hi:.4f})")
    print(f"predict sha256 {out['predict_sha256']}")
    med, lo, hi = out["ndcg_s"]
    print(f"oof_ndcg {out['rows']} rows; median {med:.5f} s over "
          f"{args.repeats} calls (min {lo:.5f}, max {hi:.5f})")
    print(f"oof_ndcg {out['ndcg']!r}")


if __name__ == "__main__":
    main()
