#!/usr/bin/env python3
"""Time the five memory-based prerank scorers on a fixed synthetic dataset
and fingerprint their feature columns.

The interactions span two markets (600 users x 250 items, about 6% dense,
ratings 1-5); the run file holds 100 users with 40 candidates each, ten of
them users without any interaction (cold). Each scorer (item_cf, user_cf,
swing, llr, bigraph, default parameters) runs over the union of both
markets: "cold" times features.run_plan of a one-spec plan on a fresh
PlanContext whose fit ids are the run's known ids, as prerank sets them,
so it fits the model for the run's users or candidates only (the rows the
scoring reads), scores the run and stores its column in an empty cache
directory of its own, as a prerank that misses the cache does; "warm"
times the registry's score alone, on a model from the registry's fit for
the same ids.

Prints the median of each over --repeats calls, the median of the
per-repeat differences cold minus warm (the fit alone), the tracemalloc
peak of one more cold plan (untimed) and the sha256 of the columns' values
(feature and missing columns), so two checkouts can be compared for speed,
memory and identical outputs (`measure(repeats)` returns the same figures
as a dict):

    PYTHONPATH=src python scripts/bench_memory_cf.py --repeats 5
"""

import argparse
import hashlib
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from cmrec import features
from cmrec.data import CombinationSpec, IdEncoder, Interactions, RunFile

SEED = 0
N_USERS, N_ITEMS, DENSITY = 600, 250, 0.06
RUN_USERS, COLD_USERS, CANDIDATES = 100, 10, 40
SCORERS = ("item_cf", "user_cf", "swing", "llr", "bigraph")
COMBINATION = CombinationSpec("t1", ("s1", "t1"))
# the cache key each cold plan stores its column under
KEY = "0" * 64


def make_inputs() -> tuple[Interactions, IdEncoder, IdEncoder, RunFile]:
    rng = np.random.default_rng(SEED)
    users, items = np.nonzero(rng.random((N_USERS, N_ITEMS)) < DENSITY)
    ratings = rng.integers(1, 6, size=len(users)).astype(np.float64)
    markets = np.where(rng.random(len(users)) < 0.5, "s1", "t1")
    rows = Interactions(users, items, ratings, markets,
                        np.full(len(users), "train"))
    # run users: the last COLD_USERS ids have no interaction at all
    n_all = N_USERS + COLD_USERS
    user_enc = IdEncoder.fit([f"u{u:04d}" for u in range(n_all)])
    item_enc = IdEncoder.fit([f"i{i:04d}" for i in range(N_ITEMS)])
    run_users = np.r_[rng.choice(N_USERS, RUN_USERS - COLD_USERS,
                                 replace=False), np.arange(N_USERS, n_all)]
    run = RunFile.from_lists(
        [f"u{u:04d}" for u in run_users],
        [[f"i{i:04d}" for i in rng.choice(N_ITEMS, CANDIDATES, replace=False)]
         for u in run_users])
    return rows, user_enc, item_enc, run


def values_digest(values: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def measure(repeats: int) -> dict:
    """The dataset's row and run-pair counts, and per scorer the medians
    of repeats cold plans, warm scores and their differences, the peak of
    one more cold plan and the digest of its columns."""
    rows, users, items, run = make_inputs()
    ids = features.encode_run(run, users, items)
    fit_ids = features.known_ids(*ids)
    with tempfile.TemporaryDirectory() as tmp:
        def fresh() -> Path:
            """An empty cache directory for one cold plan to store into."""
            return Path(tempfile.mkdtemp(dir=tmp))

        matrix = features.PlanContext(rows, users, items, fit_ids,
                                      fresh()).matrix(COMBINATION)
        scorers = {}
        for name in SCORERS:
            plan = [features.ScorerSpec(name, {}, COMBINATION)]
            scorer = features.SCORERS[name]
            cold, warm, digests = [], [], set()
            for _ in range(repeats):
                ctx = features.PlanContext(rows, users, items, fit_ids,
                                           fresh())
                start = time.perf_counter()
                _, values, _, failures = features.run_plan(plan, ctx, *ids, KEY)
                cold.append(time.perf_counter() - start)
                if failures:
                    raise SystemExit(f"{name} failed: {failures}")
                digests.add(values_digest(values))
                model = scorer.fit(matrix, scorer.params(), *fit_ids)
                start = time.perf_counter()
                scores = scorer.score(model, matrix, *ids)
                warm.append(time.perf_counter() - start)
                digests.add(values_digest(np.column_stack(scores)))
            tracemalloc.start()
            _, values, _, _ = features.run_plan(
                plan, features.PlanContext(rows, users, items, fit_ids,
                                           fresh()), *ids, KEY)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            digests.add(values_digest(values))
            if len(digests) != 1:
                raise SystemExit(f"{name}: repeated plans disagree: {sorted(digests)}")
            scorers[name] = {
                "cold_s": statistics.median(cold), "warm_s": statistics.median(warm),
                "fit_s": statistics.median(c - w for c, w in zip(cold, warm)),
                "peak_mib": peak / 2 ** 20, "sha256": digests.pop()}
    return {"rows": len(rows), "pairs": len(run.candidates), "scorers": scorers}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed plans of each scorer and kind (default 5)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    out = measure(args.repeats)
    print(f"interactions {N_USERS}x{N_ITEMS}, {out['rows']} rows, "
          f"run {out['pairs']} pairs, seed {SEED}")
    for name, r in out["scorers"].items():
        print(f"{name:<8} cold median {r['cold_s']:.4f} s  "
              f"warm median {r['warm_s']:.4f} s  "
              f"fit median {r['fit_s']:.4f} s  peak {r['peak_mib']:.2f} MiB  "
              f"sha256 {r['sha256']}")


if __name__ == "__main__":
    main()
