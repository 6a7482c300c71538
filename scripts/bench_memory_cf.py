#!/usr/bin/env python3
"""Time the five memory-based prerank scorers through features.run_plan on
a fixed synthetic dataset and fingerprint their feature columns.

The interactions span two markets (600 users x 250 items, about 6% dense,
ratings 1-5); the run file holds 100 users with 40 candidates each, ten of
them users without any interaction (cold). Each scorer (item_cf, user_cf,
swing, llr, bigraph, default parameters) runs as a one-spec plan over the
union of both markets with no column cache: "cold" times a plan on a fresh
PlanContext, so it fits the model and scores the run; "warm" times a second
plan on the same context, which reuses the fitted model and only scores.

Prints the median of each over --repeats calls, the median of the
per-repeat differences cold minus warm (the fit alone), the tracemalloc
peak of one more cold plan (untimed) and the sha256 of the table's values
(feature and missing columns), so two checkouts can be compared for speed,
memory and identical outputs:

    PYTHONPATH=src python scripts/bench_memory_cf.py --repeats 5
"""

import argparse
import hashlib
import statistics
import time
import tracemalloc

import numpy as np

from cmrec import features
from cmrec.data import CombinationSpec, IdEncoder, Interactions, RunFile

SEED = 0
N_USERS, N_ITEMS, DENSITY = 600, 250, 0.06
RUN_USERS, COLD_USERS, CANDIDATES = 100, 10, 40
SCORERS = ("item_cf", "user_cf", "swing", "llr", "bigraph")
COMBINATION = CombinationSpec("t1", ("s1", "t1"))


def make_inputs() -> tuple[Interactions, IdEncoder, IdEncoder, RunFile]:
    rng = np.random.default_rng(SEED)
    users, items = np.nonzero(rng.random((N_USERS, N_ITEMS)) < DENSITY)
    ratings = rng.integers(1, 6, size=len(users)).astype(np.float64)
    markets = np.where(rng.random(len(users)) < 0.5, "s1", "t1")
    rows = Interactions(users, items, ratings, markets,
                        np.full(len(users), "train"))
    # run users: the last COLD_USERS ids have no interaction at all
    n_all = N_USERS + COLD_USERS
    user_enc = IdEncoder.fit(f"u{u:04d}" for u in range(n_all))
    item_enc = IdEncoder.fit(f"i{i:04d}" for i in range(N_ITEMS))
    run_users = np.r_[rng.choice(N_USERS, RUN_USERS - COLD_USERS,
                                 replace=False), np.arange(N_USERS, n_all)]
    run = RunFile(tuple(
        (f"u{u:04d}", tuple(f"i{i:04d}" for i in
                            rng.choice(N_ITEMS, CANDIDATES, replace=False)))
        for u in run_users))
    return rows, user_enc, item_enc, run


def table_digest(table: features.FeatureTable) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(table.values, dtype=np.float64).tobytes()
    ).hexdigest()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed plans of each scorer and kind (default 5)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    rows, users, items, run = make_inputs()
    print(f"interactions {N_USERS}x{N_ITEMS}, {len(rows)} rows, "
          f"run {len(run.pairs())} pairs, seed {SEED}")
    for name in SCORERS:
        plan = [features.ScorerSpec(name, {}, COMBINATION)]
        cold, warm, digests = [], [], set()
        for _ in range(args.repeats):
            ctx = features.PlanContext(rows, users, items, cache_dir=None)
            for times in (cold, warm):
                start = time.perf_counter()
                table, failures = features.run_plan(plan, ctx, run)
                times.append(time.perf_counter() - start)
                if failures:
                    raise SystemExit(f"{name} failed: {failures}")
                digests.add(table_digest(table))
        tracemalloc.start()
        table, _ = features.run_plan(
            plan, features.PlanContext(rows, users, items, cache_dir=None), run)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        digests.add(table_digest(table))
        if len(digests) != 1:
            raise SystemExit(f"{name}: repeated plans disagree: {sorted(digests)}")
        fit = statistics.median(c - w for c, w in zip(cold, warm))
        print(f"{name:<8} cold median {statistics.median(cold):.4f} s  "
              f"warm median {statistics.median(warm):.4f} s  "
              f"fit median {fit:.4f} s  peak {peak / 2 ** 20:.2f} MiB  "
              f"sha256 {digests.pop()}")


if __name__ == "__main__":
    main()
