#!/usr/bin/env python3
"""Time the feature-table I/O on a fixed synthetic table and fingerprint
what it writes and reads.

The table is shaped like a pipeline valid table (4,000 rows x 37 columns,
100 users with 40 candidates each, labeled): 10 scorer columns of
full-precision scores, 40% of them 0.0, each with a 0/1 missing flag,
then 17 statistic-like columns that repeat per user or per item (counts,
their log1p, mean ratings). Three kernels run on it:

    write     features.write_table of the table: its TSV, its catalog and
              its stored arrays
    read_all  features.read_table of every column, the read select makes:
              the arrays write_table stored under the TSV's sha256
    read_8    features.read_table of 8 columns (columns=, out of order),
              the read train makes

Prints, for each, the median time over --repeats calls, the tracemalloc
peak of one more call (untimed) and the sha256 of the TSV bytes (write) or
of the float64 bits read (reads), so two checkouts can be compared for
speed, memory and identical outputs (`measure(repeats)` returns the same
figures as a dict):

    PYTHONPATH=src python scripts/bench_table_io.py --repeats 7
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
from cmrec.features import FeatureTable

SEED = 0
N_USERS, N_CANDIDATES, N_ITEMS = 100, 40, 1500
N_SCORERS, N_STATS = 10, 17
READ_COLUMNS = ("f20", "f3", "f0", "f36", "f11", "f28", "f7", "f15")


def make_table() -> FeatureTable:
    rng = np.random.default_rng(SEED)
    n = N_USERS * N_CANDIDATES
    user = np.repeat(np.arange(N_USERS), N_CANDIDATES)
    item = np.concatenate([rng.choice(N_ITEMS, N_CANDIDATES, replace=False)
                           for _ in range(N_USERS)])
    scores = rng.exponential(size=(n, N_SCORERS))
    missing = rng.random((n, N_SCORERS)) < 0.4
    scores[missing] = 0.0
    columns = []
    for j in range(N_SCORERS):
        columns += [scores[:, j], missing[:, j].astype(np.float64)]
    user_count = rng.poisson(20.0, N_USERS).astype(np.float64)[user]
    item_count = rng.poisson(8.0, N_ITEMS).astype(np.float64)[item]
    stats = [user_count, np.log1p(user_count), item_count,
             rng.uniform(1, 5, N_ITEMS)[item]]
    columns += [stats[k % 4] * (1 + k // 4) for k in range(N_STATS)]
    values = np.column_stack(columns)
    labels = (rng.random(n) < 0.05).astype(np.int8)
    return FeatureTable(tuple(f"u{u}" for u in user),
                        tuple(f"i{i}" for i in item),
                        tuple(f"f{j}" for j in range(values.shape[1])),
                        values, labels)


def timed(call, digest, repeats: int) -> tuple[float, float, str]:
    """Median time of repeats calls, tracemalloc peak (MiB) of one more,
    and the digest (taken untimed) of what every call gave."""
    times, digests = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - start)
        digests.add(digest(out))
    tracemalloc.start()
    out = call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    digests.add(digest(out))
    if len(digests) != 1:
        raise SystemExit(f"repeated calls disagree: {sorted(digests)}")
    return statistics.median(times), peak / 2 ** 20, digests.pop()


def measure(repeats: int) -> dict:
    """The TSV's size, and per kernel its median seconds over repeats
    calls, its tracemalloc peak (MiB) and its digest."""
    table = make_table()
    with tempfile.TemporaryDirectory() as tmp:
        tsv, catalog = Path(tmp) / "features.tsv", Path(tmp) / "catalog.json"
        cache = Path(tmp) / "cache"

        def file_digest(_):
            return hashlib.sha256(tsv.read_bytes()).hexdigest()

        def bits_digest(read):
            return hashlib.sha256(
                np.ascontiguousarray(read.values).tobytes()).hexdigest()

        results = {"write": timed(
            lambda: features.write_table(table, tsv, catalog, {}, cache),
            file_digest, repeats)}
        size, digest = tsv.stat().st_size, file_digest(None)
        results["read_all"] = timed(
            lambda: features.read_table(tsv, digest, cache), bits_digest,
            repeats)
        results["read_8"] = timed(
            lambda: features.read_table(tsv, digest, cache, READ_COLUMNS),
            bits_digest, repeats)
    return {"rows": table.n_rows, "columns": len(table.columns), "bytes": size,
            "kernels": {name: dict(zip(("median_s", "peak_mib", "sha256"), r))
                        for name, r in results.items()}}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed calls of each kernel (default 5)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    out = measure(args.repeats)
    print(f"table {out['rows']}x{out['columns']} seed {SEED}, "
          f"{out['bytes']} bytes")
    for name, k in out["kernels"].items():
        print(f"{name:<8} median {k['median_s']:.4f} s  "
              f"peak {k['peak_mib']:.2f} MiB  sha256 {k['sha256']}")


if __name__ == "__main__":
    main()
