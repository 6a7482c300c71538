#!/usr/bin/env python3
"""Time the node2vec walks, skip-gram and LightGCN training and run
scoring on a fixed bipartite matrix and fingerprint their outputs.

The matrix is shaped like the all-markets matrix of a perfbench target
(500 users x 200 items, about 5% dense, ratings 1-5). The walks are those
of the `node2vec_dfs` scorer (p 1, q 0.5, length 20, two per node); the
skip-gram runs (dimension 16, window 5, five negatives, two epochs) train
on those walks and on two shuffled copies of every user history, as the
`node2vec_dfs` and `word2vec` scorers do. LightGCN trains as the
`embed_small` workload's scorer does (dimension 16, three layers, node
dropout 0.2, four epochs). Run scoring scores a fixed run of 40 candidates
for each of 100 users, one of them unknown: the dot over the LightGCN
table and the cosine over the word2vec table with its derived user
vectors.

Prints the median wall time of each kernel over --repeats calls and the
sha256 of the walks, of each table (keys and vector bytes in key order)
and of the scores (score bytes, then missing flags), so two checkouts can
be compared for speed and for identical outputs:

    PYTHONPATH=src python scripts/bench_embeddings.py --repeats 5
"""

import argparse
import hashlib
import statistics
import time

import numpy as np

from cmrec import embeddings as emb
from cmrec.data import SparseInteractionMatrix

SEED = 0
N_USERS, N_ITEMS, DENSITY = 500, 200, 0.05
WALKS = emb.WalkParams(p=1.0, q=0.5, walk_length=20, walks_per_node=2, seed=1)
SKIPGRAM = emb.SkipGramParams(dim=16, window=5, negatives=5, epochs=2, seed=2)
LIGHTGCN = emb.LightGcnParams(layers=3, dim=16, node_dropout=0.2, epochs=4,
                              seed=4)
RUN_USERS, RUN_CANDIDATES = 100, 40


def make_matrix() -> SparseInteractionMatrix:
    rng = np.random.default_rng(SEED)
    users, items = np.nonzero(rng.random((N_USERS, N_ITEMS)) < DENSITY)
    ratings = rng.integers(1, 6, size=len(users)).astype(np.float64)
    return SparseInteractionMatrix.from_pairs(users, items, ratings,
                                              N_USERS, N_ITEMS)


def walks_digest(walks) -> str:
    return hashlib.sha256(np.array(walks, dtype=np.int64).tobytes()).hexdigest()


def table_digest(table: emb.EmbeddingTable) -> str:
    digest = hashlib.sha256()
    for key in sorted(table.vectors):
        digest.update(key.encode("utf-8"))
        digest.update(np.asarray(table.vectors[key], dtype=np.float64).tobytes())
    return digest.hexdigest()


def make_run() -> tuple[np.ndarray, np.ndarray]:
    """Aligned (user, item) ids: RUN_CANDIDATES distinct items for each of
    RUN_USERS users, the last of them unknown (-1)."""
    rng = np.random.default_rng(SEED + 1)
    users = np.r_[rng.choice(N_USERS, RUN_USERS - 1, replace=False), -1]
    items = [rng.choice(N_ITEMS, RUN_CANDIDATES, replace=False)
             for _ in range(RUN_USERS)]
    return np.repeat(users, RUN_CANDIDATES), np.concatenate(items)


def scores_digest(result) -> str:
    scores, missing = result
    return hashlib.sha256(np.asarray(scores, dtype=np.float64).tobytes()
                          + np.asarray(missing, dtype=bool).tobytes()
                          ).hexdigest()


def timed(repeats: int, fn, fingerprint):
    """(median seconds, fingerprint, last result) over repeats calls; the
    calls must all give the same fingerprint."""
    times, digests = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
        digests.add(fingerprint(result))
    if len(digests) != 1:
        raise SystemExit(f"repeated calls disagree: {sorted(digests)}")
    return statistics.median(times), digests.pop(), result


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed calls of each kernel (default 5)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    m = make_matrix()
    history = emb.user_history_sequences(m, shuffles=2, seed=3)
    print(f"matrix {N_USERS}x{N_ITEMS}, {m.nnz} edges, seed {SEED}")
    secs, digest, walks = timed(
        args.repeats, lambda: emb.generate_walks(m, WALKS), walks_digest)
    print(f"generate_walks           median {secs:.4f} s  "
          f"{len(walks)} walks  sha256 {digest}")
    for label, corpus in (("walks", walks), ("histories", history)):
        secs, digest, skipgram = timed(
            args.repeats, lambda: emb.train_skipgram(corpus, SKIPGRAM),
            table_digest)
        print(f"train_skipgram {label:<9} median {secs:.4f} s  "
              f"{sum(map(len, corpus))} tokens  sha256 {digest}")
    binary = m.binarized()
    secs, digest, lightgcn = timed(
        args.repeats, lambda: emb.train_lightgcn(binary, LIGHTGCN),
        table_digest)
    print(f"train_lightgcn           median {secs:.4f} s  "
          f"{binary.nnz} edges  sha256 {digest}")
    word2vec = emb.derive_user_vectors(m, skipgram)   # the histories table
    users, items = make_run()
    for metric, table in (("dot", lightgcn), ("cosine", word2vec)):
        secs, digest, _ = timed(
            args.repeats,
            lambda: emb.embedding_score(table, users, items, metric=metric),
            scores_digest)
        print(f"embedding_score {metric:<8} median {secs:.4f} s  "
              f"{len(items)} pairs  sha256 {digest}")


if __name__ == "__main__":
    main()
