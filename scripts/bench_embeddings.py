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

Prints the median wall time and the median CPU time (process_time) of
each kernel over --repeats calls, for each skip-gram run its count of
chunks (the updates `train_skipgram` makes: each sequence's pairs in
chunks of up to 1,024, every epoch) and its median wall time over that
count in microseconds, and the sha256 of the walks, of each
table and of the scores (score bytes, then missing flags), so two
checkouts can be compared for speed and for identical outputs
(`measure(repeats)` returns the same figures as a dict). CPU time
leaves out the time the process waits while another one runs. A table is
hashed as its present vectors keyed u:<id> and i:<id>, each key then its
vector bytes, in sorted key order; a skip-gram result keys every token as
i:<token>.

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
    rows = {}
    for side, vectors, has in (("u", table.users, table.has_user),
                               ("i", table.items, table.has_item)):
        rows.update((f"{side}:{k}", vectors[k])
                    for k in np.flatnonzero(has).tolist())
    digest = hashlib.sha256()
    for key in sorted(rows):
        digest.update(key.encode("utf-8"))
        digest.update(np.asarray(rows[key], dtype=np.float64).tobytes())
    return digest.hexdigest()


def token_table(vectors, present, meta) -> emb.EmbeddingTable:
    """A skip-gram result as a table of items only."""
    return emb.EmbeddingTable(np.zeros((0, vectors.shape[1])),
                              np.zeros(0, dtype=bool), vectors, present, meta)


def chunk_count(corpus, params: emb.SkipGramParams) -> int:
    """The updates train_skipgram makes over corpus: each sequence of L
    tokens has 2 * sum(L - k for k in 1..min(window, L - 1)) pairs, taken
    in chunks of up to 1,024, in each of params.epochs epochs."""
    lengths = np.array([len(seq) for seq in corpus], dtype=np.int64)
    k = np.arange(1, params.window + 1)
    pairs = 2 * np.maximum(lengths[:, None] - k, 0).sum(axis=1)
    return int(-(-pairs // 1024).sum()) * params.epochs


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
    """({median wall and CPU seconds, fingerprint}, last result) over
    repeats calls; the calls must all give the same fingerprint."""
    walls, cpus, digests = [], [], set()
    for _ in range(repeats):
        wall, cpu = time.perf_counter(), time.process_time()
        result = fn()
        cpus.append(time.process_time() - cpu)
        walls.append(time.perf_counter() - wall)
        digests.add(fingerprint(result))
    if len(digests) != 1:
        raise SystemExit(f"repeated calls disagree: {sorted(digests)}")
    return {"wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus), "sha256": digests.pop()}, result


def measure(repeats: int) -> dict:
    """The matrix's edge count, and per kernel in run order its median
    wall and CPU seconds over repeats calls, the size of its work (count
    and unit; for skip-gram also chunks) and the digest of its result."""
    m = make_matrix()
    history = emb.user_history_sequences(m, shuffles=2, seed=3)
    kernels = {}
    kernels["generate_walks"], walks = timed(
        repeats, lambda: emb.generate_walks(m, WALKS), walks_digest)
    kernels["generate_walks"].update(count=len(walks), unit="walks")
    for label, corpus, n_tokens in (("walks", walks, N_USERS + N_ITEMS),
                                    ("histories", history, N_ITEMS)):
        name = f"train_skipgram {label}"
        kernels[name], skipgram = timed(
            repeats,
            lambda: token_table(*emb.train_skipgram(corpus, SKIPGRAM, n_tokens)),
            table_digest)
        kernels[name].update(count=sum(map(len, corpus)), unit="tokens",
                             chunks=chunk_count(corpus, SKIPGRAM))
    binary = m.binarized()
    kernels["train_lightgcn"], lightgcn = timed(
        repeats, lambda: emb.train_lightgcn(binary, LIGHTGCN), table_digest)
    kernels["train_lightgcn"].update(count=binary.nnz, unit="edges")
    word2vec = emb.derive_user_vectors(    # the histories table
        m, skipgram.items, skipgram.has_item, skipgram.meta)
    users, items = make_run()
    for metric, table in (("dot", lightgcn), ("cosine", word2vec)):
        name = f"embedding_score {metric}"
        kernels[name], _ = timed(
            repeats,
            lambda: emb.embedding_score(table, users, items, metric=metric),
            scores_digest)
        kernels[name].update(count=len(items), unit="pairs")
    return {"edges": m.nnz, "kernels": kernels}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed calls of each kernel (default 5)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    out = measure(args.repeats)
    print(f"matrix {N_USERS}x{N_ITEMS}, {out['edges']} edges, seed {SEED}")
    for name, k in out["kernels"].items():
        chunks = (f"  {k['chunks']} chunks"
                  f"  {k['wall_s'] / k['chunks'] * 1e6:.1f} us/chunk"
                  if "chunks" in k else "")
        print(f"{name:<24} median {k['wall_s']:.4f} s  cpu {k['cpu_s']:.4f} s"
              f"  {k['count']} {k['unit']}{chunks}  sha256 {k['sha256']}")


if __name__ == "__main__":
    main()
