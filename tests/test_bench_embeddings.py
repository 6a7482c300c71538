"""scripts/bench_embeddings.py: one repeat runs and prints every kernel,
with the digests of today's numerics and the skip-gram chunk counts."""

import importlib.util
import re
from pathlib import Path

from cmrec import embeddings as emb

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_embeddings.py"
spec = importlib.util.spec_from_file_location("bench_embeddings", SCRIPT)
bench_embeddings = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_embeddings)

DIGESTS = [
    "c2b9270765c121cab9c33eb6dbeb6bc2bb8b3f91351ec81ae829b9b5e2bd6924",
    "10f543df14ba2558ba0a8df1abf6b35f6895fa74e0508592908fb870e9864074",
    "aaa8495a8a53e668c12f5dfe54c7fac013cb1df729cf3a8fea97c7a89e771620",
    "f9212281fd89d501bc12cb55a0de48744fb252dd7f41c52ee99802f1dce6d91c",
    "1ec431dffe32c6eb3ab753f9dd2460f5e5f74369014de707969a1fdba9bd08ff",
    "175a7d5d5ddc950006b7f8b771b62643f508256e5c257e41715ca79390996b8f",
]


def test_one_repeat_prints_times_and_digests(capsys, assert_digests):
    bench_embeddings.main(["--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("matrix 500x200")
    kernels = ["generate_walks", "train_skipgram walks",
               "train_skipgram histories", "train_lightgcn",
               "embedding_score dot", "embedding_score cosine"]
    assert [line.split(" median")[0].strip() for line in lines[1:]] == kernels
    digests = [re.search(r"sha256 ([0-9a-f]{64})$", line) for line in lines[1:]]
    assert all(digests)
    assert_digests([d.group(1) for d in digests], DIGESTS)
    chunks = [re.search(r" tokens  (\d+) chunks  [0-9.]+ us/chunk  sha256",
                        line) for line in lines[2:4]]
    assert all(chunks)
    assert [int(c.group(1)) for c in chunks] == [2800, 2000]


def test_chunk_count_is_the_updates_train_skipgram_makes(monkeypatch):
    m = bench_embeddings.make_matrix()
    calls = []
    real = emb._sgns_chunk
    monkeypatch.setattr(emb, "_sgns_chunk",
                        lambda *args: calls.append(1) or real(*args))
    params = bench_embeddings.SKIPGRAM
    long_walk = [list(range(200)) * 2]             # 3,970 pairs: 4 chunks
    for corpus in (emb.user_history_sequences(m, shuffles=2, seed=3),
                   [[1], [2, 3], [4, 5, 6]] + long_walk):
        calls.clear()
        emb.train_skipgram(corpus, params, 200)
        assert bench_embeddings.chunk_count(corpus, params) == len(calls)
    assert len(calls) == (2 + 4) * params.epochs
