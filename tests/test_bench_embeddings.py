"""scripts/bench_embeddings.py: one repeat runs and prints every kernel."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_embeddings.py"
spec = importlib.util.spec_from_file_location("bench_embeddings", SCRIPT)
bench_embeddings = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_embeddings)


def test_one_repeat_prints_times_and_digests(capsys):
    bench_embeddings.main(["--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("matrix 500x200")
    kernels = ["generate_walks", "train_skipgram walks",
               "train_skipgram histories", "train_lightgcn",
               "embedding_score dot", "embedding_score cosine"]
    assert [line.split(" median")[0].strip() for line in lines[1:]] == kernels
    digests = [re.search(r"sha256 ([0-9a-f]{64})$", line) for line in lines[1:]]
    assert all(digests)
