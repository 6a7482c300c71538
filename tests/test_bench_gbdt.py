"""scripts/bench_gbdt.py: one repeat trains, screens, predicts and takes
the out-of-fold NDCG, and prints the model digest, the screen digest, the
prediction digest and the NDCG of today's numerics."""

import importlib.util
import re
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_gbdt.py"
spec = importlib.util.spec_from_file_location("bench_gbdt", SCRIPT)
bench_gbdt = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_gbdt)

DIGEST = "3127efcdeeeab166f197102062c42bc30634eb7a4ed5293bb2391bc9cdfe9e47"
SCREEN_DIGEST = "42043c4c42476eaedc893a8916942ccd22b3ec3e4cd26941f858e904fc0fff33"
PREDICT_DIGEST = "ba660d7d9df23cba628829502dc8a0e211d084f03a7234447a78d6cc5ab1ad83"
NDCG = 0.2089107483443792


def test_one_repeat_prints_time_and_digest(capsys, monkeypatch,
                                           assert_digests):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--repeats", "1"])
    bench_gbdt.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "table 4000x37 seed 0; 15 trees"
    assert lines[1].startswith("median ")
    digest = re.fullmatch(r"sha256 ([0-9a-f]{64})", lines[2])
    assert lines[3].startswith("screen kept 9 of 37; median ")
    screen = re.fullmatch(r"screen sha256 ([0-9a-f]{64})", lines[4])
    assert lines[5].startswith("predict 4000 rows; median ")
    predict = re.fullmatch(r"predict sha256 ([0-9a-f]{64})", lines[6])
    assert lines[7].startswith("oof_ndcg 4000 rows; median ")
    assert lines[8] == f"oof_ndcg {NDCG!r}"
    assert digest and screen and predict
    assert_digests([digest.group(1), screen.group(1), predict.group(1)],
                   [DIGEST, SCREEN_DIGEST, PREDICT_DIGEST])
