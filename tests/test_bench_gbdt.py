"""scripts/bench_gbdt.py: one repeat trains and prints the model digest
of today's numerics."""

import importlib.util
import re
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_gbdt.py"
spec = importlib.util.spec_from_file_location("bench_gbdt", SCRIPT)
bench_gbdt = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_gbdt)

DIGEST = "3127efcdeeeab166f197102062c42bc30634eb7a4ed5293bb2391bc9cdfe9e47"


def test_one_repeat_prints_time_and_digest(capsys, monkeypatch,
                                           assert_digests):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--repeats", "1"])
    bench_gbdt.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "table 4000x37 seed 0; 15 trees"
    assert lines[1].startswith("median ")
    digest = re.fullmatch(r"sha256 ([0-9a-f]{64})", lines[2])
    assert digest
    assert_digests([digest.group(1)], [DIGEST])
