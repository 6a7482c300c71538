"""scripts/bench_memory_cf.py: one repeat runs and prints every scorer."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_memory_cf.py"
spec = importlib.util.spec_from_file_location("bench_memory_cf", SCRIPT)
bench_memory_cf = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_memory_cf)


def test_one_repeat_prints_times_and_digests(capsys):
    bench_memory_cf.main(["--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("interactions 600x250")
    assert "run 4000 pairs" in lines[0]
    assert [line.split()[0] for line in lines[1:]] == [
        "item_cf", "user_cf", "swing", "llr", "bigraph"]
    digests = [re.search(r"cold median .* warm median .* fit median "
                         r"-?[0-9.]+ s  peak [0-9.]+ MiB  sha256 ([0-9a-f]{64})$",
                         line) for line in lines[1:]]
    assert all(digests)
