"""scripts/bench_memory_cf.py: one repeat runs and prints every scorer,
with the digests of today's numerics."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_memory_cf.py"
spec = importlib.util.spec_from_file_location("bench_memory_cf", SCRIPT)
bench_memory_cf = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_memory_cf)

DIGESTS = [
    "42cafd00c095b26134b17784c7c74abe7838ec3adefc5674592698c8414f1573",
    "c105092d5462d9138bd234bc6c219584d22da1f613d9fe5803b92bab83f5390b",
    "04cae9a8e86af2cca22dacc08a50aa187743ac635e7bb2ca1a05c285cd848414",
    "3bfe3717bd7d4d4ac72c0ad09c46a0bebf0e7324874a806f4bb9bb8a4b33b9ff",
    "420a20ddf20c10e014328bae7e695d07f2d8be37926b66dca0c628e049b0b4c0",
]


def test_one_repeat_prints_times_and_digests(capsys, assert_digests):
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
    assert_digests([d.group(1) for d in digests], DIGESTS)
