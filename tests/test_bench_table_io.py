"""scripts/bench_table_io.py: one repeat runs and prints every kernel,
with the digests of the bytes it writes and the values it reads."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_table_io.py"
spec = importlib.util.spec_from_file_location("bench_table_io", SCRIPT)
bench_table_io = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_table_io)

DIGESTS = [
    "5d17994dd771e8fd6bd7b448886a7dded7e266321b46a513fea052a220320b2c",
    "4634111862b7a5376c96dce799c63de844c73ef5001119a89e1f45daffe4b4ef",
    "4d1cbeeebca9caa6a9a42241b68b2e7e94f74f2f9a3a80d6b4e6393d52c26594",
]


def test_one_repeat_prints_times_and_digests(capsys, assert_digests):
    bench_table_io.main(["--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("table 4000x37 seed 0")
    assert [line.split()[0] for line in lines[1:]] == [
        "write", "read_all", "read_8"]
    digests = [re.search(r"median [0-9.]+ s  peak [0-9.]+ MiB  "
                         r"sha256 ([0-9a-f]{64})$", line) for line in lines[1:]]
    assert all(digests)
    assert_digests([d.group(1) for d in digests], DIGESTS)
