"""scripts/bench_table_io.py: one repeat runs and prints every kernel."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_table_io.py"
spec = importlib.util.spec_from_file_location("bench_table_io", SCRIPT)
bench_table_io = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_table_io)


def test_one_repeat_prints_times_and_digests(capsys):
    bench_table_io.main(["--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("table 4000x37 seed 0")
    assert [line.split()[0] for line in lines[1:]] == [
        "write", "read_all", "read_8"]
    assert all(re.search(r"median [0-9.]+ s  peak [0-9.]+ MiB  "
                         r"sha256 [0-9a-f]{64}$", line) for line in lines[1:])
