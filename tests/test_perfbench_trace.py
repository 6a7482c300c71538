"""perfbench's tracer binds cmrec's arguments by name: a traced rep of the
unmodified perfbench/rep.py fails no stage call and leaves no note of a
function or argument it could not find.

Runs one full rank_small rep, ingest through report, in a child process
(about 4 s on a 2-core host)."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def rep_env() -> dict:
    """The environment perfbench/run.py gives its reps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.child_env()


def test_a_traced_rank_small_rep_binds_every_probe(tmp_path):
    out = tmp_path / "rep.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "rep.py"),
         "--workload", "rank_small", "--seed", "29",
         "--workdir", str(tmp_path / "rep"), "--out", str(out),
         "--spawned", repr(time.monotonic()), "--trace", "1"],
        cwd=ROOT, env=rep_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["failed"] == 0, result["problems"]
    assert result["notes"] == []
    layers = result["layers"]
    for name in ("features.read_table.calls", "features.write_table.calls",
                 "features.cache.misses"):
        assert layers[name] > 0, name
