"""scripts/identity_check.py: a checkout against itself writes the same
workspace files.

The slow smoke test of the suite: it runs two full rank_small reps, ingest
through report, in child processes (about 7 s on a 2-core host)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_checkout_matches_itself_on_rank_small():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "identity_check.py"),
         str(ROOT), str(ROOT), "--workload", "rank_small"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    [line] = proc.stdout.splitlines()
    assert line.startswith("rank_small: 0 of ") and line.endswith(
        " files differ")
