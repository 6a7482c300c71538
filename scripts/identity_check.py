#!/usr/bin/env python3
"""Check that two checkouts write the same workspace files, bit for bit.

    python scripts/identity_check.py PARENT CHANGE [--workload NAME ...]

For each workload (default: every one BENCHMARK.json lists), runs each
checkout's own perfbench/rep.py once on the seed-29 dataset into a temporary
directory, in the environment that checkout's perfbench/run.py gives its
reps (its child_env: that checkout's src/ on PYTHONPATH, its BLAS thread
count, PYTHONHASHSEED=0). Then compares the two workspaces with
diff_workspaces.diff and prints

    <workload>: k of N files differ

followed by the differing names. Exits 1 if any file differs or a rep
fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from diff_workspaces import diff, files

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
# The dataset seed of ROADMAP's bit-identity rule.
SEED = 29


def rep_env(checkout: Path) -> dict:
    """The environment checkout's own perfbench/run.py gives its reps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", checkout / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.child_env()


def run_rep(checkout: Path, workload: str, workdir: Path) -> list[str]:
    """Run checkout's rep.py into workdir; its failures, empty if none."""
    out = workdir / "rep.json"
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "rep.py"),
         "--workload", workload, "--seed", str(SEED),
         "--workdir", str(workdir), "--out", str(out),
         "--spawned", repr(time.monotonic())],
        cwd=checkout, env=rep_env(checkout), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    if proc.returncode or not out.is_file():
        return [proc.stderr.strip() or f"exit code {proc.returncode}"]
    return json.loads(out.read_text(encoding="utf-8"))["problems"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run (repeatable; default: all)")
    args = ap.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "rep.py").is_file():
            ap.error(f"not a checkout with perfbench/rep.py: {checkout}")
    status = 0
    for workload in args.workload or WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="identity_check_") as tmp:
            sides = []
            for name, checkout in (("parent", args.parent),
                                   ("change", args.change)):
                workdir = Path(tmp) / name
                problems = run_rep(checkout.resolve(), workload, workdir)
                for problem in problems:
                    print(f"{workload}: {name} rep failed: {problem}")
                status |= bool(problems)
                sides.append(workdir / "workspace")
            lines = diff(*sides)
            print(f"{workload}: {len(lines)} of "
                  f"{len(files(sides[0]) | files(sides[1]))} files differ")
            for line in lines:
                print(f"  {line}")
            status |= bool(lines)
    return status


if __name__ == "__main__":
    sys.exit(main())
