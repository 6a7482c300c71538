#!/usr/bin/env python3
"""cmrec benchmark: cold pipeline reps of one workload, timed per stage.

    python3 perfbench/run.py --workload rank_small --seed 29 --seconds 40 --trace 0

Run from the root of a source checkout. Each rep is a fresh process with a
fresh workspace (see rep.py). Reps repeat until --seconds would be
exceeded, with at least three.

--trace 0: rep i uses the dataset generated from seed + 1000 * i. The last
line of output is a JSON object with the end-to-end metrics of
BENCHMARK.json: times are medians over the reps, at the reference host
speed of rep.py, and weighted_ndcg10 is the mean over the first three
datasets, which every run completes.

--trace 1: all reps use the dataset of --seed, alternating traced and
untraced, starting traced. The metrics are the per-layer ones: span times
are wall seconds, medians over the traced reps; the tracing overhead is the
traced minus the untraced median pipeline_s. All reps must give identical
NDCG values and the traced reps identical counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0
MIN_REPS = 3
DATASET_SEED_STEP = 1000
E2E_STAGES = {"prerank_s": "prerank", "rerun_s": "rerun",
              "select_s": "select", "train_s": "train"}
# Per-layer stats with these suffixes are times; every other stat is a count
# and must repeat exactly between traced reps.
TIME_SUFFIXES = ("wall_s", "self_s")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_rep(workload: str, seed: int, traced: bool, index: int,
            run_dir: Path, timeout: float) -> dict:
    """One rep in a child process; `seed` is the dataset's synth seed."""
    rep_dir = run_dir / f"rep{index}"
    out = run_dir / f"rep{index}.json"
    # Spans of the latest traced run of each workload.
    spans = WORK / "traces" / f"{workload}-rep{index}.jsonl"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(rep_dir),
           "--trace", str(int(traced)), "--out", str(out)]
    if traced:
        cmd += ["--spans", str(spans)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(start)], cwd=ROOT,
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
        error = ((proc.stderr.strip() or f"exit code {proc.returncode}")
                 if proc.returncode else "")
    except subprocess.TimeoutExpired:
        error = f"rep timed out after {timeout:.0f}s"
    wall = time.monotonic() - start
    shutil.rmtree(rep_dir, ignore_errors=True)
    if error or not out.is_file():
        return {"crashed": error or "rep wrote no result", "wall": wall,
                "attempted": 1, "failed": 1, "traced": traced, "seed": seed}
    result = json.loads(out.read_text(encoding="utf-8"))
    result.update(wall=wall, seed=seed)
    return result


def run_reps(workload: str, seed: int, seconds: float, trace: bool,
             run_dir: Path) -> list[dict]:
    """Reps until the next one would end after `seconds`."""
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        index = len(reps)
        if trace:
            traced, rep_seed = index % 2 == 0, seed
        else:
            traced, rep_seed = False, seed + DATASET_SEED_STEP * index
        elapsed = time.monotonic() - start
        reps.append(run_rep(workload, rep_seed, traced, index, run_dir,
                            max(1.0, TIME_LIMIT_S - elapsed)))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall"] for r in reps)
        if (len(reps) >= MIN_REPS and elapsed + typical > seconds
                or elapsed + typical > TIME_LIMIT_S):
            return reps


def consistency_problems(reps: list[dict]) -> list[str]:
    """Reps of one dataset must agree on every NDCG, and traced reps on
    every count."""
    problems = []
    first: dict[int, dict] = {}
    for rep in reps:
        if "weighted" not in rep:
            continue
        ref = first.setdefault(rep["seed"], rep)
        if (rep["weighted"], rep["ndcg"]) != (ref["weighted"], ref["ndcg"]):
            problems.append(f"NDCG of dataset {rep['seed']} differs between "
                            f"reps: {rep['ndcg']} vs {ref['ndcg']}")
    traced = [r for r in reps if r["traced"] and "layers" in r]
    for rep in traced[1:]:
        for key, value in traced[0]["layers"].items():
            if (not key.endswith(TIME_SUFFIXES)
                    and rep["layers"].get(key) != value):
                problems.append(f"count {key} differs between traced reps: "
                                f"{rep['layers'].get(key)} vs {value}")
    return problems


def median_of(reps: list[dict], get) -> float:
    return statistics.median(get(r) for r in reps)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    values = {
        "setup_s": median_of(reps, lambda r: r["setup_s"]),
        "pipeline_s": median_of(reps, lambda r: r["pipeline_s"]),
        "cpu_s": median_of(reps, lambda r: r["cpu_s"]),
        "peak_rss_mb": median_of(reps, lambda r: r["peak_rss_mb"]),
        "weighted_ndcg10": statistics.fmean(
            r["weighted"] for r in reps[:MIN_REPS]),
    }
    for name, stage in E2E_STAGES.items():
        values[name] = median_of(reps, lambda r: r["stage_s"][stage])
    return values


def per_layer(reps: list[dict], names) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (median_of(traced, lambda r: r["pipeline_s"])
                            - median_of(plain, lambda r: r["pipeline_s"]))
        elif name.endswith(TIME_SUFFIXES):
            values[name] = median_of(traced,
                                     lambda r: r["layers"].get(name, 0.0))
        else:
            values[name] = traced[0]["layers"].get(name, 0)
    return values


def count_src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        print(f"error: {bench_path} not found", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=29,
                    help="seed of the synthetic inputs (default 29)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cmrec" / "pipeline.py").is_file():
        print(f"error: no cmrec source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        reps = run_reps(args.workload, args.seed, args.seconds,
                        bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    consistency = consistency_problems(reps)
    problems = list(consistency)
    for i, rep in enumerate(reps):
        if "crashed" in rep:
            problems.append(f"rep {i} crashed: {rep['crashed']}")
        problems.extend(f"rep {i}: {p}" for p in rep.get("problems", []))
    complete = [r for r in reps if "crashed" not in r and "weighted" in r]
    traced = [r for r in complete if r["traced"]]
    if not complete or (args.trace and (not traced or len(traced) == len(complete))):
        for line in problems:
            print(f"problem: {line}", file=sys.stderr)
        print("error: not enough complete reps to report", file=sys.stderr)
        return 1

    if not args.trace and len(complete) < MIN_REPS:
        problems.append(f"fewer than {MIN_REPS} reps completed")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps) + len(consistency)
    if args.trace:
        spec = bench["per_layer"]
        values = per_layer(complete, [m["name"] for m in spec])
    else:
        spec = bench["end_to_end"]
        values = end_to_end(complete)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(reps)} reps ({len(traced)} traced) on datasets "
          f"{sorted({r['seed'] for r in reps})}, "
          f"{attempted} stage calls, {failed} failed")
    print("environment " + json.dumps(dict(
        complete[0]["environment"], seed=args.seed,
        src_lines=count_src_lines())))
    for r in complete:
        stages = " ".join(f"{k} {v:.3f}" for k, v in r["stage_s"].items())
        raw = " ".join(f"{k} {v:.3f}" for k, v in r["raw_stage_s"].items())
        print(f"rep dataset {r['seed']}{' traced' if r['traced'] else ''}: "
              f"setup {r['setup_s']:.3f} pipeline {r['pipeline_s']:.3f} "
              f"({stages}) s; wall: setup {r['raw_setup_s']:.3f} ({raw}) s, "
              f"reference kernel {r['kernel_s'] * 1000:.1f} ms")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    for note in sorted({n for r in traced for n in r.get("notes", [])}):
        print(f"note: {note}")
    for line in problems:
        print(f"problem: {line}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
