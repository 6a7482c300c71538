"""One cold rep of a workload, in a fresh process and a fresh workspace.

Generates the workload's inputs, then calls the public stage functions in
this order: ingest; a cold prerank of both targets; a warm prerank pass
over both targets and the filled cache; then select, train and evaluate per
target; then report. Each stage call is timed and its outputs checked. The
result (timings, CPU time, peak RSS, NDCG values, failures) is written as
JSON to --out. With --trace 1 the cmrec functions are traced and the spans
are written to --spans.

Times are reported at a fixed reference host speed. The speed of a shared
host drifts by up to 1.5x over seconds to minutes, so a fixed reference
kernel (reference_kernel) is timed before the first stage call and after
every stage call, and each call's wall time is scaled by REF_KERNEL_S over
the mean of the kernel times on either side of it. The raw wall times are
kept in the result next to the scaled ones.

Run by run.py with src/ on PYTHONPATH; not meant to be called directly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from cmrec import pipeline
from cmrec.synth import generate
from cmrec.util import CmrecError

import tracer as tracing
from workloads import WORKLOADS

# Median time of reference_kernel on the 2-core 2.1 GHz Xeon host the
# benchmark was defined on; scaled times are seconds on that host.
REF_KERNEL_S = 0.045

STAGE_FILES = {
    "prerank": ("features_valid.tsv", "features_valid.catalog.json",
                "features_test.tsv", "features_test.catalog.json"),
    "select": ("kept.txt", "selection_report.tsv", "selection_report.json"),
    "train": ("model.json", "metrics.json", "oof.tsv", "test_ranked.tsv"),
    "evaluate": ("evaluation.json",),
}
SNAPSHOT_FILES = ("meta.json", "encoders.json", "summary.json",
                  "rows_user.npy", "rows_item.npy", "rows_rating.npy",
                  "rows_market.npy", "rows_split.npy")


def reference_kernel() -> tuple[float, float]:
    """Fixed interpreter work of the kind the stages do: arithmetic, small
    objects and dict inserts. Its working set stays near 2 MB, so it does
    not raise the peak RSS. Returns its (wall, CPU) seconds."""
    start, cpu = time.perf_counter(), time.process_time()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(8):
        total += len({str(i): [i] for i in range(10_000)})
    return time.perf_counter() - start, time.process_time() - cpu


class StageFailed(Exception):
    """A stage call raised; the rep stops because later stages need it."""


class Rep:
    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)
        self.raw_times: dict[str, float] = defaultdict(float)
        self.kernel_s: list[float] = []
        self.kernel_cpu_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.time_kernel()

    def time_kernel(self) -> float:
        wall, cpu = reference_kernel()
        self.kernel_s.append(wall)
        self.kernel_cpu_s += cpu
        return wall

    def stage(self, key: str, fn, *args, check=None):
        """Time one stage call; count it failed if it raises a CmrecError
        or if `check(result)` reports a problem."""
        self.attempted += 1
        before = self.kernel_s[-1]
        start = time.perf_counter()
        try:
            result = fn(*args)
        except CmrecError as exc:
            self.failed += 1
            self.problems.append(f"{key}: {type(exc).__name__}: {exc}")
            raise StageFailed from exc
        wall = time.perf_counter() - start
        after = self.time_kernel()
        self.raw_times[key] += wall
        self.times[key] += wall * REF_KERNEL_S / ((before + after) / 2)
        problems = check(result) if check is not None else []
        if problems:
            self.failed += 1
            self.problems.extend(f"{key}: {p}" for p in problems)
        return result


def _missing(directory: Path, names) -> list[str]:
    return [f"missing {directory.name}/{n}" for n in names
            if not (directory / n).is_file()]


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_stages(rep: Rep, config, ws) -> dict:
    """The workload's stage sequence; returns the NDCG values it produced."""
    out: dict = {"ndcg": {}}
    targets = config.targets
    rep.stage("ingest", pipeline.run_ingest, config,
              check=lambda _s: _missing(ws.snapshot_dir, SNAPSHOT_FILES))

    def table_bytes(target):
        tdir = ws.target_dir(target)
        return {n: (tdir / n).read_bytes() for n in STAGE_FILES["prerank"]}

    cold = {}
    for target in targets:
        rep.stage("prerank", pipeline.run_prerank, config, target,
                  check=lambda _r, t=target: _missing(
                      ws.target_dir(t), STAGE_FILES["prerank"]))
        cold[target] = table_bytes(target)
    for target in targets:
        rep.stage("rerun", pipeline.run_prerank, config, target,
                  check=lambda _r, t=target: [
                      f"warm {t}/{name} differs from the cold one"
                      for name, data in table_bytes(t).items()
                      if data != cold[t][name]])

    for target in targets:
        tdir = ws.target_dir(target)
        rep.stage("select", pipeline.run_select, config, target,
                  check=lambda kept, d=tdir: _missing(d, STAGE_FILES["select"])
                  + ([] if kept else ["no feature kept"]))
        rep.stage("train", pipeline.run_train, config, target,
                  check=lambda _m, d=tdir: _missing(d, STAGE_FILES["train"]))

        def check_eval(report, d=tdir):
            problems = _missing(d, STAGE_FILES["evaluate"])
            if not problems:
                saved = json.loads((d / "evaluation.json").read_text())
                if saved["ndcg_at_10"] != report["ndcg_at_10"]:
                    problems.append("evaluation.json disagrees with the call")
            if not 0.0 < report["ndcg_at_10"] <= 1.0:
                problems.append(f"NDCG@10 {report['ndcg_at_10']} not in (0, 1]")
            return problems

        report = rep.stage("evaluate", pipeline.run_evaluate, config, target,
                           check=check_eval)
        out["ndcg"][target] = report["ndcg_at_10"]

    def check_final(final):
        path = ws.root / "final.json"
        if not path.is_file():
            return ["missing final.json"]
        if json.loads(path.read_text())["weighted"] != final["weighted"]:
            return ["final.json disagrees with the call"]
        if not (math.isfinite(final["weighted"]) and final["weighted"] > 0):
            return [f"weighted NDCG@10 {final['weighted']} is not positive"]
        return []

    out["weighted"] = rep.stage("report", pipeline.run_report, config,
                                check=check_final)["weighted"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    data_dir = args.workdir / "data"
    generate(workload.synth_config(data_dir, args.seed))
    config = workload.pipeline_config(data_dir, args.workdir / "workspace")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(run_id=args.workdir.name)
        tracing.install(tracer)
    setup_s = time.monotonic() - args.spawned

    rep = Rep()
    result: dict = {"setup_s": setup_s * REF_KERNEL_S / rep.kernel_s[0],
                    "raw_setup_s": setup_s}
    try:
        result.update(run_stages(rep, config, pipeline.workspace_for(config)))
    except StageFailed:
        pass
    usage = resource.getrusage(resource.RUSAGE_SELF)
    kernel_s = statistics.median(rep.kernel_s)
    result.update(
        stage_s=dict(rep.times), pipeline_s=sum(rep.times.values()),
        raw_stage_s=dict(rep.raw_times), kernel_s=kernel_s,
        attempted=rep.attempted, failed=rep.failed, problems=rep.problems,
        cpu_s=(usage.ru_utime + usage.ru_stime - rep.kernel_cpu_s)
        * REF_KERNEL_S / kernel_s,
        peak_rss_mb=usage.ru_maxrss / 1024.0, environment=_environment(),
        traced=bool(tracer))
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["notes"] = sorted(tracer.notes)
        if args.spans is not None:
            tracer.write(args.spans)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
