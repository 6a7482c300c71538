"""Span tracing installed from outside the program.

`install` replaces public functions of the cmrec modules with wrappers
that record one span per call (name, start, end, parent span, run id) and
the per-call counts below. A function is replaced under every module
attribute that holds it, so a name imported with `from .data import
build_matrix` is traced where it is looked up. Spans stay in memory until
the rep ends; `layer_metrics` folds them into `<module>.<function>.<stat>`
sums, with self time taken as a span's duration minus its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _n_kept(records) -> int:
    return sum(1 for rec in records if rec["decision"] == "keep")


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths
               if p is not None and Path(p).is_file())


def _cache_state(cache_dir) -> dict:
    if cache_dir is None or not Path(cache_dir).is_dir():
        return {}
    return {str(p): (st.st_ino, st.st_mtime_ns, st.st_size)
            for p in Path(cache_dir).rglob("*") if p.is_file()
            for st in (p.stat(),)}


def _run_plan_probe(a):
    """Cache hits and misses of one plan: a column whose cache file is
    (re)written during the call was computed, every other one was read."""
    cache_dir = a["ctx"].cache_dir
    before = _cache_state(cache_dir)

    def after(_result):
        written = sum(1 for path, state in _cache_state(cache_dir).items()
                      if before.get(path) != state)
        return {"features.cache.hits": len(a["plan"]) - written,
                "features.cache.misses": written}
    return after


def _read_table_probe(a):
    size = _file_bytes(a["tsv_path"], a.get("catalog_path"))
    return lambda _result: {"bytes": size}


def _screen_probe(table_arg):
    def probe(a):
        cols_in = len(a[table_arg].columns)
        return lambda records: {"cols_in": cols_in,
                                "cols_kept": _n_kept(records)}
    return probe


# function -> probe(bound arguments) -> after(result) -> counts; a count
# key without a dot is prefixed with the function's span name.
TRACED = {
    "pipeline.run_ingest": None,
    "pipeline.run_prerank": None,
    "pipeline.run_select": None,
    "pipeline.run_train": None,
    "pipeline.run_evaluate": None,
    "pipeline.run_report": None,
    "pipeline.load_snapshot": None,
    "data.load_market": None,
    "data.load_run": None,
    "data.build_matrix": None,
    "features.run_plan": _run_plan_probe,
    "features.combination_matrix": None,
    "features.global_statistic_features": None,
    "features.write_table": lambda a: lambda _r: {
        "bytes": _file_bytes(a["tsv_path"], a["catalog_path"])},
    "features.read_table": _read_table_probe,
    "memory_cf.item_cosine_similarity": None,
    "memory_cf.user_cosine_similarity": None,
    "memory_cf.swing_similarity": None,
    "memory_cf.llr_item_similarity": None,
    "memory_cf.score_candidates": lambda a: lambda _r: {
        "pairs": len(a["candidates"])},
    "memory_cf.score_candidates_user_based": lambda a: lambda _r: {
        "pairs": len(a["candidates"])},
    "memory_cf.bigraph_scores": lambda a: lambda r: {"pairs": len(r[0])},
    "embeddings.generate_walks": lambda a: lambda r: {"walks": len(r)},
    "embeddings.user_history_sequences": None,
    "embeddings.train_skipgram": lambda a: lambda _r: {
        "tokens": sum(len(s) for s in a["corpus"]) * a["params"].epochs},
    "embeddings.train_lightgcn": None,
    "embeddings.embedding_score": None,
    "selection.covariate_shift_test": _screen_probe("train"),
    "selection.heuristic_cv_elimination": _screen_probe("table"),
    "selection.null_importance_select": _screen_probe("table"),
    "gbdt.train": lambda a: lambda model: {
        "cells": a["table"].n_rows * len(a["table"].columns),
        "trees": len(model.trees), "rounds": a["params"].n_rounds},
    "gbdt.build_bins": None,
    "gbdt.bin_values": None,
    "gbdt.predict": None,
    "gbdt.kfold_bagging": None,
    "evaluation.ndcg_at_k": None,
    "evaluation.emit_run_file": None,
    "evaluation.read_run_file": None,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        # Functions or counts the tracer could not find in this version of
        # the program; their metrics read zero.
        self.notes: set[str] = set()
        self._stack: list[int] = []

    def call(self, name, fn, signature, probe, args, kwargs):
        after = None
        if probe is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after = probe(bound.arguments)
            except (TypeError, KeyError, AttributeError) as exc:
                self.notes.add(f"{name}: no counts ({type(exc).__name__}: {exc})")
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            try:
                counts = after(result)
            except (TypeError, KeyError, AttributeError) as exc:
                self.notes.add(f"{name}: no counts ({type(exc).__name__}: {exc})")
                counts = {}
            for key, value in counts.items():
                self.counts[key if "." in key else f"{name}.{key}"] += value
        return result

    def layer_metrics(self) -> dict[str, float]:
        """calls, wall_s and self_s per traced function, plus the counts."""
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span in self.spans:
            wall = span["end"] - span["start"]
            out[f"{span['name']}.calls"] += 1
            out[f"{span['name']}.wall_s"] += wall
            out[f"{span['name']}.self_s"] += wall - child_time[span["id"]]
        for key, value in self.counts.items():
            out[key] += value
        looked_up = out["features.cache.hits"] + out["features.cache.misses"]
        out["features.cache.hit_frac"] = (out["features.cache.hits"] / looked_up
                                          if looked_up else 0.0)
        return dict(out)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, one per call, in call order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(span) + "\n" for span in self.spans),
                        encoding="utf-8")


def _wrap(tracer: Tracer, name: str, original, probe):
    signature = inspect.signature(original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(name, original, signature, probe, args, kwargs)
    return wrapper


def install(tracer: Tracer) -> None:
    """Route every function in TRACED that exists through `tracer`."""
    modules = {name.split(".")[0] for name in TRACED}
    for module_name in modules:
        importlib.import_module(f"cmrec.{module_name}")
    loaded = [mod for mod_name, mod in sys.modules.items()
              if mod_name == "cmrec" or mod_name.startswith("cmrec.")]
    for name, probe in TRACED.items():
        module_name, fn_name = name.rsplit(".", 1)
        original = getattr(sys.modules[f"cmrec.{module_name}"], fn_name, None)
        if original is None:
            tracer.notes.add(f"{name}: not found")
            continue
        wrapper = _wrap(tracer, name, original, probe)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
