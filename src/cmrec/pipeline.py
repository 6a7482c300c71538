"""Stage orchestration over one workspace directory.

Stages write into a fixed layout and never touch earlier stages' outputs,
so deleting a stage's files and re-running reproduces them exactly:

    workspace/
      .lock                      held for the duration of any stage
      snapshot/                  ingest: encoded interactions + encoders
        rows_*.npy  encoders.json  meta.json  summary.json  runs/
      <target>/                  per-target stage outputs
        cache/{valid,test}/<feature>.<digest>.npy  per-column score cache
        features_{valid,test}.tsv (+ .catalog.json)  correlation.tsv
        kept.txt  selection_report.{tsv,json}
        grid.json  model.json  metrics.json  oof.tsv  test_ranked.tsv
        evaluation.json
      final.json                 report: weighted multi-market score

The snapshot stays columnar in memory (data.Interactions), and every
pre-ranking scorer sits behind the one registry features.SCORERS: adding a
scorer means adding one entry there, and config validation, the default
plan and the seeding in make_plan follow from it.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path

import numpy as np

from . import data, evaluation, features, gbdt, selection
from .config import PipelineConfig
from .data import CombinationSpec, IdEncoder, Interactions, RunFile
from .util import (ConfigError, DataError, StageError, atomic_save_npy,
                   atomic_write_bytes, atomic_write_text, fmt, stage_seed)


@dataclass(frozen=True)
class Workspace:
    root: Path

    @property
    def snapshot_dir(self) -> Path:
        return self.root / "snapshot"

    def run_path(self, target: str, which: str) -> Path:
        return self.snapshot_dir / "runs" / f"{target}_{which}_run.tsv"

    def target_dir(self, target: str) -> Path:
        return self.root / target

    def features_path(self, target: str, which: str) -> Path:
        return self.target_dir(target) / f"features_{which}.tsv"

    def catalog_path(self, target: str, which: str) -> Path:
        return self.target_dir(target) / f"features_{which}.catalog.json"

    @contextmanager
    def lock(self):
        """Exclusive workspace lock; a held lock is a stage failure."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / ".lock"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                pid = path.read_text(encoding="utf-8").strip() or "unknown"
            except OSError:
                pid = "unknown"
            raise StageError(
                f"workspace {self.root} is locked by another run (pid {pid}); "
                f"remove {path} if that process is dead") from None
        try:
            os.write(fd, f"{os.getpid()}\n".encode())
            os.close(fd)
            yield self
        finally:
            path.unlink(missing_ok=True)


def workspace_for(config: PipelineConfig) -> Workspace:
    return Workspace(Path(config.workspace))


# --------------------------------------------------------------------------
# ingest


def run_ingest(config: PipelineConfig) -> dict:
    """Load every market, dedupe, encode, and snapshot the workspace.

    The snapshot is plain .npy arrays plus JSON, all byte-deterministic,
    so re-ingesting unchanged data yields an identical digest.
    """
    data_dir = Path(config.data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory not found: {data_dir}")
    raw_rows: list[data.RawInteraction] = []
    reports = {}
    for market in config.markets:
        rows, report = data.load_market(data_dir / market, market)
        raw_rows.extend(rows)
        reports[market] = report
    raw_rows = data.dedupe_and_mark_5core(raw_rows)

    runs = {}
    for target in config.targets:
        for which, fname in data.RUN_FILES.items():
            runs[(target, which)] = data.load_run(data_dir / target / fname)

    users, items = data.fit_encoders(raw_rows, list(runs.values()))
    markets = list(config.markets)
    market_code = {m: i for i, m in enumerate(markets)}
    split_code = {s: i for i, s in enumerate(data.SPLITS)}
    arrays = {
        "user": users.encode_many([r.user for r in raw_rows]),
        "item": items.encode_many([r.item for r in raw_rows]),
        "rating": np.array([r.rating for r in raw_rows], dtype=np.float64),
        "market": np.array([market_code[r.market] for r in raw_rows],
                           dtype=np.int64),
        "split": np.array([split_code[r.split] for r in raw_rows],
                          dtype=np.int64),
    }
    rows = _interactions(arrays, markets, data.SPLITS)
    summary = data.summarize(rows)
    summary["load_reports"] = reports

    ws = workspace_for(config)
    snap = ws.snapshot_dir
    (snap / "runs").mkdir(parents=True, exist_ok=True)
    for name, arr in arrays.items():
        atomic_save_npy(snap / f"rows_{name}.npy", arr)
    _write_json(snap / "encoders.json", {"users": list(users.reverse),
                                         "items": list(items.reverse)})
    _write_json(snap / "meta.json", {"markets": markets,
                                     "targets": list(config.targets),
                                     "splits": list(data.SPLITS)})
    _write_json(snap / "summary.json", summary)
    for target, which in runs:
        source = data_dir / target / data.RUN_FILES[which]
        atomic_write_bytes(ws.run_path(target, which), source.read_bytes())
    return summary


def _write_json(path: Path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def snapshot_digest(ws: Workspace) -> str:
    """Content hash over every snapshot file, order-independent."""
    digest = blake2b(digest_size=16)
    snap = ws.snapshot_dir
    for path in sorted(snap.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(snap)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class Snapshot:
    rows: Interactions
    users: IdEncoder
    items: IdEncoder
    markets: tuple[str, ...]
    targets: tuple[str, ...]


def load_snapshot(ws: Workspace) -> Snapshot:
    snap = ws.snapshot_dir
    if not snap.is_dir():
        raise StageError(f"no snapshot in workspace {ws.root}; run ingest first")
    meta = json.loads((snap / "meta.json").read_text(encoding="utf-8"))
    enc = json.loads((snap / "encoders.json").read_text(encoding="utf-8"))
    users, items = IdEncoder.fit(enc["users"]), IdEncoder.fit(enc["items"])
    arrays = {name: np.load(snap / f"rows_{name}.npy")
              for name in ("user", "item", "rating", "market", "split")}
    rows = _interactions(arrays, meta["markets"], meta["splits"])
    return Snapshot(rows, users, items, tuple(meta["markets"]),
                    tuple(meta["targets"]))


def _interactions(arrays: dict, markets, splits) -> Interactions:
    """The snapshot's rows_*.npy arrays as columnar rows; market and split
    are stored as positions in the markets and splits lists."""
    return Interactions(arrays["user"], arrays["item"], arrays["rating"],
                        np.asarray(markets)[arrays["market"]],
                        np.asarray(splits)[arrays["split"]])


# --------------------------------------------------------------------------
# prerank


def _check_target(config: PipelineConfig, target: str) -> None:
    if target not in config.targets:
        raise ConfigError(f"target {target!r} not among configured targets "
                          f"{list(config.targets)}")


def make_plan(config: PipelineConfig, target: str,
              markets: tuple[str, ...]) -> list[features.ScorerSpec]:
    """Expand the configured scorer plans into one spec per combination.

    Seeded scorers get a seed derived from the global seed, the target,
    the scorer name, and the combination, unless the plan pins one.
    """
    plan: list[features.ScorerSpec] = []
    for sc in config.prerank.scorers:
        if sc.combinations == "default":
            combos = features.default_combinations(target, markets,
                                                   config.targets)
        else:
            combos = []
            for combo_markets in sc.combinations:
                unknown = sorted(set(combo_markets) - set(markets))
                if unknown:
                    raise ConfigError(f"combination names unknown markets: "
                                      f"{unknown}")
                try:
                    combos.append(CombinationSpec(
                        target, tuple(sorted(set(combo_markets)))))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from None
        for combo in combos:
            params = dict(sc.params)
            if features.SCORERS[sc.name].seeded and "seed" not in params:
                params["seed"] = stage_seed(config.seed, "prerank", target,
                                            sc.name, combo.combo_id)
            plan.append(features.ScorerSpec(sc.name, params, combo))
    return plan


def _valid_labels(snap: Snapshot, target: str, run: RunFile) -> np.ndarray:
    """Per run pair, 1 if it is one of the target's valid positives."""
    rows = snap.rows
    pos = rows.take((rows.market == target) & (rows.split == "valid_qrel"))
    users, items = features.encode_run(run, snap.users, snap.items)
    n = len(snap.items)
    keys = np.where((users < 0) | (items < 0), -1, users * n + items)
    return np.isin(keys, pos.user * n + pos.item).astype(np.int8)


def run_prerank(config: PipelineConfig, target: str) -> dict:
    """Score both run files with the full plan and write feature tables.

    Completed columns are cached per run file; a re-run recomputes only
    what is missing. Scorer failures abort the stage, but only after all
    surviving columns are on disk, so the next run resumes from cache.
    """
    _check_target(config, target)
    ws = workspace_for(config)
    snap = load_snapshot(ws)
    plan = make_plan(config, target, snap.markets)
    tdir = ws.target_dir(target)
    external = None
    if config.prerank.external_embeddings:
        from . import embeddings as emb
        external = emb.read_embedding_tsv(config.prerank.external_embeddings)

    all_failures: list[dict] = []
    shared_cache: dict = {}
    for which in ("valid", "test"):
        ctx = features.PlanContext(snap.rows, snap.users, snap.items,
                                   cache_dir=tdir / "cache" / which,
                                   model_cache=shared_cache)
        run = data.load_run(ws.run_path(target, which))
        table, failures = features.run_plan(plan, ctx, run)
        all_failures.extend(dict(f, run=which) for f in failures)
        if config.prerank.stats:
            cols, vals, prov = features.global_statistic_features(
                ctx, run, target)
            table = table.with_columns(cols, vals, prov)
        if external is not None:
            matrix = features.combination_matrix(
                ctx, CombinationSpec(target, tuple(sorted(snap.markets))))
            cols, vals, prov = features.external_embedding_features(
                external, run, matrix, ctx)
            table = table.with_columns(cols, vals, prov)
        if which == "valid":
            table = table.with_labels(_valid_labels(snap, target, run))
            scorer_cols = [c for c in table.columns
                           if table.provenance.get(c, {}).get("kind") == "scorer"]
            if len(scorer_cols) >= 1 and table.n_rows >= 2:
                corr, _ = features.feature_correlation(table, scorer_cols)
                features.write_correlation(corr, scorer_cols,
                                           tdir / "correlation.tsv")
        features.write_table(table, ws.features_path(target, which),
                             ws.catalog_path(target, which))

    _write_json(tdir / "prerank_failures.json", all_failures)
    if all_failures:
        names = sorted({f["feature"] for f in all_failures})
        raise StageError(f"{len(all_failures)} scorer runs failed "
                         f"({', '.join(names[:5])}); completed columns are "
                         f"cached, re-run prerank to resume")
    return {"target": target, "n_columns": len(plan)}


# --------------------------------------------------------------------------
# select / train / evaluate / report


def run_select(config: PipelineConfig, target: str) -> list[str]:
    _check_target(config, target)
    ws = workspace_for(config)
    tdir = ws.target_dir(target)
    valid = features.read_table(ws.features_path(target, "valid"),
                                ws.catalog_path(target, "valid"))
    test = features.read_table(ws.features_path(target, "test"),
                               ws.catalog_path(target, "test"))
    sel = config.selection
    kept, records = selection.run_selection(
        valid, test, sel.trainer, sel.folds,
        shift_threshold=sel.shift_threshold, cv_epsilon=sel.cv_epsilon,
        n_shuffles=sel.n_shuffles,
        seed=stage_seed(config.seed, "select", target))
    selection.write_kept(kept, tdir / "kept.txt")
    selection.write_selection_report(records, tdir / "selection_report.tsv",
                                     tdir / "selection_report.json")
    return kept


def run_train(config: PipelineConfig, target: str) -> dict:
    """Grid search (optional), bagged training on valid labels, and test
    prediction; the out-of-fold NDCG@10 is the reported offline score."""
    _check_target(config, target)
    ws = workspace_for(config)
    tdir = ws.target_dir(target)
    kept = selection.read_kept(tdir / "kept.txt")
    valid = _read_kept_columns(ws, target, "valid", kept)
    params = dataclasses.replace(config.ranker.params,
                                 seed=stage_seed(config.seed, "train", target))
    if config.ranker.grid is not None:
        params, results = gbdt.grid_search(valid, config.ranker.grid,
                                           config.ranker.folds, base=params)
        _write_json(tdir / "grid.json",
                    {"results": results,
                     "chosen": dataclasses.asdict(params)})
    bagged = gbdt.kfold_bagging(valid, params, config.ranker.folds)
    offline = gbdt.oof_ndcg(valid, bagged.oof)
    gbdt.save_model(bagged, tdir / "model.json")

    lines = ["user\titem\tlabel\toof_score"]
    for r in range(valid.n_rows):
        lines.append(f"{valid.users[r]}\t{valid.items[r]}"
                     f"\t{int(valid.labels[r])}\t{fmt(bagged.oof[r])}")
    atomic_write_text(tdir / "oof.tsv", "\n".join(lines) + "\n")

    test = _read_kept_columns(ws, target, "test", kept)
    preds = gbdt.bagged_predict(bagged, test)
    run = evaluation.group_ranked_run(test.users, test.items, preds)
    evaluation.emit_run_file(run, tdir / "test_ranked.tsv")

    metrics = {"target": target, "oof_ndcg_at_10": offline,
               "folds": config.ranker.folds,
               "params": dataclasses.asdict(params),
               "n_rows": valid.n_rows, "n_features": len(kept)}
    _write_json(tdir / "metrics.json", metrics)
    return metrics


def _read_kept_columns(ws: Workspace, target: str, which: str,
                       kept: list[str]) -> features.FeatureTable:
    """The kept.txt columns of one feature table, the only ones parsed; a
    column the table lacks (kept.txt older than the last prerank) is a
    DataError."""
    try:
        return features.read_table(ws.features_path(target, which),
                                   ws.catalog_path(target, which),
                                   columns=kept)
    except KeyError as exc:
        raise DataError(
            f"{ws.target_dir(target) / 'kept.txt'} keeps a column that "
            f"{ws.features_path(target, which)} lacks ({exc.args[0]}); "
            f"re-run select") from None


def _snapshot_qrels(snap: Snapshot, target: str, split: str) -> dict[str, set]:
    """user -> relevant items, users in the order of their first row:
    ndcg_at_k averages over the users in this order."""
    rows = snap.rows.take((snap.rows.market == target)
                          & (snap.rows.split == split))
    users, first, counts = np.unique(rows.user, return_index=True,
                                     return_counts=True)
    items = np.split(rows.item[np.argsort(rows.user, kind="stable")],
                     np.cumsum(counts)[:-1])
    return {snap.users.decode(users[k]): {snap.items.decode(i) for i in items[k]}
            for k in np.argsort(first)}


def run_evaluate(config: PipelineConfig, target: str,
                 run_path=None, qrels_path=None) -> dict:
    """NDCG@10 of a ranked run file against qrels (default: this target's
    ranked test run against the ingested test qrels)."""
    _check_target(config, target)
    ws = workspace_for(config)
    tdir = ws.target_dir(target)
    run_path = Path(run_path) if run_path else tdir / "test_ranked.tsv"
    run = evaluation.read_run_file(run_path)
    if qrels_path:
        qrels = evaluation.read_qrels(qrels_path)
    else:
        qrels = _snapshot_qrels(load_snapshot(ws), target, "test_qrel")
    if not qrels:
        raise DataError(f"no qrels available for target {target!r}")
    per_user, mean = evaluation.ndcg_at_k(run, qrels, k=10)
    # Inside the workspace the path is recorded relative to its root, so
    # two workspaces with the same runs write the same evaluation.json.
    run_file = run_path.resolve()
    root = ws.root.resolve()
    report = {"market": target, "ndcg_at_10": mean, "n_users": len(per_user),
              "run_file": (run_file.relative_to(root).as_posix()
                           if run_file.is_relative_to(root) else str(run_path))}
    _write_json(tdir / "evaluation.json", report)
    return report


def run_report(config: PipelineConfig) -> dict:
    """Combine per-target evaluations into the weighted multi-market score."""
    ws = workspace_for(config)
    per_market = {}
    for target in config.targets:
        path = ws.target_dir(target) / "evaluation.json"
        if not path.exists():
            raise StageError(f"no evaluation for target {target!r}; "
                             f"run evaluate first")
        per_market[target] = json.loads(
            path.read_text(encoding="utf-8"))["ndcg_at_10"]
    weights = (dict(config.market_weights) if config.market_weights
               else evaluation.DEFAULT_MARKET_WEIGHTS)
    report = evaluation.metric_report(per_market, weights)
    _write_json(ws.root / "final.json", report)
    return report
