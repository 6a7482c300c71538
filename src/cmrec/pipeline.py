"""Stage orchestration over one workspace directory.

Stages write into a fixed layout and never touch earlier stages' outputs,
so deleting a stage's files and re-running reproduces them exactly:

    workspace/
      .lock                      held for the duration of any stage
      snapshot/                  ingest: encoded interactions + encoders
        rows_*.npy  encoders.json  meta.json  summary.json  runs/
      <target>/                  per-target stage outputs
        cache/                   one keyed store, safe to delete: each
                                 <name>.<key>.npy holds its full key and
                                 its arrays, read only under that key; a
                                 successful prerank removes all else
          <feature>.<key>.npy      a column's scores over both runs
          features_{valid,test}.<key>.npy  a table's arrays, keyed by
                                   its TSV's sha256
        features_{valid,test}.tsv (+ .catalog.json)  correlation.tsv
        prerank_failures.json  prerank.inputs.json (the record, last)
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
import hashlib
import json
import os
import shutil
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data, embeddings, evaluation, features, gbdt, selection
from .config import PipelineConfig
from .data import CombinationSpec, IdEncoder, Interactions
from .util import (ConfigError, DataError, StageError, atomic_save_npy,
                   atomic_write_bytes, file_sha256, read_artifact, stage_seed,
                   write_json, write_tsv)


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

    def cache_dir(self, target: str) -> Path:
        """The keyed store of prerank's columns and the tables' arrays."""
        return self.target_dir(target) / "cache"

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
    markets = list(config.markets)
    columns, reports = [], {}
    for code, market in enumerate(markets):
        cols, reports[market] = data.load_market(data_dir / market, market)
        cols["market"] = np.full(len(cols["rating"]), code, dtype=np.int64)
        columns.append(cols)
    raw = {name: np.concatenate([c[name] for c in columns])
           for name in ("user", "item", "rating", "market", "split")}

    runs = {(target, which): data.load_run(data_dir / target / fname)
            for target in config.targets
            for which, fname in data.RUN_FILES.items()}

    users, items = data.fit_encoders(raw["user"], raw["item"],
                                     list(runs.values()))
    raw["user"], raw["item"] = users.lookup(raw["user"]), items.lookup(raw["item"])
    arrays = data.dedupe_and_mark_5core(raw)
    rows = _interactions(arrays, markets, data.SPLITS)
    summary = data.summarize(rows)
    summary["load_reports"] = reports

    # written whole beside the old snapshot and renamed into place, so a
    # crash leaves one or the other; what a crash left goes first
    ws = workspace_for(config)
    snap = ws.snapshot_dir
    staged, old = snap.with_name("snapshot.tmp"), snap.with_name("snapshot.old")
    for leftover in (staged, old):
        shutil.rmtree(leftover, ignore_errors=True)
    (staged / "runs").mkdir(parents=True)
    for name, arr in arrays.items():
        atomic_save_npy(staged / f"rows_{name}.npy", arr)
    write_json(staged / "encoders.json", SnapshotEncoders(
        tuple(users.ids.tolist()), tuple(items.ids.tolist())))
    write_json(staged / "meta.json", SnapshotMeta(
        tuple(markets), tuple(config.targets), tuple(data.SPLITS)))
    write_json(staged / "summary.json", summary)
    for target, which in runs:
        source = data_dir / target / data.RUN_FILES[which]
        copy = staged / ws.run_path(target, which).relative_to(snap)
        atomic_write_bytes(copy, source.read_bytes())
    if snap.exists():
        snap.rename(old)
    staged.rename(snap)
    shutil.rmtree(old, ignore_errors=True)
    return summary


@dataclass(frozen=True)
class SnapshotMeta:
    """snapshot/meta.json: rows_market.npy and rows_split.npy hold
    positions in markets and splits."""

    markets: tuple[str, ...]
    targets: tuple[str, ...]
    splits: tuple[str, ...]


@dataclass(frozen=True)
class SnapshotEncoders:
    """snapshot/encoders.json: the raw ids, id k at position k."""

    users: tuple[str, ...]
    items: tuple[str, ...]


@dataclass(frozen=True)
class Snapshot:
    rows: Interactions
    users: IdEncoder
    items: IdEncoder
    markets: tuple[str, ...]
    targets: tuple[str, ...]


ROW_ARRAYS = ("user", "item", "rating", "market", "split")


def _snapshot_meta(ws: Workspace) -> SnapshotMeta:
    """snapshot/meta.json; a StageError when there is no snapshot."""
    if not ws.snapshot_dir.is_dir():
        raise StageError(f"no snapshot in workspace {ws.root}; run ingest first")
    return read_artifact(SnapshotMeta, ws.snapshot_dir / "meta.json")


def load_snapshot(ws: Workspace) -> Snapshot:
    """The workspace's snapshot; a missing or damaged file of it is a
    StageError naming the file."""
    snap = ws.snapshot_dir
    meta = _snapshot_meta(ws)
    enc = read_artifact(SnapshotEncoders, snap / "encoders.json")
    users, items = IdEncoder.fit(enc.users), IdEncoder.fit(enc.items)
    arrays = {}
    for name in ROW_ARRAYS:
        path = snap / f"rows_{name}.npy"
        try:
            arrays[name] = np.load(path)
        except (OSError, ValueError, EOFError) as exc:
            raise StageError(f"cannot read snapshot file {path}: {exc}; "
                             f"run ingest") from None
    try:
        rows = _interactions(arrays, meta.markets, meta.splits)
    except (ValueError, IndexError) as exc:
        lengths = {f"rows_{name}.npy": len(arr) for name, arr in arrays.items()}
        raise StageError(f"snapshot files in {snap} do not fit together "
                         f"({exc}; lengths {lengths}); run ingest") from None
    return Snapshot(rows, users, items, meta.markets, meta.targets)


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


def _check_snapshot(config: PipelineConfig, meta: SnapshotMeta) -> None:
    """The snapshot holds the config's markets and targets; a set that
    differs (the config changed after ingest) is a StageError."""
    for name, ours, theirs in (("markets", config.markets, meta.markets),
                               ("targets", config.targets, meta.targets)):
        ours, theirs = set(ours), set(theirs)
        if ours != theirs:
            raise StageError(
                f"the snapshot's {name} differ from the config's: only in "
                f"the config {sorted(ours - theirs)}, only in the snapshot "
                f"{sorted(theirs - ours)}; run ingest")


def make_plan(config: PipelineConfig,
              target: str) -> list[features.ScorerSpec]:
    """Expand the configured scorer plans into one spec per combination;
    an explicit combination without the target is a ConfigError. Seeded
    scorers get a seed derived from the global seed, the target, the
    scorer name, and the combination, unless the plan pins one."""
    plan: list[features.ScorerSpec] = []
    for sc in config.prerank.scorers:
        try:
            combos = (features.default_combinations(target, config.markets,
                                                    config.targets)
                      if sc.combinations == "default" else
                      [CombinationSpec(target, tuple(sorted(set(markets))))
                       for markets in sc.combinations])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for combo in combos:
            params = dict(sc.params)
            if features.SCORERS[sc.name].seeded and "seed" not in params:
                params["seed"] = stage_seed(config.seed, "prerank", target,
                                            sc.name, combo.combo_id)
            plan.append(features.ScorerSpec(sc.name, params, combo))
    return plan


def _valid_labels(snap: Snapshot, target: str, users: np.ndarray,
                  items: np.ndarray) -> np.ndarray:
    """Per run pair, given as encoded ids (-1 unknown), 1 if it is one of
    the target's valid positives."""
    rows = snap.rows
    pos = rows.take((rows.market == target) & (rows.split == "valid_qrel"))
    n = len(snap.items)
    keys = np.where((users < 0) | (items < 0), -1, users * n + items)
    return np.isin(keys, pos.user * n + pos.item).astype(np.int8)


PRERANK_RECORD = "prerank.inputs.json"
# Bump on any change that alters what prerank writes for the same recorded
# inputs: the code is not one of them.
PRERANK_RECORD_VERSION = 2


@dataclass(frozen=True)
class PrerankInputs:
    """All a target's prerank outputs depend on besides the code: the
    sha256 of each snapshot file it reads, by its path in snapshot/ (the
    column cache's key is the sha256 of that mapping); the plan; the
    statistics flag; and the sha256 of the external vectors file's bytes
    (its path is not an input)."""

    snapshot: Mapping[str, str]
    plan: tuple[features.PlanEntry, ...]
    stats: bool
    external_embeddings: str | None


@dataclass(frozen=True)
class PrerankRecord:
    """<target>/prerank.inputs.json, written last by a successful prerank:
    its inputs and the sha256 of each file it wrote, by name in the
    target directory."""

    version: int
    inputs: PrerankInputs
    outputs: Mapping[str, str]


def _prerank_inputs(config: PipelineConfig, ws: Workspace, target: str,
                    plan: list[features.ScorerSpec]) -> PrerankInputs:
    """A snapshot file that cannot be read has the digest None."""
    snap = ws.snapshot_dir
    reads = [snap / "meta.json", snap / "encoders.json",
             *(snap / f"rows_{name}.npy" for name in ROW_ARRAYS),
             *(ws.run_path(target, which) for which in data.RUN_FILES)]
    path = config.prerank.external_embeddings
    external = file_sha256(path) if path else None
    if path and external is None:
        raise DataError(f"embedding file not found: {path}")
    return PrerankInputs({read.relative_to(snap).as_posix(): file_sha256(read)
                          for read in reads},
                         tuple(spec.entry for spec in plan),
                         config.prerank.stats, external)


def _canonical(inputs: PrerankInputs) -> str:
    # through JSON, so that 1 and 1.0 differ as they do in feature names
    return json.dumps(dataclasses.asdict(inputs), sort_keys=True)


def _prerank_current(tdir: Path, inputs: PrerankInputs) -> bool:
    """The record in tdir parses, holds these inputs under this version,
    and every output it lists still has its recorded sha256."""
    try:
        record = read_artifact(PrerankRecord, tdir / PRERANK_RECORD)
    except StageError:  # missing, damaged or of another schema: rebuild
        return False
    return (record.version == PRERANK_RECORD_VERSION
            and _canonical(record.inputs) == _canonical(inputs)
            and all(file_sha256(tdir / name) == digest
                    for name, digest in record.outputs.items()))


def run_prerank(config: PipelineConfig, target: str) -> dict:
    """Score both run files with the full plan and write feature tables.

    The stage records its inputs and outputs last, in PRERANK_RECORD, and
    then sweeps the cache; a re-run whose record is current returns without
    loading, fitting or writing anything ("up_to_date"). Otherwise the
    record goes first and completed columns come from the column cache.
    Scorer failures abort the stage, but only after all surviving columns
    are on disk, so the next run resumes from cache.
    """
    _check_target(config, target)
    ws = workspace_for(config)
    _check_snapshot(config, _snapshot_meta(ws))
    plan = make_plan(config, target)
    tdir = ws.target_dir(target)
    tdir.mkdir(exist_ok=True)
    inputs = _prerank_inputs(config, ws, target, plan)
    result = {"target": target, "n_columns": len(plan)}
    if _prerank_current(tdir, inputs):
        return {**result, "up_to_date": True}
    # correlation.tsv goes too: a rebuild with no scorer column writes none
    for name in (PRERANK_RECORD, "correlation.tsv"):
        (tdir / name).unlink(missing_ok=True)
    snap = load_snapshot(ws)
    runs = {which: data.load_run(ws.run_path(target, which))
            for which in data.RUN_FILES}

    # both runs' pairs, valid then test, in one pass: each column is fitted
    # and scored once, then split back into the two tables
    ids = {which: features.encode_run(run, snap.users, snap.items)
           for which, run in runs.items()}
    user_ids, item_ids = (np.concatenate(part) for part in zip(*ids.values()))
    ctx = features.PlanContext(snap.rows, snap.users, snap.items,
                               features.known_ids(user_ids, item_ids),
                               ws.cache_dir(target))
    path = config.prerank.external_embeddings
    external = embeddings.read_embedding_tsv(path) if path else None
    column_key = hashlib.sha256(json.dumps(
        inputs.snapshot, sort_keys=True).encode()).hexdigest()
    # the cache entries this prerank keeps, by name: its columns and tables
    entries = {spec.feature_name: column_key for spec in plan}
    names, values, provenance, failures = features.run_plan(
        plan, ctx, user_ids, item_ids, column_key)
    parts = [(names, values, provenance)]  # one per column producer
    if config.prerank.stats:
        parts.append(features.global_statistic_features(
            ctx, user_ids, item_ids, target))
    if external is not None:
        matrix = ctx.matrix(CombinationSpec(target,
                                            tuple(sorted(snap.markets))))
        parts.append(features.external_embedding_features(
            external, user_ids, item_ids, matrix, ctx))
    names = [name for part in parts for name in part[0]]
    values = np.hstack([part[1] for part in parts])
    provenance = {k: v for part in parts for k, v in part[2].items()}

    outputs: dict[str, str] = {}
    blocks = np.split(values, [len(ids["valid"][0])])
    for (which, run), block in zip(runs.items(), blocks):
        table = features.empty_table(run).with_columns(names, block)
        if which == "valid":
            table = table.with_labels(_valid_labels(snap, target, *ids[which]))
            scorer_cols = [c for c in table.columns
                           if provenance[c]["kind"] == "scorer"]
            if len(scorer_cols) >= 1 and table.n_rows >= 2:
                outputs["correlation.tsv"] = write_tsv(
                    tdir / "correlation.tsv", ["feature", *scorer_cols],
                    [scorer_cols],
                    features.feature_correlation(table, scorer_cols))
        tsv, catalog = (ws.features_path(target, which),
                        ws.catalog_path(target, which))
        outputs[tsv.name], outputs[catalog.name] = features.write_table(
            table, tsv, catalog, provenance, cache_dir=ws.cache_dir(target))
        entries[tsv.stem] = outputs[tsv.name]

    outputs["prerank_failures.json"] = write_json(
        tdir / "prerank_failures.json", failures)
    if failures:
        failed = sorted(f["feature"] for f in failures)
        raise StageError(f"{len(failures)} scorer runs failed "
                         f"({', '.join(failed[:5])}); completed columns are "
                         f"cached, re-run prerank to resume")
    write_json(tdir / PRERANK_RECORD,
               PrerankRecord(PRERANK_RECORD_VERSION, inputs, outputs))
    features.sweep_cache(ws.cache_dir(target), entries)
    return {**result, "up_to_date": False}


# --------------------------------------------------------------------------
# select / train / evaluate / report


def run_select(config: PipelineConfig, target: str) -> list[str]:
    _check_target(config, target)
    ws = workspace_for(config)
    tdir = ws.target_dir(target)
    valid, test = (features.read_table(ws.features_path(target, which),
                                       cache_dir=ws.cache_dir(target))
                   for which in ("valid", "test"))
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
        write_json(tdir / "grid.json",
                   {"results": results, "chosen": dataclasses.asdict(params)})
    else:  # a search of an earlier train did not choose this model
        (tdir / "grid.json").unlink(missing_ok=True)
    bagged = gbdt.kfold_bagging(valid, params, config.ranker.folds)
    offline = gbdt.oof_ndcg(valid, bagged.oof)
    gbdt.save_model(bagged, tdir / "model.json")

    write_tsv(tdir / "oof.tsv", ["user", "item", "label", "oof_score"],
              [valid.users, valid.items, valid.labels.astype(str)],
              bagged.oof[:, None])

    test = _read_kept_columns(ws, target, "test", kept)
    preds = gbdt.bagged_predict(bagged, test)
    run = evaluation.group_ranked_run(test.users, test.items, preds)
    evaluation.emit_run_file(run, tdir / "test_ranked.tsv")

    metrics = {"target": target, "oof_ndcg_at_10": offline,
               "folds": config.ranker.folds,
               "params": dataclasses.asdict(params),
               "n_rows": valid.n_rows, "n_features": len(kept)}
    write_json(tdir / "metrics.json", metrics)
    return metrics


def _read_kept_columns(ws: Workspace, target: str, which: str,
                       kept: list[str]) -> features.FeatureTable:
    """The kept.txt columns of one feature table, taken from its cached
    arrays or else the only ones parsed; a column the table lacks (kept.txt
    older than the last prerank) is a DataError."""
    try:
        return features.read_table(ws.features_path(target, which),
                                   columns=kept,
                                   cache_dir=ws.cache_dir(target))
    except KeyError as exc:
        raise DataError(
            f"{ws.target_dir(target) / 'kept.txt'} keeps a column that "
            f"{ws.features_path(target, which)} lacks ({exc.args[0]}); "
            f"re-run select") from None


@dataclass(frozen=True)
class Evaluation:
    """<target>/evaluation.json: NDCG@10 of a ranked run over its n_users
    users, and the run file, relative to the workspace root when inside
    it."""

    market: str
    ndcg_at_10: float
    n_users: int
    run_file: str


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
        snap = load_snapshot(ws)
        rows = snap.rows.take((snap.rows.market == target)
                              & (snap.rows.split == "test_qrel"))
        qrels = evaluation.qrels_from_pairs(snap.users.ids[rows.user],
                                            snap.items.ids[rows.item])
    if not qrels:
        raise DataError(f"no qrels available for target {target!r}")
    per_user, mean = evaluation.ndcg_at_k(run, qrels, k=10)
    # Inside the workspace the path is recorded relative to its root, so
    # two workspaces with the same runs write the same evaluation.json.
    run_file = run_path.resolve()
    root = ws.root.resolve()
    report = Evaluation(target, mean, len(per_user),
                        run_file.relative_to(root).as_posix()
                        if run_file.is_relative_to(root) else str(run_path))
    write_json(tdir / "evaluation.json", report)
    return dataclasses.asdict(report)


def run_report(config: PipelineConfig) -> dict:
    """Combine per-target evaluations into the weighted multi-market score."""
    ws = workspace_for(config)
    per_market = {}
    for target in config.targets:
        path = ws.target_dir(target) / "evaluation.json"
        if not path.exists():
            raise StageError(f"no evaluation for target {target!r}; "
                             f"run evaluate first")
        per_market[target] = read_artifact(Evaluation, path).ndcg_at_10
    weights = (evaluation.DEFAULT_MARKET_WEIGHTS
               if config.market_weights is None else config.market_weights)
    report = evaluation.metric_report(per_market, weights)
    write_json(ws.root / "final.json", report)
    return report
