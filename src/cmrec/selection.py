"""Three-stage feature selection: covariate-shift screening, heuristic
k-fold CV group elimination, and null-importance filtering, applied in
that fixed order. Every stage is deterministic at a fixed seed and leaves
an auditable per-feature report.

The two GBDT screens refit one table again and again: CV elimination
refits column subsets of it with the same folds, null importance refits
it with permuted labels. Each bins its table once (gbdt.bin_folds per
fold, gbdt.bin_rows for null importance) and hands every fit the slice
of its columns; the bins are freed when the screen returns. A column's
bins depend only on its own values on the fit's rows, so every fit sees
the bins it would have computed itself."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import gbdt
from .data import first_repeat, read_lines
from .features import FeatureTable
from .util import (DataError, StageError, atomic_write_text, fmt, stage_seed,
                   write_json)

REPORT_FIELDS = ("name", "auc_shift", "cv_delta", "actual_gain",
                 "null_gain_p75", "decision", "reason")


def midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    sorted_v = values[order]
    bounds = np.flatnonzero(np.diff(sorted_v)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(values)]])
    avg = (starts + 1 + ends) / 2.0
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(avg, ends - starts)
    return ranks


def rank_auc(negatives: np.ndarray, positives: np.ndarray) -> float:
    """P(positive value > negative value) + half the tie mass, via the
    Mann-Whitney U statistic over midranks."""
    neg = np.asarray(negatives, dtype=np.float64)
    pos = np.asarray(positives, dtype=np.float64)
    if len(neg) == 0 or len(pos) == 0:
        raise DataError("rank AUC needs both samples nonempty")
    ranks = midranks(np.concatenate([neg, pos]))
    u = ranks[len(neg):].sum() - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


def covariate_shift_test(train: FeatureTable, test: FeatureTable,
                         threshold: float = 0.10) -> list[dict]:
    """Per feature, how well the raw value separates test rows from train
    rows (test as the positive class). Drop iff |AUC - 0.5| > threshold."""
    if set(train.columns) != set(test.columns):
        raise DataError("train and test tables must share columns")
    if train.n_rows == 0 or test.n_rows == 0:
        raise DataError("covariate shift test needs nonempty tables")
    records = []
    for name in train.columns:
        auc = rank_auc(train.column(name), test.column(name))
        shifted = abs(auc - 0.5) > threshold
        records.append({"name": name, "auc_shift": auc,
                        "decision": "drop" if shifted else "keep",
                        "reason": "covariate_shift" if shifted else ""})
    return records


def default_groups(columns: Sequence[str]) -> list[tuple[str, tuple[str, ...]]]:
    """One group per scorer family: every column sharing the prefix before
    the first '__' (a feature and its missing indicator stay together)."""
    families: dict[str, list[str]] = {}
    for name in columns:
        families.setdefault(name.split("__", 1)[0], []).append(name)
    return [(fam, tuple(families[fam])) for fam in sorted(families)]


def _cv_score(table: FeatureTable, columns: Sequence[str],
              trainer: gbdt.GbdtParams, folds: int,
              binned: Sequence[gbdt.Binned]) -> float:
    """OOF NDCG of the columns; binned is gbdt.bin_folds of the table."""
    pos = [table.columns.index(name) for name in columns]
    bagged = gbdt.kfold_bagging(table.select(columns), trainer, folds,
                                _binned=[fold.select(pos) for fold in binned])
    return gbdt.oof_ndcg(table, bagged.oof)


def heuristic_cv_elimination(table: FeatureTable, trainer: gbdt.GbdtParams,
                             folds: int, epsilon: float = 0.0) -> list[dict]:
    """Backward elimination over the table's default_groups in order:
    refit the k-fold CV without each group and drop it permanently iff the
    score degrades by at most epsilon. At least one group always
    survives."""
    if table.labels is None:
        raise DataError("CV elimination needs a labeled table")
    binned = gbdt.bin_folds(table, trainer, folds)
    current = list(table.columns)
    baseline = _cv_score(table, current, trainer, folds, binned)
    records: list[dict] = []
    for _, members in default_groups(table.columns):
        live = [m for m in members if m in current]
        if not live:
            continue
        candidate = [c for c in current if c not in live]
        if not candidate:
            for name in live:
                records.append({"name": name, "cv_delta": None,
                                "decision": "keep", "reason": "last_group_guard"})
            continue
        score = _cv_score(table, candidate, trainer, folds, binned)
        delta = baseline - score
        if delta <= epsilon:
            current = candidate
            baseline = score
            decision, reason = "drop", "cv_elimination"
        else:
            decision, reason = "keep", ""
        for name in live:
            records.append({"name": name, "cv_delta": delta,
                            "decision": decision, "reason": reason})
    return records


def null_importance_select(table: FeatureTable, trainer: gbdt.GbdtParams,
                           n_shuffles: int = 50, seed: int = 0) -> list[dict]:
    """Keep a feature iff its gain importance on the true labels exceeds
    the 75th percentile of its gains over label permutations and it was
    actually used for at least one split."""
    if n_shuffles < 1:
        raise ValueError("n_shuffles must be at least 1")
    if table.labels is None:
        raise DataError("null importance needs a labeled table")
    binned = gbdt.bin_rows(table, trainer.max_bins)
    model = gbdt.train(table, trainer, _binned=binned)
    actual = gbdt.importance(model, "gain")
    splits = gbdt.importance(model, "split")
    nulls = {name: np.empty(n_shuffles) for name in table.columns}
    for s in range(n_shuffles):
        rng = np.random.default_rng(stage_seed(seed, "null_importance", str(s)))
        shuffled = table.with_labels(rng.permutation(table.labels))
        null_gain = gbdt.importance(
            gbdt.train(shuffled, trainer, _binned=binned), "gain")
        for name in table.columns:
            nulls[name][s] = null_gain[name]
    records = []
    for name in table.columns:
        p75 = float(np.percentile(nulls[name], 75))
        keep = actual[name] > p75 and splits[name] > 0
        records.append({"name": name, "actual_gain": actual[name],
                        "null_gain_p75": p75,
                        "decision": "keep" if keep else "drop",
                        "reason": "" if keep else "null_importance"})
    return records


def run_selection(valid_table: FeatureTable, test_table: FeatureTable,
                  trainer: gbdt.GbdtParams, folds: int,
                  shift_threshold: float = 0.10, cv_epsilon: float = 0.0,
                  n_shuffles: int = 50, seed: int = 0
                  ) -> tuple[list[str], list[dict]]:
    """Covariate shift, then CV elimination, then null importance; each
    stage sees only the previous stage's survivors. Returns the kept
    column list and one merged report record per input feature."""
    report = {name: {"name": name, "auc_shift": None, "cv_delta": None,
                     "actual_gain": None, "null_gain_p75": None,
                     "decision": "keep", "reason": ""}
              for name in valid_table.columns}

    def absorb(records):
        for rec in records:
            row = report[rec["name"]]
            for key, value in rec.items():
                if key in ("decision", "reason"):
                    continue
                if value is not None:
                    row[key] = value
            if rec["decision"] == "drop":
                row["decision"] = "drop"
                row["reason"] = rec["reason"]

    absorb(covariate_shift_test(valid_table, test_table, shift_threshold))
    survivors = [c for c in valid_table.columns
                 if report[c]["decision"] == "keep"]
    if not survivors:
        raise StageError("covariate shift test dropped every feature")

    cv_table = valid_table.select(survivors)
    absorb(heuristic_cv_elimination(cv_table, trainer, folds, cv_epsilon))
    survivors = [c for c in survivors if report[c]["decision"] == "keep"]
    if not survivors:
        raise StageError("CV elimination dropped every feature")

    absorb(null_importance_select(valid_table.select(survivors), trainer,
                                  n_shuffles, seed))
    kept = [c for c in survivors if report[c]["decision"] == "keep"]
    if not kept:
        raise StageError("selection dropped every feature")
    return kept, [report[name] for name in valid_table.columns]


def write_selection_report(records: Sequence[Mapping], tsv_path, json_path) -> None:
    lines = ["\t".join(REPORT_FIELDS)]
    for rec in records:
        cells = []
        for field in REPORT_FIELDS:
            value = rec.get(field)
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(fmt(value))
            else:
                cells.append(str(value))
        lines.append("\t".join(cells))
    atomic_write_text(Path(tsv_path), "\n".join(lines) + "\n")
    write_json(json_path, list(records))


def write_kept(kept: Sequence[str], path) -> None:
    atomic_write_text(Path(path), "\n".join(kept) + "\n")


def read_kept(path) -> list[str]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"kept-feature list not found: {path}")
    _, line_nos, kept = read_lines(path, header=False)
    if not kept:
        raise DataError(f"kept-feature list lists no features: {path}")
    row = first_repeat(np.array(kept))
    if row is not None:
        raise DataError(f"{path}:{line_nos[row]}: feature {kept[row]!r} "
                        f"repeats line {line_nos[kept.index(kept[row])]}")
    return kept
