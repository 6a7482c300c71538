"""Histogram gradient-boosted trees with logistic loss.

Newton boosting: g = p - y, h = p(1-p), leaf value -sum(g)/(sum(h)+lambda).
Trees grow leaf-wise, always splitting the current leaf with the highest
gain, until num_leaves is reached or no split has positive gain. Feature
values are quantile-binned once up front; a feature without a bin edge
(constant on the training rows) can never split and never enters a
tree. Each node's histograms form a padded (features x max bins) grid,
filled by one bincount over the node's rows; bins past a feature's own
count stay zero and are never split on.
The smaller child's grid is built directly and the larger one derived by
subtraction; a leaf keeps its grids only while it can still be split. A
leaf's split search is one prefix sum along the bin axis and one
row-major argmax over the whole grid. All tie-breaks are fixed
(gain desc, then lower feature index, then lower bin; leaf choice by gain
desc then lower node id), so training is deterministic.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import evaluation
from .features import FeatureTable
from .util import (DataError, StageError, atomic_write_text, sigmoid,
                   stable_bucket, stage_seed)

MODEL_FORMAT_VERSION = 1
# Newton terms with a vanishing hessian mass are degenerate; treat as zero.
_MIN_HESSIAN = 1e-12


@dataclass(frozen=True)
class GbdtParams:
    num_leaves: int = 31
    learning_rate: float = 0.1
    n_rounds: int = 100
    min_data_in_leaf: int = 20
    l2_leaf_reg: float = 0.0
    max_bins: int = 255
    feature_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_leaves < 2:
            raise ValueError("num_leaves must be at least 2")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.min_data_in_leaf < 1:
            raise ValueError("min_data_in_leaf must be at least 1")
        if self.l2_leaf_reg < 0:
            raise ValueError("l2_leaf_reg must be nonnegative")
        if not 2 <= self.max_bins <= 255:
            raise ValueError("max_bins must lie in [2, 255]")
        if not 0 < self.feature_fraction <= 1:
            raise ValueError("feature_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class Tree:
    """Flat node arrays; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold_bin: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    gain: np.ndarray


@dataclass(frozen=True)
class GbdtModel:
    params: GbdtParams
    base_score: float
    trees: tuple[Tree, ...]
    columns: tuple[str, ...]
    bins: tuple[np.ndarray, ...]
    train_logloss: tuple[float, ...] = ()


@dataclass(frozen=True)
class BaggedModel:
    params: GbdtParams
    folds: int
    fold_models: tuple[GbdtModel, ...]
    fold_of: Mapping[str, int]
    oof: np.ndarray | None = field(default=None, compare=False)


def build_bins(table: FeatureTable, max_bins: int) -> list[np.ndarray]:
    """Per-feature interior boundaries (right-closed bins): bin b holds
    values in (edge[b-1], edge[b]]; the last bin is unbounded above. At
    most max_bins bins; few distinct values map one value per bin."""
    if table.n_rows == 0:
        raise DataError("cannot bin an empty feature table")
    bounds = []
    for pos in range(len(table.columns)):
        x = table.values[:, pos]
        uniq = np.unique(x)
        if len(uniq) <= max_bins:
            edges = uniq[:-1]
        else:
            qs = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
            edges = np.unique(np.quantile(x, qs, method="lower"))
            edges = edges[edges < uniq[-1]]
        bounds.append(np.asarray(edges, dtype=np.float64))
    return bounds


def bin_values(values: np.ndarray, bins: Sequence[np.ndarray]) -> np.ndarray:
    binned = np.empty(values.shape, dtype=np.int32)
    for pos, edges in enumerate(bins):
        binned[:, pos] = np.searchsorted(edges, values[:, pos], side="left")
    return binned


def _logloss(y: np.ndarray, p: np.ndarray) -> float:
    eps = 1e-15
    p = np.clip(p, eps, 1 - eps)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def _histogram(binned_sel: np.ndarray, idx: np.ndarray, g: np.ndarray,
               h: np.ndarray, offsets: np.ndarray, shape: tuple[int, int]):
    """Per-(feature, bin) sums of g, h and row counts over the rows idx,
    as grids of the given shape; offsets[f] is row f's start in the flat
    grid. Each cell accumulates its rows in row order."""
    flat = (binned_sel[idx] + offsets).ravel()
    n_feat = binned_sel.shape[1]
    total = shape[0] * shape[1]
    hg = np.bincount(flat, weights=np.repeat(g[idx], n_feat), minlength=total)
    hh = np.bincount(flat, weights=np.repeat(h[idx], n_feat), minlength=total)
    hn = np.bincount(flat, minlength=total).astype(np.float64)
    return hg.reshape(shape), hh.reshape(shape), hn.reshape(shape)


def _newton_term(gsq: np.ndarray, hmass: np.ndarray) -> np.ndarray:
    return np.where(hmass > _MIN_HESSIAN, gsq / np.maximum(hmass, _MIN_HESSIAN), 0.0)


def _best_split(hg, hh, hn, split_ok, G, H, n, params: GbdtParams):
    """Highest-gain (feature, bin) for one leaf over its histogram grids;
    split_ok marks the (feature, bin) cells that may split at all. Ties go
    to the lower feature index, then the lower bin (the row-major argmax
    order). None when no split clears zero."""
    lam = params.l2_leaf_reg
    parent = float(_newton_term(np.array([G * G]), np.array([H + lam]))[0])
    cg = np.cumsum(hg, axis=1)
    ch = np.cumsum(hh, axis=1)
    cn = np.cumsum(hn, axis=1)
    ok = split_ok & (cn >= params.min_data_in_leaf) & (n - cn >= params.min_data_in_leaf)
    if not ok.any():
        return None
    gains = 0.5 * (_newton_term(cg ** 2, ch + lam)
                   + _newton_term((G - cg) ** 2, (H - ch) + lam)
                   - parent)
    gains[~ok] = -math.inf
    k = int(np.argmax(gains))
    f, b = divmod(k, gains.shape[1])
    if not gains[f, b] > 0:
        return None
    return float(gains[f, b]), f, b


@dataclass
class _Leaf:
    idx: np.ndarray
    hg: np.ndarray | None
    hh: np.ndarray | None
    hn: np.ndarray | None
    G: float
    H: float
    best: tuple | None


def _grow_tree(binned_sel: np.ndarray, feats: np.ndarray, g: np.ndarray,
               h: np.ndarray, nbins: list[int], params: GbdtParams) -> Tree | None:
    width = max(nbins)
    shape = (len(nbins), width)
    offsets = np.arange(len(nbins), dtype=np.int64) * width
    # The last bin of a feature leaves nothing on the right; padding never splits.
    split_ok = np.arange(width) < np.array(nbins)[:, None] - 1

    feature, threshold_bin = [-1], [-1]
    left, right = [-1], [-1]
    gain_arr = [0.0]

    def make_leaf(idx, hists=None):
        hg, hh, hn = (hists if hists is not None
                      else _histogram(binned_sel, idx, g, h, offsets, shape))
        G, H = float(np.sum(g[idx])), float(np.sum(h[idx]))
        best = _best_split(hg, hh, hn, split_ok, G, H, len(idx), params)
        return _Leaf(idx, hg, hh, hn, G, H, best)

    leaves: dict[int, _Leaf] = {0: make_leaf(np.arange(len(g)))}
    if leaves[0].best is None:
        return None

    while len(leaves) < params.num_leaves:
        # Splittable leaves in pick order: gain desc, then lower node id.
        order = sorted((n for n in sorted(leaves) if leaves[n].best is not None),
                       key=lambda n: -leaves[n].best[0])
        if not order:
            break
        # Only the first num_leaves - len(leaves) can still be split: new
        # children only push the rest further back. Nothing else reads the
        # grids of the others, so release them.
        for n in set(leaves) - set(order[:params.num_leaves - len(leaves)]):
            leaves[n].hg = leaves[n].hh = leaves[n].hn = None
        node_id = order[0]
        split_gain, f_local, split_bin = leaves[node_id].best
        leaf = leaves.pop(node_id)
        mask = binned_sel[leaf.idx, f_local] <= split_bin
        left_idx, right_idx = leaf.idx[mask], leaf.idx[~mask]
        # Build the smaller child directly; subtract for its sibling.
        if len(left_idx) <= len(right_idx):
            lchild = make_leaf(left_idx)
            rchild = make_leaf(right_idx, hists=(leaf.hg - lchild.hg,
                                                 leaf.hh - lchild.hh,
                                                 leaf.hn - lchild.hn))
        else:
            rchild = make_leaf(right_idx)
            lchild = make_leaf(left_idx, hists=(leaf.hg - rchild.hg,
                                                leaf.hh - rchild.hh,
                                                leaf.hn - rchild.hn))
        del leaf
        lid, rid = len(feature), len(feature) + 1
        for child in (lchild, rchild):
            feature.append(-1)
            threshold_bin.append(-1)
            left.append(-1)
            right.append(-1)
            gain_arr.append(0.0)
        feature[node_id] = int(feats[f_local])
        threshold_bin[node_id] = split_bin
        left[node_id], right[node_id] = lid, rid
        gain_arr[node_id] = split_gain
        leaves[lid] = lchild
        leaves[rid] = rchild

    value = np.zeros(len(feature))
    for node_id, leaf in leaves.items():
        denom = leaf.H + params.l2_leaf_reg
        value[node_id] = -leaf.G / denom if denom > _MIN_HESSIAN else 0.0
    return Tree(np.array(feature, dtype=np.int32),
                np.array(threshold_bin, dtype=np.int32),
                np.array(left, dtype=np.int32),
                np.array(right, dtype=np.int32),
                value, np.array(gain_arr))


def _tree_raw(tree: Tree, binned: np.ndarray) -> np.ndarray:
    node = np.zeros(binned.shape[0], dtype=np.int32)
    while True:
        rows = np.flatnonzero(tree.feature[node] >= 0)
        if len(rows) == 0:
            break
        cur = node[rows]
        go_left = binned[rows, tree.feature[cur]] <= tree.threshold_bin[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def train(table: FeatureTable, params: GbdtParams) -> GbdtModel:
    if table.labels is None:
        raise DataError("feature table has no label column")
    if not table.columns:
        raise DataError("feature table has no columns")
    y = table.labels.astype(np.float64)
    if y.min() == y.max():
        raise StageError("labels are single-class; nothing to learn")
    bins = build_bins(table, params.max_bins)
    binned = bin_values(table.values, bins)
    n_features = len(table.columns)

    prior = float(y.mean())
    base = math.log(prior / (1.0 - prior))
    raw = np.full(len(y), base)
    rng = np.random.default_rng(stage_seed(params.seed, "gbdt"))
    n_sub = max(1, math.ceil(params.feature_fraction * n_features))
    # A feature without a bin edge has one bin and can never split.
    splittable = np.array([len(edges) > 0 for edges in bins])

    trees: list[Tree] = []
    losses = [_logloss(y, sigmoid(raw))]
    for _round in range(params.n_rounds):
        p = sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        if n_sub < n_features:
            feats = np.sort(rng.permutation(n_features)[:n_sub])
        else:
            feats = np.arange(n_features)
        feats = feats[splittable[feats]]
        if not len(feats):
            break
        nbins = [len(bins[f]) + 1 for f in feats]
        tree = _grow_tree(binned[:, feats], feats, g, h, nbins, params)
        if tree is None:
            break
        raw += params.learning_rate * _tree_raw(tree, binned)
        trees.append(tree)
        losses.append(_logloss(y, sigmoid(raw)))
    return GbdtModel(params, base, tuple(trees), table.columns,
                     tuple(bins), tuple(losses))


def predict(model: GbdtModel, table: FeatureTable) -> np.ndarray:
    cols = []
    for name in model.columns:
        if name not in table.columns:
            raise DataError(f"missing feature column {name!r}")
        cols.append(table.column(name))
    values = np.column_stack(cols) if cols else np.zeros((table.n_rows, 0))
    binned = bin_values(values, model.bins)
    raw = np.full(table.n_rows, model.base_score)
    for tree in model.trees:
        raw += model.params.learning_rate * _tree_raw(tree, binned)
    return sigmoid(raw)


def assign_folds(users: Sequence[str], folds: int, seed: int) -> dict[str, int]:
    """Each distinct user's fold from a seeded hash, users in input order."""
    return {u: stable_bucket(u, seed, folds) for u in users}


def kfold_bagging(table: FeatureTable, params: GbdtParams,
                  folds: int = 10) -> BaggedModel:
    """One model per fold, trained on the other folds' rows (folds are by
    user, from a seeded hash); keeps out-of-fold probabilities for CV."""
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if table.labels is None:
        raise DataError("feature table has no label column")
    users, row_user = np.unique(table.users, return_inverse=True)
    if len(users) < folds:
        raise StageError(f"need at least {folds} distinct users for {folds}-fold bagging")
    fold_of = assign_folds(users.tolist(), folds, params.seed)
    row_fold = np.fromiter(fold_of.values(), np.int64, len(users))[row_user]
    oof = np.full(table.n_rows, math.nan)
    models = []
    for f in range(folds):
        train_rows = np.flatnonzero(row_fold != f)
        hold_rows = np.flatnonzero(row_fold == f)
        sub = table.take(train_rows)
        if sub.labels is None or len(np.unique(sub.labels)) < 2:
            raise StageError(
                f"fold {f} leaves single-class training labels; use fewer folds")
        model = train(sub, params)
        models.append(model)
        if len(hold_rows):
            oof[hold_rows] = predict(model, table.take(hold_rows))
    return BaggedModel(params, folds, tuple(models), fold_of, oof)


def bagged_predict(bagged: BaggedModel, table: FeatureTable) -> np.ndarray:
    preds = np.stack([predict(m, table) for m in bagged.fold_models])
    return preds.mean(axis=0)


def oof_ndcg(table: FeatureTable, oof_scores: np.ndarray, k: int = 10) -> float:
    """NDCG@k of the out-of-fold scores, grouped per user, via the shared
    evaluation routine; users without any positive label are skipped."""
    users, items = table.users.tolist(), table.items.tolist()
    run = evaluation.group_ranked_run(users, items, oof_scores)
    qrels: dict[str, set] = {}
    if table.labels is not None:
        for r in np.flatnonzero(table.labels == 1).tolist():
            qrels.setdefault(users[r], set()).add(items[r])
    if not qrels:
        raise StageError("no positive labels; NDCG undefined")
    _, mean = evaluation.ndcg_at_k(run, qrels, k=k)
    return mean


def grid_search(table: FeatureTable, grid: Mapping[str, Sequence],
                folds: int, base: GbdtParams = GbdtParams()
                ) -> tuple[GbdtParams, list[dict]]:
    """Exhaustive (num_leaves, learning_rate) sweep scored by out-of-fold
    NDCG@10; ties go to the smaller num_leaves, then smaller rate."""
    leaves_list = sorted(grid.get("num_leaves", [base.num_leaves]))
    lr_list = sorted(grid.get("learning_rate", [base.learning_rate]))
    if not leaves_list or not lr_list:
        raise DataError("parameter grid must be nonempty")
    rows: list[dict] = []
    best: tuple[float, GbdtParams] | None = None
    for nl in leaves_list:
        for lr in lr_list:
            params = dataclasses.replace(base, num_leaves=int(nl),
                                         learning_rate=float(lr))
            bagged = kfold_bagging(table, params, folds)
            score = oof_ndcg(table, bagged.oof)
            rows.append({"num_leaves": int(nl), "learning_rate": float(lr),
                         "oof_ndcg10": score})
            if best is None or score > best[0]:
                best = (score, params)
    assert best is not None
    return best[1], rows


def importance(model: GbdtModel, kind: str = "gain") -> dict[str, float]:
    if kind not in ("gain", "split"):
        raise ValueError(f"unknown importance kind {kind!r}")
    out = {name: 0.0 for name in model.columns}
    for tree in model.trees:
        internal = np.flatnonzero(tree.feature >= 0)
        for node in internal:
            name = model.columns[tree.feature[node]]
            out[name] += tree.gain[node] if kind == "gain" else 1.0
    return out


# --- serialization -----------------------------------------------------------

def _tree_to_dict(tree: Tree) -> dict:
    return {"feature": tree.feature.tolist(),
            "threshold_bin": tree.threshold_bin.tolist(),
            "left": tree.left.tolist(), "right": tree.right.tolist(),
            "value": tree.value.tolist(), "gain": tree.gain.tolist()}


def _tree_from_dict(d: Mapping) -> Tree:
    return Tree(np.array(d["feature"], dtype=np.int32),
                np.array(d["threshold_bin"], dtype=np.int32),
                np.array(d["left"], dtype=np.int32),
                np.array(d["right"], dtype=np.int32),
                np.array(d["value"], dtype=np.float64),
                np.array(d["gain"], dtype=np.float64))


def model_to_dict(model: GbdtModel) -> dict:
    return {"version": MODEL_FORMAT_VERSION, "kind": "gbdt",
            "params": dataclasses.asdict(model.params),
            "base_score": model.base_score,
            "columns": list(model.columns),
            "bins": [b.tolist() for b in model.bins],
            "train_logloss": list(model.train_logloss),
            "trees": [_tree_to_dict(t) for t in model.trees]}


def model_from_dict(d: Mapping) -> GbdtModel:
    if d.get("version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {d.get('version')!r}")
    return GbdtModel(GbdtParams(**d["params"]), float(d["base_score"]),
                     tuple(_tree_from_dict(t) for t in d["trees"]),
                     tuple(d["columns"]),
                     tuple(np.array(b, dtype=np.float64) for b in d["bins"]),
                     tuple(d["train_logloss"]))


def save_model(model: GbdtModel | BaggedModel, path) -> None:
    if isinstance(model, BaggedModel):
        payload = {"version": MODEL_FORMAT_VERSION, "kind": "bagged",
                   "params": dataclasses.asdict(model.params),
                   "folds": model.folds,
                   "fold_of": dict(sorted(model.fold_of.items())),
                   "models": [model_to_dict(m) for m in model.fold_models]}
    else:
        payload = model_to_dict(model)
    atomic_write_text(Path(path), json.dumps(payload, sort_keys=True) + "\n")


def load_model(path) -> GbdtModel | BaggedModel:
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    d = json.loads(path.read_text(encoding="utf-8"))
    if d.get("kind") == "bagged":
        if d.get("version") != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format version {d.get('version')!r}")
        return BaggedModel(GbdtParams(**d["params"]), int(d["folds"]),
                           tuple(model_from_dict(m) for m in d["models"]),
                           {u: int(f) for u, f in d["fold_of"].items()})
    return model_from_dict(d)
