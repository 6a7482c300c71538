"""Histogram gradient-boosted trees with logistic loss.

Newton boosting: g = p - y, h = p(1-p), leaf value -sum(g)/(sum(h)+lambda).
Trees grow leaf-wise, always splitting the current leaf with the highest
gain, until num_leaves is reached or no split has positive gain. Feature
values are quantile-binned once up front, to uint8 (max_bins <= 255); a
feature without a bin edge (constant on the training rows) can never
split and never enters a tree. Each node's histograms form a padded
(features x max bins) grid, filled by one bincount over the node's rows;
bins past a feature's own count stay zero and are never split on.
The smaller child's grid is built directly and the larger one derived by
subtraction; a leaf keeps its grids only while it can still be split. All
tie-breaks are fixed (gain desc, then lower feature index, then lower bin;
leaf choice by gain desc then lower node id), so training is
deterministic.

Work whose result would be thrown away is skipped; the trees stay the
same bit for bit:

- A leaf's split search takes one prefix sum along the bin axis and
  evaluates the gain only at the cells that may split, in row-major
  order. Each gain is the same expression of the same prefix sums, and
  the first argmax over those cells is the cell a row-major argmax over
  the whole grid, every other cell at -inf, picks.
- A leaf that is never split gets neither grids nor a search: one with
  fewer than 2 * min_data_in_leaf rows (no cell leaves min_data_in_leaf
  rows on both sides, so the search would find None) and both children of
  the split that fills the tree (their result would never be read). A
  smaller child still builds its grid when its sibling is searched and
  takes the subtraction.
- The final leaves partition the training rows by the bin comparisons
  _tree_raw makes, so the training predictions take each leaf's value at
  its rows instead of routing every row through the tree again.
- A column's edges and bins depend only on its own values on the fit's
  rows, so the binning of a column subset is a slice of the binning of
  the whole table. bin_folds bins each fold of kfold_bagging once; the
  selection screens and grid_search, which refit one table many times,
  hand each fit its slice (grid_search: the whole binning) through the
  private _binned argument of kfold_bagging and train.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

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
    """Each value's bin under its column's edges, as uint8 (at most 255
    bins)."""
    binned = np.empty(values.shape, dtype=np.uint8)
    for pos, edges in enumerate(bins):
        binned[:, pos] = np.searchsorted(edges, values[:, pos], side="left")
    return binned


class Binned(NamedTuple):
    """Training rows binned on their own build_bins edges, and optionally
    held-out rows binned on the same edges; one edge array and one column
    of bins per feature column."""

    bins: tuple[np.ndarray, ...]
    train: np.ndarray
    hold: np.ndarray | None = None

    def select(self, positions: Sequence[int]) -> "Binned":
        """The binning of the columns at these positions, in this order."""
        return Binned(tuple(self.bins[p] for p in positions),
                      self.train[:, positions],
                      None if self.hold is None else self.hold[:, positions])


def bin_rows(table: FeatureTable, max_bins: int,
             hold_values: np.ndarray | None = None) -> Binned:
    """The binning train does for table, and hold_values on its edges."""
    bins = tuple(build_bins(table, max_bins))
    return Binned(bins, bin_values(table.values, bins),
                  None if hold_values is None else bin_values(hold_values, bins))


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
    to the lower feature index, then the lower bin (row-major order). The
    gain is evaluated only at the cells that may split. None when no split
    clears zero."""
    cn = np.cumsum(hn, axis=1)
    ok = split_ok & (cn >= params.min_data_in_leaf) & (n - cn >= params.min_data_in_leaf)
    cells = np.flatnonzero(ok)
    if not len(cells):
        return None
    lam = params.l2_leaf_reg
    parent = float(_newton_term(np.array([G * G]), np.array([H + lam]))[0])
    cg = np.cumsum(hg, axis=1).ravel()[cells]
    ch = np.cumsum(hh, axis=1).ravel()[cells]
    gains = 0.5 * (_newton_term(cg ** 2, ch + lam)
                   + _newton_term((G - cg) ** 2, (H - ch) + lam)
                   - parent)
    k = int(np.argmax(gains))
    if not gains[k] > 0:
        return None
    f, b = divmod(int(cells[k]), hg.shape[1])
    return float(gains[k]), f, b


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
               h: np.ndarray, nbins: list[int], params: GbdtParams
               ) -> tuple[Tree, np.ndarray] | None:
    """One tree and each training row's leaf value, or None when the root
    cannot split."""
    width = max(nbins)
    shape = (len(nbins), width)
    offsets = np.arange(len(nbins), dtype=np.int64) * width
    # The last bin of a feature leaves nothing on the right; padding never splits.
    split_ok = np.arange(width) < np.array(nbins)[:, None] - 1
    # A leaf with fewer rows has no split with min_data_in_leaf on each side.
    min_rows = 2 * params.min_data_in_leaf

    feature, threshold_bin = [-1], [-1]
    left, right = [-1], [-1]
    gain_arr = [0.0]

    def make_leaf(idx, hists):
        """A leaf searched over its grids, or with hists None never split."""
        G, H = float(np.sum(g[idx])), float(np.sum(h[idx]))
        if hists is None:
            return _Leaf(idx, None, None, None, G, H, None)
        best = _best_split(*hists, split_ok, G, H, len(idx), params)
        return _Leaf(idx, *hists, G, H, best)

    root = np.arange(len(g))
    leaves: dict[int, _Leaf] = {0: make_leaf(
        root, _histogram(binned_sel, root, g, h, offsets, shape)
        if len(root) >= min_rows else None)}
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
        # The children of the split that fills the tree are never split.
        room = len(leaves) + 1 < params.num_leaves
        node_id = order[0]
        split_gain, f_local, split_bin = leaves[node_id].best
        leaf = leaves.pop(node_id)
        mask = binned_sel[leaf.idx, f_local] <= split_bin
        children = (leaf.idx[mask], leaf.idx[~mask])
        searched = [room and len(idx) >= min_rows for idx in children]
        # Build the smaller child's grids directly; subtract for its sibling.
        small = 0 if len(children[0]) <= len(children[1]) else 1
        hists: list[tuple | None] = [None, None]
        if any(searched):
            direct = _histogram(binned_sel, children[small], g, h, offsets, shape)
            if searched[1 - small]:
                hists[1 - small] = (leaf.hg - direct[0], leaf.hh - direct[1],
                                    leaf.hn - direct[2])
            if searched[small]:
                hists[small] = direct
        lchild, rchild = (make_leaf(idx, hs) for idx, hs in zip(children, hists))
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
    row_value = np.empty(len(g))
    for node_id, leaf in leaves.items():
        denom = leaf.H + params.l2_leaf_reg
        value[node_id] = -leaf.G / denom if denom > _MIN_HESSIAN else 0.0
        row_value[leaf.idx] = value[node_id]
    tree = Tree(np.array(feature, dtype=np.int32),
                np.array(threshold_bin, dtype=np.int32),
                np.array(left, dtype=np.int32),
                np.array(right, dtype=np.int32),
                value, np.array(gain_arr))
    return tree, row_value


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


def train(table: FeatureTable, params: GbdtParams, *,
          _binned: Binned | None = None) -> GbdtModel:
    """Boost on the table's rows and columns. _binned, when given, is
    bin_rows(table, params.max_bins) computed once for several fits."""
    if table.labels is None:
        raise DataError("feature table has no label column")
    if not table.columns:
        raise DataError("feature table has no columns")
    y = table.labels.astype(np.float64)
    if y.min() == y.max():
        raise StageError("labels are single-class; nothing to learn")
    if _binned is None:
        _binned = bin_rows(table, params.max_bins)
    elif _binned.train.shape != table.values.shape:
        raise ValueError("pre-binned rows do not match the table")
    bins, binned = _binned.bins, _binned.train
    n_features = len(table.columns)

    prior = float(y.mean())
    base = math.log(prior / (1.0 - prior))
    raw = np.full(len(y), base)
    rng = np.random.default_rng(stage_seed(params.seed, "gbdt"))
    n_sub = max(1, math.ceil(params.feature_fraction * n_features))
    # A feature without a bin edge has one bin and can never split.
    splittable = np.array([len(edges) > 0 for edges in bins])

    trees: list[Tree] = []
    p = sigmoid(raw)
    losses = [_logloss(y, p)]
    for _round in range(params.n_rounds):
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
        grown = _grow_tree(binned[:, feats], feats, g, h, nbins, params)
        if grown is None:
            break
        tree, row_value = grown
        raw += params.learning_rate * row_value
        trees.append(tree)
        p = sigmoid(raw)
        losses.append(_logloss(y, p))
    return GbdtModel(params, base, tuple(trees), table.columns,
                     tuple(bins), tuple(losses))


def _raw_score(model: GbdtModel, binned: np.ndarray) -> np.ndarray:
    raw = np.full(binned.shape[0], model.base_score)
    for tree in model.trees:
        raw += model.params.learning_rate * _tree_raw(tree, binned)
    return raw


def predict(model: GbdtModel, table: FeatureTable) -> np.ndarray:
    cols = []
    for name in model.columns:
        if name not in table.columns:
            raise DataError(f"missing feature column {name!r}")
        cols.append(table.column(name))
    values = np.column_stack(cols) if cols else np.zeros((table.n_rows, 0))
    return sigmoid(_raw_score(model, bin_values(values, model.bins)))


def assign_folds(users: Sequence[str], folds: int, seed: int) -> dict[str, int]:
    """Each distinct user's fold from a seeded hash, users in input order."""
    return {u: stable_bucket(u, seed, folds) for u in users}


def _fold_rows(table: FeatureTable, params: GbdtParams, folds: int
               ) -> tuple[dict[str, int], list[tuple[np.ndarray, np.ndarray]]]:
    """Each distinct user's fold, and each fold's training and held-out
    rows. Every fold is checked before any model trains: a fold whose
    training labels are single-class is a StageError."""
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if table.labels is None:
        raise DataError("feature table has no label column")
    users, row_user = np.unique(table.users, return_inverse=True)
    if len(users) < folds:
        raise StageError(f"need at least {folds} distinct users for {folds}-fold bagging")
    fold_of = assign_folds(users.tolist(), folds, params.seed)
    row_fold = np.fromiter(fold_of.values(), np.int64, len(users))[row_user]
    splits = []
    for f in range(folds):
        train_rows = np.flatnonzero(row_fold != f)
        if len(np.unique(table.labels[train_rows])) < 2:
            raise StageError(
                f"fold {f} leaves single-class training labels; use fewer folds")
        splits.append((train_rows, np.flatnonzero(row_fold == f)))
    return fold_of, splits


def bin_folds(table: FeatureTable, params: GbdtParams, folds: int) -> list[Binned]:
    """Per fold, the binning kfold_bagging(table, params, folds) does: the
    training rows on their own edges and the held-out rows on the same
    edges. Any column subset of the table, fit with the same folds, seed
    and max_bins, can take [b.select(positions) for b in these]."""
    return [bin_rows(table.take(train_rows), params.max_bins,
                     table.values[hold_rows])
            for train_rows, hold_rows in _fold_rows(table, params, folds)[1]]


def kfold_bagging(table: FeatureTable, params: GbdtParams,
                  folds: int = 10, *,
                  _binned: Sequence[Binned] | None = None) -> BaggedModel:
    """One model per fold, trained on the other folds' rows (folds are by
    user, from a seeded hash); keeps out-of-fold probabilities for CV.
    _binned, when given, is bin_folds(table, params, folds) computed once
    for several fits."""
    fold_of, splits = _fold_rows(table, params, folds)
    oof = np.full(table.n_rows, math.nan)
    models = []
    for f, (train_rows, hold_rows) in enumerate(splits):
        sub = table.take(train_rows)
        binned = (bin_rows(sub, params.max_bins, table.values[hold_rows])
                  if _binned is None else _binned[f])
        model = train(sub, params, _binned=binned)
        models.append(model)
        if len(hold_rows):
            oof[hold_rows] = sigmoid(_raw_score(model, binned.hold))
    return BaggedModel(params, folds, tuple(models), fold_of, oof)


def bagged_predict(bagged: BaggedModel, table: FeatureTable) -> np.ndarray:
    preds = np.stack([predict(m, table) for m in bagged.fold_models])
    return preds.mean(axis=0)


def oof_ndcg(table: FeatureTable, oof_scores: np.ndarray, k: int = 10) -> float:
    """NDCG@k of the out-of-fold scores, grouped per user, via the shared
    evaluation routine; users without any positive label are skipped."""
    run = evaluation.group_ranked_run(table.users, table.items, oof_scores)
    pos = (np.zeros(table.n_rows, dtype=bool) if table.labels is None
           else table.labels == 1)
    qrels = evaluation.qrels_from_pairs(table.users[pos], table.items[pos])
    if not qrels:
        raise StageError("no positive labels; NDCG undefined")
    _, mean = evaluation.ndcg_at_k(run, qrels, k=k)
    return mean


def grid_search(table: FeatureTable, grid: Mapping[str, Sequence],
                folds: int, base: GbdtParams = GbdtParams()
                ) -> tuple[GbdtParams, list[dict]]:
    """Exhaustive (num_leaves, learning_rate) sweep scored by out-of-fold
    NDCG@10; ties go to the smaller num_leaves, then smaller rate. The
    sweep changes neither the folds nor max_bins, so each fold is binned
    once for every fit."""
    leaves_list = sorted(grid.get("num_leaves", [base.num_leaves]))
    lr_list = sorted(grid.get("learning_rate", [base.learning_rate]))
    if not leaves_list or not lr_list:
        raise DataError("parameter grid must be nonempty")
    binned = bin_folds(table, base, folds)
    rows: list[dict] = []
    best: tuple[float, GbdtParams] | None = None
    for nl in leaves_list:
        for lr in lr_list:
            params = dataclasses.replace(base, num_leaves=int(nl),
                                         learning_rate=float(lr))
            bagged = kfold_bagging(table, params, folds, _binned=binned)
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


def model_to_dict(model: GbdtModel) -> dict:
    return {"version": MODEL_FORMAT_VERSION, "kind": "gbdt",
            "params": dataclasses.asdict(model.params),
            "base_score": model.base_score,
            "columns": list(model.columns),
            "bins": [b.tolist() for b in model.bins],
            "train_logloss": list(model.train_logloss),
            "trees": [_tree_to_dict(t) for t in model.trees]}


def save_model(model: BaggedModel, path) -> None:
    payload = {"version": MODEL_FORMAT_VERSION, "kind": "bagged",
               "params": dataclasses.asdict(model.params),
               "folds": model.folds,
               "fold_of": dict(sorted(model.fold_of.items())),
               "models": [model_to_dict(m) for m in model.fold_models]}
    atomic_write_text(Path(path), json.dumps(payload, sort_keys=True) + "\n")
