"""Histogram gradient-boosted trees with logistic loss.

Newton boosting: g = p - y, h = p(1-p), leaf value -sum(g)/(sum(h)+lambda).
Trees grow leaf-wise, always splitting the current leaf with the highest
gain, until num_leaves is reached or no split has positive gain. Feature
values are quantile-binned once up front, to uint8 (max_bins <= 255); a
feature without a bin edge (constant on the training rows) can never
split and never enters a tree. Each node keeps one stacked (g, h, count)
x features x max bins histogram grid, filled by bincounts over the node's
rows; bins past a feature's own count stay zero and are never split on.
The smaller child's grid is built directly and the larger one derived by
one subtraction; a leaf keeps its grid only while it can still be split.
All tie-breaks are fixed (gain desc, then lower feature index, then lower
bin; leaf choice by gain desc then lower node id), so training is
deterministic. Prediction splits each node's rows by one bin comparison.

Work whose result would be thrown away is skipped; the trees stay the
same bit for bit:

- A leaf's split search takes one prefix sum along the bin axis and
  evaluates the gain only at the cells that may split, in row-major
  order. Each gain is the same expression of the same prefix sums, and
  the first argmax over those cells is the cell a row-major argmax over
  the whole grid, every other cell at -inf, picks.
- A leaf that is never split gets neither a grid nor a search: one with
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
  the whole table. make_folds draws and bins a table's folds once; the
  grid search bags every candidate on them and keeps the winner's model,
  and CV elimination fits each column subset on its slice (Folds.select).
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


def build_bins(values: np.ndarray, max_bins: int) -> list[np.ndarray]:
    """Per-column interior boundaries (right-closed bins) of a value
    matrix: bin b holds values in (edge[b-1], edge[b]]; the last bin is
    unbounded above. At most max_bins bins; few distinct values map one
    value per bin."""
    if values.shape[0] == 0:
        raise DataError("cannot bin an empty feature table")
    bounds = []
    for pos in range(values.shape[1]):
        x = values[:, pos]
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


def bin_rows(values: np.ndarray, max_bins: int,
             hold_values: np.ndarray | None = None) -> Binned:
    """values binned on their own edges, and hold_values on the same edges."""
    bins = tuple(build_bins(values, max_bins))
    return Binned(bins, bin_values(values, bins),
                  None if hold_values is None else bin_values(hold_values, bins))


def _logloss(y: np.ndarray, p: np.ndarray) -> float:
    eps = 1e-15
    p = np.clip(p, eps, 1 - eps)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def _histogram(binned_sel: np.ndarray, idx: np.ndarray, g: np.ndarray,
               h: np.ndarray, offsets: np.ndarray, shape: tuple[int, int]):
    """Per-(feature, bin) sums of g, h and row counts over the rows idx, as
    one (3, *shape) grid; offsets[f] is row f's start in a flat (features x
    bins) grid. Each cell accumulates its rows in row order."""
    flat = (binned_sel[idx] + offsets).ravel()
    n_feat = binned_sel.shape[1]
    total = shape[0] * shape[1]
    hist = np.empty((3, total))
    hist[0] = np.bincount(flat, weights=np.repeat(g[idx], n_feat), minlength=total)
    hist[1] = np.bincount(flat, weights=np.repeat(h[idx], n_feat), minlength=total)
    hist[2] = np.bincount(flat, minlength=total)
    return hist.reshape(3, *shape)


def _newton_term(gsq: np.ndarray, hmass: np.ndarray) -> np.ndarray:
    return np.where(hmass > _MIN_HESSIAN, gsq / np.maximum(hmass, _MIN_HESSIAN), 0.0)


def _best_split(hist, split_ok, G, H, n, params: GbdtParams):
    """Highest-gain (feature, bin) for one leaf over its (g, h, count)
    histogram grid; split_ok marks the (feature, bin) cells that may split
    at all. Ties go to the lower feature index, then the lower bin
    (row-major order). The gain is evaluated only at the cells that may
    split. None when no split clears zero."""
    cg, ch, cn = np.cumsum(hist, axis=2)
    m = params.min_data_in_leaf
    # both sides of the cut keep m rows; the counts are exact integers
    cells = np.flatnonzero(split_ok & (cn >= m) & (cn <= n - m))
    if not len(cells):
        return None
    lam = params.l2_leaf_reg
    parent = G * G / (H + lam) if H + lam > _MIN_HESSIAN else 0.0
    cg, ch = cg.ravel()[cells], ch.ravel()[cells]
    gains = 0.5 * (_newton_term(cg ** 2, ch + lam)
                   + _newton_term((G - cg) ** 2, (H - ch) + lam)
                   - parent)
    k = int(np.argmax(gains))
    if not gains[k] > 0:
        return None
    f, b = divmod(int(cells[k]), hist.shape[2])
    return float(gains[k]), f, b


@dataclass
class _Leaf:
    idx: np.ndarray
    hist: np.ndarray | None
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

    feature, threshold_bin, left, right, gain_arr = [-1], [-1], [-1], [-1], [0.0]

    def make_leaf(idx, hist):
        """A leaf searched over its grid, or with hist None never split."""
        G, H = float(np.sum(g[idx])), float(np.sum(h[idx]))
        if hist is None:
            return _Leaf(idx, None, G, H, None)
        return _Leaf(idx, hist, G, H,
                     _best_split(hist, split_ok, G, H, len(idx), params))

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
            leaves[n].hist = None
        # The children of the split that fills the tree are never split.
        room = len(leaves) + 1 < params.num_leaves
        node_id = order[0]
        split_gain, f_local, split_bin = leaves[node_id].best
        leaf = leaves.pop(node_id)
        mask = binned_sel[leaf.idx, f_local] <= split_bin
        children = (leaf.idx[mask], leaf.idx[~mask])
        searched = [room and len(idx) >= min_rows for idx in children]
        # Build the smaller child's grid directly; subtract for its sibling.
        small = 0 if len(children[0]) <= len(children[1]) else 1
        grids: list[np.ndarray | None] = [None, None]
        if any(searched):
            direct = _histogram(binned_sel, children[small], g, h, offsets, shape)
            if searched[1 - small]:
                grids[1 - small] = leaf.hist - direct
            if searched[small]:
                grids[small] = direct
        lchild, rchild = (make_leaf(idx, grid) for idx, grid in zip(children, grids))
        del leaf
        lid, rid = len(feature), len(feature) + 1
        for col in (feature, threshold_bin, left, right):
            col += [-1, -1]
        gain_arr += [0.0, 0.0]
        feature[node_id] = int(feats[f_local])
        threshold_bin[node_id] = split_bin
        left[node_id], right[node_id] = lid, rid
        gain_arr[node_id] = split_gain
        leaves[lid], leaves[rid] = lchild, rchild

    value = np.zeros(len(feature))
    row_value = np.empty(len(g))
    for node_id, leaf in leaves.items():
        denom = leaf.H + params.l2_leaf_reg
        value[node_id] = -leaf.G / denom if denom > _MIN_HESSIAN else 0.0
        row_value[leaf.idx] = value[node_id]
    nodes = (np.array(col, dtype=np.int32)
             for col in (feature, threshold_bin, left, right))
    return Tree(*nodes, value, np.array(gain_arr)), row_value


def _tree_raw(tree: Tree, binned: np.ndarray) -> np.ndarray:
    feature, threshold = tree.feature.tolist(), tree.threshold_bin.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    out = np.empty(binned.shape[0])
    stack = [(0, np.arange(binned.shape[0]))]
    while stack:
        node, rows = stack.pop()
        f = feature[node]
        if f < 0:
            out[rows] = tree.value[node]
        elif len(rows):
            go_left = binned[rows, f] <= threshold[node]
            stack += [(left[node], rows[go_left]), (right[node], rows[~go_left])]
    return out


def train(table: FeatureTable, params: GbdtParams, binned: Binned) -> GbdtModel:
    """Boost on the table's rows and columns; binned is
    bin_rows(table.values, params.max_bins), or a column slice of it."""
    if table.labels is None:
        raise DataError("feature table has no label column")
    if not table.columns:
        raise DataError("feature table has no columns")
    y = table.labels.astype(np.float64)
    if y.min() == y.max():
        raise StageError("labels are single-class; nothing to learn")
    if binned.train.shape != table.values.shape:
        raise ValueError("binned rows do not match the table")
    bins = binned.bins
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
        grown = _grow_tree(binned.train[:, feats], feats, g, h, nbins, params)
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


class Folds(NamedTuple):
    """Each distinct user's fold, and each fold's (training rows,
    held-out rows) and their bin_rows on the training rows' edges."""

    fold_of: dict[str, int]
    rows: tuple[tuple[np.ndarray, np.ndarray], ...]
    binned: tuple[Binned, ...]

    def select(self, positions: Sequence[int]) -> "Folds":
        """The same folds of the columns at these positions, in this order."""
        return self._replace(binned=tuple(b.select(positions)
                                          for b in self.binned))


def make_folds(table: FeatureTable, params: GbdtParams, k: int) -> Folds:
    """k user folds from a seeded hash of params.seed, binned on
    params.max_bins. Every fold is checked before any model trains: a fold
    whose training labels are single-class is a StageError."""
    if k < 2:
        raise ValueError("folds must be at least 2")
    if table.labels is None:
        raise DataError("feature table has no label column")
    users, row_user = np.unique(table.users, return_inverse=True)
    if len(users) < k:
        raise StageError(f"need at least {k} distinct users for {k}-fold bagging")
    fold_of = assign_folds(users.tolist(), k, params.seed)
    row_fold = np.fromiter(fold_of.values(), np.int64, len(users))[row_user]
    rows = []
    for f in range(k):
        train_rows = np.flatnonzero(row_fold != f)
        if len(np.unique(table.labels[train_rows])) < 2:
            raise StageError(
                f"fold {f} leaves single-class training labels; use fewer folds")
        rows.append((train_rows, np.flatnonzero(row_fold == f)))
    return Folds(fold_of, tuple(rows), tuple(
        bin_rows(table.values[train_rows], params.max_bins,
                 table.values[hold_rows]) for train_rows, hold_rows in rows))


def kfold_bagging(table: FeatureTable, params: GbdtParams,
                  folds: Folds) -> BaggedModel:
    """One model per fold on its bins, trained on the other folds' rows;
    keeps out-of-fold probabilities for CV. folds is make_folds (with
    params' seed and max_bins) of the table or, sliced, of a wider one."""
    oof = np.full(table.n_rows, math.nan)
    models = []
    for (train_rows, hold_rows), binned in zip(folds.rows, folds.binned):
        model = train(table.take(train_rows), params, binned)
        models.append(model)
        if len(hold_rows):
            oof[hold_rows] = sigmoid(_raw_score(model, binned.hold))
    return BaggedModel(params, len(folds.rows), tuple(models), folds.fold_of, oof)


def bagged_predict(bagged: BaggedModel, table: FeatureTable) -> np.ndarray:
    preds = np.stack([predict(m, table) for m in bagged.fold_models])
    return preds.mean(axis=0)


def oof_ndcg(table: FeatureTable, oof_scores: np.ndarray) -> float:
    """NDCG@10 of the out-of-fold scores, the table's rows ranked per user
    (evaluation.group_ranked_run); users without a positive are skipped."""
    pos = (np.zeros(table.n_rows, dtype=bool) if table.labels is None
           else table.labels == 1)
    qrels = evaluation.qrels_from_pairs(table.users[pos], table.items[pos])
    if not qrels:
        raise StageError("no positive labels; NDCG undefined")
    run = evaluation.group_ranked_run(table.users, table.items, oof_scores)
    _, mean = evaluation.ndcg_at_k(*run[:2], qrels, k=10)
    return mean


def grid_search(table: FeatureTable, grid: Mapping[str, Sequence],
                folds: Folds, base: GbdtParams
                ) -> tuple[BaggedModel, list[dict]]:
    """Exhaustive (num_leaves, learning_rate) sweep over base scored by
    out-of-fold NDCG@10; ties go to the smaller num_leaves, then smaller
    rate. The sweep changes neither the seed nor max_bins, so every
    candidate bags on folds, make_folds of the table with base. Returns
    the winner's bagged model, and one row per candidate."""
    leaves_list = sorted(grid.get("num_leaves", [base.num_leaves]))
    lr_list = sorted(grid.get("learning_rate", [base.learning_rate]))
    if not leaves_list or not lr_list:
        raise DataError("parameter grid must be nonempty")
    rows: list[dict] = []
    best: tuple[float, BaggedModel] | None = None
    for nl in leaves_list:
        for lr in lr_list:
            params = dataclasses.replace(base, num_leaves=int(nl),
                                         learning_rate=float(lr))
            bagged = kfold_bagging(table, params, folds)
            score = oof_ndcg(table, bagged.oof)
            rows.append({"num_leaves": int(nl), "learning_rate": float(lr),
                         "oof_ndcg10": score})
            if best is None or score > best[0]:
                best = (score, bagged)
    assert best is not None
    return best[1], rows


def importance(model: GbdtModel, kind: str = "gain") -> dict[str, float]:
    if kind not in ("gain", "split"):
        raise ValueError(f"unknown importance kind {kind!r}")
    # bincount adds each column's nodes in tree order, starting from 0.0
    feature = np.concatenate([np.empty(0, np.int32),
                              *(t.feature for t in model.trees)])
    internal = feature >= 0
    gain = np.concatenate([np.empty(0), *(t.gain for t in model.trees)])
    sums = np.bincount(feature[internal], gain[internal] if kind == "gain"
                       else None, minlength=len(model.columns))
    return dict(zip(model.columns, sums.astype(np.float64).tolist()))


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
