"""Boosted-tree checks: an exhaustive stump oracle (exact, including the
tie-break order), binning contracts, loss monotonicity, bagging, and the
grid search."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cmrec import gbdt
from cmrec.features import FeatureTable
from cmrec.util import DataError, StageError


def make_table(values, labels=None, users=None, items=None, names=None):
    values = np.asarray(values, dtype=np.float64)
    n, c = values.shape
    users = tuple(users) if users is not None else tuple(f"u{i}" for i in range(n))
    items = tuple(items) if items is not None else tuple(f"i{i}" for i in range(n))
    names = tuple(names) if names is not None else tuple(f"f{j}" for j in range(c))
    labels = None if labels is None else np.asarray(labels, dtype=np.int8)
    return FeatureTable(users, items, names, values, labels)


def fit(table, params):
    """gbdt.train on the table's own binning."""
    return gbdt.train(table, params, gbdt.bin_rows(table.values, params.max_bins))


def bag(table, params, k):
    """gbdt.kfold_bagging on k folds drawn from the table."""
    return gbdt.kfold_bagging(table, params, gbdt.make_folds(table, params, k))


def _tree_from_dict(d) -> gbdt.Tree:
    return gbdt.Tree(np.array(d["feature"], dtype=np.int32),
                     np.array(d["threshold_bin"], dtype=np.int32),
                     np.array(d["left"], dtype=np.int32),
                     np.array(d["right"], dtype=np.int32),
                     np.array(d["value"], dtype=np.float64),
                     np.array(d["gain"], dtype=np.float64))


def model_from_dict(d) -> gbdt.GbdtModel:
    if d.get("version") != gbdt.MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {d.get('version')!r}")
    return gbdt.GbdtModel(
        gbdt.GbdtParams(**d["params"]), float(d["base_score"]),
        tuple(_tree_from_dict(t) for t in d["trees"]), tuple(d["columns"]),
        tuple(np.array(b, dtype=np.float64) for b in d["bins"]),
        tuple(d["train_logloss"]))


def load_model(path) -> gbdt.GbdtModel | gbdt.BaggedModel:
    """The model a model.json holds, read back: no stage reads one."""
    d = json.loads(Path(path).read_text(encoding="utf-8"))
    if d.get("kind") == "bagged":
        if d.get("version") != gbdt.MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format version {d.get('version')!r}")
        return gbdt.BaggedModel(
            gbdt.GbdtParams(**d["params"]), int(d["folds"]),
            tuple(model_from_dict(m) for m in d["models"]),
            {u: int(f) for u, f in d["fold_of"].items()})
    return model_from_dict(d)


def stump_oracle(values, y, params):
    """Exhaustive depth-1 search replicating the training arithmetic bit
    for bit: per-bin sums accumulate sequentially in row order (the
    bincount order), prefix sums fold left to right (the cumsum order),
    totals use pairwise summation, and tie-breaks take the first maximum
    over ascending bins, then ascending features."""
    n, n_feat = values.shape
    y = np.asarray(y, dtype=np.float64)
    prior = float(y.mean())
    base = math.log(prior / (1.0 - prior))
    p = 1.0 / (1.0 + np.exp(-np.full(n, base)))
    g = p - y
    h = p * (1.0 - p)
    lam = params.l2_leaf_reg

    def newton(gs, hm):
        return gs / hm if hm > 1e-12 else 0.0

    def leaf_value(gs, hm):
        denom = hm + lam
        return -gs / denom if denom > 1e-12 else 0.0

    G, H = float(np.sum(g)), float(np.sum(h))
    parent = newton(G * G, H + lam)
    best = None  # (gain, feature, bin)
    for f in range(n_feat):
        uniq = np.unique(values[:, f])
        if len(uniq) < 2:
            continue
        bin_of = np.searchsorted(uniq[:-1], values[:, f], side="left")
        bg = [0.0] * len(uniq)
        bh = [0.0] * len(uniq)
        bn = [0] * len(uniq)
        for r in range(n):
            b = int(bin_of[r])
            bg[b] += float(g[r])
            bh[b] += float(h[r])
            bn[b] += 1
        cg = ch = 0.0
        cn = 0
        for b in range(len(uniq) - 1):
            cg, ch, cn = cg + bg[b], ch + bh[b], cn + bn[b]
            if cn < params.min_data_in_leaf or n - cn < params.min_data_in_leaf:
                continue
            gain = 0.5 * (newton(cg * cg, ch + lam)
                          + newton((G - cg) * (G - cg), (H - ch) + lam)
                          - parent)
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, f, b)
    if best is None:
        return None
    gain, f, b = best
    uniq = np.unique(values[:, f])
    mask = np.searchsorted(uniq[:-1], values[:, f], side="left") <= b
    gl, hl = float(np.sum(g[mask])), float(np.sum(h[mask]))
    gr, hr = float(np.sum(g[~mask])), float(np.sum(h[~mask]))
    return {"gain": gain, "feature": f, "bin": b,
            "left_value": leaf_value(gl, hl),
            "right_value": leaf_value(gr, hr)}


def stump_params(**kw):
    base = dict(num_leaves=2, n_rounds=1, learning_rate=0.1,
                min_data_in_leaf=1, max_bins=255)
    base.update(kw)
    return gbdt.GbdtParams(**base)


class TestStumpOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_split_choice_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 201))
        values = np.round(rng.normal(size=(n, 5)), 2)  # force value ties
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        params = stump_params(
            min_data_in_leaf=int(rng.choice([1, 5])),
            l2_leaf_reg=float(rng.choice([0.0, 1.0])))
        table = make_table(values, y)
        model = fit(table, params)
        want = stump_oracle(values, y, params)
        if want is None:
            assert model.trees == ()
            return
        tree = model.trees[0]
        assert tree.feature[0] == want["feature"]
        assert tree.threshold_bin[0] == want["bin"]
        assert tree.gain[0] == want["gain"]
        assert tree.value[tree.left[0]] == want["left_value"]
        assert tree.value[tree.right[0]] == want["right_value"]

    def test_duplicated_columns_pick_lowest_feature(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=40)
        y = (col > 0).astype(int)
        # identical columns at indices 1 and 3: gains are bit-identical,
        # so the split must land on index 1
        values = np.column_stack([np.zeros(40), col, rng.normal(size=40), col])
        model = fit(make_table(values, y), stump_params())
        assert model.trees[0].feature[0] == 1

    def test_within_feature_ties_pick_lowest_bin(self):
        # two thresholds with identical (mirror-image) partitions:
        # y = 1,0,0,1 over x = 0,1,2,3 gives equal gain at bins 0 and 2
        values = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 0, 1])
        model = fit(make_table(values, y), stump_params())
        want = stump_oracle(values, y, stump_params())
        assert model.trees[0].threshold_bin[0] == want["bin"]
        assert model.trees[0].gain[0] == want["gain"]


def best_split_oracle(hg, hh, hn, nbins, G, H, n, params):
    """Per-feature split search: one prefix sum and argmax per feature over
    its own nbins[f] bins, a later feature replacing the best only on a
    strictly higher gain. The grid search in gbdt._best_split must return
    exactly this, gain bits included."""
    lam = params.l2_leaf_reg
    parent = float(gbdt._newton_term(np.array([G * G]), np.array([H + lam]))[0])
    best = None
    for f in range(len(nbins)):
        nb = int(nbins[f])
        if nb < 2:
            continue
        cg = np.cumsum(hg[f, :nb])[:-1]
        ch = np.cumsum(hh[f, :nb])[:-1]
        cn = np.cumsum(hn[f, :nb])[:-1]
        ok = (cn >= params.min_data_in_leaf) & (n - cn >= params.min_data_in_leaf)
        if not ok.any():
            continue
        gains = 0.5 * (gbdt._newton_term(cg ** 2, ch + lam)
                       + gbdt._newton_term((G - cg) ** 2, (H - ch) + lam)
                       - parent)
        gains[~ok] = -math.inf
        b = int(np.argmax(gains))
        if gains[b] > 0 and (best is None or gains[b] > best[0]):
            best = (float(gains[b]), f, b)
    return best


def padded_grids(hists, nbins):
    """Stack per-feature (g, h, n) bin sums into one zero-padded (3,
    features, bins) grid, plus the split mask _grow_tree builds for it."""
    width = max(nbins)
    grid = np.zeros((3, len(nbins), width))
    for f, (nb, rows) in enumerate(zip(nbins, hists)):
        grid[:, f, :nb] = rows
    split_ok = np.arange(width) < np.asarray(nbins)[:, None] - 1
    return grid, split_ok


def random_leaf(rng, n_feat=6, integral=False):
    """Histograms of one leaf: every feature bins the same rows, so each
    row of the grid sums to the leaf totals. Integral gradients make
    equal gains across and within features common."""
    n = int(rng.integers(2, 60))
    if integral:
        g = rng.integers(-2, 3, n).astype(np.float64)
        h = np.ones(n)
    else:
        p = rng.random(n)
        g, h = p - rng.integers(0, 2, n), p * (1 - p)
    nbins = [int(rng.choice([1, 2, 3, 5, 9])) for _ in range(n_feat)]
    hists = []
    for nb in nbins:
        bin_of = rng.integers(0, nb, n)
        hists.append((np.bincount(bin_of, weights=g, minlength=nb),
                      np.bincount(bin_of, weights=h, minlength=nb),
                      np.bincount(bin_of, minlength=nb).astype(np.float64)))
    if n_feat > 2 and rng.random() < 0.5:  # a duplicated feature: exact tie
        a, b = sorted(rng.choice(n_feat, 2, replace=False))
        nbins[b], hists[b] = nbins[a], hists[a]
    return hists, nbins, float(np.sum(g)), float(np.sum(h)), n


class TestBestSplitGrid:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_feature_oracle(self, seed):
        rng = np.random.default_rng(seed)
        hists, nbins, G, H, n = random_leaf(rng, integral=seed % 2 == 0)
        params = stump_params(min_data_in_leaf=int(rng.choice([1, 2, 4])),
                              l2_leaf_reg=float(rng.choice([0.0, 1.0])))
        grid, split_ok = padded_grids(hists, nbins)
        want = best_split_oracle(*grid, nbins, G, H, n, params)
        assert gbdt._best_split(grid, split_ok, G, H, n, params) == want

    def test_cross_feature_tie_picks_lower_feature(self):
        # features 1 and 2 reach bit-equal gains, feature 1 at a higher bin:
        # the lower feature wins even though its bin is not the lowest
        ones = np.ones(4)
        hists = [(np.zeros(1), np.full(1, 4.0), np.full(1, 4.0)),
                 (np.array([0.0, 0.0, 2.0, -2.0]), ones, ones),
                 (np.array([-2.0, 2.0, 0.0, 0.0]), ones, ones)]
        grid, split_ok = padded_grids(hists, [1, 4, 4])
        got = gbdt._best_split(grid, split_ok, 0.0, 4.0, 4, stump_params())
        assert got is not None and got[1:] == (1, 2)
        assert got == best_split_oracle(*grid, [1, 4, 4], 0.0, 4.0, 4,
                                        stump_params())

    def test_within_feature_tie_picks_lower_bin(self):
        # mirror-image partitions at bins 0 and 2 have bit-equal gains
        hists = [(np.array([1.0, -1.0, -1.0, 1.0]), np.ones(4), np.ones(4))]
        grid, split_ok = padded_grids(hists, [4])
        got = gbdt._best_split(grid, split_ok, 0.0, 4.0, 4, stump_params())
        assert got is not None and got[1:] == (0, 0)
        assert got == best_split_oracle(*grid, [4], 0.0, 4.0, 4,
                                        stump_params())

    def test_one_bin_features_never_split(self):
        hists = [(np.array([5.0]), np.array([2.0]), np.array([9.0]))] * 3
        grid, split_ok = padded_grids(hists, [1, 1, 1])
        assert not split_ok.any()
        assert gbdt._best_split(grid, split_ok, 5.0, 2.0, 9,
                                stump_params()) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_min_data_masking_every_candidate_gives_none(self, seed):
        rng = np.random.default_rng(seed)
        hists, nbins, G, H, n = random_leaf(rng)
        params = stump_params(min_data_in_leaf=n // 2 + 1)
        grid, split_ok = padded_grids(hists, nbins)
        assert best_split_oracle(*grid, nbins, G, H, n, params) is None
        assert gbdt._best_split(grid, split_ok, G, H, n, params) is None

    def test_whole_model_matches_per_feature_search(self, monkeypatch):
        rng = np.random.default_rng(11)
        n = 800
        values = np.column_stack([
            np.round(rng.normal(size=(n, 4)), 2),
            rng.integers(0, 3, n),        # few bins
            np.full(n, 2.0),              # one bin
            rng.exponential(size=n) * (rng.random(n) < 0.3),  # mostly zero
            rng.normal(size=n),           # more distinct values than bins
        ])
        logit = values[:, 0] - 0.7 * values[:, 4] + values[:, 6] - 0.5
        y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
        table = make_table(values, y)
        params = gbdt.GbdtParams(num_leaves=9, n_rounds=8, learning_rate=0.2,
                                 min_data_in_leaf=10, l2_leaf_reg=1.0,
                                 max_bins=63, feature_fraction=0.8, seed=2)
        want = gbdt.model_to_dict(fit(table, params))
        assert len(want["trees"]) == params.n_rounds
        assert max(len(t["feature"]) for t in want["trees"]) > 5

        def per_feature(grid, split_ok, G, H, n, params):
            nbins = split_ok.sum(axis=1) + 1
            return best_split_oracle(*grid, nbins, G, H, n, params)

        monkeypatch.setattr(gbdt, "_best_split", per_feature)
        assert gbdt.model_to_dict(fit(table, params)) == want


def best_split_dense(hg, hh, hn, split_ok, G, H, n, params):
    """The whole-grid search: gains at every cell, -inf where no split
    may happen, one row-major argmax."""
    lam = params.l2_leaf_reg
    parent = float(gbdt._newton_term(np.array([G * G]), np.array([H + lam]))[0])
    cg = np.cumsum(hg, axis=1)
    ch = np.cumsum(hh, axis=1)
    cn = np.cumsum(hn, axis=1)
    ok = split_ok & (cn >= params.min_data_in_leaf) & (n - cn >= params.min_data_in_leaf)
    if not ok.any():
        return None
    gains = 0.5 * (gbdt._newton_term(cg ** 2, ch + lam)
                   + gbdt._newton_term((G - cg) ** 2, (H - ch) + lam)
                   - parent)
    gains[~ok] = -math.inf
    k = int(np.argmax(gains))
    f, b = divmod(k, gains.shape[1])
    if not gains[f, b] > 0:
        return None
    return float(gains[f, b]), f, b


def grow_tree_oracle(binned_sel, feats, g, h, nbins, params, searched):
    """Leaf-wise growth that builds grids for and searches every leaf,
    both children of every split included (the smaller child's grids
    directly, one bincount per feature, its sibling's by subtraction);
    appends each searched leaf's row count to searched."""
    width = max(nbins)
    split_ok = np.arange(width) < np.array(nbins)[:, None] - 1
    cols = {"feature": [-1], "threshold_bin": [-1], "left": [-1],
            "right": [-1], "gain": [0.0]}

    def leaf(idx, hists=None):
        if hists is None:
            hists = tuple(np.stack([
                np.bincount(binned_sel[idx, f], weights, width).astype(float)
                for f in range(len(nbins))]) for weights in (g[idx], h[idx], None))
        G, H = float(np.sum(g[idx])), float(np.sum(h[idx]))
        searched.append(len(idx))
        return idx, hists, G, H, best_split_dense(*hists, split_ok, G, H,
                                                  len(idx), params)

    leaves = {0: leaf(np.arange(len(g)))}
    if leaves[0][4] is None:
        return None
    while len(leaves) < params.num_leaves:
        order = sorted((n for n in sorted(leaves) if leaves[n][4] is not None),
                       key=lambda n: -leaves[n][4][0])
        if not order:
            break
        node = order[0]
        idx, hists, _, _, (gain, f, b) = leaves.pop(node)
        mask = binned_sel[idx, f] <= b
        kids = [idx[mask], idx[~mask]]
        small = 0 if len(kids[0]) <= len(kids[1]) else 1
        made = [None, None]
        made[small] = leaf(kids[small])
        made[1 - small] = leaf(kids[1 - small], tuple(
            p - c for p, c in zip(hists, made[small][1])))
        lid = len(cols["feature"])
        for key in cols:
            cols[key] += [0.0, 0.0] if key == "gain" else [-1, -1]
        cols["feature"][node] = int(feats[f])
        cols["threshold_bin"][node] = b
        cols["left"][node], cols["right"][node] = lid, lid + 1
        cols["gain"][node] = gain
        leaves[lid], leaves[lid + 1] = made
    value = np.zeros(len(cols["feature"]))
    for node, (_, _, G, H, _) in leaves.items():
        denom = H + params.l2_leaf_reg
        value[node] = -G / denom if denom > gbdt._MIN_HESSIAN else 0.0
    return gbdt.Tree(*(np.array(cols[k], dtype=np.int32)
                       for k in ("feature", "threshold_bin", "left", "right")),
                     value, np.array(cols["gain"]))


def route_levels(tree, binned):
    """Each row's leaf value, all rows routed down the tree together one
    level at a time: every pass gathers each unfinished row's node
    feature, threshold and children."""
    node = np.zeros(binned.shape[0], dtype=np.int32)
    while True:
        rows = np.flatnonzero(tree.feature[node] >= 0)
        if len(rows) == 0:
            break
        cur = node[rows]
        go_left = binned[rows, tree.feature[cur]] <= tree.threshold_bin[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def train_oracle(table, params, searched):
    """The boosting loop that bins on every fit and predicts the training
    rows by routing them through each new tree, level by level."""
    y = table.labels.astype(np.float64)
    bins = gbdt.build_bins(table.values, params.max_bins)
    binned = gbdt.bin_values(table.values, bins)
    n_features = len(table.columns)
    base = math.log(y.mean() / (1.0 - y.mean()))
    raw = np.full(len(y), base)
    rng = np.random.default_rng(gbdt.stage_seed(params.seed, "gbdt"))
    n_sub = max(1, math.ceil(params.feature_fraction * n_features))
    splittable = np.array([len(edges) > 0 for edges in bins])
    trees, losses = [], [gbdt._logloss(y, gbdt.sigmoid(raw))]
    for _round in range(params.n_rounds):
        p = gbdt.sigmoid(raw)
        g, h = p - y, p * (1.0 - p)
        feats = (np.sort(rng.permutation(n_features)[:n_sub])
                 if n_sub < n_features else np.arange(n_features))
        feats = feats[splittable[feats]]
        if not len(feats):
            break
        tree = grow_tree_oracle(binned[:, feats], feats, g, h,
                                [len(bins[f]) + 1 for f in feats], params,
                                searched)
        if tree is None:
            break
        raw += params.learning_rate * route_levels(tree, binned)
        trees.append(tree)
        losses.append(gbdt._logloss(y, gbdt.sigmoid(raw)))
    return gbdt.GbdtModel(params, base, tuple(trees), table.columns,
                          tuple(bins), tuple(losses))


def oracle_table(rng, n):
    """Dense, rounded, few-valued, constant and mostly-zero columns with
    labels from a logistic model of three of them."""
    values = np.column_stack([
        rng.normal(size=(n, 3)),
        np.round(rng.normal(size=n), 1),
        rng.integers(0, 4, n),
        np.full(n, 1.5),
        rng.exponential(size=n) * (rng.random(n) < 0.25),
    ])
    logit = values[:, 0] - 0.8 * values[:, 4] + 1.5 * values[:, 6] - 0.3
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
    return make_table(values, y)


class TestTrainOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_model_as_the_whole_search_loop(self, seed, monkeypatch):
        rng = np.random.default_rng(100 + seed)
        table = oracle_table(rng, int(rng.integers(150, 600)))
        params = gbdt.GbdtParams(
            num_leaves=int(rng.choice([4, 7, 12])), n_rounds=6,
            learning_rate=0.3, min_data_in_leaf=int(rng.choice([1, 8, 30])),
            l2_leaf_reg=float(rng.choice([0.5, 2.0])),
            max_bins=int(rng.choice([7, 63, 255])),
            feature_fraction=0.7, seed=seed)
        searched: list[int] = []
        want = gbdt.model_to_dict(train_oracle(table, params, searched))
        calls = []
        search = gbdt._best_split
        monkeypatch.setattr(gbdt, "_best_split",
                            lambda *a: calls.append(a[4]) or search(*a))
        assert gbdt.model_to_dict(fit(table, params)) == want
        # trees fill up, so the last split's children go unsearched
        leaves = [t["feature"].count(-1) for t in want["trees"]]
        assert params.num_leaves in leaves
        assert len(calls) < len(searched)
        assert all(n >= 2 * params.min_data_in_leaf for n in calls)
        if params.min_data_in_leaf == 30:
            # and leaves too small to split skip their search
            assert min(searched) < 2 * params.min_data_in_leaf

    def test_kfold_bagging_on_prebinned_column_subsets(self, rng):
        table = oracle_table(rng, 400)
        table = make_table(table.values, table.labels,
                           users=[f"u{k % 37}" for k in range(400)])
        params = gbdt.GbdtParams(num_leaves=6, n_rounds=4, learning_rate=0.2,
                                 min_data_in_leaf=10, l2_leaf_reg=1.0,
                                 max_bins=31, feature_fraction=0.8, seed=4)
        folds = gbdt.make_folds(table, params, 3)
        for pos in ([0, 1, 2, 3, 4, 5, 6], [6, 2, 4], [5]):
            sub = table.select([table.columns[p] for p in pos])
            want = bag(sub, params, 3)
            got = gbdt.kfold_bagging(sub, params, folds.select(pos))
            assert got.oof.tobytes() == want.oof.tobytes()
            assert ([gbdt.model_to_dict(m) for m in got.fold_models]
                    == [gbdt.model_to_dict(m) for m in want.fold_models])

    def test_prebinned_rows_must_match_the_table(self, rng):
        table = oracle_table(rng, 100)
        binned = gbdt.bin_rows(table.values, 255).select([0, 1])
        with pytest.raises(ValueError, match="do not match"):
            gbdt.train(table, stump_params(), binned)


class TestRouting:
    @pytest.mark.parametrize("seed", range(4))
    def test_partition_equals_the_level_router(self, seed):
        rng = np.random.default_rng(200 + seed)
        table = oracle_table(rng, int(rng.integers(150, 500)))
        params = gbdt.GbdtParams(
            num_leaves=int(rng.choice([2, 5, 15])), n_rounds=5,
            learning_rate=0.3, min_data_in_leaf=int(rng.choice([1, 5, 20])),
            max_bins=int(rng.choice([7, 255])), feature_fraction=0.7,
            seed=seed)
        model = fit(table, params)
        assert model.trees
        held = oracle_table(rng, 97).values
        for binned in (gbdt.bin_values(table.values, model.bins),
                       gbdt.bin_values(held, model.bins)):
            for tree in model.trees:
                got = gbdt._tree_raw(tree, binned)
                assert got.tobytes() == route_levels(tree, binned).tobytes()

    def test_zero_rows_and_a_one_split_tree(self):
        stump = gbdt.Tree(np.array([1, -1, -1], np.int32),
                          np.array([2, -1, -1], np.int32),
                          np.array([1, -1, -1], np.int32),
                          np.array([2, -1, -1], np.int32),
                          np.array([0.0, -0.5, 0.25]), np.array([1.0, 0, 0]))
        binned = np.array([[9, 0], [0, 3], [4, 2], [1, 255]], np.uint8)
        got = gbdt._tree_raw(stump, binned)
        assert got.tolist() == [-0.5, 0.25, -0.5, 0.25]
        assert got.tobytes() == route_levels(stump, binned).tobytes()
        for tree in (stump, gbdt.Tree(*(np.array([-1], np.int32),) * 4,
                                      np.array([0.5]), np.zeros(1))):
            empty = np.zeros((0, 2), np.uint8)
            got = gbdt._tree_raw(tree, empty)
            assert got.dtype == np.float64 and got.shape == (0,)
            assert got.tobytes() == route_levels(tree, empty).tobytes()


class TestBins:
    def test_two_distinct_values_two_bins(self):
        table = make_table(np.array([[1.0], [5.0], [1.0]]))
        bins = gbdt.build_bins(table.values, max_bins=10)
        assert list(bins[0]) == [1.0]
        binned = gbdt.bin_values(table.values, bins)
        assert list(binned[:, 0]) == [0, 1, 0]

    def test_uniform_1_to_1000_max_bins_10(self):
        table = make_table(np.arange(1, 1001, dtype=float)[:, None])
        bins = gbdt.build_bins(table.values, max_bins=10)
        binned = gbdt.bin_values(table.values, bins)
        counts = np.bincount(binned[:, 0], minlength=10)
        assert len(counts) == 10
        assert counts.min() >= 99 and counts.max() <= 101

    def test_constant_column_one_bin(self):
        table = make_table(np.full((20, 1), 3.5))
        bins = gbdt.build_bins(table.values, max_bins=10)
        assert len(bins[0]) == 0
        assert np.all(gbdt.bin_values(table.values, bins) == 0)

    def test_unseen_values_clip_to_boundary_bins(self):
        table = make_table(np.array([[1.0], [2.0], [3.0]]))
        bins = gbdt.build_bins(table.values, max_bins=10)
        binned = gbdt.bin_values(np.array([[-5.0], [99.0]]), bins)
        assert list(binned[:, 0]) == [0, 2]

    def test_empty_table_rejected(self):
        table = make_table(np.zeros((0, 2)))
        with pytest.raises(DataError):
            gbdt.build_bins(table.values, max_bins=4)


class TestTraining:
    @pytest.mark.parametrize("seed", range(4))
    def test_train_logloss_nonincreasing(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(150, 4))
        y = (values[:, 0] + 0.5 * rng.normal(size=150) > 0).astype(int)
        params = gbdt.GbdtParams(num_leaves=7, n_rounds=25, learning_rate=0.2,
                                 min_data_in_leaf=5)
        model = fit(make_table(values, y), params)
        losses = model.train_logloss
        assert len(losses) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_separable_data_reaches_high_auc(self):
        rng = np.random.default_rng(7)
        n = 2000
        values = rng.normal(size=(n, 3))
        y = (values[:, 1] > 0.1).astype(int)
        params = gbdt.GbdtParams(num_leaves=31, n_rounds=50, learning_rate=0.1,
                                 min_data_in_leaf=20)
        table = make_table(values, y)
        model = fit(table, params)
        p = gbdt.predict(model, table)
        pos, neg = p[y == 1], p[y == 0]
        # rank AUC by pair counting
        auc = np.mean(pos[:, None] > neg[None, :]) + \
            0.5 * np.mean(pos[:, None] == neg[None, :])
        assert auc >= 0.99

    def test_single_class_labels_hard_error(self):
        with pytest.raises(StageError, match="single-class"):
            fit(make_table(np.ones((10, 1)), np.ones(10)), stump_params())

    def test_zero_column_table_rejected(self):
        table = make_table(np.zeros((6, 0)), [0, 1] * 3)
        with pytest.raises(DataError, match="no columns"):
            fit(table, stump_params())

    def test_missing_labels_rejected(self):
        with pytest.raises(DataError, match="label"):
            fit(make_table(np.ones((5, 1))), stump_params())

    def test_no_positive_gain_yields_base_model(self):
        values = np.full((30, 2), 1.0)  # constant features: nothing to split
        y = np.array([0, 1] * 15)
        model = fit(make_table(values, y), stump_params(n_rounds=10))
        assert model.trees == ()
        assert len(model.train_logloss) == 1
        p = gbdt.predict(model, make_table(values))
        assert np.allclose(p, 0.5)

    @pytest.mark.parametrize("seed, n_trees", [(0, 1), (1, 0)])
    def test_draw_of_only_constant_columns_stops_boosting(self, monkeypatch,
                                                          seed, n_trees):
        # feature_fraction 0.5 draws one of the two columns per round; at
        # seed 0 the first draw is column 1, the second column 0; at seed
        # 1 the first is column 0. A draw of constant columns only ends
        # training, as a round whose tree cannot split does.
        rng = np.random.default_rng(5)
        values = np.column_stack([np.full(60, 3.0), rng.normal(size=60)])
        y = (values[:, 1] > 0).astype(int)
        grown = []
        grow = gbdt._grow_tree

        def recording(binned_sel, feats, g, h, nbins, params):
            grown.append(list(nbins))
            return grow(binned_sel, feats, g, h, nbins, params)

        monkeypatch.setattr(gbdt, "_grow_tree", recording)
        params = gbdt.GbdtParams(num_leaves=4, n_rounds=5, learning_rate=0.3,
                                 min_data_in_leaf=2, feature_fraction=0.5,
                                 seed=seed)
        model = fit(make_table(values, y), params)
        assert len(model.trees) == n_trees
        assert len(model.train_logloss) == n_trees + 1
        assert len(grown) == n_trees and all(min(nb) > 1 for nb in grown)

    def test_constant_columns_change_nothing(self, rng):
        values = rng.normal(size=(120, 3))
        y = (values[:, 0] + 0.5 * values[:, 2] > 0).astype(int)
        padded = np.column_stack([np.zeros(120), values[:, :2],
                                  np.full(120, 7.0), values[:, 2:]])
        params = gbdt.GbdtParams(num_leaves=5, n_rounds=6, learning_rate=0.3,
                                 min_data_in_leaf=4)
        plain = fit(make_table(values, y), params)
        wide = fit(make_table(padded, y), params)
        assert len(wide.trees) == len(plain.trees) == params.n_rounds
        assert wide.train_logloss == plain.train_logloss
        got = gbdt.predict(wide, make_table(padded))
        want = gbdt.predict(plain, make_table(values))
        assert np.array_equal(got, want)

    def test_predict_missing_column_names_it(self):
        values = np.random.default_rng(0).normal(size=(40, 2))
        y = (values[:, 0] > 0).astype(int)
        model = fit(make_table(values, y, names=["alpha", "beta"]),
                           stump_params())
        other = make_table(values[:, :1], names=["alpha"])
        with pytest.raises(DataError, match="beta"):
            gbdt.predict(model, other)

    def test_feature_fraction_subsamples(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(80, 6))
        y = (values[:, 2] > 0).astype(int)
        params = gbdt.GbdtParams(num_leaves=4, n_rounds=10, learning_rate=0.3,
                                 min_data_in_leaf=2, feature_fraction=0.5,
                                 seed=4)
        model = fit(make_table(values, y), params)
        used = {int(f) for t in model.trees for f in t.feature if f >= 0}
        assert used  # trained something
        per_tree = [sorted({int(f) for f in t.feature if f >= 0})
                    for t in model.trees]
        assert any(len(s) <= 3 for s in per_tree)


def ranking_table(rng, n_users=30, per_user=8, informative=True):
    users, items, rows, labels = [], [], [], []
    for u in range(n_users):
        pos = rng.integers(0, per_user)
        for c in range(per_user):
            y = int(c == pos)
            x0 = y + rng.normal(0, 0.3) if informative else rng.normal()
            users.append(f"u{u}")
            items.append(f"i{c}")
            rows.append([x0, rng.normal()])
            labels.append(y)
    return make_table(np.array(rows), labels, users=users, items=items)


class TestBagging:
    def test_folds_partition_users_and_oof_complete(self, rng):
        table = ranking_table(rng)
        params = stump_params(n_rounds=5)
        bagged = bag(table, params, 5)
        assert set(bagged.fold_of) == set(table.users)
        assert all(0 <= f < 5 for f in bagged.fold_of.values())
        assert np.all(np.isfinite(bagged.oof))

    def test_oof_comes_from_held_out_model(self, rng):
        table = ranking_table(rng)
        params = stump_params(n_rounds=3)
        bagged = bag(table, params, 4)
        row_fold = np.array([bagged.fold_of[u] for u in table.users])
        for f in range(4):
            rows = np.flatnonzero(row_fold == f)
            want = gbdt.predict(bagged.fold_models[f], table.take(rows))
            assert np.array_equal(bagged.oof[rows], want)

    def test_bagged_predict_is_fold_mean(self, rng):
        table = ranking_table(rng)
        bagged = bag(table, stump_params(n_rounds=2), 3)
        per_fold = np.stack([gbdt.predict(m, table)
                             for m in bagged.fold_models])
        assert np.allclose(gbdt.bagged_predict(bagged, table),
                           per_fold.mean(axis=0))

    def test_single_class_fold_suggests_fewer_folds(self):
        # one user holds every positive: the fold containing it leaves
        # the others all-negative... construct directly: 3 users, the
        # positive-labeled rows all belong to u0
        users = ["u0"] * 4 + ["u1"] * 4 + ["u2"] * 4
        labels = [1, 1, 1, 1] + [0] * 8
        values = np.random.default_rng(0).normal(size=(12, 2))
        table = make_table(values, labels, users=users,
                           items=[f"i{k}" for k in range(12)])
        with pytest.raises(StageError, match="fewer folds"):
            gbdt.make_folds(table, stump_params(), 3)

    def test_too_few_users_rejected(self, rng):
        table = ranking_table(rng, n_users=3)
        with pytest.raises(StageError, match="distinct users"):
            gbdt.make_folds(table, stump_params(), 10)

    def test_oof_ndcg_qrels_and_value_equal_the_row_loop(self, rng,
                                                         monkeypatch):
        table = ranking_table(rng, n_users=12, per_user=5)
        # users out of first-appearance order and a user with two positives
        order = rng.permutation(table.n_rows)
        labels = table.labels[order].copy()
        labels[np.flatnonzero(labels == 0)[:3]] = 1
        table = make_table(table.values[order], labels,
                           users=[table.users[r] for r in order],
                           items=[table.items[r] for r in order])
        scores = rng.normal(size=table.n_rows)
        want_qrels: dict[str, set] = {}
        for r in range(table.n_rows):
            if table.labels[r] == 1:
                want_qrels.setdefault(table.users[r], set()).add(table.items[r])
        users, items, _ = gbdt.evaluation.group_ranked_run(
            table.users, table.items, scores)
        _, want = gbdt.evaluation.ndcg_at_k(users, items, want_qrels, k=10)
        seen = []
        inner = gbdt.evaluation.ndcg_at_k

        def spy(users, items, qrels, k):
            seen.append(qrels)
            return inner(users, items, qrels, k=k)

        monkeypatch.setattr(gbdt.evaluation, "ndcg_at_k", spy)
        assert gbdt.oof_ndcg(table, scores) == want
        [qrels] = seen
        assert list(qrels.items()) == list(want_qrels.items())

    def test_oof_ndcg_requires_positives(self, rng):
        values = rng.normal(size=(6, 1))
        table = make_table(values, [0] * 6, users=["u"] * 6,
                           items=[f"i{k}" for k in range(6)])
        with pytest.raises(StageError, match="positive"):
            gbdt.oof_ndcg(table, np.zeros(6))


class TestGridSearch:
    def test_constant_features_tie_breaks_to_smallest(self, rng):
        table = ranking_table(rng, informative=False)
        table = make_table(np.ones_like(table.values), table.labels,
                           users=table.users, items=table.items)
        grid = {"num_leaves": (31, 15), "learning_rate": (0.1, 0.03)}
        base = stump_params()
        best, rows = gbdt.grid_search(table, grid,
                                      gbdt.make_folds(table, base, 3), base)
        # constant features -> every candidate scores identically -> the
        # first (smallest leaves, smallest rate) wins
        assert best.params.num_leaves == 15
        assert best.params.learning_rate == 0.03
        assert len(rows) == 4
        assert len({r["oof_ndcg10"] for r in rows}) == 1

    def test_informative_beats_noise_config(self, rng):
        table = ranking_table(rng)
        grid = {"num_leaves": (4,), "learning_rate": (0.1,)}
        base = stump_params(n_rounds=10)
        best, rows = gbdt.grid_search(table, grid,
                                      gbdt.make_folds(table, base, 3), base)
        assert rows[0]["oof_ndcg10"] > 0.5

    def test_empty_grid_axis_rejected(self, rng):
        table = ranking_table(rng)
        with pytest.raises(DataError):
            gbdt.grid_search(table, {"num_leaves": ()},
                             gbdt.make_folds(table, stump_params(), 3),
                             stump_params())

    GRID = {"num_leaves": (4, 2), "learning_rate": (0.3, 0.1)}

    def test_binning_once_per_fold_changes_nothing(self, rng, monkeypatch):
        table = ranking_table(rng)
        base = stump_params(n_rounds=6)
        folds = gbdt.make_folds(table, base, 3)
        best, rows = gbdt.grid_search(table, self.GRID, folds, base)
        # every fit draws and bins its own folds, as without the sharing
        bagging = gbdt.kfold_bagging
        monkeypatch.setattr(gbdt, "kfold_bagging",
                            lambda table, params, folds: bagging(
                                table, params,
                                gbdt.make_folds(table, params, len(folds.rows))))
        best_alone, rows_alone = gbdt.grid_search(table, self.GRID, folds,
                                                  base)
        assert best.params == best_alone.params
        assert best.oof.tobytes() == best_alone.oof.tobytes()
        assert ([gbdt.model_to_dict(m) for m in best.fold_models]
                == [gbdt.model_to_dict(m) for m in best_alone.fold_models])
        assert rows == rows_alone and len(rows) == 4

    def test_bins_each_fold_once(self, rng, monkeypatch):
        table = ranking_table(rng)
        calls = []
        build = gbdt.build_bins
        monkeypatch.setattr(gbdt, "build_bins",
                            lambda values, max_bins: calls.append(len(values))
                            or build(values, max_bins))
        base = stump_params(n_rounds=6)
        gbdt.grid_search(table, self.GRID, gbdt.make_folds(table, base, 3), base)
        assert len(calls) == 3


class TestSerialization:
    def test_bagged_round_trip(self, tmp_path, rng):
        table = ranking_table(rng)
        params = gbdt.GbdtParams(num_leaves=5, n_rounds=8, learning_rate=0.2,
                                 min_data_in_leaf=3)
        bagged = bag(table, params, 3)
        gbdt.save_model(bagged, tmp_path / "b.json")
        back = load_model(tmp_path / "b.json")
        assert isinstance(back, gbdt.BaggedModel)
        assert back.fold_of == dict(bagged.fold_of)
        assert np.array_equal(gbdt.bagged_predict(bagged, table),
                              gbdt.bagged_predict(back, table))
        for model, again in zip(bagged.fold_models, back.fold_models,
                                strict=True):
            assert np.array_equal(gbdt.predict(model, table),
                                  gbdt.predict(again, table))

    def test_save_is_byte_deterministic(self, tmp_path, rng):
        table = ranking_table(rng)
        model = bag(table, stump_params(n_rounds=4), 3)
        gbdt.save_model(model, tmp_path / "a.json")
        gbdt.save_model(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()
        payload = json.loads((tmp_path / "a.json").read_text())
        assert payload["version"] == gbdt.MODEL_FORMAT_VERSION

    def test_unsupported_version_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps({"version": 99,
                                                     "kind": "gbdt"}))
        with pytest.raises(DataError, match="version"):
            load_model(tmp_path / "m.json")


class TestFolds:
    def test_one_draw_partitions_the_users_and_bins_each_fold(self, rng):
        table = ranking_table(rng)
        params = stump_params(max_bins=7, seed=3)
        folds = gbdt.make_folds(table, params, 4)
        assert folds.fold_of == gbdt.assign_folds(sorted(set(table.users)), 4, 3)
        row_fold = np.array([folds.fold_of[u] for u in table.users])
        assert len(folds.rows) == len(folds.binned) == 4
        for f, ((train_rows, hold_rows), binned) in enumerate(
                zip(folds.rows, folds.binned)):
            assert np.array_equal(hold_rows, np.flatnonzero(row_fold == f))
            assert np.array_equal(train_rows, np.flatnonzero(row_fold != f))
            want = gbdt.bin_rows(table.take(train_rows).values, 7,
                                 table.values[hold_rows])
            assert np.array_equal(binned.train, want.train)
            assert np.array_equal(binned.hold, want.hold)
            assert all(np.array_equal(a, b)
                       for a, b in zip(binned.bins, want.bins, strict=True))

    def test_select_slices_the_bins_and_keeps_the_draw(self, rng):
        table = ranking_table(rng)
        folds = gbdt.make_folds(table, stump_params(), 3)
        sub = folds.select([1])
        assert sub.fold_of is folds.fold_of and sub.rows is folds.rows
        for whole, part in zip(folds.binned, sub.binned, strict=True):
            assert np.array_equal(part.train, whole.train[:, [1]])
            assert np.array_equal(part.hold, whole.hold[:, [1]])
            assert part.bins == (whole.bins[1],)

    def test_checks_come_before_any_binning(self, rng, monkeypatch):
        monkeypatch.setattr(gbdt, "build_bins", None)
        table = ranking_table(rng)
        with pytest.raises(ValueError, match="at least 2"):
            gbdt.make_folds(table, stump_params(), 1)
        with pytest.raises(DataError, match="label"):
            gbdt.make_folds(make_table(table.values, users=table.users),
                            stump_params(), 3)
        with pytest.raises(StageError, match="distinct users"):
            gbdt.make_folds(table, stump_params(), 31)


class TestImportance:
    @pytest.mark.parametrize("kind", ["gain", "split"])
    def test_equals_the_node_loop_bit_for_bit(self, rng, kind):
        values = rng.normal(size=(300, 5))
        y = (values[:, 0] + values[:, 3] + rng.normal(size=300) > 0).astype(int)
        params = gbdt.GbdtParams(num_leaves=6, n_rounds=12, learning_rate=0.3,
                                 min_data_in_leaf=5, feature_fraction=0.6)
        model = fit(make_table(values, y), params)
        want = {name: 0.0 for name in model.columns}
        for tree in model.trees:
            for node in np.flatnonzero(tree.feature >= 0):
                name = model.columns[tree.feature[node]]
                want[name] += tree.gain[node] if kind == "gain" else 1.0
        got = gbdt.importance(model, kind)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() \
            == np.array(list(want.values())).tobytes()
        empty = fit(make_table(np.ones((20, 2)), [0, 1] * 10), params)
        assert empty.trees == ()
        assert gbdt.importance(empty, kind) == {"f0": 0.0, "f1": 0.0}

    def test_gain_and_split_importance(self, rng):
        values = rng.normal(size=(100, 3))
        y = (values[:, 1] > 0).astype(int)
        model = fit(make_table(values, y),
                           stump_params(n_rounds=5, num_leaves=4))
        gain = gbdt.importance(model, "gain")
        split = gbdt.importance(model, "split")
        assert gain["f1"] > 0 and gain["f1"] >= max(gain["f0"], gain["f2"])
        # split importance is a plain count of internal nodes per feature
        counted = {name: 0.0 for name in ("f0", "f1", "f2")}
        total_gain = {name: 0.0 for name in ("f0", "f1", "f2")}
        for tree in model.trees:
            for node, feat in enumerate(tree.feature):
                if feat >= 0:
                    counted[f"f{feat}"] += 1.0
                    total_gain[f"f{feat}"] += tree.gain[node]
        assert split == counted
        assert gain == pytest.approx(total_gain)

    def test_unknown_kind(self, rng):
        values = rng.normal(size=(30, 1))
        model = fit(make_table(values, (values[:, 0] > 0).astype(int)),
                           stump_params())
        with pytest.raises(ValueError):
            gbdt.importance(model, "shap")


class TestDeterminism:
    def test_same_seed_same_model(self, rng):
        table = ranking_table(rng)
        params = gbdt.GbdtParams(num_leaves=6, n_rounds=6,
                                 feature_fraction=0.7, seed=11,
                                 min_data_in_leaf=2)
        a = fit(table, params)
        b = fit(table, params)
        assert np.array_equal(gbdt.predict(a, table), gbdt.predict(b, table))
        assert a.train_logloss == b.train_logloss

    def test_assign_folds_stable(self):
        users = [f"u{k}" for k in range(50)]
        a = gbdt.assign_folds(users, 10, seed=3)
        b = gbdt.assign_folds(users, 10, seed=3)
        assert a == b
        assert set(a.values()) <= set(range(10))
