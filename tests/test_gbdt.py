"""Boosted-tree checks: an exhaustive stump oracle (exact, including the
tie-break order), binning contracts, loss monotonicity, bagging, and the
grid search."""

import json
import math

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
        model = gbdt.train(table, params)
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
        model = gbdt.train(make_table(values, y), stump_params())
        assert model.trees[0].feature[0] == 1

    def test_within_feature_ties_pick_lowest_bin(self):
        # two thresholds with identical (mirror-image) partitions:
        # y = 1,0,0,1 over x = 0,1,2,3 gives equal gain at bins 0 and 2
        values = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 0, 1])
        model = gbdt.train(make_table(values, y), stump_params())
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
    """Stack per-feature (g, h, n) bin sums into zero-padded grids, plus the
    split mask _grow_tree builds for them."""
    width = max(nbins)
    grids = np.zeros((3, len(nbins), width))
    for f, (nb, rows) in enumerate(zip(nbins, hists)):
        grids[:, f, :nb] = rows
    split_ok = np.arange(width) < np.asarray(nbins)[:, None] - 1
    return grids[0], grids[1], grids[2], split_ok


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
        hg, hh, hn, split_ok = padded_grids(hists, nbins)
        want = best_split_oracle(hg, hh, hn, nbins, G, H, n, params)
        assert gbdt._best_split(hg, hh, hn, split_ok, G, H, n, params) == want

    def test_cross_feature_tie_picks_lower_feature(self):
        # features 1 and 2 reach bit-equal gains, feature 1 at a higher bin:
        # the lower feature wins even though its bin is not the lowest
        ones = np.ones(4)
        hists = [(np.zeros(1), np.full(1, 4.0), np.full(1, 4.0)),
                 (np.array([0.0, 0.0, 2.0, -2.0]), ones, ones),
                 (np.array([-2.0, 2.0, 0.0, 0.0]), ones, ones)]
        hg, hh, hn, split_ok = padded_grids(hists, [1, 4, 4])
        got = gbdt._best_split(hg, hh, hn, split_ok, 0.0, 4.0, 4, stump_params())
        assert got is not None and got[1:] == (1, 2)
        assert got == best_split_oracle(hg, hh, hn, [1, 4, 4], 0.0, 4.0, 4,
                                        stump_params())

    def test_within_feature_tie_picks_lower_bin(self):
        # mirror-image partitions at bins 0 and 2 have bit-equal gains
        hists = [(np.array([1.0, -1.0, -1.0, 1.0]), np.ones(4), np.ones(4))]
        hg, hh, hn, split_ok = padded_grids(hists, [4])
        got = gbdt._best_split(hg, hh, hn, split_ok, 0.0, 4.0, 4, stump_params())
        assert got is not None and got[1:] == (0, 0)
        assert got == best_split_oracle(hg, hh, hn, [4], 0.0, 4.0, 4,
                                        stump_params())

    def test_one_bin_features_never_split(self):
        hists = [(np.array([5.0]), np.array([2.0]), np.array([9.0]))] * 3
        hg, hh, hn, split_ok = padded_grids(hists, [1, 1, 1])
        assert not split_ok.any()
        assert gbdt._best_split(hg, hh, hn, split_ok, 5.0, 2.0, 9,
                                stump_params()) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_min_data_masking_every_candidate_gives_none(self, seed):
        rng = np.random.default_rng(seed)
        hists, nbins, G, H, n = random_leaf(rng)
        params = stump_params(min_data_in_leaf=n // 2 + 1)
        hg, hh, hn, split_ok = padded_grids(hists, nbins)
        assert best_split_oracle(hg, hh, hn, nbins, G, H, n, params) is None
        assert gbdt._best_split(hg, hh, hn, split_ok, G, H, n, params) is None

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
        want = gbdt.model_to_dict(gbdt.train(table, params))
        assert len(want["trees"]) == params.n_rounds
        assert max(len(t["feature"]) for t in want["trees"]) > 5

        def per_feature(hg, hh, hn, split_ok, G, H, n, params):
            nbins = split_ok.sum(axis=1) + 1
            return best_split_oracle(hg, hh, hn, nbins, G, H, n, params)

        monkeypatch.setattr(gbdt, "_best_split", per_feature)
        assert gbdt.model_to_dict(gbdt.train(table, params)) == want


class TestBins:
    def test_two_distinct_values_two_bins(self):
        table = make_table(np.array([[1.0], [5.0], [1.0]]))
        bins = gbdt.build_bins(table, max_bins=10)
        assert list(bins[0]) == [1.0]
        binned = gbdt.bin_values(table.values, bins)
        assert list(binned[:, 0]) == [0, 1, 0]

    def test_uniform_1_to_1000_max_bins_10(self):
        table = make_table(np.arange(1, 1001, dtype=float)[:, None])
        bins = gbdt.build_bins(table, max_bins=10)
        binned = gbdt.bin_values(table.values, bins)
        counts = np.bincount(binned[:, 0], minlength=10)
        assert len(counts) == 10
        assert counts.min() >= 99 and counts.max() <= 101

    def test_constant_column_one_bin(self):
        table = make_table(np.full((20, 1), 3.5))
        bins = gbdt.build_bins(table, max_bins=10)
        assert len(bins[0]) == 0
        assert np.all(gbdt.bin_values(table.values, bins) == 0)

    def test_unseen_values_clip_to_boundary_bins(self):
        table = make_table(np.array([[1.0], [2.0], [3.0]]))
        bins = gbdt.build_bins(table, max_bins=10)
        binned = gbdt.bin_values(np.array([[-5.0], [99.0]]), bins)
        assert list(binned[:, 0]) == [0, 2]

    def test_empty_table_rejected(self):
        table = make_table(np.zeros((0, 2)))
        with pytest.raises(DataError):
            gbdt.build_bins(table, max_bins=4)


class TestTraining:
    @pytest.mark.parametrize("seed", range(4))
    def test_train_logloss_nonincreasing(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(150, 4))
        y = (values[:, 0] + 0.5 * rng.normal(size=150) > 0).astype(int)
        params = gbdt.GbdtParams(num_leaves=7, n_rounds=25, learning_rate=0.2,
                                 min_data_in_leaf=5)
        model = gbdt.train(make_table(values, y), params)
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
        model = gbdt.train(table, params)
        p = gbdt.predict(model, table)
        pos, neg = p[y == 1], p[y == 0]
        # rank AUC by pair counting
        auc = np.mean(pos[:, None] > neg[None, :]) + \
            0.5 * np.mean(pos[:, None] == neg[None, :])
        assert auc >= 0.99

    def test_single_class_labels_hard_error(self):
        with pytest.raises(StageError, match="single-class"):
            gbdt.train(make_table(np.ones((10, 1)), np.ones(10)), stump_params())

    def test_zero_column_table_rejected(self):
        table = make_table(np.zeros((6, 0)), [0, 1] * 3)
        with pytest.raises(DataError, match="no columns"):
            gbdt.train(table, stump_params())

    def test_missing_labels_rejected(self):
        with pytest.raises(DataError, match="label"):
            gbdt.train(make_table(np.ones((5, 1))), stump_params())

    def test_no_positive_gain_yields_base_model(self):
        values = np.full((30, 2), 1.0)  # constant features: nothing to split
        y = np.array([0, 1] * 15)
        model = gbdt.train(make_table(values, y), stump_params(n_rounds=10))
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
        model = gbdt.train(make_table(values, y), params)
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
        plain = gbdt.train(make_table(values, y), params)
        wide = gbdt.train(make_table(padded, y), params)
        assert len(wide.trees) == len(plain.trees) == params.n_rounds
        assert wide.train_logloss == plain.train_logloss
        got = gbdt.predict(wide, make_table(padded))
        want = gbdt.predict(plain, make_table(values))
        assert np.array_equal(got, want)

    def test_predict_missing_column_names_it(self):
        values = np.random.default_rng(0).normal(size=(40, 2))
        y = (values[:, 0] > 0).astype(int)
        model = gbdt.train(make_table(values, y, names=["alpha", "beta"]),
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
        model = gbdt.train(make_table(values, y), params)
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
        bagged = gbdt.kfold_bagging(table, params, folds=5)
        assert set(bagged.fold_of) == set(table.users)
        assert all(0 <= f < 5 for f in bagged.fold_of.values())
        assert np.all(np.isfinite(bagged.oof))

    def test_oof_comes_from_held_out_model(self, rng):
        table = ranking_table(rng)
        params = stump_params(n_rounds=3)
        bagged = gbdt.kfold_bagging(table, params, folds=4)
        row_fold = np.array([bagged.fold_of[u] for u in table.users])
        for f in range(4):
            rows = np.flatnonzero(row_fold == f)
            want = gbdt.predict(bagged.fold_models[f], table.take(rows))
            assert np.array_equal(bagged.oof[rows], want)

    def test_bagged_predict_is_fold_mean(self, rng):
        table = ranking_table(rng)
        bagged = gbdt.kfold_bagging(table, stump_params(n_rounds=2), folds=3)
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
            gbdt.kfold_bagging(table, stump_params(), folds=3)

    def test_too_few_users_rejected(self, rng):
        table = ranking_table(rng, n_users=3)
        with pytest.raises(StageError, match="distinct users"):
            gbdt.kfold_bagging(table, stump_params(), folds=10)

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
        run = gbdt.evaluation.group_ranked_run(table.users, table.items, scores)
        _, want = gbdt.evaluation.ndcg_at_k(run, want_qrels, k=10)
        seen = []
        inner = gbdt.evaluation.ndcg_at_k

        def spy(run, qrels, k):
            seen.append(qrels)
            return inner(run, qrels, k=k)

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
        best, rows = gbdt.grid_search(table, grid, folds=3,
                                      base=stump_params())
        # constant features -> every candidate scores identically -> the
        # first (smallest leaves, smallest rate) wins
        assert best.num_leaves == 15
        assert best.learning_rate == 0.03
        assert len(rows) == 4
        assert len({r["oof_ndcg10"] for r in rows}) == 1

    def test_informative_beats_noise_config(self, rng):
        table = ranking_table(rng)
        grid = {"num_leaves": (4,), "learning_rate": (0.1,)}
        best, rows = gbdt.grid_search(table, grid, folds=3,
                                      base=stump_params(n_rounds=10))
        assert rows[0]["oof_ndcg10"] > 0.5

    def test_empty_grid_axis_rejected(self, rng):
        table = ranking_table(rng)
        with pytest.raises(DataError):
            gbdt.grid_search(table, {"num_leaves": ()}, folds=3)


class TestSerialization:
    def test_round_trip_predictions(self, tmp_path, rng):
        table = ranking_table(rng)
        params = gbdt.GbdtParams(num_leaves=5, n_rounds=8, learning_rate=0.2,
                                 min_data_in_leaf=3)
        model = gbdt.train(table, params)
        gbdt.save_model(model, tmp_path / "m.json")
        back = gbdt.load_model(tmp_path / "m.json")
        assert isinstance(back, gbdt.GbdtModel)
        assert np.array_equal(gbdt.predict(model, table),
                              gbdt.predict(back, table))

    def test_bagged_round_trip(self, tmp_path, rng):
        table = ranking_table(rng)
        bagged = gbdt.kfold_bagging(table, stump_params(n_rounds=3), folds=3)
        gbdt.save_model(bagged, tmp_path / "b.json")
        back = gbdt.load_model(tmp_path / "b.json")
        assert isinstance(back, gbdt.BaggedModel)
        assert back.fold_of == dict(bagged.fold_of)
        assert np.array_equal(gbdt.bagged_predict(bagged, table),
                              gbdt.bagged_predict(back, table))

    def test_save_is_byte_deterministic(self, tmp_path, rng):
        table = ranking_table(rng)
        model = gbdt.train(table, stump_params(n_rounds=4))
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
            gbdt.load_model(tmp_path / "m.json")


class TestImportance:
    def test_gain_and_split_importance(self, rng):
        values = rng.normal(size=(100, 3))
        y = (values[:, 1] > 0).astype(int)
        model = gbdt.train(make_table(values, y),
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
        model = gbdt.train(make_table(values, (values[:, 0] > 0).astype(int)),
                           stump_params())
        with pytest.raises(ValueError):
            gbdt.importance(model, "shap")


class TestDeterminism:
    def test_same_seed_same_model(self, rng):
        table = ranking_table(rng)
        params = gbdt.GbdtParams(num_leaves=6, n_rounds=6,
                                 feature_fraction=0.7, seed=11,
                                 min_data_in_leaf=2)
        a = gbdt.train(table, params)
        b = gbdt.train(table, params)
        assert np.array_equal(gbdt.predict(a, table), gbdt.predict(b, table))
        assert a.train_logloss == b.train_logloss

    def test_assign_folds_stable(self):
        users = [f"u{k}" for k in range(50)]
        a = gbdt.assign_folds(users, 10, seed=3)
        b = gbdt.assign_folds(users, 10, seed=3)
        assert a == b
        assert set(a.values()) <= set(range(10))
