"""Acceptance gate: eight go/no-go checks, one printed verdict line each.

Run with plain `pytest tests/test_acceptance.py -v`; every check prints
`[criterion N] PASS/FAIL — detail` regardless of capture settings. The
checks either reproduce a component against an independently written
oracle at a stated tolerance, or exercise the assembled pipeline end to
end on a fixed-seed synthetic five-market dataset.
"""

import math
import time

import numpy as np
import pytest

from cmrec import embeddings as emb
from cmrec import evaluation, features, gbdt, memory_cf as mcf, pipeline, selection
from cmrec.config import PipelineConfig
from cmrec.synth import MarketSpec, SynthConfig, generate
from cmrec.util import read_artifact

from test_embeddings import (dense_propagation_oracle, finite_difference,
                             rel_err, sgns_pair_loss)
from test_evaluation import ndcg_oracle, rank_candidates, run_arrays
from test_gbdt import load_model, make_table, stump_oracle, stump_params
from test_memory_cf import (bigraph_oracle, cosine_oracle, dense_sims,
                            every_item, every_user, llr_table_oracle,
                            matrix_from_dense, random_dense, swing_oracle)
from test_selection import auc_oracle

MARKETS = ("s1", "s2", "s3", "t1", "t2")
MEMORY_SCORERS = ("item_cf", "user_cf", "swing", "llr", "bigraph")
# the embedding scorers are costlier, so they run on two wide combinations
# instead of the full default fan-out
EMBEDDING_COMBOS = [list(MARKETS), ["t1", "t2"]]


def scorer_specs(combinations=None):
    """Full scorer lineup; `combinations` pins every scorer to the given
    market combinations (the uplift arms), default fan-out otherwise."""
    specs = [{"name": name} for name in MEMORY_SCORERS] + [
        {"name": "word2vec", "combinations": EMBEDDING_COMBOS,
         "params": {"dim": 16, "epochs": 5}},
        {"name": "node2vec_dfs", "combinations": EMBEDDING_COMBOS,
         "params": {"dim": 16, "epochs": 3}},
        {"name": "lightgcn", "combinations": EMBEDDING_COMBOS,
         "params": {"dim": 16, "epochs": 30, "layers": 3,
                    "node_dropout": 0.2}},
    ]
    if combinations is not None:
        specs = [dict(spec, combinations=combinations) for spec in specs]
    return specs


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------------------
# shared end-to-end fixtures


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-data")
    meta = generate(SynthConfig(
        out_dir=str(out), seed=29, n_items=200, dim=5,
        markets={"s1": MarketSpec(120, 16, 0.85),
                 "s2": MarketSpec(80, 14, 0.75),
                 "s3": MarketSpec(60, 12, 0.70),
                 "t1": MarketSpec(120, 6, 0.75),
                 "t2": MarketSpec(120, 6, 0.75)},
        targets=("t1", "t2"), eval_users=100, n_candidates=40))
    return {"dir": out, "meta": meta}


def full_config(data_dir, workspace, **kw):
    payload = {
        "data_dir": str(data_dir),
        "workspace": str(workspace),
        "markets": list(MARKETS),
        "targets": ["t1", "t2"],
        "seed": 17,
        "prerank": {"scorers": scorer_specs()},
        "selection": {"folds": 3, "n_shuffles": 8, "cv_epsilon": -0.005,
                      "trainer": {"num_leaves": 15, "n_rounds": 20,
                                  "learning_rate": 0.1,
                                  "min_data_in_leaf": 10}},
        "ranker": {"params": {"num_leaves": 15, "n_rounds": 60,
                              "learning_rate": 0.05, "min_data_in_leaf": 10,
                              "l2_leaf_reg": 1.0, "feature_fraction": 0.8},
                   "folds": 5},
    }
    payload.update(kw)
    return PipelineConfig.from_dict(payload)


def run_all(config):
    pipeline.run_ingest(config)
    for target in config.targets:
        pipeline.run_prerank(config, target)
        pipeline.run_select(config, target)
        pipeline.run_train(config, target)
        pipeline.run_evaluate(config, target)
    return pipeline.run_report(config)


@pytest.fixture(scope="module")
def main_run(dataset, tmp_path_factory):
    ws_root = tmp_path_factory.mktemp("acceptance-main")
    config = full_config(dataset["dir"], ws_root)
    start = time.monotonic()
    final = run_all(config)
    elapsed = time.monotonic() - start
    return {"config": config, "ws": pipeline.workspace_for(config),
            "final": final, "elapsed": elapsed}


@pytest.fixture(scope="module")
def rerun(dataset, tmp_path_factory):
    ws_root = tmp_path_factory.mktemp("acceptance-rerun")
    config = full_config(dataset["dir"], ws_root)
    final = run_all(config)
    return {"ws": pipeline.workspace_for(config), "final": final}


# --------------------------------------------------------------------------
# criterion 1: memory-based scorers vs dense brute-force oracles


def test_criterion_1_memory_scorers_match_dense_oracles(capsys):
    start = time.monotonic()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        n_users = int(rng.integers(20, 51))
        n_items = int(rng.integers(15, 41))
        dense = random_dense(rng, n_users, n_items, density=0.3)
        m = matrix_from_dense(dense)
        items, users = every_item(m), every_user(m)
        checks = [
            (dense_sims(mcf.item_cosine_similarity(m, k=n_items, rows=items)),
             cosine_oracle(dense)),
            (dense_sims(mcf.user_cosine_similarity(m, k=n_users, rows=users)),
             cosine_oracle(dense.T)),
            (dense_sims(mcf.swing_similarity(m.binarized(), alpha=1.0,
                                             k=n_items,
                                             max_users_per_item=10 ** 9,
                                             rows=items)),
             swing_oracle(dense, 1.0, cap=10 ** 9)),
            (dense_sims(mcf.llr_item_similarity(m, k=n_items, rows=items)),
             llr_table_oracle(dense)),
        ]
        for user in range(0, n_users, 7):
            ids, masses = mcf.bigraph_scores(m, user)
            got = np.zeros(n_items)
            got[ids] = masses
            checks.append((got, bigraph_oracle(dense, user)))
        for got, want in checks:
            worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    verdict(capsys, 1, ok,
            f"item/user cosine, swing, LLR, bi-graph vs dense oracles on 10 "
            f"seeded matrices: max abs err {worst:.2e} (tol 1e-9), "
            f"{elapsed:.1f}s (limit 10s)")


# --------------------------------------------------------------------------
# criterion 2: NDCG@10 vs the from-definition oracle


def test_criterion_2_ndcg_matches_definition(capsys):
    rng = np.random.default_rng(2024)
    items = [f"i{j}" for j in range(100)]
    worst = 0.0
    for _ in range(100):
        ranked = [items[j] for j in rng.permutation(100)]
        relevant = {items[j] for j in
                    rng.choice(100, size=int(rng.integers(1, 15)),
                               replace=False)}
        run = [("u", [(item, float(100 - pos))
                      for pos, item in enumerate(ranked)])]
        _, got = evaluation.ndcg_at_k(*run_arrays(run)[:2], {"u": relevant},
                                      k=10)
        worst = max(worst, abs(got - ndcg_oracle(ranked, relevant)))
    pair = [("u", [("a", 2.0), ("b", 1.0)])]
    _, top = evaluation.ndcg_at_k(*run_arrays(pair)[:2], {"u": {"a"}})
    _, second = evaluation.ndcg_at_k(*run_arrays(pair)[:2], {"u": {"b"}})
    hand_ok = (top == 1.0
               and abs(second - 1.0 / math.log2(3)) <= 1e-12)
    ok = worst <= 1e-12 and hand_ok
    verdict(capsys, 2, ok,
            f"100 random 100-candidate permutations: max abs err "
            f"{worst:.2e} (tol 1e-12); hand cases rank-1 -> {top}, "
            f"rank-2 -> {second:.6f} (want {1.0 / math.log2(3):.6f})")


# --------------------------------------------------------------------------
# criterion 3: per-market weight recovery from the reference score table


def test_criterion_3_market_weight_recovery(capsys):
    weights = evaluation.fit_market_weights()
    combined = evaluation.weighted_market_score(
        {"t1": 0.6776, "t2": 0.5589}, weights)
    ok = 0.32 <= weights["t1"] <= 0.34 and abs(combined - 0.5980) <= 5e-4
    verdict(capsys, 3, ok,
            f"least-squares weights give w_t1={weights['t1']:.4f} "
            f"(want 0.32..0.34); weighted score of (0.6776, 0.5589) is "
            f"{combined:.4f} (want 0.5980 +/- 5e-4)")


# --------------------------------------------------------------------------
# criterion 4: graph propagation and embedding-loss gradients


def test_criterion_4_embedding_math(capsys):
    worst_prop = 0.0
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        dense = (random_dense(rng, 20, 15, density=0.25) > 0).astype(float)
        m = matrix_from_dense(dense)
        uv = rng.normal(size=(20, 6))
        iv = rng.normal(size=(15, 6))
        out_u, out_i = emb.lightgcn_propagate(uv, iv, m, 3)
        want_u, want_i = dense_propagation_oracle(dense, uv, iv, 3)
        worst_prop = max(worst_prop, float(np.abs(out_u - want_u).max()),
                         float(np.abs(out_i - want_i).max()))

    worst_grad = 0.0
    for seed in range(5):
        rng = np.random.default_rng(450 + seed)
        v_c = rng.normal(size=7)
        u_o = rng.normal(size=7)
        u_n = rng.normal(size=(4, 7))
        _, d_vc, d_uo, d_un = sgns_pair_loss(v_c, u_o, u_n)
        loss = lambda: sgns_pair_loss(v_c, u_o, u_n)[0]
        worst_grad = max(worst_grad,
                         rel_err(finite_difference(loss, v_c), d_vc),
                         rel_err(finite_difference(loss, u_o), d_uo),
                         rel_err(finite_difference(loss, u_n), d_un))
    for seed in range(5):
        rng = np.random.default_rng(470 + seed)
        dense = (random_dense(rng, 8, 6, density=0.4) > 0).astype(float)
        dense[0, 0] = dense[1, 1] = dense[2, 2] = dense[3, 3] = 1.0
        m = matrix_from_dense(dense)
        uv = rng.normal(0, 0.2, size=(8, 3))
        iv = rng.normal(0, 0.2, size=(6, 3))
        users = np.array([0, 1, 2, 3])
        pos = np.array([np.flatnonzero(dense[u])[0] for u in users])
        neg = np.array([(p + 1) % 6 for p in pos])
        _, g_u, g_i = emb.bpr_loss_and_grad(uv, iv, m, 2, 0.01,
                                            users, pos, neg)
        loss = lambda: emb.bpr_loss_and_grad(uv, iv, m, 2, 0.01,
                                             users, pos, neg)[0]
        worst_grad = max(worst_grad,
                         rel_err(finite_difference(loss, uv), g_u),
                         rel_err(finite_difference(loss, iv), g_i))
    ok = worst_prop <= 1e-6 and worst_grad <= 1e-4
    verdict(capsys, 4, ok,
            f"layer propagation vs dense-adjacency oracle: max abs err "
            f"{worst_prop:.2e} (tol 1e-6); pairwise-loss and skip-gram "
            f"gradients vs central differences: max rel err "
            f"{worst_grad:.2e} (tol 1e-4)")


# --------------------------------------------------------------------------
# criterion 5: boosted-tree training contracts


def _nonincreasing(seq):
    return all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))


def test_criterion_5_gbdt_training(capsys, main_run):
    stump_misses = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 201))
        values = np.round(rng.normal(size=(n, 5)), 2)
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        params = stump_params(min_data_in_leaf=int(rng.choice([1, 5])),
                              l2_leaf_reg=float(rng.choice([0.0, 1.0])))
        model = gbdt.train(make_table(values, y), params,
                           gbdt.bin_rows(values, params.max_bins))
        want = stump_oracle(values, y, params)
        if want is None:
            stump_misses += model.trees != ()
            continue
        tree = model.trees[0]
        exact = (tree.feature[0] == want["feature"]
                 and tree.threshold_bin[0] == want["bin"]
                 and tree.gain[0] == want["gain"]
                 and tree.value[tree.left[0]] == want["left_value"]
                 and tree.value[tree.right[0]] == want["right_value"])
        stump_misses += not exact

    rng = np.random.default_rng(7)
    values = rng.normal(size=(2000, 3))
    y = (values[:, 1] > 0.1).astype(int)
    table = make_table(values, y)
    sep_params = gbdt.GbdtParams(
        num_leaves=31, n_rounds=50, learning_rate=0.1, min_data_in_leaf=20)
    sep_model = gbdt.train(table, sep_params,
                           gbdt.bin_rows(values, sep_params.max_bins))
    preds = gbdt.predict(sep_model, table)
    auc = selection.rank_auc(preds[y == 0], preds[y == 1])

    loss_curves = [sep_model.train_logloss]
    for target in ("t1", "t2"):
        bagged = load_model(main_run["ws"].target_dir(target) / "model.json")
        loss_curves.extend(fold.train_logloss for fold in bagged.fold_models)
    monotone_ok = all(_nonincreasing(curve) for curve in loss_curves)

    ok = stump_misses == 0 and auc >= 0.99 and monotone_ok
    verdict(capsys, 5, ok,
            f"20/20 stumps match the exhaustive split oracle exactly "
            f"({stump_misses} misses); separable 2000-row AUC {auc:.4f} "
            f"(want >= 0.99 within 50 rounds); training logloss "
            f"nonincreasing on {len(loss_curves)} fitted models: "
            f"{monotone_ok}")


# --------------------------------------------------------------------------
# criterion 6: feature-screening statistics


def test_criterion_6_selection_filters(capsys):
    rng = np.random.default_rng(606)
    names = tuple(f"iid__f{j}" for j in range(20)) + ("shifted__f",)
    train_vals = rng.normal(size=(400, 21))
    test_vals = rng.normal(size=(400, 21))
    test_vals[:, 20] += 1.0
    train = features.FeatureTable(
        tuple(f"u{r}" for r in range(400)),
        tuple(f"i{r}" for r in range(400)), names, train_vals)
    test = features.FeatureTable(
        tuple(f"v{r}" for r in range(400)),
        tuple(f"j{r}" for r in range(400)), names, test_vals)
    records = selection.covariate_shift_test(train, test, threshold=0.10)
    flagged = {r["name"] for r in records if r["decision"] == "drop"}
    shift_ok = flagged == {"shifted__f"}

    n = 600
    labels = rng.integers(0, 2, n)
    informative = [labels + rng.normal(0, 0.6, n) for _ in range(5)]
    noise = [rng.normal(size=n) for _ in range(20)]
    cols = tuple(f"sig__f{j}" for j in range(5)) + \
        tuple(f"junk__f{j}" for j in range(20))
    table = features.FeatureTable(
        tuple(f"u{r}" for r in range(n)), tuple(f"i{r}" for r in range(n)),
        cols, np.column_stack(informative + noise), labels)
    trainer = gbdt.GbdtParams(num_leaves=7, n_rounds=15, learning_rate=0.2,
                              min_data_in_leaf=20, seed=0)
    null_records = selection.null_importance_select(table, trainer,
                                                    n_shuffles=24, seed=6)
    kept = {r["name"] for r in null_records if r["decision"] == "keep"}
    kept_sig = sum(1 for c in cols[:5] if c in kept)
    kept_junk = sum(1 for c in cols[5:] if c in kept)
    null_ok = kept_sig >= 4 and kept_junk <= 2

    worst_auc = 0.0
    for seed in range(8):
        arng = np.random.default_rng(660 + seed)
        neg = np.round(arng.normal(size=40), 1)
        pos = np.round(arng.normal(0.3, 1.0, size=30), 1)
        worst_auc = max(worst_auc, abs(selection.rank_auc(neg, pos)
                                       - auc_oracle(neg, pos)))
    auc_ok = worst_auc <= 1e-12

    ok = shift_ok and null_ok and auc_ok
    verdict(capsys, 6, ok,
            f"covariate shift flags exactly the injected feature "
            f"({sorted(flagged)}); null importance keeps {kept_sig}/5 "
            f"informative (want >=4) and {kept_junk}/20 noise (want <=2); "
            f"rank AUC vs pair counting max abs err {worst_auc:.2e}")


# --------------------------------------------------------------------------
# criterion 7: cross-market uplift and two-stage gain


def column_ndcg(table, name, qrels):
    """NDCG@10 of ranking each user's candidates by one raw column."""
    by_user = {}
    scores = table.column(name)
    for r in range(table.n_rows):
        items, vals = by_user.setdefault(table.users[r], ([], []))
        items.append(table.items[r])
        vals.append(float(scores[r]))
    run = [(u, rank_candidates(items, vals))
           for u, (items, vals) in by_user.items()]
    _, mean = evaluation.ndcg_at_k(*run_arrays(run)[:2], qrels, k=10)
    return mean


@pytest.fixture(scope="module")
def uplift_arms(dataset, tmp_path_factory, workspace_table):
    """Same pipeline twice with feature screening bypassed, differing only
    in the market combination the scorers see: every market vs the target
    alone. Screening is skipped so the comparison isolates the data."""
    out = {}
    for arm, combo in (("all_markets", [list(MARKETS)]),
                       ("target_only", [["t1"]])):
        ws_root = tmp_path_factory.mktemp(f"acceptance-{arm}")
        config = full_config(
            dataset["dir"], ws_root,
            prerank={"scorers": scorer_specs(combinations=combo),
                     "stats": False})
        ws = pipeline.workspace_for(config)
        pipeline.run_ingest(config)
        pipeline.run_prerank(config, "t1")
        table = workspace_table(ws, "t1", "valid")
        selection.write_kept(list(table.columns),
                             ws.target_dir("t1") / "kept.txt")
        out[arm] = pipeline.run_train(config, "t1")["oof_ndcg_at_10"]
    return out


def test_criterion_7_cross_market_uplift(capsys, main_run, uplift_arms,
                                         workspace_table):
    gain = uplift_arms["all_markets"] - uplift_arms["target_only"]

    # single-scorer baseline under the only protocol available at
    # deployment time: pick the column on the labeled split, score it on
    # the held-out split, combine targets with the final metric's weights
    ws = main_run["ws"]
    single_scores = {}
    for target in ("t1", "t2"):
        valid = workspace_table(ws, target, "valid")
        test = workspace_table(ws, target, "test")
        provenance = read_artifact(features.Catalog,
                                   ws.catalog_path(target, "valid")).provenance
        valid_qrels = {}
        for r in range(valid.n_rows):
            if valid.labels[r]:
                valid_qrels.setdefault(valid.users[r], set()).add(
                    valid.items[r])
        test_qrels = evaluation.read_qrels(
            f"{main_run['config'].data_dir}/{target}/test_qrel.tsv")
        scorer_cols = [n for n in valid.columns
                       if provenance[n]["kind"] == "scorer"]
        best = max(scorer_cols,
                   key=lambda n: column_ndcg(valid, n, valid_qrels))
        single_scores[target] = column_ndcg(test, best, test_qrels)
    weighted_single = evaluation.weighted_market_score(
        single_scores, evaluation.DEFAULT_MARKET_WEIGHTS)
    weighted_stack = main_run["final"]["weighted"]
    margin = weighted_stack - weighted_single

    ok = gain >= 0.02 and margin >= 0.01 and main_run["elapsed"] < 300.0
    verdict(capsys, 7, ok,
            f"all-markets OOF NDCG@10 {uplift_arms['all_markets']:.4f} vs "
            f"target-only {uplift_arms['target_only']:.4f} (gain "
            f"{gain:+.4f}, want >= +0.02); weighted test NDCG@10 of the "
            f"two-stage pipeline {weighted_stack:.4f} vs best single "
            f"scorer chosen on the labeled split {weighted_single:.4f} "
            f"(margin {margin:+.4f}, want >= +0.01); full run "
            f"{main_run['elapsed']:.0f}s (limit 300s)")


# --------------------------------------------------------------------------
# criterion 8: byte-identical reruns


def test_criterion_8_reruns_are_byte_identical(capsys, main_run, rerun):
    diffs = []
    for target in ("t1", "t2"):
        for fname in ("test_ranked.tsv", "oof.tsv", "model.json"):
            a = (main_run["ws"].target_dir(target) / fname).read_bytes()
            b = (rerun["ws"].target_dir(target) / fname).read_bytes()
            if a != b:
                diffs.append(f"{target}/{fname}")
    same_score = main_run["final"]["weighted"] == rerun["final"]["weighted"]
    ok = not diffs and same_score
    verdict(capsys, 8, ok,
            "two full runs from scratch: ranked run files, OOF scores, and "
            "model serializations byte-identical; weighted scores equal"
            if ok else f"artifacts differ: {diffs or 'weighted score'}")
