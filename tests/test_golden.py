"""Golden end-to-end run: a fixed small synth dataset through every stage,
with the sha256 of the snapshot arrays, the encoders, the snapshot meta
and summary, the feature tables and their catalogs, the correlation
tables, the selection reports, the prerank failure lists, the kept
columns, the models, the out-of-fold scores, the training metrics, the
ranked test runs, the evaluations, the final report and the prerank
records pinned. Any change to the numerics or to a file format shows up
here. The same config also checks that prerank fits each memory-based
table once, on the ids of both runs."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from cmrec import data, memory_cf, pipeline
from cmrec.config import PipelineConfig
from cmrec.synth import MarketSpec, SynthConfig, generate

SOURCES = ["s1", "s2", "t1", "t2"]
TARGETS = ["t1", "t2"]

GOLDEN = {
    "snapshot/rows_user.npy":
        "686e9a840b128f49e49168e53baba51a634a9ee3d9c0d9dd68d1f01b00e7524c",
    "snapshot/rows_item.npy":
        "d84f2138d0b3a5f427b1aac9fdba9b732d5d7f6d1d1ce5f429e066b95c945afa",
    "snapshot/rows_rating.npy":
        "408f63a507779bafd668ba2c476a574f6e431a68e01453c6112daf17fd7b8226",
    "snapshot/rows_market.npy":
        "3d30710905c0da77f04f03a5664aedea0758c4bff74d183371efc4b4f8a08f77",
    "snapshot/rows_split.npy":
        "3ac7f23d30194f5b1eb8367537dae4c05cdb55d21f0c3d2ae966b1deb541b28c",
    "snapshot/encoders.json":
        "19d645e04e1ea350d6d9b0f2f3997b78cad65010768dcba4799f4060299e18af",
    "snapshot/meta.json":
        "05938407363a33c9402e63f40b8cc0d33efa3e6882f214e29d951b718e973d51",
    "snapshot/summary.json":
        "6b28916e7453e44743e5aeb852e173a7f214ae4ec86380dd7c2d8c57632551c4",
    "t1/features_valid.tsv":
        "b5b0b1d14c24f76778d5d6dd6822fc8ceabe65099ce4930c1a03a172c554a8c6",
    "t1/features_test.tsv":
        "199c39086ed04491518ce9f0bd5b6eb678980327d991d01477c5b7645e2e3cfa",
    "t1/kept.txt":
        "124989f9c03d6080b3348ff6e3e5b10853cdd62b7aaecf042fcd0381a652952a",
    "t1/model.json":
        "06ef4d1d4aad922577ed41390de2b349711a8f637b6cce1304229a63f2eafa76",
    "t1/test_ranked.tsv":
        "27ef88b152adc8d4030d008e9ddbedc1b3aa9464b8004c3f48f1eb9bdba6aecd",
    "t1/oof.tsv":
        "ab13b2659d3d9dcca90b633ca112ae92532f7e73b98b8ad3f9c122a4c3771c13",
    "t1/correlation.tsv":
        "37ad26058cdd952532b16e822c7f913f6af8cd7150b1540b422dd8ef3c5cb469",
    "t1/features_valid.catalog.json":
        "f96fe2f603dfc4b5d9e18529e7b8f392099da71a32d3feff71e857ee24542371",
    "t1/features_test.catalog.json":
        "f27cd239729c8c9452cd10684183cf2589a8211dc8d04a2b5678f7362b7df557",
    "t1/selection_report.json":
        "620deb2b7b952311927a86f944562b2991ac86c36b2a84f4ea76f0144c9ba33a",
    "t1/selection_report.tsv":
        "c4e74d1f21f156bdc06a2d80903c85668639522d51d6f41008dfa726055aed54",
    "t1/prerank_failures.json":
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "t1/metrics.json":
        "60606ab9364df56c91646bf601c04c04584fee67728b854973cdc767c8a7b3d6",
    "t1/evaluation.json":
        "db9eb09cde885e42b36c5b11ea65b6bc07dfeb48f7ba536bb955b28c9ca736ca",
    "t2/features_valid.tsv":
        "2002b64000311595d1799e6a9bda14369af46fce4af6672eb8a8afaee8f5415a",
    "t2/features_test.tsv":
        "dd8c8c11b142de3fdbe25e5966934428da095a4a9038127407bc55a4f3cb86c3",
    "t2/kept.txt":
        "9a2921230b314a1182265b653cc8232206279324ee39809b7a5f6a62440606e9",
    "t2/model.json":
        "1f78e4ce169b798b07c8e0bc9b74aa68466590838cdfa2a8e483a87a6c56e5b3",
    "t2/test_ranked.tsv":
        "911b9a5e4e4dfdee8d649b534a101f390ab8474cb3e6486e2ab6d1bd02e9bee2",
    "t2/oof.tsv":
        "1b8ec0c2c112b09590c60db602187cbfc14b2e40f604187ec94f79a77942c6af",
    "t2/correlation.tsv":
        "cedfc6b2a889543f2df29016237e3b970bd912c4c4df4ed326af1155db36dcc2",
    "t2/features_valid.catalog.json":
        "5fd0c2731594e9d17559554438c9e7da8e700e2ac64227ad073f3c6f4cbfabc0",
    "t2/features_test.catalog.json":
        "26f7fe04e611bbd4f5d997063890145131c89e083797da1a3938cb88e95184a2",
    "t2/selection_report.json":
        "646be53fdc99201fefb356600001df8e5770d489bbb50cae3ab7c71542ea6a3c",
    "t2/selection_report.tsv":
        "b20ffd143be086f5f9f256885c95d130e53dd8c8719ad9136d52e2424958693d",
    "t2/prerank_failures.json":
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "t2/metrics.json":
        "752e6c756934b634555b520d1c9f2964dd708a50aed3df9f5f5582df7ccfa1f8",
    "t2/evaluation.json":
        "bea5ce1d49cd28e1acc64e74476e2e64ca8b132a3f3d7fc4cc6adbf8a2d5a4d9",
    "final.json":
        "124bc90f8147b01bfb2776ce39d631f35a2952cb257e16f06a2796c46d3d0ac4",
    "t1/prerank.inputs.json":
        "8ab2bc08890f9787bfd8edd26a7c98ed458911480d58be19b59ce866ee1f7720",
    "t2/prerank.inputs.json":
        "1dd130ee4c00cb46ed40ea02dc785b7b5ed0d357c94f4869364d1ee3cdf49700",
}


def golden_config(data_dir, workspace) -> PipelineConfig:
    """Every scorer of the registry at small sizes, the statistics, a
    short screen and a 3-fold ranker."""
    small_embedding = {"dim": 8, "epochs": 1}
    return PipelineConfig.from_dict({
        "data_dir": str(data_dir), "workspace": str(workspace),
        "markets": ["s1", "s2", "s3", "t1", "t2"], "targets": TARGETS,
        "seed": 13,
        "prerank": {"scorers": [
            {"name": "item_cf", "params": {"top_k": 20},
             "combinations": [SOURCES, TARGETS]},
            {"name": "user_cf", "combinations": [SOURCES]},
            {"name": "swing", "combinations": [TARGETS]},
            {"name": "llr", "combinations": [["s3", "t1", "t2"]]},
            {"name": "bigraph", "combinations": [SOURCES]},
            {"name": "word2vec", "params": small_embedding,
             "combinations": [TARGETS]},
            {"name": "node2vec_dfs",
             "params": {**small_embedding, "walk_length": 6,
                        "walks_per_node": 1},
             "combinations": [TARGETS]},
            {"name": "lightgcn",
             "params": {"dim": 8, "epochs": 2, "layers": 2},
             "combinations": [TARGETS]},
        ]},
        "selection": {"folds": 3, "n_shuffles": 4,
                      "trainer": {"num_leaves": 7, "n_rounds": 8,
                                  "learning_rate": 0.2,
                                  "min_data_in_leaf": 5}},
        "ranker": {"params": {"num_leaves": 7, "n_rounds": 10,
                              "learning_rate": 0.2, "min_data_in_leaf": 5},
                   "folds": 3},
    })


def golden_data(root):
    generate(SynthConfig(
        out_dir=str(root / "data"), seed=17, n_items=120, dim=4,
        markets={"s1": MarketSpec(60, 10, 0.9), "s2": MarketSpec(40, 8, 0.8),
                 "s3": MarketSpec(30, 8, 0.7), "t1": MarketSpec(30, 6, 0.8),
                 "t2": MarketSpec(30, 6, 0.8)},
        eval_users=15, n_candidates=25))
    return root / "data"


@pytest.fixture(scope="module")
def golden_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = golden_config(golden_data(root), root / "work")
    pipeline.run_ingest(config)
    for target in config.targets:
        pipeline.run_prerank(config, target)
        pipeline.run_select(config, target)
        pipeline.run_train(config, target)
        pipeline.run_evaluate(config, target)
    pipeline.run_report(config)
    return pipeline.workspace_for(config).root


def test_every_stage_writes_the_pinned_files(golden_workspace, assert_digests):
    got = [hashlib.sha256((golden_workspace / name).read_bytes()).hexdigest()
           for name in GOLDEN]
    assert_digests(dict(zip(GOLDEN, got)), GOLDEN)


MEMORY_FITS = {"item_cosine_similarity": "items",
               "user_cosine_similarity": "users",
               "swing_similarity": "items", "llr_item_similarity": "items"}


def test_prerank_fits_each_memory_table_once_on_both_runs_ids(tmp_path,
                                                            monkeypatch):
    config = golden_config(golden_data(tmp_path), tmp_path / "work")
    pipeline.run_ingest(config)
    calls = []
    for name in MEMORY_FITS:
        def spy(*args, real=getattr(memory_cf, name), name=name, rows=None,
                **kwargs):
            calls.append((name, rows))
            return real(*args, rows=rows, **kwargs)
        monkeypatch.setattr(memory_cf, name, spy)
    ws = pipeline.workspace_for(config)
    snap = pipeline.load_snapshot(ws)
    for target in config.targets:
        calls.clear()
        pipeline.run_prerank(config, target)
        runs = [data.load_run(ws.run_path(target, which))
                for which in data.RUN_FILES]
        ids = {"users": snap.users.lookup(
                   np.concatenate([r.users for r in runs])),
               "items": snap.items.lookup(
                   np.concatenate([r.candidates for r in runs]))}
        # one fit per (scorer, params, combination) of the plan's memory
        # specs: item_cf has two combinations
        assert Counter(name for name, _ in calls) == {
            "item_cosine_similarity": 2, "user_cosine_similarity": 1,
            "swing_similarity": 1, "llr_item_similarity": 1}
        for name, rows in calls:
            want = np.unique(ids[MEMORY_FITS[name]])
            assert np.array_equal(rows, want[want >= 0])
