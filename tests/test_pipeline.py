"""End-to-end pipeline wiring on a small synthetic dataset: ingest
snapshots, stage outputs, leakage guards, resumability, and the CLI's
exit-code contract."""

import dataclasses
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from cmrec import cli, evaluation, features, pipeline, util
from cmrec.config import PipelineConfig
from cmrec.data import (CombinationSpec, IdEncoder, Interactions, RunFile,
                        load_run)
from cmrec.synth import MarketSpec, SynthConfig, generate
from cmrec.util import ConfigError, DataError, StageError

COMBOS = [["s1", "t1", "t2"], ["t1", "t2"]]


def pipeline_config(data_dir, workspace, **kw):
    payload = {
        "data_dir": str(data_dir),
        "workspace": str(workspace),
        "markets": ["s1", "t1", "t2"],
        "targets": ["t1", "t2"],
        "seed": 5,
        "prerank": {"scorers": [
            {"name": "item_cf", "params": {"top_k": 30},
             "combinations": COMBOS},
            {"name": "user_cf", "combinations": [COMBOS[0]]},
            {"name": "swing", "combinations": [COMBOS[1]]},
        ]},
        "selection": {"folds": 3, "n_shuffles": 6,
                      "trainer": {"num_leaves": 7, "n_rounds": 10,
                                  "learning_rate": 0.2,
                                  "min_data_in_leaf": 5}},
        "ranker": {"params": {"num_leaves": 7, "n_rounds": 15,
                              "learning_rate": 0.2, "min_data_in_leaf": 5},
                   "folds": 3},
    }
    payload.update(kw)
    return PipelineConfig.from_dict(payload)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data_dir = root / "data"
    meta = generate(SynthConfig(
        out_dir=str(data_dir), seed=11, n_items=150, dim=4,
        markets={"s1": MarketSpec(60, 12, 0.9),
                 "t1": MarketSpec(30, 6, 0.8),
                 "t2": MarketSpec(30, 6, 0.8)},
        targets=("t1", "t2"), eval_users=15, n_candidates=30))
    config = pipeline_config(data_dir, root / "work")
    summary = pipeline.run_ingest(config)
    for target in config.targets:
        pipeline.run_prerank(config, target)
        pipeline.run_select(config, target)
        pipeline.run_train(config, target)
        pipeline.run_evaluate(config, target)
    final = pipeline.run_report(config)
    return {"root": root, "data": data_dir, "config": config,
            "meta": meta, "summary": summary, "final": final,
            "ws": pipeline.workspace_for(config)}


def copied_workspace(world, tmp_path):
    """A private copy of the shared workspace, and a config pointing at it."""
    work = tmp_path / "work"
    shutil.copytree(world["ws"].root, work)
    return work, dataclasses.replace(world["config"], workspace=str(work))


def record_atomic_writes(monkeypatch):
    """The paths the atomic writer renames into place, in order; the
    writes still happen."""
    written = []
    real = os.replace

    def recording(src, dst):
        written.append(Path(dst))
        real(src, dst)

    monkeypatch.setattr(util.os, "replace", recording)
    return written


class TestIngest:
    def test_summary_counts_match_generator_ground_truth(self, world):
        summary, meta = world["summary"], world["meta"]
        for market in ("s1", "t1", "t2"):
            m = meta["markets"][market]
            # dedupe keys on (user, item, market, split), so the 5-core
            # copies of train rows survive as their own split
            want = (m["train"] + m["train_5core"]
                    + m["valid_qrel"] + m["test_qrel"])
            assert summary["samples"][market] == want
            assert summary["users"][market] == m["users"]

    def test_snapshot_layout(self, world):
        snap = world["ws"].snapshot_dir
        for name in ("user", "item", "rating", "market", "split"):
            assert (snap / f"rows_{name}.npy").exists()
        for name in ("encoders.json", "meta.json", "summary.json"):
            assert (snap / name).exists()
        for target in ("t1", "t2"):
            for which in ("valid", "test"):
                assert world["ws"].run_path(target, which).exists()

    def test_snapshot_round_trips(self, world):
        snap = pipeline.load_snapshot(world["ws"])
        assert snap.markets == ("s1", "t1", "t2")
        assert snap.targets == ("t1", "t2")
        assert len(snap.rows) == world["summary"]["total_samples"]
        # encoders are bijective and cover every row
        assert all(snap.users.decode(u) for u in snap.rows.user[:50].tolist())

    def test_json_written_atomically_with_the_same_bytes(self, world, tmp_path,
                                                         monkeypatch):
        config = pipeline_config(world["data"], tmp_path / "w")
        written = []
        real = pipeline.atomic_write_text

        def recording(path, text):
            written.append(Path(path))
            real(path, text)

        monkeypatch.setattr(pipeline, "atomic_write_text", recording)
        pipeline.run_ingest(config)
        snap = pipeline.workspace_for(config).snapshot_dir
        names = ("encoders.json", "meta.json", "summary.json")
        assert [snap / n for n in names] == written
        for name in names:
            assert (snap / name).read_bytes() == (
                world["ws"].snapshot_dir / name).read_bytes()

    def test_reingest_is_byte_identical(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w1")
        pipeline.run_ingest(config)
        first = pipeline.snapshot_digest(pipeline.workspace_for(config))
        pipeline.run_ingest(config)
        assert pipeline.snapshot_digest(pipeline.workspace_for(config)) == first
        # and equal to the long-lived fixture workspace built from the
        # same data and config
        assert pipeline.snapshot_digest(world["ws"]) == first

    def test_every_snapshot_file_written_atomically(self, world, tmp_path,
                                                    monkeypatch):
        config = pipeline_config(world["data"], tmp_path / "w")
        written = record_atomic_writes(monkeypatch)
        pipeline.run_ingest(config)
        ws = pipeline.workspace_for(config)
        assert sorted(written) == sorted(
            p for p in ws.snapshot_dir.rglob("*") if p.is_file())
        assert pipeline.snapshot_digest(ws) == pipeline.snapshot_digest(
            world["ws"])

    def test_missing_data_dir_is_a_data_error(self, tmp_path):
        config = pipeline_config(tmp_path / "nope", tmp_path / "w")
        with pytest.raises(DataError, match="data directory"):
            pipeline.run_ingest(config)

    def test_prerank_without_snapshot_is_a_stage_error(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "virgin")
        with pytest.raises(StageError, match="ingest first"):
            pipeline.run_prerank(config, "t1")


class TestWorkspaceLock:
    def test_lock_excludes_and_releases(self, tmp_path):
        ws = pipeline.Workspace(tmp_path / "w")
        with ws.lock():
            assert (ws.root / ".lock").exists()
            with pytest.raises(StageError, match="locked"):
                with ws.lock():
                    pass
        assert not (ws.root / ".lock").exists()
        with ws.lock():  # reacquire after release
            pass

    def test_held_lock_names_the_recorded_pid(self, tmp_path):
        ws = pipeline.Workspace(tmp_path / "w")
        with ws.lock():
            with pytest.raises(StageError, match=rf"\(pid {os.getpid()}\)"):
                with ws.lock():
                    pass


class TestMakePlan:
    def test_explicit_combinations_expand_in_order(self, world):
        plan = pipeline.make_plan(world["config"], "t1", ("s1", "t1", "t2"))
        assert [(s.scorer, s.combination.combo_id) for s in plan] == [
            ("item_cf", "s1-t1-t2"), ("item_cf", "t1-t2"),
            ("user_cf", "s1-t1-t2"), ("swing", "t1-t2")]
        assert all(s.combination.target == "t1" for s in plan)

    def test_embedding_scorers_get_derived_seeds(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w", prerank={
            "scorers": [{"name": "word2vec", "params": {"epochs": 1},
                         "combinations": COMBOS},
                        {"name": "item_cf", "combinations": [COMBOS[0]]}]})
        plan = pipeline.make_plan(config, "t1", ("s1", "t1", "t2"))
        w2v = [s for s in plan if s.scorer == "word2vec"]
        assert all("seed" in s.params for s in w2v)
        assert w2v[0].params["seed"] != w2v[1].params["seed"]
        other_target = pipeline.make_plan(config, "t2", ("s1", "t1", "t2"))
        w2v_t2 = [s for s in other_target if s.scorer == "word2vec"]
        assert w2v_t2[0].params["seed"] != w2v[0].params["seed"]
        item_cf = [s for s in plan if s.scorer == "item_cf"]
        assert all("seed" not in s.params for s in item_cf)

    def test_seeds_exactly_the_seeded_registry_entries(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w", prerank={
            "scorers": [{"name": name, "combinations": [COMBOS[1]]}
                        for name in features.SCORERS]})
        plan = pipeline.make_plan(config, "t1", ("s1", "t1", "t2"))
        assert [s.scorer for s in plan] == list(features.SCORERS)
        assert {s.scorer for s in plan if "seed" in s.params} == {
            name for name, scorer in features.SCORERS.items() if scorer.seeded}

    def test_pinned_seed_wins(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w", prerank={
            "scorers": [{"name": "word2vec", "params": {"seed": 99},
                         "combinations": [COMBOS[0]]}]})
        plan = pipeline.make_plan(config, "t1", ("s1", "t1", "t2"))
        assert plan[0].params["seed"] == 99

    def test_unknown_market_in_combination(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w", prerank={
            "scorers": [{"name": "item_cf",
                         "combinations": [["s1", "s9", "t1"]]}]})
        with pytest.raises(ConfigError, match="s9"):
            pipeline.make_plan(config, "t1", ("s1", "t1", "t2"))

    def test_combination_must_contain_target(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w", prerank={
            "scorers": [{"name": "item_cf", "combinations": [["s1", "t2"]]}]})
        with pytest.raises(ConfigError, match="t1"):
            pipeline.make_plan(config, "t1", ("s1", "t1", "t2"))

    def test_default_combinations_need_the_benchmark_shape(self, world):
        config = world["config"]
        bad = PipelineConfig.from_dict({**config.to_dict(), "prerank": {
            "scorers": [{"name": "item_cf"}]}})
        with pytest.raises(ConfigError, match="3 source"):
            pipeline.make_plan(bad, "t1", ("s1", "t1", "t2"))

    def test_target_outside_config(self, world):
        with pytest.raises(ConfigError, match="t9"):
            pipeline.run_prerank(world["config"], "t9")


class TestPrerankOutputs:
    def test_valid_labels_mark_exactly_the_target_positives(self):
        users, items = IdEncoder.fit(["u0", "u1"]), IdEncoder.fit(["i0", "i1"])
        rows = Interactions([0, 1, 1, 0], [1, 0, 1, 0], [5.0, 4.0, 3.0, 2.0],
                            ["t1", "t1", "s1", "t1"],
                            ["valid_qrel", "valid_qrel", "valid_qrel", "train"])
        snap = pipeline.Snapshot(rows, users, items, ("s1", "t1"), ("t1",))
        # (u0, i1) and (u1, i0) are t1 positives; (u1, i1) is an s1 one.
        # Unknown ids never match: (u1, i?) is not read as the pair just
        # before (u1, i0), which is the positive (u0, i1).
        run = RunFile((("u0", ("i0", "i1")), ("u1", ("i1", "i0", "i?")),
                       ("u?", ("i0",))))
        labels = pipeline._valid_labels(snap, "t1", run)
        assert labels.dtype == np.int8
        assert labels.tolist() == [0, 1, 0, 1, 0, 0]

    def test_feature_tables_exist_with_expected_columns(self, world):
        ws = world["ws"]
        valid = features.read_table(ws.features_path("t1", "valid"),
                                    ws.catalog_path("t1", "valid"))
        test = features.read_table(ws.features_path("t1", "test"),
                                   ws.catalog_path("t1", "test"))
        # 4 scorer specs -> 8 columns, plus 17 statistics
        assert len(valid.columns) == 8 + 17
        assert valid.columns == test.columns
        assert valid.labels is not None and test.labels is None

    def test_valid_labels_are_the_valid_qrels(self, world):
        ws = world["ws"]
        valid = features.read_table(ws.features_path("t1", "valid"))
        qrels = {}
        for line in (world["data"] / "t1" / "valid_qrel.tsv"
                     ).read_text().splitlines()[1:]:
            user, item, _ = line.split("\t")
            qrels.setdefault(user, set()).add(item)
        for r in range(valid.n_rows):
            want = 1 if valid.items[r] in qrels.get(valid.users[r], ()) else 0
            assert valid.labels[r] == want
        assert int(valid.labels.sum()) == sum(len(v) for v in qrels.values())

    def test_rows_follow_run_files(self, world):
        ws = world["ws"]
        run = load_run(ws.run_path("t1", "test"))
        test = features.read_table(ws.features_path("t1", "test"))
        assert list(zip(test.users, test.items)) == run.pairs()

    def test_no_eval_positive_reaches_any_scorer_matrix(self, world):
        snap = pipeline.load_snapshot(world["ws"])
        ctx = features.PlanContext(snap.rows, snap.users, snap.items)
        rows = snap.rows.take((snap.rows.market == "t1")
                              & np.isin(snap.rows.split, ("valid_qrel",
                                                          "test_qrel")))
        held_out = set(zip(rows.user.tolist(), rows.item.tolist()))
        assert held_out
        for combo in COMBOS:
            matrix = features.combination_matrix(
                ctx, CombinationSpec("t1", tuple(sorted(combo))))
            dense = matrix.to_dense()
            assert all(dense[u, i] == 0.0 for u, i in held_out)

    def test_catalog_provenance_declares_the_guard(self, world):
        ws = world["ws"]
        catalog = json.loads(ws.catalog_path("t1", "valid").read_text())
        scorer_cols = {name: p for name, p in catalog["provenance"].items()
                       if p.get("kind") == "scorer"}
        assert len(scorer_cols) == 4
        assert all(p["excludes_target_valid"] for p in scorer_cols.values())

    def test_correlation_matrix_covers_scorer_columns(self, world):
        ws = world["ws"]
        lines = (ws.target_dir("t1") / "correlation.tsv"
                 ).read_text().splitlines()
        header = lines[0].split("\t")[1:]
        assert len(header) == 4 and len(lines) == 5
        diag = [float(lines[i + 1].split("\t")[i + 1])
                for i in range(len(header))]
        assert all(d in (0.0, 1.0) for d in diag)

    def test_failures_file_is_empty_on_success(self, world):
        failures = json.loads((world["ws"].target_dir("t1")
                               / "prerank_failures.json").read_text())
        assert failures == []

    def test_rerun_resumes_from_cache_byte_identically(self, world):
        ws = world["ws"]
        before = {which: ws.features_path("t1", which).read_bytes()
                  for which in ("valid", "test")}
        ws.features_path("t1", "valid").unlink()
        pipeline.run_prerank(world["config"], "t1")
        for which in ("valid", "test"):
            assert ws.features_path("t1", which).read_bytes() == before[which]

    def test_reingest_of_changed_data_recomputes_cached_columns(self, world,
                                                                tmp_path):
        data_dir = tmp_path / "data"
        shutil.copytree(world["data"], data_dir)
        prerank = {"scorers": [{"name": "item_cf", "combinations": [["t1"]]}]}
        config = pipeline_config(data_dir, tmp_path / "w", prerank=prerank)
        ws = pipeline.workspace_for(config)
        pipeline.run_ingest(config)
        pipeline.run_prerank(config, "t1")
        [spec] = pipeline.make_plan(config, "t1", ("s1", "t1", "t2"))
        old = features.read_table(ws.features_path("t1", "valid"))
        for name in ("train.tsv", "train_5core.tsv"):
            path = data_dir / "t1" / name
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[:1 + (len(lines) - 1) // 2]))
        pipeline.run_ingest(config)
        pipeline.run_prerank(config, "t1")

        fresh = pipeline_config(data_dir, tmp_path / "fresh", prerank=prerank)
        fresh_ws = pipeline.workspace_for(fresh)
        pipeline.run_ingest(fresh)
        pipeline.run_prerank(fresh, "t1")
        for which in ("valid", "test"):
            assert (ws.features_path("t1", which).read_bytes()
                    == fresh_ws.features_path("t1", which).read_bytes())
        new = features.read_table(ws.features_path("t1", "valid"))
        assert not np.array_equal(old.column(spec.feature_name),
                                  new.column(spec.feature_name))


class TestSelectTrain:
    def test_kept_features_are_a_nonempty_subset(self, world):
        ws = world["ws"]
        kept = (ws.target_dir("t1") / "kept.txt").read_text().split()
        valid = features.read_table(ws.features_path("t1", "valid"))
        assert kept and set(kept) <= set(valid.columns)

    def test_selection_report_covers_every_column_in_order(self, world):
        ws = world["ws"]
        report = json.loads((ws.target_dir("t1")
                             / "selection_report.json").read_text())
        valid = features.read_table(ws.features_path("t1", "valid"))
        assert [r["name"] for r in report] == list(valid.columns)
        kept = set((ws.target_dir("t1") / "kept.txt").read_text().split())
        assert {r["name"] for r in report if r["decision"] == "keep"} == kept

    def test_metrics_and_model_artifacts(self, world):
        from cmrec import gbdt
        ws = world["ws"]
        metrics = json.loads((ws.target_dir("t1") / "metrics.json").read_text())
        assert 0.0 < metrics["oof_ndcg_at_10"] <= 1.0
        kept = (ws.target_dir("t1") / "kept.txt").read_text().split()
        assert metrics["n_features"] == len(kept)
        model = gbdt.load_model(ws.target_dir("t1") / "model.json")
        assert isinstance(model, gbdt.BaggedModel)
        assert model.folds == 3
        assert len(model.fold_models) == 3

    def test_oof_file_covers_the_valid_table(self, world):
        ws = world["ws"]
        lines = (ws.target_dir("t1") / "oof.tsv").read_text().splitlines()
        valid = features.read_table(ws.features_path("t1", "valid"))
        assert lines[0] == "user\titem\tlabel\toof_score"
        assert len(lines) - 1 == valid.n_rows
        scores = [float(line.split("\t")[3]) for line in lines[1:]]
        assert all(np.isfinite(scores))

    def test_train_writes_oof_atomically(self, world, tmp_path, monkeypatch):
        work, config = copied_workspace(world, tmp_path)
        oof = work / "t1" / "oof.tsv"
        before = oof.read_bytes()
        oof.unlink()
        written = []
        real = pipeline.atomic_write_text

        def recording(path, text):
            written.append(Path(path))
            real(path, text)

        monkeypatch.setattr(pipeline, "atomic_write_text", recording)
        pipeline.run_train(config, "t1")
        assert oof in written
        assert oof.read_bytes() == before

    def test_train_writes_ranked_run_atomically(self, world, tmp_path,
                                                monkeypatch):
        work, config = copied_workspace(world, tmp_path)
        ranked = work / "t1" / "test_ranked.tsv"
        before = ranked.read_bytes()
        ranked.unlink()
        written = record_atomic_writes(monkeypatch)
        pipeline.run_train(config, "t1")
        assert ranked in written
        assert ranked.read_bytes() == before

    def test_empty_kept_list_fails_train_with_data_error(self, world, tmp_path):
        work, config = copied_workspace(world, tmp_path)
        (work / "t1" / "kept.txt").write_text("")
        with pytest.raises(DataError, match="no features"):
            pipeline.run_train(config, "t1")

    def test_kept_column_gone_after_smaller_prerank_is_a_data_error(
            self, world, tmp_path):
        work, config = copied_workspace(world, tmp_path)
        kept = pipeline.run_select(config, "t1")
        catalog = json.loads(
            (work / "t1" / "features_valid.catalog.json").read_text())
        # re-run prerank without whatever produced the first kept column
        prov = catalog["provenance"][kept[0]]
        if "scorer" in prov:
            prerank = dataclasses.replace(config.prerank, scorers=tuple(
                sc for sc in config.prerank.scorers
                if sc.name != prov["scorer"]))
        else:
            prerank = dataclasses.replace(config.prerank, stats=False)
        smaller = dataclasses.replace(config, prerank=prerank)
        pipeline.run_prerank(smaller, "t1")
        valid = features.read_table(work / "t1" / "features_valid.tsv")
        assert kept[0] not in valid.columns
        with pytest.raises(DataError, match="kept.txt") as err:
            pipeline.run_train(smaller, "t1")
        assert repr(kept[0]) in str(err.value)

    def test_ranked_run_permutes_the_candidates(self, world):
        ws = world["ws"]
        ranked = evaluation.read_run_file(ws.target_dir("t1")
                                          / "test_ranked.tsv")
        source = dict(load_run(ws.run_path("t1", "test")).entries)
        assert {u for u, _ in ranked} == set(source)
        for user, scored in ranked:
            assert {i for i, _ in scored} == set(source[user])
            values = [s for _, s in scored]
            assert values == sorted(values, reverse=True)

    def test_retrain_is_deterministic(self, world):
        ws = world["ws"]
        model_before = (ws.target_dir("t1") / "model.json").read_bytes()
        run_before = (ws.target_dir("t1") / "test_ranked.tsv").read_bytes()
        pipeline.run_train(world["config"], "t1")
        assert (ws.target_dir("t1") / "model.json").read_bytes() == model_before
        assert (ws.target_dir("t1")
                / "test_ranked.tsv").read_bytes() == run_before


class TestEvaluateReport:
    def test_evaluation_scores_every_eval_user(self, world):
        ws = world["ws"]
        report = json.loads((ws.target_dir("t1") / "evaluation.json").read_text())
        assert 0.0 <= report["ndcg_at_10"] <= 1.0
        assert report["n_users"] == world["meta"]["markets"]["t1"]["test_qrel"]
        assert report["market"] == "t1"

    def test_two_workspaces_write_the_same_evaluation(self, world, tmp_path):
        work, config = copied_workspace(world, tmp_path)
        for target in ("t1", "t2"):
            pipeline.run_evaluate(config, target)
            assert ((work / target / "evaluation.json").read_bytes()
                    == (world["ws"].target_dir(target)
                        / "evaluation.json").read_bytes())
        report = json.loads((work / "t1" / "evaluation.json").read_text())
        assert report["run_file"] == "t1/test_ranked.tsv"

    def test_explicit_run_and_qrels_paths_agree_with_defaults(self, world):
        ws = world["ws"]
        default = json.loads((ws.target_dir("t1")
                              / "evaluation.json").read_text())
        explicit = pipeline.run_evaluate(
            world["config"], "t1",
            run_path=ws.target_dir("t1") / "test_ranked.tsv",
            qrels_path=world["data"] / "t1" / "test_qrel.tsv")
        assert explicit["ndcg_at_10"] == default["ndcg_at_10"]

    def test_final_report_weights_renormalize(self, world):
        final = world["final"]
        ws = world["ws"]
        per_market = {t: json.loads((ws.target_dir(t)
                                     / "evaluation.json").read_text())
                      ["ndcg_at_10"] for t in ("t1", "t2")}
        assert final["per_market"] == pytest.approx(per_market)
        w = evaluation.DEFAULT_MARKET_WEIGHTS
        want = ((w["t1"] * per_market["t1"] + w["t2"] * per_market["t2"])
                / (w["t1"] + w["t2"]))
        assert final["weighted"] == pytest.approx(want)
        assert (ws.root / "final.json").exists()

    def test_report_writes_final_json_atomically(self, world, tmp_path,
                                                 monkeypatch):
        work, config = copied_workspace(world, tmp_path)
        final = work / "final.json"
        before = final.read_bytes()
        final.unlink()
        written = record_atomic_writes(monkeypatch)
        pipeline.run_report(config)
        assert written == [final]
        assert final.read_bytes() == before

    def test_report_requires_every_evaluation(self, world):
        ws = world["ws"]
        path = ws.target_dir("t2") / "evaluation.json"
        hidden = path.with_suffix(".hidden")
        path.rename(hidden)
        try:
            with pytest.raises(StageError, match="evaluate first"):
                pipeline.run_report(world["config"])
        finally:
            hidden.rename(path)

    def test_custom_market_weights_override_the_fit(self, world):
        config = pipeline_config(world["data"],
                                 world["config"].workspace,
                                 market_weights={"t1": 1.0, "t2": 0.0})
        report = pipeline.run_report(config)
        ws = world["ws"]
        t1 = json.loads((ws.target_dir("t1")
                         / "evaluation.json").read_text())["ndcg_at_10"]
        assert report["weighted"] == pytest.approx(t1)
        # restore the fixture's final.json for other tests
        pipeline.run_report(world["config"])


class TestCli:
    @pytest.fixture()
    def config_file(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "cli_ws")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()) + "\n")
        return path

    def test_usage_error_exits_1(self, capsys):
        assert cli.main(["prerank"]) == 1
        assert "cmrec: error:" in capsys.readouterr().err
        assert cli.main(["not-a-command"]) == 1

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        assert cli.main(["ingest", "--config",
                         str(tmp_path / "absent.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_data_error_exits_2(self, tmp_path, capsys):
        config = pipeline_config(tmp_path / "missing_data", tmp_path / "w")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config.to_dict()))
        assert cli.main(["ingest", "--config", str(path)]) == 2
        assert "data directory" in capsys.readouterr().err

    def test_stage_error_exits_3(self, config_file, capsys):
        assert cli.main(["prerank", "--config", str(config_file),
                         "--target", "t1"]) == 3
        assert "ingest first" in capsys.readouterr().err

    def test_ingest_success_exits_0(self, config_file, capsys):
        assert cli.main(["ingest", "--config", str(config_file)]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out and "3 markets" in out

    def test_workspace_and_seed_overrides(self, config_file, tmp_path,
                                          capsys):
        override = tmp_path / "override_ws"
        assert cli.main(["ingest", "--config", str(config_file),
                         "--workspace", str(override), "--seed", "99"]) == 0
        assert (override / "snapshot" / "meta.json").exists()

    def test_evaluate_with_run_needs_single_target(self, config_file,
                                                   capsys):
        assert cli.main(["evaluate", "--config", str(config_file),
                         "--run", "whatever.tsv"]) == 1
        assert "--target" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "command" in capsys.readouterr().out

    def test_locked_workspace_exits_3(self, config_file, capsys):
        config = json.loads(config_file.read_text())
        ws = Path(config["workspace"])
        ws.mkdir(parents=True, exist_ok=True)
        (ws / ".lock").write_text("held\n")
        try:
            assert cli.main(["ingest", "--config", str(config_file)]) == 3
            assert "locked" in capsys.readouterr().err
        finally:
            (ws / ".lock").unlink()

    def test_synth_command_writes_a_dataset(self, tmp_path, capsys):
        payload = {"n_items": 120, "dim": 3, "eval_users": 4,
                   "n_candidates": 20,
                   "markets": {"s1": {"n_users": 12,
                                      "interactions_per_user": 8},
                               "t1": {"n_users": 8,
                                      "interactions_per_user": 5},
                               "t2": {"n_users": 8,
                                      "interactions_per_user": 5}}}
        spec = tmp_path / "synth.json"
        spec.write_text(json.dumps(payload))
        out = tmp_path / "data"
        assert cli.main(["synth", "--out", str(out), "--config", str(spec),
                         "--seed", "3"]) == 0
        assert (out / "t1" / "valid_run.tsv").exists()
        meta = json.loads((out / "synth_meta.json").read_text())
        assert meta["seed"] == 3
