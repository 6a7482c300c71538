"""End-to-end pipeline wiring on a small synthetic dataset: ingest
snapshots, stage outputs, leakage guards, resumability, and the CLI's
exit-code contract."""

import dataclasses
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cmrec import cli, evaluation, features, gbdt, pipeline, util
from cmrec.config import PipelineConfig
from cmrec.data import (CombinationSpec, IdEncoder, Interactions, RunFile,
                        load_run)
from cmrec.synth import MarketSpec, SynthConfig, generate
from cmrec.util import ConfigError, DataError, StageError

from test_data import to_dense
from test_evaluation import run_lists
from test_features import count_calls, every_id, npy_arrays, with_shape
from test_gbdt import load_model
from test_golden import golden_config, golden_data

COMBOS = [["s1", "t1", "t2"], ["t1", "t2"]]


def run_pairs(run):
    """The (user, candidate) pairs of a RunFile, in order."""
    return list(zip(np.repeat(run.users, np.diff(run.offsets)).tolist(),
                    run.candidates.tolist()))


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


def snapshot_bytes(ws):
    """Every snapshot file's bytes, by its path inside the snapshot."""
    snap = ws.snapshot_dir
    return {path.relative_to(snap).as_posix(): path.read_bytes()
            for path in sorted(snap.rglob("*")) if path.is_file()}


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
        assert all(str(snap.users.ids[u]) for u in snap.rows.user[:50].tolist())

    def test_json_written_atomically_with_the_same_bytes(self, world, tmp_path,
                                                         monkeypatch):
        config = pipeline_config(world["data"], tmp_path / "w")
        written = []
        real = util.atomic_write_text

        def recording(path, text):
            written.append(Path(path))
            real(path, text)

        # util.write_json, the one JSON writer, writes through it
        monkeypatch.setattr(util, "atomic_write_text", recording)
        pipeline.run_ingest(config)
        snap = pipeline.workspace_for(config).snapshot_dir
        names = ("encoders.json", "meta.json", "summary.json")
        # written into the staged snapshot, which is then renamed into place
        assert [snap.with_name("snapshot.tmp") / n for n in names] == written
        for name in names:
            assert (snap / name).read_bytes() == (
                world["ws"].snapshot_dir / name).read_bytes()

    def test_reingest_is_byte_identical(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w1")
        pipeline.run_ingest(config)
        first = snapshot_bytes(pipeline.workspace_for(config))
        pipeline.run_ingest(config)
        assert snapshot_bytes(pipeline.workspace_for(config)) == first
        # and equal to the long-lived fixture workspace built from the
        # same data and config
        assert snapshot_bytes(world["ws"]) == first

    def test_every_snapshot_file_written_atomically(self, world, tmp_path,
                                                    monkeypatch):
        config = pipeline_config(world["data"], tmp_path / "w")
        written = record_atomic_writes(monkeypatch)
        pipeline.run_ingest(config)
        ws = pipeline.workspace_for(config)
        staged = ws.snapshot_dir.with_name("snapshot.tmp")
        assert sorted(ws.snapshot_dir / p.relative_to(staged)
                      for p in written) == sorted(
            p for p in ws.snapshot_dir.rglob("*") if p.is_file())
        assert snapshot_bytes(ws) == snapshot_bytes(world["ws"])

    def test_crash_mid_ingest_keeps_the_old_snapshot(self, world, tmp_path,
                                                     monkeypatch):
        config = pipeline_config(world["data"], tmp_path / "w")
        pipeline.run_ingest(config)
        ws = pipeline.workspace_for(config)
        first = snapshot_bytes(ws)
        real = pipeline.atomic_save_npy

        def crash_after_write(path, array):
            real(path, array)
            raise RuntimeError("crash after the first rows file")

        monkeypatch.setattr(pipeline, "atomic_save_npy", crash_after_write)
        other = pipeline_config(world["data"], tmp_path / "w",
                                markets=["s1", "t1"], targets=["t1"],
                                prerank={"scorers": [
                                    {"name": "item_cf",
                                     "combinations": [["s1", "t1"]]}]})
        with pytest.raises(RuntimeError, match="crash"):
            pipeline.run_ingest(other)
        assert snapshot_bytes(ws) == first
        snap = pipeline.load_snapshot(ws)
        assert snap.markets == ("s1", "t1", "t2")
        assert len(snap.rows) == world["summary"]["total_samples"]

        monkeypatch.undo()
        pipeline.run_ingest(other)
        assert [p.name for p in ws.root.iterdir()] == ["snapshot"]
        assert pipeline.load_snapshot(ws).markets == ("s1", "t1")

    def test_ingest_removes_what_a_crash_left(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w")
        ws = pipeline.workspace_for(config)
        for name in ("snapshot.tmp", "snapshot.old"):
            (ws.root / name / "runs").mkdir(parents=True)
            (ws.root / name / "rows_user.npy").write_bytes(b"partial")
        pipeline.run_ingest(config)
        assert [p.name for p in ws.root.iterdir()] == ["snapshot"]
        assert snapshot_bytes(ws) == snapshot_bytes(world["ws"])

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
        plan = pipeline.make_plan(world["config"], "t1")
        assert [(s.scorer, s.combination.combo_id) for s in plan] == [
            ("item_cf", "s1-t1-t2"), ("item_cf", "t1-t2"),
            ("user_cf", "s1-t1-t2"), ("swing", "t1-t2")]
        assert all(s.combination.target == "t1" for s in plan)

    def test_embedding_scorers_get_derived_seeds(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w", prerank={
            "scorers": [{"name": "word2vec", "params": {"epochs": 1},
                         "combinations": COMBOS},
                        {"name": "item_cf", "combinations": [COMBOS[0]]}]})
        plan = pipeline.make_plan(config, "t1")
        w2v = [s for s in plan if s.scorer == "word2vec"]
        assert all("seed" in s.params for s in w2v)
        assert w2v[0].params["seed"] != w2v[1].params["seed"]
        other_target = pipeline.make_plan(config, "t2")
        w2v_t2 = [s for s in other_target if s.scorer == "word2vec"]
        assert w2v_t2[0].params["seed"] != w2v[0].params["seed"]
        item_cf = [s for s in plan if s.scorer == "item_cf"]
        assert all("seed" not in s.params for s in item_cf)

    def test_seeds_exactly_the_seeded_registry_entries(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w", prerank={
            "scorers": [{"name": name, "combinations": [COMBOS[1]]}
                        for name in features.SCORERS]})
        plan = pipeline.make_plan(config, "t1")
        assert [s.scorer for s in plan] == list(features.SCORERS)
        assert {s.scorer for s in plan if "seed" in s.params} == {
            name for name, scorer in features.SCORERS.items() if scorer.seeded}

    def test_pinned_seed_wins(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w", prerank={
            "scorers": [{"name": "word2vec", "params": {"seed": 99},
                         "combinations": [COMBOS[0]]}]})
        plan = pipeline.make_plan(config, "t1")
        assert plan[0].params["seed"] == 99

    def test_combination_must_contain_target(self, world, tmp_path):
        config = pipeline_config(world["data"], tmp_path / "w", prerank={
            "scorers": [{"name": "item_cf", "combinations": [["s1", "t2"]]}]})
        with pytest.raises(ConfigError, match="t1"):
            pipeline.make_plan(config, "t1")

    def test_default_combinations_need_the_benchmark_shape(self, world):
        # checked at config load: the world has one source market
        config = world["config"]
        with pytest.raises(ConfigError, match="item_cf.*3 source"):
            PipelineConfig.from_dict({**dataclasses.asdict(config),
                                      "prerank": {"scorers": [
                                          {"name": "item_cf"}]}})

    def test_target_outside_config(self, world):
        with pytest.raises(ConfigError, match="t9"):
            pipeline.run_prerank(world["config"], "t9")

    def test_market_added_after_ingest_stops_prerank(self, world, tmp_path):
        work, config = copied_workspace(world, tmp_path)
        grown = PipelineConfig.from_dict({
            **dataclasses.asdict(config), "markets": ["s1", "s9", "t1", "t2"],
            "prerank": {"scorers": [{"name": "item_cf",
                                     "combinations": [["s9", "t1"]]}]}})
        before = {p.name: p.read_bytes() for p in (work / "t1").iterdir()
                  if p.is_file()}
        with pytest.raises(StageError, match=r"\['s9'\]"):
            pipeline.run_prerank(grown, "t1")
        assert {p.name: p.read_bytes() for p in (work / "t1").iterdir()
                if p.is_file()} == before


class TestSnapshotMatchesConfig:
    """Prerank checks once, before it writes anything, that the snapshot
    holds the config's markets and targets; the config changed after
    ingest is a StageError (exit 3) that says to run ingest."""

    ITEM_CF = {"scorers": [{"name": "item_cf",
                            "combinations": [["s1", "t1"]]}]}

    @pytest.fixture()
    def five_markets(self, synth_snapshot, tmp_path):
        """A copy of the five-market snapshot, and a config for it."""
        _, ws = synth_snapshot
        shutil.copytree(ws.snapshot_dir, tmp_path / "work" / "snapshot")
        return {"data_dir": str(tmp_path / "data"),
                "workspace": str(tmp_path / "work"),
                "markets": ["s1", "s2", "s3", "t1", "t2"],
                "targets": ["t1", "t2"]}

    def refused(self, payload, match):
        config = PipelineConfig.from_dict(payload)
        with pytest.raises(StageError, match=match):
            pipeline.run_prerank(config, "t1")
        assert not pipeline.workspace_for(config).target_dir("t1").exists()

    DEFAULT = {"scorers": [{"name": "item_cf"}]}

    def test_market_added_with_default_combinations(self, five_markets):
        # a fourth source breaks the default combinations' shape at load
        with pytest.raises(ConfigError, match="3 source"):
            PipelineConfig.from_dict({
                **five_markets, "prerank": self.DEFAULT,
                "markets": ["s1", "s2", "s3", "s4", "t1", "t2"]})

    def test_market_swapped_with_default_combinations(self, five_markets):
        # the shape holds, so only prerank can see that s4 is new
        self.refused({**five_markets, "prerank": self.DEFAULT,
                      "markets": ["s1", "s2", "s4", "t1", "t2"]},
                     r"markets.*config \['s4'\].*snapshot \['s3'\]"
                     r".*run ingest")

    def test_market_dropped_with_explicit_combinations(self, five_markets):
        self.refused({**five_markets, "prerank": self.ITEM_CF,
                      "markets": ["s1", "s2", "t1", "t2"]},
                     r"markets.*config \[\].*snapshot \['s3'\].*run ingest")

    def test_targets_changed(self, five_markets):
        self.refused({**five_markets, "prerank": self.ITEM_CF,
                      "targets": ["t1"]},
                     r"targets.*config \[\].*snapshot \['t2'\].*run ingest")

    def test_same_sets_in_another_order_pass(self, five_markets):
        config = PipelineConfig.from_dict({
            **five_markets, "prerank": self.ITEM_CF,
            "markets": ["t2", "t1", "s3", "s2", "s1"],
            "targets": ["t2", "t1"]})
        assert pipeline.run_prerank(config, "t1")["n_columns"] == 1

    def test_cli_exits_3(self, five_markets, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**five_markets, "prerank": self.ITEM_CF,
                                    "targets": ["t1"]}))
        assert cli.main(["prerank", "--config", str(path),
                         "--target", "t1"]) == 3
        assert "run ingest" in capsys.readouterr().err


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
        run = RunFile.from_lists(["u0", "u1", "u?"],
                                 [["i0", "i1"], ["i1", "i0", "i?"], ["i0"]])
        labels = pipeline._valid_labels(
            snap, "t1", *features.encode_run(run, users, items))
        assert labels.dtype == np.int8
        assert labels.tolist() == [0, 1, 0, 1, 0, 0]

    def test_feature_tables_exist_with_expected_columns(self, world,
                                                        workspace_table):
        ws = world["ws"]
        valid = workspace_table(ws, "t1", "valid")
        test = workspace_table(ws, "t1", "test")
        # 4 scorer specs -> 8 columns, plus 17 statistics
        assert len(valid.columns) == 8 + 17
        assert valid.columns == test.columns
        assert valid.labels is not None and test.labels is None

    def test_valid_labels_are_the_valid_qrels(self, world, workspace_table):
        ws = world["ws"]
        valid = workspace_table(ws, "t1", "valid")
        qrels = {}
        for line in (world["data"] / "t1" / "valid_qrel.tsv"
                     ).read_text().splitlines()[1:]:
            user, item, _ = line.split("\t")
            qrels.setdefault(user, set()).add(item)
        for r in range(valid.n_rows):
            want = 1 if valid.items[r] in qrels.get(valid.users[r], ()) else 0
            assert valid.labels[r] == want
        assert int(valid.labels.sum()) == sum(len(v) for v in qrels.values())

    def test_rows_follow_run_files(self, world, workspace_table):
        ws = world["ws"]
        run = load_run(ws.run_path("t1", "test"))
        test = workspace_table(ws, "t1", "test")
        assert list(zip(test.users.tolist(), test.items.tolist())) == run_pairs(
            run)

    def test_no_eval_positive_reaches_any_scorer_matrix(self, world,
                                                        tmp_path):
        snap = pipeline.load_snapshot(world["ws"])
        ctx = features.PlanContext(snap.rows, snap.users, snap.items,
                                   every_id(snap.users, snap.items), tmp_path)
        rows = snap.rows.take((snap.rows.market == "t1")
                              & np.isin(snap.rows.split, ("valid_qrel",
                                                          "test_qrel")))
        held_out = set(zip(rows.user.tolist(), rows.item.tolist()))
        assert held_out
        for combo in COMBOS:
            matrix = features.combination_matrix(
                ctx, CombinationSpec("t1", tuple(sorted(combo))))
            dense = to_dense(matrix)
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

    def test_prerank_with_every_scorer_failing_exits_3(self, world, tmp_path,
                                                        monkeypatch, capsys):
        work = tmp_path / "work"
        shutil.copytree(world["ws"].snapshot_dir, work / "snapshot")
        config = pipeline_config(world["data"], work, prerank={
            "scorers": [{"name": "item_cf", "combinations": [COMBOS[1]]}],
            "stats": False})
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(dataclasses.asdict(config)))

        def boom(matrix, params):
            raise RuntimeError("fit failed")

        monkeypatch.setitem(features.SCORERS, "item_cf", dataclasses.replace(
            features.SCORERS["item_cf"], fit=boom))
        assert cli.main(["prerank", "--config", str(config_file),
                         "--target", "t1"]) == 3
        assert "1 scorer runs failed" in capsys.readouterr().err
        failures = json.loads((work / "t1" / "prerank_failures.json").read_text())
        assert [sorted(f) for f in failures] == [["error", "feature"]]

    def test_rerun_resumes_from_cache_byte_identically(self, world):
        ws = world["ws"]
        before = {which: ws.features_path("t1", which).read_bytes()
                  for which in ("valid", "test")}
        ws.features_path("t1", "valid").unlink()
        pipeline.run_prerank(world["config"], "t1")
        for which in ("valid", "test"):
            assert ws.features_path("t1", which).read_bytes() == before[which]

    def test_each_matrix_is_built_once_per_prerank(self, world, tmp_path,
                                                   monkeypatch):
        # the valid run, the test run and the external-embedding features
        # all use the s1-t1-t2 matrix
        item = pipeline.load_snapshot(world["ws"]).items.ids[0]
        vectors = tmp_path / "vectors.tsv"
        vectors.write_text(f"{item}\t1.0\t0.5\n")
        prerank = {**dataclasses.asdict(world["config"].prerank),
                   "external_embeddings": str(vectors)}
        config = pipeline_config(world["data"], tmp_path / "w",
                                 prerank=prerank)
        pipeline.run_ingest(config)
        built = []
        real = features.build_matrix

        def counting(rows, combination, *sizes):
            built.append(combination.combo_id)
            return real(rows, combination, *sizes)

        monkeypatch.setattr(features, "build_matrix", counting)
        pipeline.run_prerank(config, "t1")
        assert sorted(built) == ["s1-t1-t2", "t1-t2"]

    def test_a_cold_prerank_scores_and_caches_each_column_once(
            self, world, tmp_path, monkeypatch):
        # both run files go through one pass: one fit and one score call
        # per plan entry, one statistics call, one cache file per column
        # and one per feature table
        config = pipeline_config(world["data"], tmp_path / "w")
        assert config.prerank.stats
        pipeline.run_ingest(config)
        plan = pipeline.make_plan(config, "t1")
        per_scorer = Counter(spec.scorer for spec in plan)
        counts = {name: count_calls(monkeypatch, name) for name in per_scorer}
        stats = []
        real = features.global_statistic_features

        def counting(*args):
            stats.append(args)
            return real(*args)

        monkeypatch.setattr(features, "global_statistic_features", counting)
        pipeline.run_prerank(config, "t1")
        assert counts == {name: {"fit": n, "score": n}
                          for name, n in per_scorer.items()}
        assert len(stats) == 1
        cache = pipeline.workspace_for(config).cache_dir("t1")
        assert sorted(p.name.split(".")[0] for p in cache.rglob("*")) == sorted(
            [spec.feature_name for spec in plan]
            + ["features_test", "features_valid"])

    def test_reingest_of_changed_data_recomputes_cached_columns(
            self, world, tmp_path, workspace_table):
        data_dir = tmp_path / "data"
        shutil.copytree(world["data"], data_dir)
        prerank = {"scorers": [{"name": "item_cf", "combinations": [["t1"]]}]}
        config = pipeline_config(data_dir, tmp_path / "w", prerank=prerank)
        ws = pipeline.workspace_for(config)
        pipeline.run_ingest(config)
        pipeline.run_prerank(config, "t1")
        [spec] = pipeline.make_plan(config, "t1")
        old = workspace_table(ws, "t1", "valid")
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
        new = workspace_table(ws, "t1", "valid")
        assert not np.array_equal(old.column(spec.feature_name),
                                  new.column(spec.feature_name))


class TestExternalEmbeddings:
    def test_prerank_adds_cosines_against_the_history(self, world, tmp_path,
                                                      workspace_table):
        snap = pipeline.load_snapshot(world["ws"])
        rng = np.random.default_rng(3)
        lines = []
        for k, item in enumerate(snap.items.ids.tolist()):
            if k % 5 == 4:
                continue                  # items without a vector
            vec = np.zeros(3) if k == 0 else rng.normal(size=3)
            lines.append("\t".join([item, *map(repr, vec.tolist())]))
        path = tmp_path / "vectors.tsv"
        path.write_text("\n".join(lines) + "\n")
        vectors = {}
        for line in path.read_text().splitlines():
            key, *values = line.split("\t")
            vectors[key] = np.array([float(v) for v in values])

        prerank = {"scorers": [{"name": "item_cf", "combinations": [["t1"]]}],
                   "external_embeddings": str(path)}
        config = pipeline_config(world["data"], tmp_path / "w",
                                 prerank=prerank)
        pipeline.run_ingest(config)
        pipeline.run_prerank(config, "t1")

        # the user's history: every market's rows but the test positives
        # and the pairs of t1's valid positives
        rows = snap.rows
        valid = set(zip(rows.user[(rows.market == "t1")
                                  & (rows.split == "valid_qrel")].tolist(),
                        rows.item[(rows.market == "t1")
                                  & (rows.split == "valid_qrel")].tolist()))
        history: dict[str, set] = {}
        for u, i, split in zip(rows.user.tolist(), rows.item.tolist(),
                               rows.split.tolist()):
            if split != "test_qrel" and (u, i) not in valid:
                history.setdefault(str(snap.users.ids[u]), set()).add(
                    str(snap.items.ids[i]))

        def unit(item):
            vec = vectors.get(item)
            norm = 0.0 if vec is None else float(np.linalg.norm(vec))
            return vec / norm if norm > 0 else None

        ws = pipeline.workspace_for(config)
        names = ["ext_emb__mean_cos", "ext_emb__max_cos", "ext_emb__missing"]
        for which in ("valid", "test"):
            table = workspace_table(ws, "t1", which)
            got = np.column_stack([table.column(n) for n in names])
            want = np.zeros_like(got)
            for r, (user, cand) in enumerate(zip(table.users, table.items)):
                hist = [v for v in map(unit, sorted(history.get(user, ())))
                        if v is not None]
                c_vec = unit(cand)
                if c_vec is None or not hist:
                    want[r] = [0.0, 0.0, 1.0]
                else:
                    cos = [float(h @ c_vec) for h in hist]
                    want[r] = [np.mean(cos), max(cos), 0.0]
            assert 0 < want[:, 2].sum() < len(want)
            assert np.array_equal(got[:, 2], want[:, 2])
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


class TestSelectTrain:
    def test_kept_features_are_a_nonempty_subset(self, world, workspace_table):
        ws = world["ws"]
        kept = (ws.target_dir("t1") / "kept.txt").read_text().split()
        valid = workspace_table(ws, "t1", "valid")
        assert kept and set(kept) <= set(valid.columns)

    def test_selection_report_covers_every_column_in_order(self, world,
                                                           workspace_table):
        ws = world["ws"]
        report = json.loads((ws.target_dir("t1")
                             / "selection_report.json").read_text())
        valid = workspace_table(ws, "t1", "valid")
        assert [r["name"] for r in report] == list(valid.columns)
        kept = set((ws.target_dir("t1") / "kept.txt").read_text().split())
        assert {r["name"] for r in report if r["decision"] == "keep"} == kept

    def test_metrics_and_model_artifacts(self, world):
        ws = world["ws"]
        metrics = json.loads((ws.target_dir("t1") / "metrics.json").read_text())
        assert 0.0 < metrics["oof_ndcg_at_10"] <= 1.0
        kept = (ws.target_dir("t1") / "kept.txt").read_text().split()
        assert metrics["n_features"] == len(kept)
        model = load_model(ws.target_dir("t1") / "model.json")
        assert isinstance(model, gbdt.BaggedModel)
        assert model.folds == 3
        assert len(model.fold_models) == 3

    def test_oof_file_covers_the_valid_table(self, world, workspace_table):
        ws = world["ws"]
        lines = (ws.target_dir("t1") / "oof.tsv").read_text().splitlines()
        valid = workspace_table(ws, "t1", "valid")
        assert lines[0] == "user\titem\tlabel\toof_score"
        assert len(lines) - 1 == valid.n_rows
        scores = [float(line.split("\t")[3]) for line in lines[1:]]
        assert all(np.isfinite(scores))

    def test_train_without_a_grid_removes_an_earlier_search(self, world,
                                                            tmp_path):
        work, config = copied_workspace(world, tmp_path)
        grid = work / "t1" / "grid.json"
        searched = dataclasses.replace(config, ranker=dataclasses.replace(
            config.ranker, grid={"num_leaves": (3, 7)}))
        pipeline.run_train(searched, "t1")
        assert grid.exists()
        pipeline.run_train(config, "t1")
        assert not grid.exists()
        assert ((work / "t1" / "model.json").read_bytes()
                == (world["ws"].target_dir("t1") / "model.json").read_bytes())

    def test_train_writes_oof_atomically(self, world, tmp_path, monkeypatch):
        work, config = copied_workspace(world, tmp_path)
        oof = work / "t1" / "oof.tsv"
        before = oof.read_bytes()
        oof.unlink()
        written = []
        real = util.atomic_write_bytes

        def recording(path, payload):
            written.append(Path(path))
            real(path, payload)

        # util.write_tsv, the float-table writer, writes through it
        monkeypatch.setattr(util, "atomic_write_bytes", recording)
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
            self, world, tmp_path, workspace_table):
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
        valid = workspace_table(pipeline.workspace_for(smaller), "t1", "valid")
        assert kept[0] not in valid.columns
        with pytest.raises(DataError, match="kept.txt") as err:
            pipeline.run_train(smaller, "t1")
        assert repr(kept[0]) in str(err.value)

    def test_ranked_run_permutes_the_candidates(self, world):
        ws = world["ws"]
        ranked = run_lists(*evaluation.read_run_file(
            ws.target_dir("t1") / "test_ranked.tsv"))
        run = load_run(ws.run_path("t1", "test"))
        source = dict(zip(run.users.tolist(), run.candidate_lists()))
        assert {u for u, _ in ranked} == set(source)
        for user, scored in ranked:
            assert {i for i, _ in scored} == set(source[user])
            values = [s for _, s in scored]
            assert values == sorted(values, reverse=True)

    def test_grid_search_and_final_bagging_share_one_binning(
            self, world, tmp_path, monkeypatch):
        work, config = copied_workspace(world, tmp_path)
        searched = dataclasses.replace(config, ranker=dataclasses.replace(
            config.ranker, grid={"num_leaves": (3, 7),
                                 "learning_rate": (0.1, 0.2)}))
        binned, draws = [], []
        build, assign = gbdt.build_bins, gbdt.assign_folds
        monkeypatch.setattr(gbdt, "build_bins",
                            lambda *a: binned.append(a) or build(*a))
        monkeypatch.setattr(gbdt, "assign_folds",
                            lambda *a: draws.append(a) or assign(*a))
        pipeline.run_train(searched, "t1")
        assert (work / "t1" / "grid.json").exists()
        assert len(binned) == config.ranker.folds
        assert len(draws) == 1

    def test_a_grid_bags_each_candidate_once_and_saves_the_winner(
            self, world, tmp_path, monkeypatch, workspace_table):
        work, config = copied_workspace(world, tmp_path)
        searched = dataclasses.replace(config, ranker=dataclasses.replace(
            config.ranker, grid={"num_leaves": (3, 7),
                                 "learning_rate": (0.1, 0.2)}))
        bagged = []
        bagging = gbdt.kfold_bagging
        monkeypatch.setattr(gbdt, "kfold_bagging",
                            lambda *a: bagged.append(a[1]) or bagging(*a))
        pipeline.run_train(searched, "t1")
        assert len(bagged) == 4
        # the saved model is the one a refit of the chosen params gives
        chosen = json.loads((work / "t1" / "grid.json").read_text())["chosen"]
        kept = workspace_table(
            pipeline.workspace_for(config), "t1", "valid",
            (work / "t1" / "kept.txt").read_text().split())
        params = gbdt.GbdtParams(**chosen)
        assert params in bagged
        again = bagging(kept, params, gbdt.make_folds(kept, params,
                                                      config.ranker.folds))
        gbdt.save_model(again, tmp_path / "again.json")
        assert ((tmp_path / "again.json").read_bytes()
                == (work / "t1" / "model.json").read_bytes())

    def test_retrain_is_deterministic(self, world):
        ws = world["ws"]
        model_before = (ws.target_dir("t1") / "model.json").read_bytes()
        run_before = (ws.target_dir("t1") / "test_ranked.tsv").read_bytes()
        pipeline.run_train(world["config"], "t1")
        assert (ws.target_dir("t1") / "model.json").read_bytes() == model_before
        assert (ws.target_dir("t1")
                / "test_ranked.tsv").read_bytes() == run_before


class TestPrerankHandOff:
    """Select and train read the tables prerank's record names, from the
    arrays stored under each TSV's recorded sha256, and nothing else."""

    OUTPUTS = ("kept.txt", "selection_report.tsv", "selection_report.json",
               "model.json", "oof.tsv", "test_ranked.tsv")

    def test_a_deleted_cache_makes_prerank_rebuild_the_same_bytes(
            self, tmp_path):
        config = golden_config(golden_data(tmp_path), tmp_path / "work")
        ws = pipeline.workspace_for(config)
        tdir = ws.target_dir("t1")
        written = ["features_valid.tsv", "features_test.tsv",
                   pipeline.PRERANK_RECORD]
        pipeline.run_ingest(config)
        pipeline.run_prerank(config, "t1")
        tables = {name: (tdir / name).read_bytes() for name in written}

        def select_and_train():
            pipeline.run_select(config, "t1")
            pipeline.run_train(config, "t1")
            return {name: (tdir / name).read_bytes() for name in self.OUTPUTS}

        outputs = select_and_train()
        shutil.rmtree(ws.cache_dir("t1"))
        with pytest.raises(StageError, match="stored copy .* re-run prerank"):
            pipeline.run_select(config, "t1")
        assert pipeline.run_prerank(config, "t1")["up_to_date"] is False
        assert {name: (tdir / name).read_bytes() for name in written} == tables
        assert select_and_train() == outputs

    def test_select_and_train_after_a_failed_prerank_exit_3(
            self, world, tmp_path, monkeypatch, capsys):
        work, config = copied_workspace(world, tmp_path)

        def boom(matrix, params, users, items):
            raise RuntimeError("fit failed")

        monkeypatch.setitem(features.SCORERS, "user_cf", dataclasses.replace(
            features.SCORERS["user_cf"], fit=boom))
        # a new user_cf param, so that its column is fitted, not cached
        scorers = [dataclasses.replace(sc, params={"top_k": 9})
                   if sc.name == "user_cf" else sc
                   for sc in config.prerank.scorers]
        failing = dataclasses.replace(config, prerank=dataclasses.replace(
            config.prerank, scorers=tuple(scorers)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(failing)))
        kept = (work / "t1" / "kept.txt").read_bytes()
        for command in ("prerank", "select", "train"):
            capsys.readouterr()
            assert cli.main([command, "--config", str(path),
                             "--target", "t1"]) == 3
        assert "run prerank" in capsys.readouterr().err
        assert (work / "t1" / "kept.txt").read_bytes() == kept
        for stage in (pipeline.run_select, pipeline.run_train):
            with pytest.raises(StageError, match="no prerank record"):
                stage(failing, "t1")

    @pytest.mark.parametrize("which", ["valid", "test"])
    def test_select_on_an_edited_table_is_a_stage_error(self, world,
                                                        tmp_path, which):
        work, config = copied_workspace(world, tmp_path)
        tsv = work / "t1" / f"features_{which}.tsv"
        header, first, *rest = tsv.read_text().split("\n")
        fields = first.split("\t")
        fields[-1] = repr(float(fields[-1]) + 1.0)
        tsv.write_text("\n".join([header, "\t".join(fields), *rest]))
        record = work / "t1" / pipeline.PRERANK_RECORD
        with pytest.raises(StageError) as err:
            pipeline.run_select(config, "t1")
        assert f"{tsv} is not the table {record} records" in str(err.value)
        assert "re-run prerank" in str(err.value)

    @pytest.mark.parametrize("damage", ["deleted", "truncated", "inflated"])
    def test_train_on_a_lost_or_damaged_test_table_copy_writes_nothing(
            self, world, tmp_path, capsys, damage):
        work, config = copied_workspace(world, tmp_path)
        outputs = ("model.json", "oof.tsv", "test_ranked.tsv", "metrics.json")
        before = {name: (work / "t1" / name).read_bytes() for name in outputs}
        [stored] = (work / "t1" / "cache").glob("features_test.*.npy")
        payload = stored.read_bytes()
        if damage == "deleted":
            stored.unlink()
        elif damage == "truncated":
            stored.write_bytes(payload[:-8])
        else:  # the values' header claims one row more than follows
            n_rows, n_cols = npy_arrays(payload)[-1][2]
            stored.write_bytes(with_shape(payload, -1, (n_rows + 1, n_cols)))
        params = config.ranker.params
        longer = dataclasses.replace(config, ranker=dataclasses.replace(
            config.ranker, params=dataclasses.replace(
                params, n_rounds=params.n_rounds + 3)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(longer)))
        assert cli.main(["train", "--config", str(path),
                         "--target", "t1"]) == 3
        err = capsys.readouterr().err
        assert "stored copy of" in err and "features_test.tsv" in err
        assert {name: (work / "t1" / name).read_bytes()
                for name in outputs} == before

    def test_each_stage_call_reads_the_record_once(self, world, tmp_path,
                                                   monkeypatch):
        _, config = copied_workspace(world, tmp_path)
        reads = []
        real = pipeline.read_artifact

        def counting(cls, path):
            reads.append(Path(path).name)
            return real(cls, path)

        monkeypatch.setattr(pipeline, "read_artifact", counting)
        for stage in (pipeline.run_select, pipeline.run_train):
            reads.clear()
            stage(config, "t1")
            assert reads == [pipeline.PRERANK_RECORD]


class TestFoldDraws:
    def test_select_and_train_draw_folds_twice_per_target(self, tmp_path,
                                                          monkeypatch):
        config = golden_config(golden_data(tmp_path), tmp_path / "work")
        pipeline.run_ingest(config)
        draws = []
        assign = gbdt.assign_folds
        monkeypatch.setattr(gbdt, "assign_folds",
                            lambda *a: draws.append(a) or assign(*a))
        per_target = {}
        for target in config.targets:
            pipeline.run_prerank(config, target)
            before = len(draws)
            pipeline.run_select(config, target)
            pipeline.run_train(config, target)
            per_target[target] = len(draws) - before
        # one draw for CV elimination, one for the ranker
        assert per_target == {"t1": 2, "t2": 2}


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
        path.write_text(json.dumps(dataclasses.asdict(config)) + "\n")
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
        path.write_text(json.dumps(dataclasses.asdict(config)))
        assert cli.main(["ingest", "--config", str(path)]) == 2
        assert "data directory" in capsys.readouterr().err

    def test_a_market_file_that_is_not_utf8_exits_2(self, world, tmp_path,
                                                    capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(world["data"], data_dir)
        train = data_dir / "s1" / "train.tsv"
        n_lines = train.read_bytes().count(b"\n")
        with train.open("ab") as fh:
            fh.write(b"\xff")
        config = pipeline_config(data_dir, tmp_path / "w")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dataclasses.asdict(config)))
        assert cli.main(["ingest", "--config", str(path)]) == 2
        assert f"{train}:{n_lines + 1}: not UTF-8" in capsys.readouterr().err

    def test_stage_error_exits_3(self, config_file, capsys):
        assert cli.main(["prerank", "--config", str(config_file),
                         "--target", "t1"]) == 3
        assert "ingest first" in capsys.readouterr().err

    def test_select_before_any_prerank_exits_3_naming_prerank(
            self, config_file, capsys):
        assert cli.main(["ingest", "--config", str(config_file)]) == 0
        assert cli.main(["select", "--config", str(config_file),
                         "--target", "t1"]) == 3
        err = capsys.readouterr().err
        assert pipeline.PRERANK_RECORD in err and "run prerank" in err

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

    def run_on_damaged(self, world, tmp_path, command, damaged, text):
        """The CLI exit code of command on a copied workspace whose file
        damaged holds text, and that file's path."""
        work, config = copied_workspace(world, tmp_path)
        path = work / damaged
        path.write_text(text, encoding="utf-8")
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(dataclasses.asdict(config)))
        target = [] if command == "report" else ["--target", "t1"]
        return cli.main([command, "--config", str(config_file),
                         *target]), path

    @pytest.mark.parametrize("command, damaged", [
        ("prerank", "snapshot/meta.json"),
        ("select", "t1/prerank.inputs.json"),
        ("train", "t1/prerank.inputs.json"),
        ("report", "t1/evaluation.json"),
    ])
    def test_damaged_workspace_json_exits_3_naming_it(self, world, tmp_path,
                                                      capsys, command,
                                                      damaged):
        text = (world["ws"].root / damaged).read_text(encoding="utf-8")
        code, path = self.run_on_damaged(world, tmp_path, command, damaged,
                                         text[:len(text) // 2])
        assert code == 3
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command, damaged, text, key", [
        ("prerank", "snapshot/meta.json", "{}", "markets"),
        ("prerank", "snapshot/encoders.json", '{"users": []}', "items"),
        ("select", "t1/prerank.inputs.json", '{"version": 2}', "inputs"),
        ("report", "t2/evaluation.json",
         '{"market": "t2", "n_users": 15, "run_file": "r.tsv"}',
         "ndcg_at_10"),
    ])
    def test_workspace_json_without_a_key_exits_3_naming_it(
            self, world, tmp_path, capsys, command, damaged, text, key):
        code, path = self.run_on_damaged(world, tmp_path, command, damaged,
                                         text + "\n")
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err and repr(key) in err

    def test_workspace_json_that_is_no_object_exits_3_naming_it(
            self, world, tmp_path, capsys):
        code, path = self.run_on_damaged(world, tmp_path, "report",
                                         "t1/evaluation.json", "[]\n")
        assert code == 3
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command, damaged, field, value", [
        ("prerank", "snapshot/meta.json", "markets", 5),
        ("prerank", "snapshot/meta.json", "splits", ["train", 1]),
        ("prerank", "snapshot/meta.json", "targets", None),
        ("prerank", "snapshot/encoders.json", "users", "u1"),
        ("prerank", "snapshot/encoders.json", "items", [3]),
        ("report", "t1/evaluation.json", "ndcg_at_10", "0.5"),
    ])
    def test_workspace_json_with_a_mistyped_field_exits_3_naming_it(
            self, world, tmp_path, capsys, command, damaged, field, value):
        doc = json.loads((world["ws"].root / damaged).read_text(
            encoding="utf-8"))
        code, path = self.run_on_damaged(world, tmp_path, command, damaged,
                                         json.dumps({**doc, field: value}))
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err and f".{field}" in err

    @pytest.mark.parametrize("damage", ["missing", "truncated", "empty",
                                        "one element short"])
    @pytest.mark.parametrize("command", ["prerank", "evaluate"])
    def test_damaged_snapshot_array_exits_3_naming_it(
            self, world, tmp_path, capsys, command, damage):
        work, config = copied_workspace(world, tmp_path)
        path = work / "snapshot" / "rows_user.npy"
        if damage == "missing":
            path.unlink()
        elif damage == "truncated":
            blob = path.read_bytes()
            path.write_bytes(blob[:len(blob) // 2])
        elif damage == "empty":
            path.write_bytes(b"")
        else:
            np.save(path, np.load(path)[:-1])
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(dataclasses.asdict(config)))
        assert cli.main([command, "--config", str(config_file),
                         "--target", "t1"]) == 3
        err = capsys.readouterr().err
        assert "rows_user.npy" in err and "run ingest" in err

    def test_repeated_kept_feature_exits_2_naming_its_line(
            self, world, tmp_path, capsys):
        work, config = copied_workspace(world, tmp_path)
        kept = work / "t1" / "kept.txt"
        lines = kept.read_text().splitlines()
        kept.write_text("\n".join(lines + lines[:1]) + "\n")
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(dataclasses.asdict(config)))
        assert cli.main(["train", "--config", str(config_file),
                         "--target", "t1"]) == 2
        assert f"{kept}:{len(lines) + 1}:" in capsys.readouterr().err

    def test_select_and_train_read_no_catalog(self, world, tmp_path):
        # prerank writes the catalogs for readers; select and train read
        # only the feature tables
        work, config = copied_workspace(world, tmp_path)
        for which in ("valid", "test"):
            (work / "t1" / f"features_{which}.catalog.json").write_text("{")
        outputs = ("kept.txt", "model.json", "test_ranked.tsv")
        for name in outputs:
            (work / "t1" / name).unlink()
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(dataclasses.asdict(config)))
        for command in ("select", "train"):
            assert cli.main([command, "--config", str(config_file),
                             "--target", "t1"]) == 0
        for name in outputs:
            assert (work / "t1" / name).read_bytes() == (
                world["ws"].target_dir("t1") / name).read_bytes()

    def test_meta_json_keeps_its_bytes(self, world):
        # the layout of meta.json, spelled out for this workspace (the
        # golden test pins its bytes for the golden dataset)
        assert (world["ws"].snapshot_dir / "meta.json").read_text() == (
            json.dumps({"markets": ["s1", "t1", "t2"],
                        "splits": list(pipeline.data.SPLITS),
                        "targets": ["t1", "t2"]}, indent=2, sort_keys=True)
            + "\n")

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
