"""The prerank record, <target>/prerank.inputs.json: what it holds, that a
re-run whose record is current fits, scores and writes nothing, and that
every change to an input or an output, a damaged record and a crash
before the record make prerank rebuild the very tables a fresh workspace
gets."""

import dataclasses
import hashlib
import json
import shutil

import pytest

from cmrec import cli, data, features, pipeline
from cmrec.synth import MarketSpec, SynthConfig, generate
from cmrec.util import StageError, read_artifact

from test_pipeline import pipeline_config, record_atomic_writes

# the snapshot files a prerank of t1 reads, by their path in snapshot/
SNAPSHOT_READS = ("meta.json", "encoders.json", "rows_user.npy",
                  "rows_item.npy", "rows_rating.npy", "rows_market.npy",
                  "rows_split.npy", "runs/t1_valid_run.tsv",
                  "runs/t1_test_run.tsv")
OUTPUTS = ("features_valid.tsv", "features_test.tsv",
           "features_valid.catalog.json", "features_test.catalog.json",
           "correlation.tsv", "prerank_failures.json")


@pytest.fixture(scope="module")
def source_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("record_data")
    generate(SynthConfig(
        out_dir=str(root / "data"), seed=11, n_items=100, dim=4,
        markets={"s1": MarketSpec(40, 10, 0.9), "t1": MarketSpec(20, 6, 0.8),
                 "t2": MarketSpec(20, 6, 0.8)},
        targets=("t1", "t2"), eval_users=10, n_candidates=20))
    return root / "data"


def write_vectors(path, items, scale):
    path.write_text("".join(f"{item}\t{scale * (k % 7 + 1)!r}\t{k % 3!r}\n"
                            for k, item in enumerate(items)))


def make_config(env, **prerank):
    config = pipeline_config(env["data"], env["work"])
    base = dataclasses.asdict(config.prerank)
    base["external_embeddings"] = str(env["vectors"])
    return pipeline_config(env["data"], env["work"], prerank={**base, **prerank})


def built(root, source_data):
    """A private copy of the data and a workspace under root, ingested and
    preranked for t1, with an external vectors file next to them."""
    env = {"data": root / "data", "work": root / "work",
           "vectors": root / "vectors.tsv"}
    shutil.copytree(source_data, env["data"])
    env["config"] = make_config(env)
    pipeline.run_ingest(env["config"])
    items = pipeline.load_snapshot(pipeline.workspace_for(env["config"])).items
    write_vectors(env["vectors"], items.ids.tolist()[::2], 1.0)
    env["ws"] = pipeline.workspace_for(env["config"])
    env["tdir"] = env["ws"].target_dir("t1")
    assert pipeline.run_prerank(env["config"], "t1")["up_to_date"] is False
    return env


@pytest.fixture
def env(tmp_path, source_data):
    return built(tmp_path / "a", source_data)


def output_bytes(tdir):
    return {name: (tdir / name).read_bytes() for name in OUTPUTS}


def record_path(tdir):
    return tdir / pipeline.PRERANK_RECORD


def fresh_outputs(config, root):
    """Outputs and record of a fresh workspace for config under root."""
    config = dataclasses.replace(config, workspace=str(root))
    pipeline.run_ingest(config)
    assert pipeline.run_prerank(config, "t1")["up_to_date"] is False
    tdir = pipeline.workspace_for(config).target_dir("t1")
    return output_bytes(tdir), record_path(tdir).read_bytes()


class TestRecordContents:
    def test_inputs_and_output_digests(self, env):
        tdir = env["tdir"]
        record = read_artifact(pipeline.PrerankRecord, record_path(tdir))
        assert record.version == pipeline.PRERANK_RECORD_VERSION
        assert set(record.outputs) == set(OUTPUTS)
        for name, digest in record.outputs.items():
            assert hashlib.sha256((tdir / name).read_bytes()).hexdigest() == digest
        plan = pipeline.make_plan(env["config"], "t1")
        assert [(e.scorer, dict(e.params), e.combination,
                 e.excludes_target_valid) for e in record.inputs.plan] == [
            (s.scorer, dict(s.params), s.combination.markets,
             s.combination.exclude_valid_of_target) for s in plan]
        assert record.inputs.stats is True
        assert record.inputs.external_embeddings == hashlib.sha256(
            env["vectors"].read_bytes()).hexdigest()

    def test_inputs_are_the_digests_of_the_snapshot_files_it_reads(self,
                                                                   env):
        snap = env["ws"].snapshot_dir
        record = read_artifact(pipeline.PrerankRecord,
                               record_path(env["tdir"]))
        assert sorted(record.inputs.snapshot) == sorted(SNAPSHOT_READS)
        for name, digest in record.inputs.snapshot.items():
            assert hashlib.sha256((snap / name).read_bytes()).hexdigest() == (
                digest)

    def test_scorer_provenance_is_the_plan(self, env):
        # one description per scorer column: its catalog provenance, less
        # the kind, is its plan entry in the record, in plan order
        tdir = env["tdir"]
        plan = json.loads(record_path(tdir).read_text())["inputs"]["plan"]
        catalog = json.loads(
            (tdir / "features_valid.catalog.json").read_text())
        provenance = catalog["provenance"]
        scorer_columns = [c for c in catalog["columns"]
                          if provenance[c]["kind"] == "scorer"]
        assert len(plan) == 4
        assert [{k: v for k, v in provenance[c].items() if k != "kind"}
                for c in scorer_columns] == plan

    def test_two_workspaces_at_different_paths_write_identical_records(
            self, env, tmp_path, source_data):
        other = built(tmp_path / "elsewhere" / "b", source_data)
        text = record_path(env["tdir"]).read_bytes()
        assert record_path(other["tdir"]).read_bytes() == text
        assert str(tmp_path).encode() not in text

    def test_failed_prerank_writes_no_record(self, env, monkeypatch):
        def boom(matrix, params, users, items):
            raise RuntimeError("fit failed")

        monkeypatch.setitem(features.SCORERS, "item_cf", dataclasses.replace(
            features.SCORERS["item_cf"], fit=boom))
        config = make_config(env, scorers=[
            {"name": "item_cf", "params": {"top_k": 7},
             "combinations": [["t1", "t2"]]}])
        with pytest.raises(StageError, match="scorer runs failed"):
            pipeline.run_prerank(config, "t1")
        assert not record_path(env["tdir"]).exists()

    def test_fit_that_misses_a_run_user_is_a_stage_error(self, env,
                                                         monkeypatch):
        real = features.known_ids

        def drop_first_user(*runs):
            users, items = real(*runs)
            return users[1:], items

        monkeypatch.setattr(features, "known_ids", drop_first_user)
        config = make_config(env, scorers=[
            {"name": "user_cf", "combinations": [["t1", "t2"]]}])
        with pytest.raises(StageError, match="scorer runs failed"):
            pipeline.run_prerank(config, "t1")
        failures = json.loads(
            (env["tdir"] / "prerank_failures.json").read_text())
        assert failures and all("has no fitted neighbor list" in f["error"]
                                for f in failures)
        assert not record_path(env["tdir"]).exists()


class TestCurrentRerun:
    def test_fits_scores_and_writes_nothing(self, env, monkeypatch):
        before = output_bytes(env["tdir"])

        def boom(*args, **kwargs):
            raise AssertionError("a current re-run must not compute")

        for name, scorer in features.SCORERS.items():
            monkeypatch.setitem(features.SCORERS, name, dataclasses.replace(
                scorer, fit=boom, score=boom))
        for name in ("run_plan", "encode_run", "known_ids"):
            monkeypatch.setattr(features, name, boom)
        written = record_atomic_writes(monkeypatch)
        out = pipeline.run_prerank(env["config"], "t1")
        assert out["up_to_date"] is True and out["n_columns"] == 4
        assert written == []
        assert output_bytes(env["tdir"]) == before

    def test_loads_no_snapshot_and_no_run_file(self, env, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a current re-run must not load")

        monkeypatch.setattr(pipeline, "load_snapshot", boom)
        monkeypatch.setattr(data, "load_run", boom)
        assert pipeline.run_prerank(env["config"], "t1")["up_to_date"] is True

    def test_cli_says_up_to_date(self, env, tmp_path, capsys):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(dataclasses.asdict(env["config"])))
        argv = ["prerank", "--config", str(config_file)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == ("[t1] up to date (4 scorer columns)\n"
                                           "[t2] 4 scorer columns\n")
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == ("[t1] up to date (4 scorer columns)\n"
                                           "[t2] up to date (4 scorer columns)\n")


def reingest_changed_data(env):
    for name in ("train.tsv", "train_5core.tsv"):
        path = env["data"] / "t1" / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1 + (len(lines) - 1) // 2]))
    pipeline.run_ingest(env["config"])
    return env["config"]


def change_param(env):
    scorers = dataclasses.asdict(env["config"].prerank)["scorers"]
    scorers[0]["params"] = {"top_k": 5}
    return make_config(env, scorers=scorers)


def int_for_float_param(env):
    # alpha 1.0 and 1 are equal numbers but name different columns
    scorers = dataclasses.asdict(env["config"].prerank)["scorers"]
    assert scorers[2]["name"] == "swing"
    scorers[2]["params"] = {"alpha": 1.0}
    pipeline.run_prerank(make_config(env, scorers=scorers), "t1")
    scorers[2]["params"] = {"alpha": 1}
    return make_config(env, scorers=scorers)


def flip_stats(env):
    return make_config(env, stats=False)


def rewrite_vectors(env):
    items = pipeline.load_snapshot(env["ws"]).items.ids.tolist()
    write_vectors(env["vectors"], items[::2], 2.5)
    return env["config"]


CHANGED_INPUTS = [reingest_changed_data, change_param, int_for_float_param,
                  flip_stats, rewrite_vectors]


def edit(name):
    def change(env):
        path = env["tdir"] / name
        path.write_bytes(path.read_bytes().replace(b"0", b"1", 1))
        return env["config"]
    change.__name__ = f"edit {name}"
    return change


def delete(name):
    def change(env):
        (env["tdir"] / name).unlink()
        return env["config"]
    change.__name__ = f"delete {name}"
    return change


def damage_record(text):
    def change(env):
        path = record_path(env["tdir"])
        path.write_text(text(path.read_text()))
        return env["config"]
    return change


CHANGED_OUTPUTS = [
    *(edit(name) for name in OUTPUTS[:5]),
    *(delete(name) for name in OUTPUTS),
    damage_record(lambda text: text[:len(text) // 2]),
    damage_record(lambda text: "{}\n"),
    damage_record(lambda text: text.replace(
        f'"version": {pipeline.PRERANK_RECORD_VERSION}',
        f'"version": {pipeline.PRERANK_RECORD_VERSION + 1}')),
    delete(pipeline.PRERANK_RECORD),
]


def case_id(change):
    return change.__name__


class TestRebuild:
    def rerun(self, config):
        assert pipeline.run_prerank(config, "t1")["up_to_date"] is False
        assert pipeline.run_prerank(config, "t1")["up_to_date"] is True

    @pytest.mark.parametrize("change", CHANGED_INPUTS, ids=case_id)
    def test_changed_input_rebuilds_the_fresh_tables(self, env, tmp_path,
                                                     change):
        before = output_bytes(env["tdir"])
        config = change(env)
        self.rerun(config)
        got = output_bytes(env["tdir"])
        want, record = fresh_outputs(config, tmp_path / "fresh")
        assert got == want
        assert record_path(env["tdir"]).read_bytes() == record
        assert got != before

    @pytest.mark.parametrize("change", CHANGED_OUTPUTS, ids=case_id)
    def test_changed_output_or_record_rebuilds_the_same_tables(self, env,
                                                               change):
        before = output_bytes(env["tdir"])
        record = record_path(env["tdir"]).read_bytes()
        self.rerun(change(env))
        assert output_bytes(env["tdir"]) == before
        assert record_path(env["tdir"]).read_bytes() == record

    @pytest.mark.parametrize("prerank", [{"scorers": []}, {"stats": False}],
                             ids=["no scorers", "no stats"])
    def test_rebuild_leaves_only_the_files_it_wrote(self, env, prerank):
        # with no scorer column there is no correlation.tsv to write
        config = make_config(env, **prerank)
        self.rerun(config)
        record = read_artifact(pipeline.PrerankRecord,
                               record_path(env["tdir"]))
        written = (env["tdir"] / "correlation.tsv").exists()
        assert written == ("correlation.tsv" in record.outputs)
        assert written == bool(config.prerank.scorers)

    def test_crash_between_tables_and_record(self, env, tmp_path,
                                             monkeypatch):
        before = output_bytes(env["tdir"])
        record = record_path(env["tdir"]).read_bytes()
        changed = change_param(env)
        real = pipeline.write_json

        def crash(path, payload):
            if path.name == "prerank_failures.json":
                raise KeyboardInterrupt
            return real(path, payload)

        monkeypatch.setattr(pipeline, "write_json", crash)
        with pytest.raises(KeyboardInterrupt):
            pipeline.run_prerank(changed, "t1")
        monkeypatch.undo()
        assert not record_path(env["tdir"]).exists()
        # the tables of the crashed run are on disk, the record is not
        assert output_bytes(env["tdir"])["features_valid.tsv"] != before[
            "features_valid.tsv"]
        self.rerun(env["config"])
        assert output_bytes(env["tdir"]) == before
        assert record_path(env["tdir"]).read_bytes() == record


def cache_names(env):
    return sorted(path.name for path in env["ws"].cache_dir("t1").iterdir())


def kept_cache_names(config, tdir):
    """The cache files a successful prerank of t1 keeps: each plan column
    under the sha256 of the record's snapshot digests, and each table
    under its TSV's sha256."""
    record = read_artifact(pipeline.PrerankRecord, record_path(tdir))
    key = hashlib.sha256(json.dumps(record.inputs.snapshot,
                                    sort_keys=True).encode()).hexdigest()
    return sorted(
        [f"{spec.feature_name}.{key[:32]}.npy"
         for spec in pipeline.make_plan(config, "t1")]
        + [f"features_{which}.{record.outputs[f'features_{which}.tsv'][:32]}"
           f".npy" for which in ("valid", "test")])


class TestCacheSweep:
    def test_a_smaller_plan_leaves_only_its_columns_and_tables(self, env):
        assert cache_names(env) == kept_cache_names(env["config"], env["tdir"])
        assert len(cache_names(env)) == 4 + 2
        scorers = dataclasses.asdict(env["config"].prerank)["scorers"]
        smaller = make_config(env, scorers=scorers[1:2])
        assert pipeline.run_prerank(smaller, "t1")["up_to_date"] is False
        assert cache_names(env) == kept_cache_names(smaller, env["tdir"])
        assert len(cache_names(env)) == 1 + 2

    def test_the_next_successful_prerank_removes_what_nothing_reads(self,
                                                                   env):
        cache, kept = env["ws"].cache_dir("t1"), cache_names(env)
        # the per-run layout of older workspaces, and a killed write
        leftovers = [cache / "valid" / f"{kept[0]}", cache / "test" / "x.npy",
                     cache / f"{kept[0]}.tmp"]
        for path in leftovers:
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(b"")
        # a current re-run removes nothing either
        assert pipeline.run_prerank(env["config"], "t1")["up_to_date"] is True
        assert all(path.exists() for path in leftovers)
        record_path(env["tdir"]).unlink()
        assert pipeline.run_prerank(env["config"], "t1")["up_to_date"] is False
        assert cache_names(env) == kept

    def test_a_failed_prerank_removes_nothing(self, env, monkeypatch):
        before = set(cache_names(env))
        stray = env["ws"].cache_dir("t1") / "stray.npy.tmp"
        stray.write_bytes(b"")

        def boom(matrix, params, users, items):
            raise RuntimeError("fit failed")

        monkeypatch.setitem(features.SCORERS, "llr", dataclasses.replace(
            features.SCORERS["llr"], fit=boom))
        scorers = dataclasses.asdict(env["config"].prerank)["scorers"]
        config = make_config(env, scorers=[
            *scorers, {"name": "llr", "combinations": [["t1", "t2"]]}])
        with pytest.raises(StageError, match="scorer runs failed"):
            pipeline.run_prerank(config, "t1")
        assert before | {stray.name} <= set(cache_names(env))
        monkeypatch.undo()
        assert pipeline.run_prerank(config, "t1")["up_to_date"] is False
        assert cache_names(env) == kept_cache_names(config, env["tdir"])
