"""Strict-keyed config tree: parse/serialize identity, typo rejection at
every nesting level, and the validation rules."""

import json
import os
from pathlib import Path

import pytest

from cmrec import util
from cmrec.config import (PipelineConfig, PrerankConfig, RankerConfig,
                          ScorerPlanConfig, SelectionConfig, load_config,
                          save_config)
from cmrec.gbdt import GbdtParams
from cmrec.util import ConfigError

MINIMAL = {
    "data_dir": "data",
    "workspace": "work",
    "markets": ["s1", "s2", "s3", "t1", "t2"],
    "targets": ["t1", "t2"],
}

FULL = {
    **MINIMAL,
    "seed": 42,
    "market_weights": {"t1": 0.33, "t2": 0.67},
    "prerank": {
        "scorers": [
            {"name": "item_cf", "params": {"top_k": 50}},
            {"name": "swing", "params": {"alpha": 1.0},
             "combinations": [["s1", "t1"], ["t1"]]},
        ],
        "stats": False,
        "external_embeddings": "vectors.tsv",
    },
    "selection": {"shift_threshold": 0.2, "cv_epsilon": 0.01, "folds": 3,
                  "n_shuffles": 10,
                  "trainer": {"num_leaves": 7, "n_rounds": 12}},
    "ranker": {"params": {"num_leaves": 63, "learning_rate": 0.05},
               "grid": {"num_leaves": [15, 31], "learning_rate": [0.05, 0.1]},
               "folds": 4},
}


class TestRoundTrip:
    def test_defaults_fill_in(self):
        config = PipelineConfig.from_dict(MINIMAL)
        assert config.seed == 0
        assert config.market_weights is None
        assert [s.name for s in config.prerank.scorers] \
            == ["item_cf", "user_cf", "swing", "llr", "bigraph"]
        assert config.prerank.stats is True
        assert config.selection.folds == 5
        assert config.selection.trainer.num_leaves == 15
        assert config.ranker.folds == 10
        assert config.ranker.grid is None

    def test_parse_serialize_parse_is_identity(self):
        config = PipelineConfig.from_dict(FULL)
        again = PipelineConfig.from_dict(config.to_dict())
        assert again == config
        assert again.to_dict() == config.to_dict()

    def test_full_document_parses_every_field(self):
        config = PipelineConfig.from_dict(FULL)
        assert config.seed == 42
        assert config.market_weights == {"t1": 0.33, "t2": 0.67}
        swing = config.prerank.scorers[1]
        assert swing.combinations == (("s1", "t1"), ("t1",))
        assert config.prerank.external_embeddings == "vectors.tsv"
        assert config.selection.trainer == GbdtParams(num_leaves=7, n_rounds=12)
        assert config.ranker.grid == {"num_leaves": (15, 31),
                                      "learning_rate": (0.05, 0.1)}

    def test_file_round_trip(self, tmp_path):
        config = PipelineConfig.from_dict(FULL)
        save_config(config, tmp_path / "c.json")
        assert load_config(tmp_path / "c.json") == config


class TestUnknownKeys:
    def test_top_level(self):
        with pytest.raises(ConfigError, match="worksace"):
            PipelineConfig.from_dict({**MINIMAL, "worksace": "typo"})

    def test_prerank_level(self):
        with pytest.raises(ConfigError, match="prerank"):
            PipelineConfig.from_dict({**MINIMAL,
                                      "prerank": {"scoers": []}})

    def test_scorer_level(self):
        with pytest.raises(ConfigError, match="item_cf"):
            PipelineConfig.from_dict({**MINIMAL, "prerank": {
                "scorers": [{"name": "item_cf", "prams": {}}]}})

    def test_selection_and_trainer_level(self):
        with pytest.raises(ConfigError, match="selection"):
            PipelineConfig.from_dict({**MINIMAL,
                                      "selection": {"threshold": 0.1}})
        with pytest.raises(ConfigError, match="selection.trainer"):
            PipelineConfig.from_dict({**MINIMAL, "selection": {
                "trainer": {"max_depth": 6}}})

    def test_ranker_params_level(self):
        with pytest.raises(ConfigError, match="ranker.params"):
            PipelineConfig.from_dict({**MINIMAL, "ranker": {
                "params": {"n_estimators": 100}}})

    def test_grid_only_sweeps_leaves_and_rate(self):
        with pytest.raises(ConfigError, match="ranker.grid"):
            PipelineConfig.from_dict({**MINIMAL, "ranker": {
                "grid": {"max_bins": [64, 255]}}})


class TestValidation:
    def test_required_keys(self):
        for key in ("data_dir", "workspace", "markets", "targets"):
            payload = {k: v for k, v in MINIMAL.items() if k != key}
            with pytest.raises(ConfigError, match=key):
                PipelineConfig.from_dict(payload)

    def test_targets_must_be_markets(self):
        with pytest.raises(ConfigError, match="t9"):
            PipelineConfig.from_dict({**MINIMAL, "targets": ["t1", "t9"]})

    def test_duplicate_markets(self):
        with pytest.raises(ConfigError, match="duplicate"):
            PipelineConfig.from_dict({**MINIMAL,
                                      "markets": ["s1", "s1", "t1"],
                                      "targets": ["t1"]})

    def test_weights_must_name_markets(self):
        with pytest.raises(ConfigError, match="t9"):
            PipelineConfig.from_dict({**MINIMAL,
                                      "market_weights": {"t9": 1.0}})

    def test_fold_minimums(self):
        with pytest.raises(ConfigError, match="folds"):
            SelectionConfig(folds=1)
        with pytest.raises(ConfigError, match="folds"):
            RankerConfig(folds=1)
        with pytest.raises(ConfigError, match="n_shuffles"):
            SelectionConfig(n_shuffles=0)

    def test_unknown_scorer_name(self):
        with pytest.raises(ConfigError, match="two_tower"):
            ScorerPlanConfig("two_tower")

    def test_accepts_exactly_the_registry_names(self):
        from cmrec.features import SCORERS
        for name in SCORERS:
            assert ScorerPlanConfig(name).name == name
        for near_miss in ("ItemCF", "item-cf", "node2vec", "embedding"):
            with pytest.raises(ConfigError, match="expected one of"):
                ScorerPlanConfig(near_miss)

    def test_default_plan_is_the_unseeded_registry_entries(self):
        from cmrec.features import SCORERS
        assert [s.name for s in PrerankConfig().scorers] == [
            "item_cf", "user_cf", "swing", "llr", "bigraph"]
        assert all(not SCORERS[s.name].seeded for s in PrerankConfig().scorers)

    def test_combinations_literal(self):
        with pytest.raises(ConfigError, match="default"):
            ScorerPlanConfig("item_cf", combinations="all")

    def test_bad_trainer_value_is_config_error(self):
        with pytest.raises(ConfigError, match="num_leaves"):
            SelectionConfig.from_dict({"trainer": {"num_leaves": 1}})


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_saved_atomically(self, tmp_path, monkeypatch):
        config = PipelineConfig.from_dict(FULL)
        written = []
        real = os.replace

        def recording(src, dst):
            written.append(Path(dst))
            real(src, dst)

        monkeypatch.setattr(util.os, "replace", recording)
        save_config(config, tmp_path / "c.json")
        assert written == [tmp_path / "c.json"]
        assert (tmp_path / "c.json").read_text(encoding="utf-8") == (
            json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")

    def test_defaults_survive_file_round_trip(self, tmp_path):
        config = PipelineConfig.from_dict(MINIMAL)
        save_config(config, tmp_path / "c.json")
        again = load_config(tmp_path / "c.json")
        assert again == config
        assert again.prerank.scorers == config.prerank.scorers
